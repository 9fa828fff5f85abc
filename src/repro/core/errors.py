"""Exception hierarchy for the reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate by subsystem.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """A topology is malformed (bad shape, unknown port, broken invariant)."""


class CrossConnectError(TopologyError):
    """A cross-connect operation would violate the bijection invariant."""


class PortInUseError(CrossConnectError):
    """A port that is already part of a circuit was reused."""


class CapacityError(ReproError):
    """A resource request exceeds available capacity (ports, cubes, OCSes).

    Carries optional context for programmatic handling by remediation
    code: ``degraded_circuit`` is the (north, south) circuit that needed
    the capacity, ``attempted_spares`` the spare ports that were tried
    and rejected before giving up.
    """

    def __init__(
        self,
        message: str = "",
        *,
        degraded_circuit=None,
        attempted_spares=(),
    ) -> None:
        super().__init__(message)
        self.degraded_circuit = degraded_circuit
        self.attempted_spares = tuple(attempted_spares)


class SchedulingError(ReproError):
    """The scheduler cannot satisfy a slice request."""


class ServeError(ReproError):
    """The serving layer violated one of its invariants (replay
    divergence, double-terminal outcome, non-monotonic service time)."""


class LinkBudgetError(ReproError):
    """An optical path does not close its link budget."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class FaultInjectionError(ReproError):
    """A fault event is malformed or cannot be applied to its target."""


class TransactionError(ReproError):
    """A control-plane transaction could not program a switch.

    The resilient front end raises it when one switch's retries are
    exhausted; the transaction loop then raises its
    :class:`PartialTransactionError` subclass from it, after rolling the
    programmed switches back.

    Attributes:
        ocs_id: the switch whose programming could not be completed.
        attempts: RPC attempts made against that switch before giving up.
        rolled_back: whether previously-applied switches were restored to
            their exact pre-transaction state.
    """

    def __init__(
        self, message: str = "", *, ocs_id=None, attempts: int = 0, rolled_back: bool = False
    ) -> None:
        super().__init__(message)
        self.ocs_id = ocs_id
        self.attempts = attempts
        self.rolled_back = rolled_back


class PartialTransactionError(TransactionError):
    """A multi-OCS transaction failed with some switches already programmed.

    Raised by :meth:`repro.core.fabric_manager.FabricManager.transact`,
    the one per-switch transaction loop, so by every front end that
    commits through it: the manager's ``reconfigure`` and
    ``reconfigure_delta``, ``DurableController.reconfigure`` and
    ``ResilientReconfigurer.reconfigure``.  The loop rolls the
    already-applied switches back by their inverse plans before raising
    from the cause; ``rolled_back`` reports whether every one of them is
    back at its plan's pre-image.

    Attributes:
        applied: switches that had been programmed before the failure
            (and were restored when ``rolled_back`` is True).
        unapplied: switches never reached, including the failing one.
    """

    def __init__(self, message: str = "", *, applied=(), unapplied=(), **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.applied = tuple(applied)
        self.unapplied = tuple(unapplied)


class WalError(ReproError):
    """A write-ahead-log record is malformed (bad frame, checksum mismatch)."""

    def __init__(self, message: str = "", *, offset: int = -1) -> None:
        super().__init__(message)
        self.offset = offset


class RecoveryError(ReproError):
    """Controller crash recovery could not reach a consistent state."""


class IdempotencyError(ReproError):
    """An idempotency token was presented after its table entry was
    evicted: the controller can no longer tell a retry of a committed
    mutation from a new request, so re-executing would risk a silent
    double-apply.  Size ``token_table_cap`` above the maximum in-flight
    retry window instead of retrying through this error."""


class ReplicationError(ReproError):
    """Base class for replicated-control-plane failures."""


class NotLeaderError(ReplicationError):
    """A mutation was routed to a replica that is not the current leader
    (or whose lease has lapsed); redirect to the leader and retry."""


class FencingError(ReplicationError):
    """A write carried a stale fencing token (epoch): the writer was
    deposed after the write left it, and applying it would double-apply
    against the new leader's history.  The write must be rejected, never
    merged."""


class QuorumError(ReplicationError):
    """The replica group could not assemble a quorum (election or
    commit): too many peers are down, partitioned away, or promised to a
    higher epoch."""


class ControllerCrash(ReproError):
    """An injected controller crash (``FaultKind.CONTROLLER_CRASH``).

    Raised at an instrumented crash point inside the durable control
    plane; drills catch it, then recover from the WAL.

    Attributes:
        step: the instrumented step index at which the crash fired.
        label: the crash point's label (e.g. ``wal-append`` / ``hw-apply``).
    """

    def __init__(self, message: str = "", *, step: int = -1, label: str = "") -> None:
        super().__init__(message)
        self.step = step
        self.label = label
