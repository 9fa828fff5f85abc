"""Unified fabric observability: tracing, metrics, exporters (§3.2.2).

The paper credits production OCS fleets to heavy telemetry/monitoring
investment; Mission Apollo says the same of its qualification loop.
This package is the cross-cutting instrumentation layer every subsystem
reports through:

- :mod:`repro.obs.clock` -- the deterministic :class:`SimClock` spans
  are timed on (and a :class:`WallClock` for perf measurement);
- :mod:`repro.obs.metrics` -- the :class:`MetricsRegistry` of labeled
  counters, gauges, and exponential-bucket histograms;
- :mod:`repro.obs.trace` -- the :class:`Tracer` producing nested,
  reproducible span trees via ``span(name, **attrs)``;
- :mod:`repro.obs.export` -- JSONL exporters (the CI artifacts);
- :mod:`repro.obs.timeseries` -- the streaming windowed-aggregation
  pipeline over timestamped samples (the digital twin's substrate);
- :mod:`repro.obs.drill` -- the seeded, fully-instrumented chaos drill
  behind ``python -m repro.tools.noc run fabric``.

Instrumented code takes an optional :class:`Observability` bundle and
defaults to :data:`NULL_OBS`, whose tracer/registry/clock are shared
no-ops -- hot paths (the vectorized kernels, the injector pump) pay one
attribute lookup and a no-op call when observability is off, keeping the
perf-harness overhead within the <=5% budget and every pre-existing
report digest byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.obs.clock import SimClock, WallClock
from repro.obs.export import (
    SCHEMA_VERSION,
    JsonlRecords,
    export_metrics,
    export_timeline,
    export_trace,
    read_jsonl,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SeriesFamily,
)
from repro.obs.timeseries import (
    Sample,
    TimeSeriesPipeline,
    WindowAggregate,
    WindowSpec,
)
from repro.obs.trace import Span, Tracer


# ---------------------------------------------------------------------- #
# The no-op surface (observability off)
# ---------------------------------------------------------------------- #


class _NullClock:
    """A clock that never moves (and never allocates)."""

    def now(self) -> float:
        return 0.0

    def advance(self, dt_ms: float) -> float:
        del dt_ms
        return 0.0

    def advance_to(self, t_ms: float) -> float:
        del t_ms
        return 0.0


class _NullInstrument:
    """Stands in for Counter, Gauge, and Histogram at once."""

    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> float:
        del amount
        return 0.0

    add = inc

    def set(self, value: float) -> float:
        del value
        return 0.0

    def observe(self, value: float) -> None:
        del value

    def quantile(self, q: float) -> float:
        del q
        return 0.0


class _NullFamily:
    """Bound-series family whose every member is the null instrument."""

    _instrument = _NullInstrument()

    def series(self, *label_values: object) -> _NullInstrument:
        del label_values
        return self._instrument


class _NullRegistry:
    """Get-or-create that always hands back the shared null instrument."""

    _instrument = _NullInstrument()
    _family = _NullFamily()
    num_series = 0

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        del name, labels
        return self._instrument

    gauge = counter

    def histogram(self, name: str, bounds=None, **labels: object) -> _NullInstrument:
        del name, bounds, labels
        return self._instrument

    def handle(self, kind: str, name: str, **labels: object) -> _NullInstrument:
        del kind, name, labels
        return self._instrument

    def family(self, kind: str, name: str, *label_names: str) -> _NullFamily:
        del kind, name, label_names
        return self._family

    def value(self, name: str, **labels: object) -> float:
        del name, labels
        return 0.0

    def counters(self, name=None, **labels: object) -> Tuple[()]:
        del name, labels
        return ()

    def sum_counters(self, name: str, **labels: object) -> float:
        del name, labels
        return 0.0


class _NullSpan:
    """The span yielded when observability is off."""

    name = ""
    attrs: Tuple[()] = ()
    status = "ok"
    duration_ms = 0.0

    def set_attr(self, key: str, value: object) -> None:
        del key, value

    def attr(self, key: str, default=None):
        del key
        return default


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable, reentrant no-op context manager (never swallows)."""

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        del exc_type, exc, tb
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class _NullTracer:
    clock = _NullClock()
    num_spans = 0

    def span(self, name: str, **attrs: object) -> _NullSpanContext:
        del name, attrs
        return _NULL_SPAN_CONTEXT

    def event(self, message: str) -> None:
        del message

    def spans(self) -> Tuple[()]:
        return ()

    def find(self, name=None, **attrs: object) -> Tuple[()]:
        del name, attrs
        return ()

    def slowest(self, k: int = 10, name=None) -> Tuple[()]:
        del k, name
        return ()


# ---------------------------------------------------------------------- #
# The bundle instrumented code carries
# ---------------------------------------------------------------------- #


@dataclass
class Observability:
    """One run's clock + metrics + tracer, handed through constructors.

    Build with :meth:`sim` (deterministic, the default for drills and
    tests), :meth:`wall` (perf measurement), or use :data:`NULL_OBS`
    (shared, disabled).  ``enabled`` lets instrumented code skip
    attribute-building work that only matters when someone is watching.
    """

    clock: SimClock = field(default_factory=SimClock)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(init=False)
    enabled: bool = True

    def __post_init__(self) -> None:
        self.tracer = Tracer(clock=self.clock)

    @classmethod
    def sim(cls) -> "Observability":
        """Deterministic bundle on a fresh simulation clock."""
        return cls()

    @classmethod
    def wall(cls) -> "Observability":
        """Wall-clock bundle for measurement artifacts (perf harness)."""
        return cls(clock=WallClock())  # type: ignore[arg-type]

    def digests(self) -> Tuple[str, str]:
        """(trace digest, metrics digest) -- the determinism fingerprint."""
        return self.tracer.tree_digest(), self.metrics.digest()


class _NullObservability:
    """The disabled bundle: every surface is a shared no-op."""

    clock = _NullClock()
    metrics = _NullRegistry()
    tracer = _NullTracer()
    enabled = False

    def digests(self) -> Tuple[str, str]:
        return ("", "")


#: Shared disabled bundle; ``obs or NULL_OBS`` is the canonical default.
NULL_OBS = _NullObservability()


def resolve_obs(obs: Optional[object]) -> object:
    """Normalize an optional obs argument to a usable bundle."""
    return obs if obs is not None else NULL_OBS


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlRecords",
    "MetricsRegistry",
    "NULL_OBS",
    "Observability",
    "SCHEMA_VERSION",
    "Sample",
    "SeriesFamily",
    "SimClock",
    "Span",
    "TimeSeriesPipeline",
    "Tracer",
    "WallClock",
    "WindowAggregate",
    "WindowSpec",
    "export_metrics",
    "export_timeline",
    "export_trace",
    "read_jsonl",
    "resolve_obs",
    "write_jsonl",
]
