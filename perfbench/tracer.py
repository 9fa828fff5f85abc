"""Wall-clock spans around the program's public functions, installed from
outside the program.

:class:`Tracer` replaces a function or method on its owning class or module
with a wrapper that records one span per call -- ``(name, start, end,
parent)`` with the parent being the innermost traced call still open -- and
puts the original back on :meth:`Tracer.uninstall`.  Nothing under ``src/``
knows it is being traced, and an untraced run executes the program's code
unchanged.  The benchmark is serial, so spans nest: a span's self time is
its duration minus the durations of its direct children.

Very hot functions (``CrossConnectMap.connect`` runs millions of times per
scheduler run) get a count-only wrapper instead of a span.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]


class Tracer:
    """In-memory span recorder plus per-name counters."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Optional[Callable[[object, tuple], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``observe(result, args)`` runs after each successful call, outside
        the span, to update :attr:`counts`.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children see the parent
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(result, args)
            return result

        self._patch(owner, attr, original, classmethod(traced) if is_classmethod else traced)

    def count_calls(self, owner: type, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name + '.calls'``, no span."""
        original = owner.__dict__[attr]
        counts, key = self.counts, name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner: object, attr: str, original: object, replacement: object) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function back (newest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def by_name(self) -> Dict[str, Dict[str, object]]:
        """Per span name: ``calls``, ``busy_s``, ``self_s`` and the list of
        per-call durations ``durations_s``."""
        spans = self.spans  # every slot is filled once its call returns
        child_s = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, object]] = {}
        for i, (name, start, end, _parent) in enumerate(spans):
            entry = out.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations_s": []}
            )
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_s[i]
            entry["durations_s"].append(end - start)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated ``index name start end parent``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def percentile_ms(durations_s: List[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of the durations, in milliseconds;
    0.0 when there are none."""
    if not durations_s:
        return 0.0
    if len(durations_s) == 1:
        return durations_s[0] * 1e3
    return statistics.quantiles(durations_s, n=100, method="inclusive")[round(q * 100) - 1] * 1e3
