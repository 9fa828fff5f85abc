"""One timed run in its own process: set up, make one timed batch call,
check it, and print the result as one JSON line.

Started by ``perfbench/run.py`` (``python3 -m perfbench.worker ...`` from the
checkout root), so ``setup_s`` and ``peak_rss_mb`` belong to this run alone.
``--t0`` is the parent's ``time.monotonic()`` just before the spawn; on Linux
that clock is shared by all processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.metrics import layer_metrics
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, install_layers

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    workload.load()
    import_s = time.perf_counter() - start
    tracer = None
    traced_from = time.perf_counter()
    if args.trace:
        tracer = Tracer()
        install_layers(tracer)
    state = workload.setup(args.seed, args.tiny)

    setup_s = time.monotonic() - args.t0
    start = time.perf_counter()
    try:
        out = workload.call(state)
    except Exception:  # a failed operation is reported, not a crash
        out = None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    # Per-layer figures cover set-up and the timed call: ``traced_s`` is
    # the wall time from installing the wrappers to removing them.
    traced_s = time.perf_counter() - traced_from
    result = {"setup_s": setup_s, "wall_s": wall_s, "traced_s": traced_s}
    if out is None:
        sys.stderr.write(error)
        result.update(failures=[error.strip().splitlines()[-1]], items=0, digests={}, outputs={})
    else:
        result.update(workload.check(state, out))
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["outputs"], import_s)
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    # Linux reports ru_maxrss in KiB.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
