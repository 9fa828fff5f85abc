"""The repository benchmark: §4.2.4 scheduling and the streaming serve drill,
timed end to end from outside the program, and per layer in a traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload sched_util --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each timed run is a separate process (``perfbench/worker.py``) that sets up,
makes one timed batch call and checks it.  With ``--trace 0`` processes run
one after another until ``--seconds`` have passed (at least three), and the
end-to-end metrics are medians over them.  With ``--trace 1`` one untraced and
one traced process run on the same inputs; the traced one gives the
per-layer metrics and the difference in call time is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when a correctness check failed and 2 when the benchmark could not run.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, ITEMS_ALIAS, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Set-up time is measured once per process; this many give its median.
MIN_PROCESSES = 3
#: A single process may not take longer than this.
PROCESS_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def spawn(workload: str, seed: int, trace: int, tiny: bool) -> Dict[str, object]:
    """Run one worker process to completion and return its JSON result."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{workload} worker timed out after {err.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, tiny: bool = False
) -> Dict[str, object]:
    """Run one workload and return the result object the benchmark prints,
    plus the ``report`` lines that explain it."""
    if trace:
        base = spawn(workload, seed, 0, tiny)
        traced = spawn(workload, seed, 1, tiny)
        samples = [base, traced]
    else:
        samples = []
        start = time.monotonic()
        while len(samples) < MIN_PROCESSES or time.monotonic() - start < seconds:
            samples.append(spawn(workload, seed, 0, tiny))

    report: List[str] = []
    failed = 0
    for i, sample in enumerate(samples):
        for failure in sample["failures"]:
            report.append(f"CHECK FAILED [{workload} seed {seed} process {i}]: {failure}")
        failed += bool(sample["failures"])
    digests = [s["digests"] for s in samples if not s["failures"]]
    if any(d != digests[0] for d in digests):
        report.append(f"CHECK FAILED [{workload} seed {seed}]: output digests differ between runs")
        failed = max(failed, 1)
    for name, digest in (digests[0] if digests else {}).items():
        report.append(f"digest {workload} seed {seed} {name} {digest}")

    if trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, (unit, _better, _moves, _workloads) in PER_LAYER.items()
        }
        for name, (unit, better, moves, workloads) in PER_LAYER.items():
            report.append(
                f"{name} = {layers[name]!r} {unit} ({better} is better; "
                f"should move {moves} on {'/'.join(workloads)})"
            )
    else:
        series = {
            "setup_s": [s["setup_s"] for s in samples],
            "items_per_s": [s["items"] / s["wall_s"] for s in samples],
            "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        }
        metrics = {}
        for name, (unit, better, what) in END_TO_END.items():
            q1, median, q3 = statistics.quantiles(series[name], n=4, method="inclusive")
            metrics[name] = {"value": median, "unit": unit}
            alias = f" (= {ITEMS_ALIAS[workload]})" if name == "items_per_s" else ""
            report.append(
                f"{name}{alias} = {median!r} {unit} median, quartiles {q1!r} .. {q3!r}, "
                f"n={len(samples)} ({better} is better; {what})"
            )
        report.append(f"batch call wall_s: {[round(s['wall_s'], 4) for s in samples]}")
        for name, value in samples[0]["outputs"].items():
            report.append(f"simulated {name} = {value!r}")
    report.extend(samples[0].get("notes", []))
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": metrics,
        },
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (the benchmark's own test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
            print("\n".join(run["report"]), flush=True)
            results[name] = run["result"]
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
