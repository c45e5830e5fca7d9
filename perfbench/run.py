"""The repository benchmark: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload heuristic --seed 0 --seconds 26 --trace 0

``--trace 0`` prints every end-to-end metric with its unit; ``--trace 1``
prints the per-span self-time table and the per-layer metrics.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in this
directory for the workloads and metrics.

This process imports nothing from the package.  It starts fresh processes
(``measure.py``): several that time a reference kernel, then only import the
package and build the inputs (the set-up time), then one that measures.  The
package is found under ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heuristic", "ilp-budget", "serve")
SETUP_PROBES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "requests_per_s": "1/s",
    "cost_ratio_geomean": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
#: Printed in the end-to-end table but not gated: ``error_rate`` is 0 on a
#: correct run and ``ilp_improved_frac`` moves in steps of 1/26 between seeds.
REPORTED_ONLY = {"error_rate": "ratio", "ilp_improved_frac": "ratio"}


PER_LAYER = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "bsp.calls": "count",
    "bsp.self_s": "s",
    "cache.calls": "count",
    "cache.self_s": "s",
    "model.validate.self_s": "s",
    "model.cost.self_s": "s",
    "refine.calls": "count",
    "refine.self_s": "s",
    "refine.proposals": "count",
    "refine.accepted": "count",
    "refine.invalid_frac": "ratio",
    "pipeline.self_s": "s",
    "exec.jobs": "count",
    "exec.session.self_s": "s",
    "exec.job.p50_ms": "ms",
    "exec.job.p90_ms": "ms",
    "exec.job.samples": "count",
    "exec.job.queued_wait_s": "s",
    "core.ilp_build.self_s": "s",
    "ilp.compile.self_s": "s",
    "core.extract.self_s": "s",
    "ilp.solve.calls": "count",
    "ilp.solve.self_s": "s",
    "ilp.solve.overrun_s": "s",
    "ilp.solve.incumbent_frac": "ratio",
    "ilp.solve.nodes": "count",
    "ilp.solve.mip_gap_mean": "ratio",
    "ilp_improved_frac": "ratio",
    "serve.generate.self_s": "s",
    "serve.simulate.self_s": "s",
    "serve.execute.self_s": "s",
    "serve.join.self_s": "s",
    "serve.report.self_s": "s",
    "serve.distinct_jobs": "count",
    "bench.check_s": "s",
    "unattributed_s": "s",
    "obs.trace_overhead_frac": "ratio",
}


def child_env() -> dict:
    """The measuring processes see the package and none of its REPRO_*
    settings, so every run measures the same configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def call(args, deadline: float) -> dict:
    """Run ``measure.py args`` and return the JSON object it prints.
    Raises on failure or when the deadline passes."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("out of time before starting a measuring process")
    # a session of its own, so a timeout also stops the Session's workers
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *map(str, args)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(map(str, args))} exited {proc.returncode}")
    return json.loads(stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced inputs and one set-up probe (the harness's own test)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    size = "SMOKE" if args.smoke else "FULL"
    units = PER_LAYER if args.trace else END_TO_END

    probes = [
        call(["setup", args.workload, args.seed, size], deadline)
        for _ in range(1 if args.smoke else SETUP_PROBES)
    ]
    measured = call(
        ["run", args.workload, args.seed, size, args.seconds, args.trace], deadline
    )
    values = dict(measured["metrics"])
    # set-up times are normalized by the reference kernel each probe timed,
    # like the throughputs (see measure.SpeedProbe)
    setup_slowdown = statistics.median(p["slowdown"] for p in probes)
    values["setup.import_s"] = statistics.median(p["import_s"] for p in probes) / setup_slowdown
    values["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes) / setup_slowdown
    values["setup_s"] = (
        statistics.median(p["import_s"] + p["inputs_s"] for p in probes) / setup_slowdown
    )
    attempted, failed = measured["attempted"], min(measured["failed"], measured["attempted"])
    values["error_rate"] = failed / attempted
    values["success_rate"] = 1.0 - values["error_rate"]

    walls = measured["walls"]
    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  failed {failed}")
    print(f"{len(walls)} timed repetitions, wall s: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"reference kernel slowdown in set-up {setup_slowdown:.4f} "
          f"(set-up times are divided by it)")
    if measured["slowdown"] is not None:
        print(f"reference kernel slowdown {measured['slowdown']:.4f} "
              f"(throughputs are divided by it)")
    for message in measured["messages"]:
        print(f"  check failed: {message}")
    if args.trace:
        print("\n".join(measured["table"]))
    shown = units if args.trace else {**END_TO_END, **REPORTED_ONLY}
    for name, unit in shown.items():
        print(f"{name:28s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not measured["messages"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
