"""Measurement child process of the benchmark (started by ``run.py``).

``measure.py setup W SEED SIZE`` imports the package and builds workload
``W``'s inputs in this fresh process, then prints the two timings as JSON.

``measure.py run W SEED SIZE SECONDS TRACE`` builds the inputs, runs timed
repetitions for ``SECONDS`` seconds, checks every repetition's output
outside the timed interval and prints one JSON object.
With ``TRACE`` 1 the first half of the time is untraced and the second half
traced, which yields the per-layer table and the tracing overhead.

``measure.py probe`` is the machine-speed probe that ``run`` starts for
CPU-bound workloads: it times a fixed reference kernel each time it reads
a line, and exits on ``exit`` or end of input.
"""

from __future__ import annotations

import contextlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE.parent / ".perfbench_work"
#: The reference kernel's time on the machine state the throughputs of
#: CPU-bound workloads are normalized to (about its median on a 2-vCPU Xeon
#: virtual machine).
REFERENCE_S = 0.3
#: After each repetition the probe runs until its time reaches this share
#: of the repetition's wall time, so both sample the same machine states.
PROBE_SHARE = 0.6


def reference_kernel() -> float:
    """A fixed piece of allocation-heavy Python work (tuples, a dict, a
    sort, lookups, like the program's own); returns its wall time."""
    start = time.perf_counter()
    rng = random.Random(1)
    counts, records = {}, []
    for i in range(160_000):
        key = (i % 1000, i % 7)
        counts[key] = counts.get(key, 0) + 1
        records.append((rng.random(), i, key))
    records.sort()
    total = 0
    for record in records:
        total += counts[record[2]]
    return time.perf_counter() - start


def probe() -> None:
    for line in sys.stdin:
        if line.strip() == "exit":
            break
        print(reference_kernel(), flush=True)


class SpeedProbe:
    """The reference kernel in processes of their own, so the program's heap
    and garbage collector do not slow it and it adds nothing to the
    measuring process's peak memory.

    On a shared 2-vCPU virtual machine the speed of a process changed by up
    to 1.7x within seconds and by 20-30 % between runs minutes apart.
    Timing the kernel between the repetitions and dividing by its mean time
    tracks that drift: the ratio of program to kernel time is what the
    throughputs of CPU-bound workloads report, scaled to ``REFERENCE_S``.
    As many kernels run at once as the workload runs worker processes, so
    they load the same CPUs.
    """

    def __init__(self, processes: int) -> None:
        self.times = []
        self.procs = []
        for _ in range(processes):
            self.procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "measure.py"), "probe"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            ))

    def follow(self, wall: float) -> None:
        """Run the kernels until their mean time reaches ``PROBE_SHARE * wall``."""
        spent = 0.0
        while spent == 0.0 or spent < PROBE_SHARE * wall:
            for proc in self.procs:
                proc.stdin.write("run\n")
                proc.stdin.flush()
            lines = [proc.stdout.readline() for proc in self.procs]
            if not all(lines):
                raise RuntimeError("the speed probe exited early")
            self.times.append(statistics.fmean(map(float, lines)))
            spent += self.times[-1]

    def slowdown(self, start: int = 0) -> float:
        """Mean kernel time from sample ``start`` on, over ``REFERENCE_S``:
        above 1 when the machine ran slower than the reference state."""
        return statistics.fmean(self.times[start:]) / REFERENCE_S

    def close(self) -> None:
        for proc in self.procs:
            try:
                proc.stdin.write("exit\n")
                proc.stdin.close()
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def setup(name: str, seed: int, size_name: str) -> dict:
    # the kernel runs first, before the package is loaded, so nothing the
    # package does changes its time
    slowdown = reference_kernel() / REFERENCE_S
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    workloads.WORKLOADS[name](seed, getattr(workloads, size_name))
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "inputs_s": t2 - t1, "slowdown": slowdown}


class Tally:
    """Outcome of every checked repetition."""

    def __init__(self, workload, probe=None) -> None:
        self.workload = workload
        self.probe = probe
        self.walls = []
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.cost_ratios = []
        self.improved = []

    def rep(self, scope=contextlib.nullcontext) -> None:
        with scope():
            start = time.perf_counter()
            self.workload.run()
            wall = time.perf_counter() - start
        failed, messages = self.workload.check()
        self.attempted += self.workload.jobs
        self.failed += failed
        self.messages += messages
        if not messages:
            self.cost_ratios.append(self.workload.cost_ratio())
            self.improved.append(self.workload.ilp_improved_frac())
        self.walls.append(wall)
        if self.probe is not None:
            self.probe.follow(wall)


def repeat(step, seconds: float) -> None:
    """Call ``step`` until ``seconds`` of wall time have passed.  The
    repetitions, their checks and the speed probe all count, and a
    repetition is never cut."""
    end = time.perf_counter() + seconds
    while True:
        step()
        if time.perf_counter() >= end:
            return


def run(name: str, seed: int, size_name: str, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name](seed, getattr(workloads, size_name))
    speed = SpeedProbe(workload.workers) if workload.cpu_bound else None
    try:
        return measured_run(workload, speed, seconds, trace)
    finally:
        if speed is not None:
            speed.close()


def measured_run(workload, speed, seconds: float, trace: bool) -> dict:
    tally = Tally(workload, speed)
    repeat(tally.rep, seconds / 2 if trace else seconds)
    if speed is None:
        normalized = statistics.median(tally.walls)
    else:
        normalized = statistics.fmean(tally.walls) / speed.slowdown()
    metrics = {
        "jobs_per_s": workload.jobs / normalized,
        "requests_per_s": workload.requests / normalized,
        "cost_ratio_geomean": (
            statistics.median(tally.cost_ratios) if tally.cost_ratios else 0.0
        ),
        "ilp_improved_frac": statistics.median(tally.improved) if tally.improved else 0.0,
    }
    out = {"slowdown": speed.slowdown() if speed else None}
    if trace:
        first = len(speed.times) if speed else 0
        out["table"], layer_metrics, net_walls = traced(tally, seconds / 2)
        if speed is None:
            traced_wall = statistics.median(net_walls)
        else:
            traced_wall = statistics.fmean(net_walls) / speed.slowdown(first)
        layer_metrics["obs.trace_overhead_frac"] = traced_wall / normalized - 1
        metrics.update(layer_metrics)
    out.update(
        attempted=tally.attempted,
        failed=tally.failed,
        messages=tally.messages[:20],
        walls=tally.walls,
        metrics=metrics,
    )
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics["peak_rss_mb"] = usage / 1024.0
    return out


def traced(tally: Tally, seconds: float):
    """Traced repetitions: the self-time table, the per-layer metrics and
    each repetition's traced wall time without its checks."""
    import os

    from layers import ROOT_SPAN, LayerTable, install_wrappers
    from repro import obs

    install_wrappers()
    table = LayerTable()
    net_walls = []
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="trace-", dir=WORK_DIR)
    try:
        def step() -> None:
            spill = tempfile.mkdtemp(dir=work)

            @contextlib.contextmanager
            def scope():
                with obs.trace_scope(spill_dir=spill):
                    with obs.trace_span(ROOT_SPAN, category="bench"):
                        yield

            tally.rep(scope)
            # the tracer keeps its spill file open across scopes; close it so
            # the next repetition spills into its own directory
            obs.get_tracer().close()
            before = table.by_layer.get("bench.check", 0.0)
            wall = table.add(obs.collect_spans(spill), os.getpid())
            net_walls.append(wall - (table.by_layer.get("bench.check", 0.0) - before))

        repeat(step, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    tally.failed += len(table.check_failures)
    tally.messages += table.check_failures
    return table.rows(), table.metrics(), net_walls


def main(argv) -> int:
    if argv[0] == "probe":
        probe()
        return 0
    mode, name, seed, size_name = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "setup":
        print(json.dumps(setup(name, seed, size_name)))
    else:
        seconds, trace = float(argv[4]), argv[5] == "1"
        print(json.dumps(run(name, seed, size_name, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
