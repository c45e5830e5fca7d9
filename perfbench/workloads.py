"""The benchmark's three workloads: seeded inputs, one timed repetition each,
and the output checks that run outside the timed interval.

Every workload uses the paper's base machine (``ExperimentConfig``
defaults: P=4, r=3*r0, g=1, L=10, synchronous cost).  A workload object is
built from the workload seed alone; the program only ever sees the inputs
generated here.

* ``heuristic`` -- the two-stage baselines plus refine over seeded copies of
  the small dataset's family shapes, through ``Session(workers=2)``.
* ``ilp-budget`` -- ``baseline|ilp`` over the tiny dataset's shapes at a
  1 s per-solve wall budget, ``Session(workers=1)``.  Seed 0 reproduces
  ``tiny_dataset()`` exactly.
* ``serve`` -- ``run_serve_bench`` with the ``benchmarks/BENCH_serve.json``
  configuration; the seed is the arrival-trace seed, and seed 0 must
  reproduce the pinned SLO block and trace digest byte for byte.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

# The pipeline modules are otherwise imported lazily by the first job.  The
# Session forks a fresh worker pool per run, so without these imports every
# repetition would pay them again in each worker, and the traced repetitions
# (whose wrappers import them in this process) would not.
import repro.core.encoding  # noqa: F401
import repro.portfolio.members  # noqa: F401
from repro.dag.analysis import assign_random_memory_weights
from repro.exec import RunPlan, Session
from repro.experiments.datasets import (
    MEMORY_WEIGHT_SEED,
    small_dataset_specs,
    tiny_dataset_specs,
)
from repro.experiments.parallel import ExperimentJob
from repro.experiments.runner import ExperimentConfig, InstanceResult
from repro.serve import ScheduleService, run_serve_bench
from repro.theory.bounds import instance_lower_bound

ROOT = Path(__file__).resolve().parent.parent
BENCH_SERVE = ROOT / "benchmarks" / "BENCH_serve.json"

BASELINE_MEMBER = "bspg+clairvoyant"
HEURISTIC_MEMBERS = (BASELINE_MEMBER, "cilk+lru", "bspg+clairvoyant|refine")
ILP_MEMBER = "baseline|ilp"
ILP_TIME_LIMIT = 1.0
SERVE_KWARGS = dict(rate=4.0, servers=2, dataset="tiny", scale="default", limit=6)


@dataclass(frozen=True)
class Size:
    """How much work one repetition does (reduced only by the smoke test)."""

    copies: int = 5            # heuristic: copies of the 10 small shapes
    shapes: int = 0            # 0 = every shape of the dataset
    ilp_copies: int = 2        # ilp-budget: copies of the 13 tiny shapes
    ilp_time_limit: float = ILP_TIME_LIMIT
    requests: int = 100_000    # serve: arrivals per replay


FULL = Size()
SMOKE = Size(copies=1, shapes=2, ilp_copies=1, ilp_time_limit=0.2, requests=2_000)


def _weight_seed(name: str, seed: int, copy: int) -> int:
    """Seed 0, copy 0 is the dataset's own weight seed for ``name``."""
    base = MEMORY_WEIGHT_SEED + zlib.crc32(name.encode("utf-8")) % 10_000
    return base + 10_000 * (1000 * seed + copy)


def _seeded_dags(specs, seed: int, copies: int) -> list:
    dags = []
    for copy in range(copies):
        for spec in specs:
            dag = spec.builder()
            dag.name = spec.name if copy == 0 else f"{spec.name}~{copy}"
            assign_random_memory_weights(
                dag, low=1, high=5, seed=_weight_seed(spec.name, seed, copy)
            )
            dags.append(dag)
    return dags


def _limit(specs, size: Size):
    return specs[: size.shapes] if size.shapes else specs


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def result_errors(
    result: InstanceResult, config: ExperimentConfig, dag
) -> List[str]:
    """Why ``result`` is wrong (empty when it passes every check)."""
    name = result.instance_name
    errors = []
    parts = [part.strip() for part in result.solver_status.split(";")]
    if any(part.startswith(("error", "inapplicable")) for part in parts):
        errors.append(f"{name}: status {result.solver_status!r}")
    if not math.isfinite(result.ilp_cost):
        errors.append(f"{name}: cost {result.ilp_cost}")
        return errors
    bound = instance_lower_bound(config.instance_for(dag), synchronous=True)
    if result.ilp_cost < bound - 1e-9:
        errors.append(f"{name}: cost {result.ilp_cost} below lower bound {bound}")
    if result.ilp_cost > result.baseline_cost + 1e-9:
        errors.append(
            f"{name}: cost {result.ilp_cost} worse than its baseline "
            f"{result.baseline_cost}"
        )
    return errors


class PortfolioWorkload:
    """A fixed batch of (instance, member) jobs run through one Session."""

    def __init__(self, dags, members, config: ExperimentConfig, workers: int):
        self.dags = dags
        self.members = members
        self.config = config
        self.workers = workers
        self.plan = RunPlan.from_jobs(
            [
                ExperimentJob.make("portfolio", dag, config, member=member)
                for dag in dags
                for member in members
            ]
        )
        self.jobs = len(self.plan)
        self.requests = len(dags)
        self.results: List[InstanceResult] = []

    def run(self) -> None:
        self.results = Session(workers=self.workers).run(self.plan)

    def by_instance(self) -> Dict[str, Dict[str, InstanceResult]]:
        table: Dict[str, Dict[str, InstanceResult]] = {}
        results = iter(self.results)
        for dag in self.dags:
            table[dag.name] = {member: next(results) for member in self.members}
        return table

    def check(self) -> Tuple[int, List[str]]:
        """``(failed jobs, messages)`` for the last repetition."""
        if len(self.results) != self.jobs:
            return self.jobs, [f"{len(self.results)} results for {self.jobs} jobs"]
        failed, messages = 0, []
        table = self.by_instance()
        for dag in self.dags:
            for member, result in table[dag.name].items():
                errors = result_errors(result, self.config, dag)
                failed += bool(errors)
                messages += [f"{member} {e}" for e in errors]
        return failed, messages


class HeuristicWorkload(PortfolioWorkload):
    cpu_bound = True

    def __init__(self, seed: int, size: Size = FULL):
        specs = _limit(small_dataset_specs(), size)
        super().__init__(
            _seeded_dags(specs, seed, size.copies),
            HEURISTIC_MEMBERS,
            ExperimentConfig(name="perfbench"),
            workers=2,
        )

    def cost_ratio(self) -> float:
        """Geomean over instances of best member cost / bspg+clairvoyant cost."""
        return geomean(
            min(r.ilp_cost for r in row.values()) / row[BASELINE_MEMBER].ilp_cost
            for row in self.by_instance().values()
        )

    def ilp_improved_frac(self) -> float:
        return 0.0


class IlpBudgetWorkload(PortfolioWorkload):
    # most of the time is HiGHS running to its wall budget, which does not
    # scale with the machine's speed
    cpu_bound = False

    def __init__(self, seed: int, size: Size = FULL):
        specs = _limit(tiny_dataset_specs(), size)
        super().__init__(
            _seeded_dags(specs, seed, size.ilp_copies),
            (ILP_MEMBER,),
            ExperimentConfig(
                name="perfbench",
                ilp_time_limit=size.ilp_time_limit,
                ilp_node_limit=None,
            ),
            workers=1,
        )

    def cost_ratio(self) -> float:
        """Geomean over instances of ILP result cost / baseline cost."""
        return geomean(r.ilp_cost / r.baseline_cost for r in self.results)

    def ilp_improved_frac(self) -> float:
        improved = sum(1 for r in self.results if r.ilp_cost < r.baseline_cost)
        return improved / len(self.results)


class ServeWorkload:
    """One replay of the pinned serve bench configuration."""

    cpu_bound = True
    workers = 1

    def __init__(self, seed: int, size: Size = FULL):
        from repro.serve import ArrivalConfig, generate_requests, request_pool

        self.seed = seed
        self.size = size
        arrivals = ArrivalConfig(
            seed=seed,
            requests=size.requests,
            rate=SERVE_KWARGS["rate"],
            dataset=SERVE_KWARGS["dataset"],
            scale=SERVE_KWARGS["scale"],
            limit=SERVE_KWARGS["limit"],
        )
        self.pool = request_pool(arrivals)
        self.trace = generate_requests(arrivals, len(self.pool))
        self.requests = len(self.trace)
        self.jobs = self.requests  # every request is answered by one job result
        self.summary: Dict[str, object] = {}
        self.report = None
        self.answered: Counter = Counter()  # requests per job key

    def run(self) -> None:
        reports = []
        original = ScheduleService.run

        def capture(service):
            report = original(service)
            reports.append(report)
            return report

        ScheduleService.run = capture
        try:
            self.summary = run_serve_bench(
                seed=self.seed,
                requests=self.size.requests,
                workers=self.workers,
                **SERVE_KWARGS,
            )
        finally:
            ScheduleService.run = original
        self.report = reports[0]

    def check(self) -> Tuple[int, List[str]]:
        """``(failed requests, messages)`` for the last replay.  A request
        fails when the job answering it fails; a replay that does not match
        the pinned summary fails every request."""
        report = self.report
        config = report.config.experiment
        self.answered = Counter(record.key for record in report.records)
        failed, messages = 0, []
        for key, result in report.results.items():
            errors = result_errors(result, config, report.jobs[key].dag())
            failed += self.answered[key] if errors else 0
            messages += errors
        unjoined = sum(1 for record in report.records if not math.isfinite(record.cost))
        if unjoined:
            messages.append(f"{unjoined} requests have no finite cost")
            failed = max(failed, unjoined)
        if len(report.records) != self.requests:
            messages.append(f"{len(report.records)} requests answered of {self.requests}")
            failed = self.requests
        if self.seed == 0 and self.size.requests == FULL.requests:
            pinned = json.loads(BENCH_SERVE.read_text())
            for field in ("slo", "trace_digest"):
                got = json.dumps(self.summary[field], sort_keys=True, indent=2)
                want = json.dumps(pinned[field], sort_keys=True, indent=2)
                if got != want:
                    messages.append(f"serve {field} differs from {BENCH_SERVE.name}")
                    failed = self.requests
        return failed, messages

    def cost_ratio(self) -> float:
        """Geomean over requests of served cost / bspg+clairvoyant cost."""
        results = self.report.results
        logs = sum(
            count * math.log(results[key].ilp_cost / results[key].baseline_cost)
            for key, count in self.answered.items()
        )
        return math.exp(logs / sum(self.answered.values()))

    def ilp_improved_frac(self) -> float:
        return 0.0


WORKLOADS = {
    "heuristic": HeuristicWorkload,
    "ilp-budget": IlpBudgetWorkload,
    "serve": ServeWorkload,
}
