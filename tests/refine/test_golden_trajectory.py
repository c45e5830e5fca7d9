"""Golden regression pin of refine's exact trajectory.

For the first six tiny-dataset instances under the default
``ExperimentConfig`` this pins what three refinement runs of the
``bspg+clairvoyant`` baseline produce: the final cost, the exact schedule
(its digest) and the search counters (proposals, accepted moves, moves the
validator rejected, rounds).  Speed work on :mod:`repro.refine` must keep
every accepted move, so none of these may drift.  If a change intentionally
alters the search, recompute the table and explain the drift in the commit
message.
"""

import pytest

from repro.core.two_stage import baseline_schedule
from repro.experiments.datasets import tiny_dataset
from repro.experiments.runner import ExperimentConfig
from repro.pipeline import schedule_digest
from repro.refine import RefineConfig, Refiner

#: run name -> (strategy, budget, synchronous objective)
RUNS = {
    "hill-sync": ("hill", 3000, True),
    "anneal": ("anneal", 1500, True),
    "hill-async": ("hill", 800, False),
}

# (instance, run) -> (final cost, schedule digest, proposals, accepted,
#                     invalid, rounds)
GOLDEN = {
    ("bicgstab", "hill-sync"): (106.0, "4437c56d87af02ee", 69, 0, 55, 1),
    ("bicgstab", "anneal"): (96.0, "21117da9420aed26", 1500, 86, 1223, 18),
    ("bicgstab", "hill-async"): (76.0, "4437c56d87af02ee", 69, 0, 58, 1),
    ("k-means", "hill-sync"): (119.0, "9b46b47308c54158", 117, 0, 17, 1),
    ("k-means", "anneal"): (110.0, "7f914362aeb0a9c9", 1500, 45, 875, 14),
    ("k-means", "hill-async"): (69.0, "9b46b47308c54158", 117, 0, 30, 1),
    ("pregel", "hill-sync"): (110.0, "8cbac75af22af29e", 170, 3, 63, 2),
    ("pregel", "anneal"): (110.0, "bcfcfa8ed94164f2", 1500, 174, 938, 16),
    ("pregel", "hill-async"): (80.0, "5f161d9a56a36b24", 180, 1, 93, 2),
    ("spmv_N6", "hill-sync"): (106.0, "49fc7c303a636e29", 681, 4, 60, 3),
    ("spmv_N6", "anneal"): (83.0, "dbb64864b6c1596a", 1500, 151, 630, 9),
    ("spmv_N6", "hill-async"): (32.0, "1df473d3938c744c", 463, 1, 11, 2),
    ("spmv_N7", "hill-sync"): (71.0, "ce29d995321f204b", 602, 5, 70, 4),
    ("spmv_N7", "anneal"): (57.0, "a03fc92597bcb62a", 1500, 113, 682, 13),
    ("spmv_N7", "hill-async"): (21.0, "fd25a37484092101", 319, 2, 24, 2),
    ("spmv_N10", "hill-sync"): (84.0, "90febe841c734a4f", 977, 8, 43, 5),
    ("spmv_N10", "anneal"): (64.0, "6c772111062230f6", 1500, 168, 641, 10),
    ("spmv_N10", "hill-async"): (30.0, "01b6c6375e4fe45a", 439, 1, 30, 2),
}


@pytest.fixture(scope="module")
def baselines():
    config = ExperimentConfig()
    return {
        dag.name: baseline_schedule(
            config.instance_for(dag), synchronous=True, seed=config.seed
        ).mbsp_schedule
        for dag in tiny_dataset(limit=6)
    }


@pytest.mark.parametrize(
    "instance,run", list(GOLDEN), ids=[f"{i}-{r}" for i, r in GOLDEN]
)
def test_golden_refine_trajectory(baselines, instance, run):
    strategy, budget, synchronous = RUNS[run]
    config = RefineConfig(
        strategy=strategy, budget=budget, seed=ExperimentConfig().refine.seed
    )
    result = Refiner(config).refine(baselines[instance], synchronous=synchronous)
    observed = (
        result.final_cost,
        schedule_digest(result.schedule),
        result.proposals,
        result.accepted,
        result.invalid,
        result.rounds,
    )
    assert observed == GOLDEN[(instance, run)]


def test_golden_table_covers_the_first_six_tiny_instances():
    names = [dag.name for dag in tiny_dataset(limit=6)]
    assert sorted(GOLDEN) == sorted((n, r) for n in names for r in RUNS)
