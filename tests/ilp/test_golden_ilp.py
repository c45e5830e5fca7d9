"""Golden regression tests: frozen fingerprints of node-limited ILP members.

These pin :meth:`InstanceResult.fingerprint` of the ILP-solving members
(``baseline|ilp``, ``ilp`` and the two-stage ``bsp-ilp+clairvoyant``) on a
few small seeded DAGs, under the ``scipy`` (HiGHS) backend.  Every solve is
node-limited, so the values are reproducible under load; a node limit of 3
stops most solves at the limit, which also pins the limit-status mapping.

Each member runs twice: outside any cancellation scope (no interrupt
callback installed) and inside a ``cancel_scope`` whose token never fires
(callback installed, never triggered).  Both must match the golden value,
so a solve's result never depends on whether a token happens to be in
scope.  If a change *intentionally* alters ILP results, recompute the
constants below and explain the drift in the commit message.
"""

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import chain_dag, fork_join_dag, iterated_spmv
from repro.experiments.runner import ExperimentConfig
from repro.ilp import CancelToken, cancel_scope
from repro.portfolio import run_member


def _iterated_spmv_dag():
    dag = iterated_spmv(2, 2, seed=1)
    assign_random_memory_weights(dag, seed=11)
    dag.name = "itspmv2x2"
    return dag


def _chain_dag():
    dag = chain_dag(5)
    assign_random_memory_weights(dag, seed=3)
    dag.name = "chain5"
    return dag


def _fork_join_dag():
    dag = fork_join_dag(width=2, stages=2)
    assign_random_memory_weights(dag, seed=5)
    dag.name = "forkjoin2x2"
    return dag


CFG = ExperimentConfig(
    name="ilp-golden",
    num_processors=2,
    ilp_time_limit=30.0,
    ilp_node_limit=3,
    step_cap=4,
    ilp_backend="scipy",
)


def _fingerprint(dag, baseline_cost, ilp_cost, solver_status, extra_costs):
    return {
        "instance_name": dag.name,
        "num_nodes": dag.num_nodes,
        "baseline_cost": baseline_cost,
        "ilp_cost": ilp_cost,
        "solver_status": solver_status,
        "extra_costs": extra_costs,
    }


# (member, dag builder) -> (baseline cost, ilp cost, solver status, extra costs)
GOLDEN = {
    ("baseline|ilp", _iterated_spmv_dag): (
        76.0, 43.0, "feasible", {"warm_started": 0.0, "member_cost": 43.0}),
    ("baseline|ilp", _chain_dag): (
        29.0, 29.0, "feasible", {"warm_started": 1.0, "member_cost": 29.0}),
    ("baseline|ilp", _fork_join_dag): (
        48.0, 33.0, "feasible", {"warm_started": 0.0, "member_cost": 33.0}),
    ("ilp", _iterated_spmv_dag): (76.0, 43.0, "feasible", {"member_cost": 43.0}),
    ("ilp", _chain_dag): (29.0, 29.0, "feasible", {"member_cost": 29.0}),
    ("ilp", _fork_join_dag): (48.0, 33.0, "feasible", {"member_cost": 33.0}),
    ("bsp-ilp+clairvoyant", _iterated_spmv_dag): (
        60.0, 60.0, "schedule:5ad3af83fdbcc47f", {"member_cost": 60.0}),
    ("bsp-ilp+clairvoyant", _chain_dag): (
        29.0, 29.0, "schedule:dda465882057a365", {"member_cost": 29.0}),
    ("bsp-ilp+clairvoyant", _fork_join_dag): (
        33.0, 33.0, "schedule:3314af27367f5666", {"member_cost": 33.0}),
}


@pytest.mark.parametrize("in_scope", [False, True], ids=["no-scope", "cancel-scope"])
@pytest.mark.parametrize(
    "member,builder,expected",
    [key + (value,) for key, value in GOLDEN.items()],
    ids=[f"{member}-{builder.__name__.strip('_')}" for member, builder in GOLDEN],
)
def test_golden_ilp_fingerprint(member, builder, expected, in_scope):
    dag = builder()
    if in_scope:
        with cancel_scope(CancelToken()):
            result = run_member(dag, CFG, member)
    else:
        result = run_member(dag, CFG, member)
    assert result.fingerprint() == _fingerprint(dag, *expected)
