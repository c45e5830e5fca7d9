"""Golden equivalence: legacy member names vs. the pipeline runner.

The ``repro.pipeline`` redesign deleted the hand-written per-member dispatch
(``_run_ilp_member`` / ``_two_stage_member`` / ``_run_refined_member``) and
replaced every portfolio member with a declarative spec executed by one
generic runner.  These tests pin that the replacement is *behaviour
preserving*: ``golden_member_fingerprints.json`` holds the
``InstanceResult`` fingerprints the pre-redesign dispatch produced for every
legacy member name, and the **pipeline path**
(:func:`repro.portfolio.run_member`, and the Session route in front of it)
must reproduce them byte for byte.

The reference dispatch itself used to live in this module, frozen
verbatim; it called the hand-written table runners (``run_instance``,
``run_divide_and_conquer_instance``), so it was captured into the JSON file
before those runners were deleted.  Every case was captured: the spmv DAG
(all members), the single-processor chain, the bound-pruned results, the
slow tiny-dataset sweep and the pruned ``dac+refine`` of
:class:`TestKnownDivergence`.

All ILP solves are node-limited with a step cap under the ``scipy``
backend, so the comparison is exact and reproducible under load.  The
single intentional divergence is pinned in :class:`TestKnownDivergence`: a
*pruned* ``dac+refine`` now keeps the dac stage's ``parts`` diagnostic in
``extra_costs`` (the old path dropped it).
"""

import json
from pathlib import Path

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import chain_dag, spmv
from repro.experiments.runner import ExperimentConfig
from repro.portfolio import available_members, run_member
from repro.refine import RefineConfig

PRUNED_STATUS_PREFIX = "skipped:"

GOLDEN = json.loads(
    Path(__file__).with_name("golden_member_fingerprints.json").read_text()
)


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def _roundtrip(dag):
    """Normalize a DAG through the job serialization round trip.

    Engine/session jobs have always shipped DAGs in their plain-dict form
    (``ExperimentJob.dag_data``); schedulers whose tie-breaking follows
    node iteration order (cilk work stealing) only reproduce the pins when
    they see the graph in the order it was captured with.
    """
    from repro.dag.io import dag_from_dict, dag_to_dict

    return dag_from_dict(dag_to_dict(dag))


def _spmv_dag():
    dag = spmv(3, seed=1)
    assign_random_memory_weights(dag, seed=11)
    dag.name = "spmv_eq"
    return _roundtrip(dag)


# node-limited, step-capped solves: exactly reproducible under load, and
# cheap enough that every member runs in the tier-1 suite; the backend is
# fixed because the pins are HiGHS results
CFG = ExperimentConfig(
    name="pipeline-equivalence",
    num_processors=2,
    ilp_time_limit=30.0,
    ilp_node_limit=30,
    step_cap=4,
    ilp_backend="scipy",
    refine=RefineConfig(budget=300),
)
P1 = CFG.variant(num_processors=1)


def session_run_member(dag, config, member, prune_gap=None):
    """Evaluate one member through the Session-backed execution path.

    This is the production route since the ``repro.exec`` redesign: the
    member becomes a one-node run plan executed by a
    :class:`~repro.exec.Session` (exactly what the engine shim, the
    portfolio and ``repro exec run`` submit), so the golden comparison
    below pins the *whole* Session path byte-identical to the historical
    dispatch — not merely the pipeline runner.
    """
    from repro.exec import Session, plan_pipelines

    plan = plan_pipelines([member], [dag], config, prune_gap=prune_gap)
    return Session().run(plan)[0]


@pytest.mark.parametrize("member", available_members())
def test_legacy_member_fingerprints_identical(member):
    new = session_run_member(_spmv_dag(), CFG, member)
    assert new.fingerprint() == GOLDEN["spmv"][member]


@pytest.mark.parametrize(
    "member", ["dfs+clairvoyant", "dfs+clairvoyant+refine", "ilp", "ilp+refine"]
)
def test_single_processor_fingerprints_identical(member):
    new = run_member(chain_dag(5), P1, member)
    assert new.fingerprint() == GOLDEN["single_processor"][member]


@pytest.mark.parametrize(
    "member", ["ilp", "ilp+refine", "bspg+clairvoyant+refine"]
)
def test_pruned_fingerprints_identical(member):
    """Bound-pruned results (skip status, extras) match the old path too —
    through the Session-backed route, prune gap and all."""
    new = session_run_member(_roundtrip(chain_dag(5)), P1, member, prune_gap=0.0)
    assert new.solver_status.startswith(PRUNED_STATUS_PREFIX)
    assert new.fingerprint() == GOLDEN["pruned"][member]


@pytest.mark.slow
@pytest.mark.parametrize("member", available_members())
def test_legacy_member_fingerprints_identical_on_tiny_dataset(member):
    from repro.experiments.datasets import tiny_dataset

    for dag in tiny_dataset(limit=3):
        new = run_member(dag, CFG, member)
        assert new.fingerprint() == GOLDEN["tiny_dataset"][dag.name][member]


class TestKnownDivergence:
    def test_pruned_dac_refine_keeps_the_parts_diagnostic(self):
        """The one intentional improvement over the old path: a pruned
        ``dac+refine`` no longer drops the dac stage's ``parts`` extra.
        Everything else about the result is unchanged."""
        new = run_member(chain_dag(5), P1, "dac+refine", prune_gap=0.0)
        old_fp, new_fp = GOLDEN["pruned_dac_refine"], new.fingerprint()
        assert new_fp["extra_costs"].pop("parts") == 1.0
        assert "parts" not in old_fp["extra_costs"]
        assert new_fp == old_fp


def test_dispatch_functions_are_gone():
    """The acceptance bar: members.py's per-member dispatch is deleted, not
    wrapped — the only executor left is the generic pipeline runner."""
    import repro.portfolio.members as members

    for legacy_fn in ("_run_ilp_member", "_two_stage_member", "_run_refined_member"):
        assert not hasattr(members, legacy_fn)
