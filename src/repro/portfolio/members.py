"""Portfolio members: declarative pipeline specs executed by one runner.

A *member* names one complete scheduling pipeline.  Since the
:mod:`repro.pipeline` redesign a member is simply a **pipeline spec** (see
:mod:`repro.pipeline.spec` for the ``"stage|stage|..."`` grammar); the
historical member names all remain valid and are pinned to the pipelines
that reproduce their historical behaviour exactly:

* ``"<first-stage>+<policy>"`` — a two-stage pipeline, e.g.
  ``"bspg+clairvoyant"``, ``"cilk+lru"``, ``"etf+clairvoyant"`` or
  ``"dfs+clairvoyant"`` (the latter only applies to ``P = 1`` instances);
* ``"ilp"`` — the holistic ILP scheduler warm-started from the baseline
  (canonically ``"baseline|ilp(warm=objective)"``);
* ``"dac"`` — the divide-and-conquer ILP for larger DAGs;
* ``"<member>+refine"`` — the member's schedule post-optimized by the
  local-search refinement engine (``"ilp+refine"`` refines the baseline,
  seeds the ILP with the refined incumbent and refines the solver's best).

Anything else is parsed as a pipeline spec, so new members are one-line
specs — ``"bspg+clairvoyant|refine|ilp"`` chains a heuristic, local search
and the exact ILP (fed the refined schedule as a full warm-start solution)
without any new dispatch code.

:func:`run_member` evaluates one member on one instance and reports the
achieved cost as an :class:`~repro.experiments.runner.InstanceResult` (both
cost fields carry the member's cost; ``extra_costs["member_cost"]`` repeats
it for table code).  For deterministic members the ``solver_status`` field
carries a digest of the produced schedule, so callers can assert two runs
produced *bit-identical* schedules, not merely equal costs.  Members that do
not apply to an instance (e.g. ``dfs`` with ``P > 1``) report an infinite
cost instead of failing the whole sweep.

**Bound-aware pruning** (``prune_gap``) is decided per stage by the pipeline
runner: before a prunable stage (``ilp``, ``refine``) runs, the incumbent
cost is compared against :func:`repro.theory.bounds.instance_lower_bound`,
and the stage is skipped when the incumbent is provably within the gap of
optimal (the skip reason lands in ``solver_status`` with the ``"skipped:"``
prefix, and ``extra_costs`` carries ``lower_bound`` and ``pruned = 1.0``).
At the default gap ``0.0`` a skip requires the incumbent to *match* the
bound, so pruning can never change the member's reported cost.  The ``dac``
stage is deliberately not prunable — its contract is to report the
divide-and-conquer schedule as-is.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dag.graph import ComputationalDag
from repro.exceptions import ConfigurationError
from repro.experiments.runner import ExperimentConfig, InstanceResult
from repro.pipeline import (
    LEGACY_MEMBER_SPECS,
    PRUNED_STATUS_PREFIX,
    REFINE_SUFFIX,
    Pipeline,
    canonicalize,
    legacy_member_names,
    parse,
    schedule_digest,
)
from repro.pipeline.stages import TWO_STAGE_POLICIES, TWO_STAGE_SCHEDULERS

__all__ = [
    "DEFAULT_MEMBERS",
    "MEMBER_SPECS",
    "PRUNED_STATUS_PREFIX",
    "REFINE_SUFFIX",
    "TWO_STAGE_POLICIES",
    "TWO_STAGE_SCHEDULERS",
    "available_members",
    "is_pruned",
    "is_prunable_member",
    "is_refined_member",
    "member_descriptions",
    "resolve_member",
    "run_member",
    "schedule_digest",
]

#: The default portfolio evaluated by :class:`repro.portfolio.Portfolio`.
DEFAULT_MEMBERS = ("bspg+clairvoyant", "cilk+lru", "ilp")

#: Legacy member name -> canonical pipeline spec (the declarative member
#: table; every entry is executed by the generic :class:`Pipeline` runner).
MEMBER_SPECS: Dict[str, str] = dict(LEGACY_MEMBER_SPECS)


def available_members() -> List[str]:
    """Every legacy member name understood by :func:`run_member`.

    Every base member also exists in a ``"<member>+refine"`` variant that
    post-optimizes the base schedule with the local-search refinement
    engine.  Beyond these names, any pipeline spec
    (``"bspg+clairvoyant|refine|ilp"``; see :mod:`repro.pipeline.spec`) is a
    valid member too.
    """
    return legacy_member_names()


def member_descriptions() -> List[Tuple[str, str]]:
    """``(member, canonical spec)`` for every legacy member name."""
    return [(member, MEMBER_SPECS[member]) for member in available_members()]


def resolve_member(member: str) -> str:
    """Canonical pipeline spec for a member name or raw spec.

    Raises :class:`~repro.exceptions.ConfigurationError` for names that are
    neither a known member nor a parseable pipeline spec, listing both the
    member names and the registered stages.
    """
    try:
        return canonicalize(member)
    except ConfigurationError as exc:
        from repro.pipeline import available_stages

        raise ConfigurationError(
            f"unknown portfolio member {member!r} ({exc}); expected one of "
            f"the member names {available_members()} or a pipeline spec "
            f"'stage|stage|...' over the stages {available_stages()} "
            f"(see 'repro pipeline list')"
        ) from None


def is_refined_member(member: str) -> bool:
    """Whether ``member`` names a refined (``"...+refine"``) pipeline."""
    return member.strip().lower().endswith(REFINE_SUFFIX)


def is_prunable_member(member: str) -> bool:
    """Whether bound-aware pruning may skip work for ``member`` cost-neutrally.

    True exactly when the member's pipeline contains a prunable stage
    (``ilp`` or ``refine``): skipping such a stage keeps the incumbent,
    which the stage could not have improved on a bound-matching instance.
    """
    try:
        spec = parse(member)
    except ConfigurationError:
        return False
    return any(stage.prunable for stage in spec.build_stages())


def is_pruned(result: InstanceResult) -> bool:
    """Whether ``result`` reports bound-pruned (skipped) pipeline stages."""
    return result.solver_status.startswith(PRUNED_STATUS_PREFIX)


def run_member(
    dag: ComputationalDag,
    config: ExperimentConfig,
    member: str,
    prune_gap: Optional[float] = None,
) -> InstanceResult:
    """Evaluate one portfolio ``member`` (name or pipeline spec) on ``dag``.

    ``prune_gap`` enables per-stage bound-aware pruning for the prunable
    stages (see the module docstring); ``None`` (the default) disables it.
    """
    pipeline = Pipeline(resolve_member(member))
    gap = prune_gap if prune_gap is not None and prune_gap >= 0 else None
    return pipeline.run(dag, config, prune_gap=gap).to_instance_result()
