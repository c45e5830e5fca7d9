"""Regeneration of the paper's tables (Tables 1-4) and related experiments.

Every function returns the list of :class:`InstanceResult` rows it produced
(so benchmarks and tests can assert on them) and can print a formatted table
comparable to the corresponding table in the paper.

Tables 1 and 4, the P = 1 experiment and the recomputation ablation run the
pipeline :data:`~repro.experiments.runner.ILP_TABLE_SPEC`; Table 2 runs
``dac(max_part_size=N)``.  With ``config.refine.enabled`` each gains a
trailing ``|refine`` stage.  Table 3 runs its own ``baselines`` job.

Pass a :class:`repro.exec.Session` (``session=...``) to parallelise, cache
or stream a sweep: its worker pool, cache and stats are then shared across
every batch submitted to it (``repro.cli`` wires ``--workers``/
``--cache-dir``/``--results``/``--resume`` this way).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.dag.graph import ComputationalDag
from repro.experiments import paper_reference
from repro.experiments.datasets import small_dataset, tiny_dataset
from repro.experiments.reporting import format_results_table
from repro.experiments.runner import (
    ILP_TABLE_SPEC,
    ExperimentConfig,
    InstanceResult,
    dataset_limit,
    dataset_scale,
    geometric_mean,
    run_dataset,
)


def _tiny(limit: Optional[int] = None) -> List[ComputationalDag]:
    return tiny_dataset(scale=dataset_scale(), limit=limit or dataset_limit())


def _small(limit: Optional[int] = None) -> List[ComputationalDag]:
    return small_dataset(scale=dataset_scale(), limit=limit or dataset_limit())


# ----------------------------------------------------------------------
# Table 1: baseline vs. ILP on the tiny dataset (base configuration)
# ----------------------------------------------------------------------
def table1(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    verbose: bool = False,
    session=None,
) -> List[InstanceResult]:
    """Synchronous MBSP cost of the two-stage baseline vs. the full ILP."""
    config = config or ExperimentConfig(name="base")
    results = run_dataset(
        _tiny(limit), config, ILP_TABLE_SPEC, verbose=verbose, session=session
    )
    if verbose:  # pragma: no cover
        print(format_results_table(results, "Table 1 (base case)", paper_reference.TABLE1))
    return results


# ----------------------------------------------------------------------
# Table 3: all baselines (weak, main, BSP-ILP) and the ILPs on top of them
# ----------------------------------------------------------------------
def table3(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    verbose: bool = False,
    session=None,
) -> List[InstanceResult]:
    """The five-column comparison of Table 3 on the tiny dataset."""
    from repro.exec import Session
    from repro.experiments.parallel import ExperimentJob

    config = config or ExperimentConfig(name="base")
    if session is None:
        session = Session()
    jobs = [ExperimentJob.make("baselines", dag, config) for dag in _tiny(limit)]
    results = session.run(jobs)
    if verbose:  # pragma: no cover
        print(format_results_table(results, "Table 3 (main columns)", paper_reference.TABLE1))
    return results


# ----------------------------------------------------------------------
# Table 4: alternative configurations (r=5r0, r=r0, P=8, L=0, async)
# ----------------------------------------------------------------------
def table4_configurations(base: Optional[ExperimentConfig] = None) -> Dict[str, ExperimentConfig]:
    """The five alternative configurations of Table 4 (plus the base case)."""
    base = base or ExperimentConfig(name="base")
    return {
        "base": base,
        "r5": base.variant(name="r5", cache_factor=5.0),
        "r1": base.variant(name="r1", cache_factor=1.0),
        "p8": base.variant(name="p8", num_processors=8),
        "L0": base.variant(name="L0", L=0.0),
        "async": base.variant(name="async", synchronous=False),
    }


def table4(
    base_config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    configurations: Optional[Sequence[str]] = None,
    verbose: bool = False,
    session=None,
) -> Dict[str, List[InstanceResult]]:
    """Baseline / ILP costs for the alternative parameter settings.

    Pass a session to share one pool/cache/stats line across the whole
    sweep (the CLI does).
    """
    configs = table4_configurations(base_config)
    if configurations:
        configs = {k: v for k, v in configs.items() if k in set(configurations)}
    dags = _tiny(limit)
    out: Dict[str, List[InstanceResult]] = {}
    for name, config in configs.items():
        out[name] = run_dataset(
            dags, config, ILP_TABLE_SPEC, verbose=verbose, session=session
        )
        if verbose:  # pragma: no cover
            ref = paper_reference.TABLE4.get(name, paper_reference.TABLE1)
            print(format_results_table(out[name], f"Table 4 [{name}]", ref))
    return out


# ----------------------------------------------------------------------
# Table 2: divide-and-conquer ILP on the larger dataset
# ----------------------------------------------------------------------
def table2(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    max_part_size: int = 22,
    verbose: bool = False,
    session=None,
) -> List[InstanceResult]:
    """Baseline vs. divide-and-conquer ILP on the "small" dataset (r=5*r0)."""
    config = config or ExperimentConfig(name="table2", cache_factor=5.0)
    results = run_dataset(
        _small(limit), config, f"dac(max_part_size={max_part_size})", session=session
    )
    if verbose:  # pragma: no cover
        print(format_results_table(results, "Table 2 (divide-and-conquer)", paper_reference.TABLE2))
    return results


# ----------------------------------------------------------------------
# Section 7.2: single-processor (red-blue pebbling) experiment
# ----------------------------------------------------------------------
def p1_experiment(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    verbose: bool = False,
    session=None,
) -> List[InstanceResult]:
    """P = 1: DFS + clairvoyant baseline vs. the ILP (rarely improves)."""
    config = (config or ExperimentConfig()).variant(name="p1", num_processors=1)
    results = run_dataset(
        _tiny(limit), config, ILP_TABLE_SPEC, verbose=verbose, session=session
    )
    if verbose:  # pragma: no cover
        print(format_results_table(results, "Single-processor red-blue pebbling (P=1)"))
    return results


# ----------------------------------------------------------------------
# Section 7.2: prohibiting recomputation
# ----------------------------------------------------------------------
def recomputation_ablation(
    config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    verbose: bool = False,
    session=None,
) -> Dict[str, List[InstanceResult]]:
    """ILP with and without recomputation allowed (cost increase up to ~1.4x)."""
    base = config or ExperimentConfig(name="with_recompute")
    no_recompute = base.variant(name="no_recompute", allow_recomputation=False)
    dags = _tiny(limit)
    results = {
        name: run_dataset(dags, cfg, ILP_TABLE_SPEC, verbose=verbose, session=session)
        for name, cfg in (("with_recompute", base), ("no_recompute", no_recompute))
    }
    if verbose:  # pragma: no cover
        pairs = zip(results["with_recompute"], results["no_recompute"])
        for with_rec, without in pairs:
            factor = without.ilp_cost / max(with_rec.ilp_cost, 1e-9)
            print(f"  {with_rec.instance_name:<18s} recompute={with_rec.ilp_cost:8.1f} "
                  f"no-recompute={without.ilp_cost:8.1f} factor={factor:.2f}")
    return results


# ----------------------------------------------------------------------
# Summary helper mirroring the Section 7.2 headline numbers
# ----------------------------------------------------------------------
def geomean_summary(results_by_config: Dict[str, List[InstanceResult]]) -> Dict[str, float]:
    """Geometric-mean ILP/baseline ratio per configuration."""
    return {
        name: geometric_mean([r.ratio for r in results])
        for name, results in results_by_config.items()
    }
