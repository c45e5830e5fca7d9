"""Experiment jobs: the picklable unit of work every experiment sweep runs.

The paper's experiments sweep many instances x many scheduler
configurations.  Each (instance, configuration) pair is one
:class:`ExperimentJob`: an experiment *kind*, a serialized DAG, an
:class:`~repro.experiments.runner.ExperimentConfig` and extra parameters.
There are two kinds.  A ``portfolio`` job runs one pipeline spec (its
``member`` parameter) through the pipeline runner; every table except
Table 3 and every portfolio, ``repro exec`` and serve job is one.  A
``baselines`` job runs Table 3's comparison, whose BSP-ILP first stage
solves at half the ILP time limit, which no pipeline spec expresses.
Every job has a stable content hash (:meth:`ExperimentJob.key`) over the
DAG structure, weights and the full configuration — including the per-job
ILP solver backend (``ExperimentConfig.ilp_backend``), so sweeps over
different backends never collide in the result cache.

Jobs are executed by :class:`repro.exec.Session`: wrap a batch in
``RunPlan.from_jobs(jobs)`` and ``session.run`` it.  The session returns
results in submission order, so a parallel run is *bit-identical* to the
serial one whenever the jobs themselves are deterministic: two-stage
pipelines always are, and ILP jobs are when solved to optimality or
bounded by ``ExperimentConfig.ilp_node_limit`` (with a time limit generous
enough that the node limit is what binds).  A *wall-clock*-limited ILP that
hits its limit can return a different incumbent under CPU contention — use
node limits (CLI: ``--node-limit``) for sweeps that must be exactly
reproducible.

Job kinds are dispatched in :func:`execute_job` (the function worker
processes run).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Tuple

from repro.dag.graph import ComputationalDag
from repro.dag.io import dag_from_dict, dag_to_dict
from repro.exceptions import ConfigurationError
from repro.experiments.runner import (
    ExperimentConfig,
    InstanceResult,
    run_instance_with_baselines,
)

#: Job kinds understood by :func:`execute_job`.
JOB_KINDS = ("baselines", "portfolio")


@dataclass(frozen=True)
class ExperimentJob:
    """One unit of work: run one experiment kind on one instance.

    The DAG is stored in its plain-dict form so jobs are cheap to pickle
    into worker processes and so the job hash covers the exact graph
    structure and weights rather than object identity.
    """

    kind: str
    dag_data: dict
    config: ExperimentConfig
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(
        cls,
        kind: str,
        dag: ComputationalDag,
        config: ExperimentConfig,
        **params,
    ) -> "ExperimentJob":
        """Build a job from a live DAG; extra kwargs become job parameters."""
        if kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown experiment job kind {kind!r}; available: {JOB_KINDS}"
            )
        return cls(
            kind=kind,
            dag_data=dag_to_dict(dag),
            config=config,
            params=tuple(sorted(params.items())),
        )

    def dag(self) -> ComputationalDag:
        """Materialize the job's DAG."""
        return dag_from_dict(self.dag_data)

    @property
    def instance_name(self) -> str:
        return str(self.dag_data.get("name", "dag"))

    def key(self) -> str:
        """Stable content hash of the job (DAG + config + kind + params)."""
        payload = {
            "kind": self.kind,
            "dag": self.dag_data,
            "config": asdict(self.config),
            "params": [[k, v] for k, v in self.params],
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def execute_job(job: ExperimentJob) -> InstanceResult:
    """Run one job to completion (this is the function worker processes run).

    The result carries per-job solver telemetry (``InstanceResult.
    solver_stats``): the number of MILP solves dispatched through the backend
    registry while the job ran, and the wall time spent inside the solvers,
    per backend.  The delta is computed inside the executing process, so it
    is correct both inline and under the process pool.
    """
    from repro import obs
    from repro.ilp.backends import solver_call_stats

    before = solver_call_stats().snapshot()
    span = obs.NULL_SCOPE
    traced = obs.tracing_enabled()
    if traced:
        span = obs.trace_span(
            "job.execute",
            category="session",
            kind=job.kind,
            instance=job.instance_name,
        )
    try:
        with span:
            result = _dispatch_job(job)
            if traced:
                span.set(cost=result.ilp_cost, status=result.solver_status)
    finally:
        if traced:
            # flush at the job boundary: pool/shard workers exit via
            # os._exit, so atexit never runs there and an unflushed
            # buffer would simply be lost
            obs.flush_observability()
    # merge (not overwrite): pipeline jobs pre-populate diagnostics such as
    # the shared-prefix reuse counters, which live next to the solver tally
    result.solver_stats = {
        **result.solver_stats,
        **solver_call_stats().delta_since(before),
    }
    return result


def _dispatch_job(job: ExperimentJob) -> InstanceResult:
    dag = job.dag()
    params = dict(job.params)
    if job.kind == "baselines":
        return run_instance_with_baselines(dag, job.config)
    if job.kind == "portfolio":
        # imported lazily: repro.portfolio itself builds jobs of this module
        from repro.portfolio.members import run_member

        member = str(params.pop("member"))
        return run_member(dag, job.config, member, **params)
    raise ConfigurationError(f"unknown experiment job kind {job.kind!r}")
