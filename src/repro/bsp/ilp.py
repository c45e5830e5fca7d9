"""ILP-based BSP scheduler (the paper's "stronger baseline" first stage).

The BSP scheduling problem itself (ignoring memory constraints) is formulated
as an ILP, similarly to [36]: binary variables assign every computable node to
a (processor, superstep) pair, the work cost of a superstep is the maximum
processor work, and communicated values are charged ``g * mu`` whenever a
value is needed on a processor that did not compute it.  The number of
supersteps is fixed up front (taken from a greedy schedule plus slack).

The memory bound ``r`` plays no role here — that is exactly why the paper uses
this scheduler only as the first stage of a *two-stage* baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import ScheduleError, SolverError
from repro.ilp import IlpModel, SolverOptions, lin_sum, solve
from repro.bsp.greedy import greedy_bsp_schedule
from repro.bsp.schedule import BspSchedule


@dataclass
class BspIlpConfig:
    """Configuration of the ILP-based BSP scheduler.

    Attributes
    ----------
    max_supersteps:
        Number of supersteps available to the ILP; ``None`` derives it from a
        greedy schedule (its superstep count plus one).
    solver_options:
        Time limit / gap options passed to the ILP backend.
    backend:
        Any registered ILP backend name — ``"scipy"`` (HiGHS) or ``"bnb"``
        (pure-Python branch and bound); ``None`` selects the process
        default (see :mod:`repro.ilp.backends`).
    """

    max_supersteps: Optional[int] = None
    solver_options: SolverOptions = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver_options is None:
            self.solver_options = SolverOptions(time_limit=20.0)


class IlpBspScheduler:
    """Formulate and solve BSP scheduling as an ILP; fall back to greedy."""

    def __init__(self, config: Optional[BspIlpConfig] = None) -> None:
        self.config = config or BspIlpConfig()

    # ------------------------------------------------------------------
    def schedule(
        self,
        dag: ComputationalDag,
        num_processors: int,
        g: float = 1.0,
        L: float = 0.0,
    ) -> BspSchedule:
        """Return the best BSP schedule found (never worse than the greedy one)."""
        greedy = greedy_bsp_schedule(dag, num_processors, g=g)
        computable = [v for v in dag.nodes if not dag.is_source(v)]
        if not computable:
            return greedy
        num_supersteps = self.config.max_supersteps or (greedy.num_supersteps + 1)
        num_supersteps = max(num_supersteps, 1)

        model, x_vars = self._build_model(dag, num_processors, num_supersteps, g, L)
        solution = solve(model, self.config.solver_options, backend=self.config.backend)
        if not solution.has_solution:
            return greedy
        ilp_schedule = self._extract(dag, num_processors, num_supersteps, x_vars, solution)
        if ilp_schedule is None:
            return greedy
        return ilp_schedule

    # ------------------------------------------------------------------
    def _build_model(
        self,
        dag: ComputationalDag,
        P: int,
        S: int,
        g: float,
        L: float,
    ) -> Tuple[IlpModel, Dict[Tuple[NodeId, int, int], object]]:
        model = IlpModel(f"bsp_ilp_{dag.name}")
        computable = [v for v in dag.nodes if not dag.is_source(v)]

        # x[v, p, s] = 1 iff node v is computed on processor p in superstep s
        x = {}
        for v in computable:
            for p in range(P):
                for s in range(S):
                    x[v, p, s] = model.add_binary(f"x_{v}_{p}_{s}")
        # every node computed exactly once
        for v in computable:
            model.add_constraint(
                lin_sum(x[v, p, s] for p in range(P) for s in range(S)) == 1
            )
        # precedence: v in (p, s) requires u earlier, or same (p, s)
        for u, v in dag.edges():
            if dag.is_source(u):
                continue
            for p in range(P):
                for s in range(S):
                    earlier = lin_sum(
                        x[u, q, t] for q in range(P) for t in range(s)
                    )
                    model.add_constraint(x[v, p, s] <= earlier + x[u, p, s])
        # work cost per superstep
        work = [model.add_continuous(f"work_{s}") for s in range(S)]
        for s in range(S):
            for p in range(P):
                model.add_constraint(
                    work[s]
                    >= lin_sum(dag.omega(v) * x[v, p, s] for v in computable)
                )
        # communicated values: value u needed on processor p that did not
        # compute it (covers both non-source values and source loads)
        comm_terms = []
        for u in dag.nodes:
            children = [v for v in dag.children(u) if not dag.is_source(v)]
            if not children:
                continue
            for p in range(P):
                need = model.add_binary(f"need_{u}_{p}")
                for v in children:
                    for s in range(S):
                        if dag.is_source(u):
                            model.add_constraint(need >= x[v, p, s])
                        else:
                            model.add_constraint(
                                need
                                >= x[v, p, s]
                                - lin_sum(x[u, p, t] for t in range(S))
                            )
                comm_terms.append(dag.mu(u) * need)
        # superstep usage (to charge L per used superstep and compact solutions)
        used = [model.add_binary(f"used_{s}") for s in range(S)]
        n = len(computable)
        for s in range(S):
            model.add_constraint(
                lin_sum(x[v, p, s] for v in computable for p in range(P))
                <= n * used[s]
            )
        objective = lin_sum(work) + g * lin_sum(comm_terms) + L * lin_sum(used)
        model.minimize(objective)
        return model, x

    # ------------------------------------------------------------------
    def _extract(
        self,
        dag: ComputationalDag,
        P: int,
        S: int,
        x_vars,
        solution,
    ) -> Optional[BspSchedule]:
        schedule = BspSchedule(dag, P)
        topo_position = {v: i for i, v in enumerate(dag.topological_order())}
        placements: List[Tuple[int, int, NodeId]] = []
        for v in dag.nodes:
            if dag.is_source(v):
                continue
            chosen = None
            for p in range(P):
                for s in range(S):
                    if solution.value(x_vars[v, p, s]) > 0.5:
                        chosen = (s, p)
                        break
                if chosen:
                    break
            if chosen is None:
                return None
            placements.append((chosen[0], chosen[1], v))
        # assign in (superstep, topological) order so intra-cell orders respect
        # the precedence constraints
        placements.sort(key=lambda item: (item[0], topo_position[item[2]]))
        for s, p, v in placements:
            schedule.assign(v, p, s)
        try:
            schedule.validate()
        except ScheduleError:
            return None
        return schedule.compact_supersteps()


def ilp_bsp_schedule(
    dag: ComputationalDag,
    num_processors: int,
    g: float = 1.0,
    L: float = 0.0,
    config: Optional[BspIlpConfig] = None,
) -> BspSchedule:
    """Convenience wrapper around :class:`IlpBspScheduler`."""
    return IlpBspScheduler(config).schedule(dag, num_processors, g=g, L=L)
