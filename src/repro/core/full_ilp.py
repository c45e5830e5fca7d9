"""The full ILP formulation of MBSP scheduling (Section 6.1, Appendix C.1).

The formulation follows the paper:

* binary variables ``compute[p, v, t]``, ``save[p, v, t]``, ``load[p, v, t]``
  describe the operations executed in (merged) time step ``t``;
* binary variables ``hasred[p, v, t]`` and ``hasblue[v, t]`` describe the
  pebble configuration at the *beginning* of step ``t`` (``t`` ranges from 0
  to ``T``, index ``T`` being the final configuration);
* the fundamental constraints (1)-(10) of Figure 3 tie operations to pebbles;
* with *step merging* (Section 6.2) a single step may hold several compute
  operations of one processor (when inputs and outputs fit in cache
  together), or several save/load operations;
* the synchronous cost is encoded through phase indicators
  (``compphase``/``commphase``), phase-end indicators and running phase-cost
  accumulators (Appendix C.1.2); the asynchronous cost through per-step
  finishing times and per-node availability times.

Boundary conditions (initial red/blue pebbles, values required in slow memory
at the end) are supported so the same builder serves both the full problem
and the sub-problems of the divide-and-conquer scheduler (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import ConfigurationError
from repro.ilp import IlpModel, LinExpr, SolverOptions, Variable, lin_sum
from repro.model.instance import MbspInstance
from repro.model.pebbling import OpType
from repro.model.schedule import MbspSchedule


@dataclass
class BoundaryConditions:
    """Initial / terminal pebble requirements of a (sub-)problem.

    Attributes
    ----------
    initial_red:
        Per-processor sets of nodes that already carry a red pebble when the
        schedule starts (leftovers of a previous sub-schedule).
    initial_blue:
        Nodes that carry a blue pebble at the start *in addition to* the DAG's
        source nodes.
    required_blue:
        Nodes that must carry a blue pebble at the end *in addition to* the
        DAG's sink nodes (values consumed by later sub-problems).
    """

    initial_red: Dict[int, Set[NodeId]] = field(default_factory=dict)
    initial_blue: Set[NodeId] = field(default_factory=set)
    required_blue: Set[NodeId] = field(default_factory=set)


@dataclass
class MbspIlpConfig:
    """Configuration of the full MBSP ILP scheduler.

    Attributes
    ----------
    synchronous:
        Encode the synchronous (superstep) cost function; otherwise the
        asynchronous makespan.
    use_step_merging:
        Allow several operations of the same kind per (processor, step)
        (Section 6.2); strongly recommended, reduces the number of steps.
    allow_recomputation:
        When false, add ``sum_{p,t} compute[p,v,t] <= 1`` for every node.
    max_steps:
        Number of ILP time steps ``T``; ``None`` derives it from the initial
        schedule (its merged step count plus ``extra_steps``).
    extra_steps:
        Slack added to the derived number of steps.
    cutoff:
        Optional upper bound on the objective (cost of a known schedule);
        mirrors warm-starting the solver with the baseline.
    warm_start:
        How the scheduler warm-starts the solver from its incumbent schedule:
        ``"objective"`` (the default) passes only the incumbent *cost* (an
        objective cutoff row for HiGHS, an incumbent bound for branch and
        bound); ``"solution"`` additionally encodes the incumbent schedule
        into a full ILP variable assignment (:mod:`repro.core.encoding`) and
        hands it to the backend as ``SolverOptions.warm_start_solution`` —
        the branch-and-bound backend installs it as its initial incumbent.
        When the incumbent schedule cannot be encoded within the step budget
        the scheduler falls back to the objective-only warm start.
    solver_options / backend:
        Passed to :func:`repro.ilp.solve`.  ``backend=None`` selects the
        process default (``REPRO_ILP_BACKEND`` or ``"scipy"``); see
        :mod:`repro.ilp.backends` for the registered names.
    """

    synchronous: bool = True
    use_step_merging: bool = True
    allow_recomputation: bool = True
    max_steps: Optional[int] = None
    extra_steps: int = 2
    cutoff: Optional[float] = None
    warm_start: str = "objective"
    solver_options: SolverOptions = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver_options is None:
            self.solver_options = SolverOptions(time_limit=60.0)
        if self.warm_start not in ("objective", "solution"):
            raise ConfigurationError(
                f"unknown warm_start mode {self.warm_start!r}; "
                f"expected 'objective' or 'solution'"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")
        if self.extra_steps < 0:
            raise ConfigurationError("extra_steps must be non-negative")


@dataclass
class MbspIlpVariables:
    """Handles to the decision variables.

    Used in both directions: the schedule *extraction* reads operation
    variables out of a solution, and the schedule→solution *encoder*
    (:mod:`repro.core.encoding`) writes a full variable assignment for a
    known schedule, which is why the auxiliary step/phase/cost variables are
    recorded here as well.
    """

    num_steps: int
    compute: Dict[Tuple[int, NodeId, int], Variable]
    save: Dict[Tuple[int, NodeId, int], Variable]
    load: Dict[Tuple[int, NodeId, int], Variable]
    hasred: Dict[Tuple[int, NodeId, int], Variable]
    hasblue: Dict[Tuple[NodeId, int], Variable]
    compphase: List[Variable] = field(default_factory=list)
    commphase: List[Variable] = field(default_factory=list)
    compends: List[Variable] = field(default_factory=list)
    commends: List[Variable] = field(default_factory=list)
    # per-(processor, step) operation-kind indicators (step merging only)
    compstep: Dict[Tuple[int, int], Variable] = field(default_factory=dict)
    commstep: Dict[Tuple[int, int], Variable] = field(default_factory=dict)
    # synchronous cost machinery (Appendix C.1.2)
    compinduced: List[Variable] = field(default_factory=list)
    comminduced: List[Variable] = field(default_factory=list)
    compuntil: Dict[Tuple[int, int], Variable] = field(default_factory=dict)
    communtil: Dict[Tuple[int, int], Variable] = field(default_factory=dict)
    makespan: Optional[Variable] = None
    objective_expr: Optional[LinExpr] = None

    # ------------------------------------------------------------------
    # convenience accessors that treat fixed/omitted variables as constants
    # ------------------------------------------------------------------
    def compute_value(self, solution, p: int, v: NodeId, t: int) -> bool:
        var = self.compute.get((p, v, t))
        return bool(var is not None and solution.value(var) > 0.5)

    def save_value(self, solution, p: int, v: NodeId, t: int) -> bool:
        var = self.save.get((p, v, t))
        return bool(var is not None and solution.value(var) > 0.5)

    def load_value(self, solution, p: int, v: NodeId, t: int) -> bool:
        var = self.load.get((p, v, t))
        return bool(var is not None and solution.value(var) > 0.5)

    def hasred_value(self, solution, p: int, v: NodeId, t: int, initial: bool = False) -> bool:
        var = self.hasred.get((p, v, t))
        if var is None:
            return initial
        return bool(solution.value(var) > 0.5)

    def hasblue_value(self, solution, v: NodeId, t: int, initial: bool = False) -> bool:
        var = self.hasblue.get((v, t))
        if var is None:
            return initial
        return bool(solution.value(var) > 0.5)


class MbspIlpBuilder:
    """Builds the ILP model of an MBSP instance."""

    def __init__(
        self,
        instance: MbspInstance,
        config: Optional[MbspIlpConfig] = None,
        boundary: Optional[BoundaryConditions] = None,
    ) -> None:
        self.instance = instance
        self.config = config or MbspIlpConfig()
        self.boundary = boundary or BoundaryConditions()
        self.dag = instance.dag
        self.P = instance.num_processors
        self.g = instance.g
        self.L = instance.L
        self.r = instance.cache_size

        # the big-M constant of Appendix C.1.2; it only needs to dominate the
        # largest possible accumulated phase cost / finishing time of a single
        # processor, so the total work plus total I/O volume (plus one L) is
        # sufficient — a tight M keeps the LP relaxation strong
        self.big_m = (
            sum(self.dag.omega(v) + 2.0 * self.g * self.dag.mu(v) for v in self.dag.nodes)
            + self.L
            + 1.0
        )

    # ------------------------------------------------------------------
    def initial_red(self, p: int) -> Set[NodeId]:
        return set(self.boundary.initial_red.get(p, set()))

    def initial_blue(self) -> Set[NodeId]:
        return set(self.dag.sources()) | set(self.boundary.initial_blue)

    def required_blue(self) -> Set[NodeId]:
        return set(self.dag.sinks()) | set(self.boundary.required_blue)

    def computable_nodes(self) -> List[NodeId]:
        return [v for v in self.dag.nodes if not self.dag.is_source(v)]

    # ------------------------------------------------------------------
    def build(self, num_steps: int) -> Tuple[IlpModel, MbspIlpVariables]:
        """Construct the model with ``num_steps`` (merged) time steps."""
        if num_steps < 1:
            raise ConfigurationError("the ILP needs at least one time step")
        model = IlpModel(f"mbsp_ilp_{self.instance.name}")
        variables = self._create_variables(model, num_steps)
        self._add_fundamental_constraints(model, variables)
        if not self.config.allow_recomputation:
            self._add_no_recomputation_constraints(model, variables)
        if self.config.synchronous:
            objective = self._add_synchronous_cost(model, variables)
        else:
            objective = self._add_asynchronous_cost(model, variables)
        variables.objective_expr = objective
        if self.config.cutoff is not None:
            model.add_constraint(objective <= float(self.config.cutoff) + 1e-6)
        model.minimize(objective)
        return model, variables

    # ------------------------------------------------------------------
    # variable creation
    # ------------------------------------------------------------------
    def _create_variables(self, model: IlpModel, T: int) -> MbspIlpVariables:
        dag = self.dag
        compute: Dict[Tuple[int, NodeId, int], Variable] = {}
        save: Dict[Tuple[int, NodeId, int], Variable] = {}
        load: Dict[Tuple[int, NodeId, int], Variable] = {}
        hasred: Dict[Tuple[int, NodeId, int], Variable] = {}
        hasblue: Dict[Tuple[NodeId, int], Variable] = {}

        computable = set(self.computable_nodes())
        init_blue = self.initial_blue()

        for v in dag.nodes:
            for t in range(T):
                for p in range(self.P):
                    if v in computable:
                        compute[p, v, t] = model.add_binary(f"compute_{p}_{v}_{t}")
                    save[p, v, t] = model.add_binary(f"save_{p}_{v}_{t}")
                    load[p, v, t] = model.add_binary(f"load_{p}_{v}_{t}")
            # pebble-state variables for t = 1 .. T (index 0 is the fixed
            # initial configuration and therefore not represented by
            # variables; the accessors treat missing entries as constants)
            for t in range(1, T + 1):
                for p in range(self.P):
                    hasred[p, v, t] = model.add_binary(f"hasred_{p}_{v}_{t}")
                if v in init_blue:
                    # once a value is in slow memory it can stay there forever
                    # at no cost, so its blue indicator is simply fixed to 1
                    continue
                hasblue[v, t] = model.add_binary(f"hasblue_{v}_{t}")
        return MbspIlpVariables(
            num_steps=T,
            compute=compute,
            save=save,
            load=load,
            hasred=hasred,
            hasblue=hasblue,
        )

    # expression helpers treating fixed states as constants ---------------
    def _hasred_expr(self, var: MbspIlpVariables, p: int, v: NodeId, t: int):
        if t == 0:
            return 1.0 if v in self.initial_red(p) else 0.0
        return var.hasred[p, v, t]

    def _hasblue_expr(self, var: MbspIlpVariables, v: NodeId, t: int):
        if v in self.initial_blue():
            return 1.0
        if t == 0:
            return 0.0
        return var.hasblue[v, t]

    # ------------------------------------------------------------------
    # fundamental constraints (Figure 3)
    # ------------------------------------------------------------------
    def _add_fundamental_constraints(self, model: IlpModel, var: MbspIlpVariables) -> None:
        dag = self.dag
        T = var.num_steps
        n = dag.num_nodes
        computable = set(self.computable_nodes())
        merging = self.config.use_step_merging

        for t in range(T):
            for p in range(self.P):
                for v in dag.nodes:
                    # (1) a load requires a blue pebble
                    blue = self._hasblue_expr(var, v, t)
                    if isinstance(blue, float):
                        if blue == 0.0:
                            model.add_constraint(var.load[p, v, t] <= 0.0)
                    else:
                        model.add_constraint(var.load[p, v, t] <= blue)
                    # (2) a save requires a red pebble of the same processor
                    red = self._hasred_expr(var, p, v, t)
                    if isinstance(red, float):
                        if red == 0.0:
                            model.add_constraint(var.save[p, v, t] <= 0.0)
                    else:
                        model.add_constraint(var.save[p, v, t] <= red)
                # (3) computes require parents in cache (or computed in the
                # same merged step)
                for v in computable:
                    for u in dag.parents(v):
                        red_u = self._hasred_expr(var, p, u, t)
                        rhs = LinExpr()
                        if isinstance(red_u, float):
                            rhs.add_constant(red_u)
                        else:
                            rhs.add_term(red_u, 1.0)
                        if merging and (p, u, t) in var.compute:
                            rhs.add_term(var.compute[p, u, t], 1.0)
                        model.add_constraint(var.compute[p, v, t] <= rhs)

        # (4) red pebbles can only persist, be computed, or be loaded
        for t in range(1, T + 1):
            for p in range(self.P):
                for v in dag.nodes:
                    rhs = LinExpr()
                    prev_red = self._hasred_expr(var, p, v, t - 1)
                    if isinstance(prev_red, float):
                        rhs.add_constant(prev_red)
                    else:
                        rhs.add_term(prev_red, 1.0)
                    if (p, v, t - 1) in var.compute:
                        rhs.add_term(var.compute[p, v, t - 1], 1.0)
                    rhs.add_term(var.load[p, v, t - 1], 1.0)
                    model.add_constraint(var.hasred[p, v, t] <= rhs)

        # (5) blue pebbles can only persist or be saved
        for t in range(1, T + 1):
            for v in dag.nodes:
                if (v, t) not in var.hasblue:
                    continue  # fixed to 1 (initially blue)
                rhs = LinExpr()
                prev_blue = self._hasblue_expr(var, v, t - 1)
                if isinstance(prev_blue, float):
                    rhs.add_constant(prev_blue)
                else:
                    rhs.add_term(prev_blue, 1.0)
                for p in range(self.P):
                    rhs.add_term(var.save[p, v, t - 1], 1.0)
                model.add_constraint(var.hasblue[v, t] <= rhs)

        # (6) one kind of operation per processor and step
        if merging:
            for t in range(T):
                for p in range(self.P):
                    compstep = model.add_binary(f"compstep_{p}_{t}")
                    commstep = model.add_binary(f"commstep_{p}_{t}")
                    var.compstep[p, t] = compstep
                    var.commstep[p, t] = commstep
                    model.add_constraint(
                        lin_sum(var.compute[p, v, t] for v in computable)
                        <= n * compstep
                    )
                    model.add_constraint(
                        lin_sum(
                            var.save[p, v, t] + var.load[p, v, t] for v in dag.nodes
                        )
                        <= 2 * n * commstep
                    )
                    model.add_constraint(compstep + commstep <= 1)
        else:
            for t in range(T):
                for p in range(self.P):
                    terms = [var.save[p, v, t] + var.load[p, v, t] for v in dag.nodes]
                    terms.extend(var.compute[p, v, t] for v in computable)
                    model.add_constraint(lin_sum(terms) <= 1)

        # (7) the memory bound; with merging, outputs produced in the step
        # must fit together with the cached inputs (Section 6.2)
        for p in range(self.P):
            for t in range(1, T + 1):
                model.add_constraint(
                    lin_sum(
                        self.dag.mu(v) * var.hasred[p, v, t] for v in dag.nodes
                    )
                    <= self.r
                )
            for t in range(T):
                usage = LinExpr()
                for v in dag.nodes:
                    red = self._hasred_expr(var, p, v, t)
                    if isinstance(red, float):
                        usage.add_constant(self.dag.mu(v) * red)
                    else:
                        usage.add_term(red, self.dag.mu(v))
                    if (p, v, t) in var.compute:
                        usage.add_term(var.compute[p, v, t], self.dag.mu(v))
                    usage.add_term(var.load[p, v, t], self.dag.mu(v))
                model.add_constraint(usage <= self.r)

        # (8), (9): the initial configuration is already encoded as constants.
        # (10): terminal configuration — required values in slow memory.
        for v in self.required_blue():
            if v in self.initial_blue():
                continue
            model.add_constraint(var.hasblue[v, T] >= 1.0)

    # ------------------------------------------------------------------
    def _add_no_recomputation_constraints(self, model: IlpModel, var: MbspIlpVariables) -> None:
        T = var.num_steps
        for v in self.computable_nodes():
            model.add_constraint(
                lin_sum(var.compute[p, v, t] for p in range(self.P) for t in range(T))
                <= 1
            )

    # ------------------------------------------------------------------
    # synchronous cost (Appendix C.1.2)
    # ------------------------------------------------------------------
    def _add_synchronous_cost(self, model: IlpModel, var: MbspIlpVariables) -> LinExpr:
        dag = self.dag
        T = var.num_steps
        n = dag.num_nodes
        computable = set(self.computable_nodes())
        M = self.big_m

        compphase = [model.add_binary(f"compphase_{t}") for t in range(T)]
        commphase = [model.add_binary(f"commphase_{t}") for t in range(T)]
        compends = [model.add_binary(f"compends_{t}") for t in range(T)]
        commends = [model.add_binary(f"commends_{t}") for t in range(T)]
        var.compphase, var.commphase = compphase, commphase
        var.compends, var.commends = compends, commends

        for t in range(T):
            model.add_constraint(
                lin_sum(
                    var.compute[p, v, t] for p in range(self.P) for v in computable
                )
                <= self.P * n * compphase[t]
            )
            model.add_constraint(
                lin_sum(
                    var.save[p, v, t] + var.load[p, v, t]
                    for p in range(self.P)
                    for v in dag.nodes
                )
                <= 2 * self.P * n * commphase[t]
            )
            model.add_constraint(compphase[t] + commphase[t] <= 1)
            # phase-end indicators
            model.add_constraint(compends[t] <= compphase[t])
            model.add_constraint(commends[t] <= commphase[t])
            if t + 1 < T:
                model.add_constraint(compends[t] >= compphase[t] - compphase[t + 1])
                model.add_constraint(commends[t] >= commphase[t] - commphase[t + 1])
            else:
                model.add_constraint(compends[t] >= compphase[t])
                model.add_constraint(commends[t] >= commphase[t])

        compinduced = [model.add_continuous(f"compinduced_{t}") for t in range(T)]
        comminduced = [model.add_continuous(f"comminduced_{t}") for t in range(T)]
        var.compinduced, var.comminduced = compinduced, comminduced

        for p in range(self.P):
            compuntil_prev: Optional[Variable] = None
            communtil_prev: Optional[Variable] = None
            for t in range(T):
                compuntil = model.add_continuous(f"compuntil_{p}_{t}")
                communtil = model.add_continuous(f"communtil_{p}_{t}")
                var.compuntil[p, t] = compuntil
                var.communtil[p, t] = communtil
                comp_cost = lin_sum(
                    dag.omega(v) * var.compute[p, v, t] for v in computable
                )
                comm_cost = lin_sum(
                    self.g * dag.mu(v) * (var.save[p, v, t] + var.load[p, v, t])
                    for v in dag.nodes
                )
                comp_rhs = comp_cost - M * commends[t]
                comm_rhs = comm_cost - M * compends[t]
                if compuntil_prev is not None:
                    comp_rhs = comp_rhs + compuntil_prev
                if communtil_prev is not None:
                    comm_rhs = comm_rhs + communtil_prev
                model.add_constraint(compuntil >= comp_rhs)
                model.add_constraint(communtil >= comm_rhs)
                # the accumulated phase cost is charged at the end of a phase
                model.add_constraint(
                    compinduced[t] >= compuntil - M * (1.0 - compends[t])
                )
                model.add_constraint(
                    comminduced[t] >= communtil - M * (1.0 - commends[t])
                )
                compuntil_prev, communtil_prev = compuntil, communtil

        objective = lin_sum(compinduced) + lin_sum(comminduced) + self.L * lin_sum(commends)
        return objective

    # ------------------------------------------------------------------
    # asynchronous cost (Appendix C.1.2)
    # ------------------------------------------------------------------
    def _add_asynchronous_cost(self, model: IlpModel, var: MbspIlpVariables) -> LinExpr:
        dag = self.dag
        T = var.num_steps
        computable = set(self.computable_nodes())
        M = self.big_m

        finishtime = {
            (p, t): model.add_continuous(f"finishtime_{p}_{t}")
            for p in range(self.P)
            for t in range(T)
        }
        getsblue = {v: model.add_continuous(f"getsblue_{v}") for v in dag.nodes}
        makespan = model.add_continuous("makespan")
        var.makespan = makespan

        for p in range(self.P):
            for t in range(T):
                step_cost = LinExpr()
                for v in dag.nodes:
                    if (p, v, t) in var.compute:
                        step_cost.add_term(var.compute[p, v, t], dag.omega(v))
                    step_cost.add_term(var.save[p, v, t], self.g * dag.mu(v))
                    step_cost.add_term(var.load[p, v, t], self.g * dag.mu(v))
                if t == 0:
                    model.add_constraint(finishtime[p, t] >= step_cost)
                else:
                    model.add_constraint(
                        finishtime[p, t] >= finishtime[p, t - 1] + step_cost
                    )
                # a save defines when the value becomes available in slow memory
                for v in dag.nodes:
                    model.add_constraint(
                        getsblue[v]
                        >= finishtime[p, t] - M * (1.0 - var.save[p, v, t])
                    )
                # a load cannot finish before the value is available plus the
                # duration of the whole (merged) load operation of this step
                load_cost = lin_sum(
                    self.g * dag.mu(u) * var.load[p, u, t] for u in dag.nodes
                )
                for v in dag.nodes:
                    model.add_constraint(
                        finishtime[p, t]
                        >= getsblue[v] + load_cost - M * (1.0 - var.load[p, v, t])
                    )
            model.add_constraint(makespan >= finishtime[p, T - 1])
        return LinExpr({makespan.index: 1.0}, 0.0)
