"""ILP solver backend based on HiGHS, through scipy's vendored binding.

This is the default backend of the library.  It plays the role of the COPT
commercial solver used in the paper: a branch-and-cut MILP solver applied to
exactly the same formulations, with configurable time limits.

Every solve builds a ``HighsLp`` from the compiled model and runs it through
``scipy.optimize._highspy._core`` directly.  With a
:class:`~repro.ilp.cancellation.CancelToken` in scope, HiGHS's MIP-interrupt
callback polls the token, so a cancelled solve (a lost race branch, an
expired ``budget=`` stage) stops at the next branch-and-bound poll point;
outside any scope no callback is installed and the solve pays nothing for
it.

The binding is a private scipy API.  When it fails to import, or raises
while solving, :func:`scipy.optimize.milp` solves the same formulation
instead.  That fallback warns once per process, counts every use as the
``ilp.fallback.milp`` metric, cannot be interrupted mid-solve, and reports
a node-limited solve without an incumbent as ``ERROR`` (``optimize.milp``
has no status code for HiGHS's solution limit).
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import optimize, sparse

from repro.exceptions import SolverError
from repro.ilp.model import CompiledModel, IlpModel, Sense
from repro.ilp.solution import IlpSolution, SolutionStatus

try:  # pragma: no cover - the fallback tests patch the handle instead
    from scipy.optimize._highspy import _core as _highs
except Exception:  # repro: lint-ignore[REP-C02] — any private-API breakage
    _highs = None


@dataclass
class SolverOptions:
    """Options shared by all solver backends.

    Attributes
    ----------
    time_limit:
        Wall-clock limit in seconds (``None`` for no limit).  Both backends
        treat ``None`` as unlimited and return the best incumbent (status
        ``FEASIBLE``) or ``NO_SOLUTION`` when the limit expires.
    mip_rel_gap:
        Relative optimality gap at which the solver may stop.
    verbose:
        Print solver progress output.
    node_limit:
        Branch-and-bound node limit (``None`` for no limit, ``0`` for no
        branching at all).  Both backends count branch-and-bound nodes, but
        HiGHS additionally runs presolve/root heuristics that may find (and
        even prove) an incumbent before the first node, so a node-limited
        scipy solve can still return ``OPTIMAL`` where the transparent
        pure-Python solver reports ``NO_SOLUTION``.
    warm_start_objective:
        Objective value of a known incumbent (in the *original* objective
        space, e.g. the greedy/ETF baseline cost), restricting the search to
        solutions at least as good.  The scipy backend adds an objective
        cutoff row: an equal-cost solution remains feasible (and may be
        returned as ``OPTIMAL``), while an unbeatable cutoff yields
        ``INFEASIBLE``.  The branch-and-bound backend uses it as the initial
        incumbent bound: only strictly better solutions are found, and a
        solve that cannot improve reports ``NO_SOLUTION``.  Either way a
        caller holding the incumbent keeps it whenever the returned solution
        is not strictly cheaper.
    warm_start_solution:
        A full variable assignment of a known feasible solution (model
        variable order).  The branch-and-bound backend verifies it against
        the compiled model and installs it as the *initial incumbent*: the
        solve can only improve on it, and exhausting the tree returns the
        warm solution itself (status ``OPTIMAL``) instead of
        ``NO_SOLUTION``.  The scipy backend does not hand HiGHS the starting
        point; it derives the solution's objective value and applies it as
        the cutoff row (as if ``warm_start_objective`` had been passed).
        An infeasible solution is ignored (recorded in the result message),
        never an error; a wrong-length one raises ``ValueError`` in both
        backends.  When both warm-start fields are given, the tighter of the
        two prunes the search while the solution remains the fallback
        incumbent (the branch-and-bound backend reports ``FEASIBLE`` instead
        of claiming optimality when a tighter external bound was in play).
    """

    time_limit: Optional[float] = 30.0
    mip_rel_gap: float = 1e-4
    verbose: bool = False
    node_limit: Optional[int] = None
    warm_start_objective: Optional[float] = None
    warm_start_solution: Optional[Sequence[float]] = None


#: HiGHS model statuses of a solve stopped at a limit (the interrupt raised
#: through the cancel callback included): the incumbent, if any, stands
_LIMIT_STATUSES = frozenset({
    "kTimeLimit",
    "kIterationLimit",
    "kSolutionLimit",
    "kInterrupt",
    "kHighsInterrupt",
    "kObjectiveBound",
    "kObjectiveTarget",
})

_TERMINAL_STATUSES = {
    "kOptimal": SolutionStatus.OPTIMAL,
    "kInfeasible": SolutionStatus.INFEASIBLE,
    "kUnbounded": SolutionStatus.UNBOUNDED,
}

#: ``optimize.milp`` status codes 0-3 as HiGHS model-status names (code 1
#: covers every limit); its code 4, "other", has no single name
_MILP_STATUS_NAMES = ("kOptimal", "kTimeLimit", "kInfeasible", "kUnbounded")

#: the fallback warns once per process; race branches solve on threads
_fallback_lock = threading.Lock()
_fallback_warned = False


def _status(name: str, has_values: bool) -> SolutionStatus:
    """Map a HiGHS model-status name to a :class:`SolutionStatus`."""
    if name in _TERMINAL_STATUSES:
        return _TERMINAL_STATUSES[name]
    if has_values:
        # a limit, or an unclassified stop that still left an incumbent
        return SolutionStatus.FEASIBLE
    return SolutionStatus.NO_SOLUTION if name in _LIMIT_STATUSES else SolutionStatus.ERROR


def solve_with_scipy(model: IlpModel, options: Optional[SolverOptions] = None) -> IlpSolution:
    """Solve ``model`` with HiGHS and return an :class:`IlpSolution`."""
    from repro.ilp.cancellation import clamped_time_limit, current_cancel_token

    options = options or SolverOptions()
    compiled = model.compile()
    start = time.perf_counter()

    # a scope that is already cancelled refuses to start; otherwise the
    # solve is bounded by the scope's remaining deadline and stopped by a
    # cancel at the next interrupt poll
    token = current_cancel_token()
    if token is not None and token.cancelled():
        return IlpSolution(
            status=SolutionStatus.NO_SOLUTION,
            solve_time=0.0,
            message="solve cancelled before dispatch",
        )
    time_limit = clamped_time_limit(options.time_limit)
    cutoff, warm_note = _objective_cutoff(compiled, options)
    rows, row_lb, row_ub = _constraint_rows(compiled, cutoff)

    solution = None
    if _highs is None:
        reason = "scipy.optimize._highspy failed to import"
    else:
        try:
            solution = _solve_highs(compiled, rows, row_lb, row_ub, time_limit, options, token)
        except Exception as exc:  # repro: lint-ignore[REP-C02] — private binding
            # the binding changed shape, rejected an array dtype, or died
            # inside HiGHS: never fail the solve over it
            reason = f"the HiGHS binding raised {type(exc).__name__}: {exc}"
    if solution is None:
        solution = _solve_milp(compiled, rows, row_lb, row_ub, time_limit, options, reason)

    solution.solve_time = time.perf_counter() - start
    solution.message += warm_note
    return solution


def _objective_cutoff(
    compiled: CompiledModel, options: SolverOptions
) -> Tuple[Optional[float], str]:
    """The objective cutoff (compiled space) and a note for the message.

    Candidates are the explicit ``warm_start_objective`` and the objective of
    a feasible ``warm_start_solution``; the tighter one prunes, matching the
    branch-and-bound backend.  An infeasible warm solution is noted and
    ignored.
    """
    sign = 1.0 if compiled.sense is Sense.MINIMIZE else -1.0
    cutoffs = []
    if options.warm_start_objective is not None:
        cutoffs.append(
            sign * (float(options.warm_start_objective) - compiled.objective_constant)
        )
    warm_note = ""
    if options.warm_start_solution is not None:
        candidate = np.asarray(options.warm_start_solution, dtype=float)
        if candidate.shape != (compiled.c.shape[0],):
            raise ValueError(
                f"warm_start_solution has {candidate.shape} values, model has "
                f"{compiled.c.shape[0]} variables"
            )
        if compiled.is_feasible(candidate):
            cutoffs.append(
                sign * (compiled.objective_value(candidate) - compiled.objective_constant)
            )
        else:
            warm_note = " (warm-start solution rejected: infeasible)"
    if not cutoffs:
        return None, warm_note
    cutoff = min(cutoffs)
    return cutoff + 1e-6 * max(1.0, abs(cutoff)), warm_note


def _constraint_rows(
    compiled: CompiledModel, cutoff: Optional[float]
) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """The CSR constraint rows and their bounds, with the objective cutoff
    row ``c @ x <= cutoff`` appended when ``cutoff`` is set (compiled space
    is always a minimization, so only solutions at least as good as the
    incumbent stay feasible)."""
    rows = compiled.A.tocsr()
    row_lb = np.asarray(compiled.con_lb, dtype=float)
    row_ub = np.asarray(compiled.con_ub, dtype=float)
    if cutoff is not None:
        cut_row = sparse.csr_matrix(compiled.c.reshape(1, -1))
        rows = sparse.vstack([rows, cut_row], format="csr")
        row_lb = np.append(row_lb, -np.inf)
        row_ub = np.append(row_ub, float(cutoff))
    return rows, row_lb, row_ub


def _solve_highs(compiled, rows, row_lb, row_ub, time_limit, options, token) -> IlpSolution:
    """Run the model through the vendored HiGHS binding."""
    inf = float(_highs.kHighsInf)
    clip = lambda a: np.clip(np.asarray(a, dtype=float), -inf, inf)
    lp = _highs.HighsLp()
    lp.num_col_ = int(compiled.c.shape[0])
    lp.num_row_ = int(rows.shape[0])
    lp.col_cost_ = np.asarray(compiled.c, dtype=float)
    lp.col_lower_ = clip(compiled.var_lb)
    lp.col_upper_ = clip(compiled.var_ub)
    lp.row_lower_ = clip(row_lb)
    lp.row_upper_ = clip(row_ub)
    if rows.shape[0]:
        matrix = lp.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kRowwise
        matrix.start_ = np.asarray(rows.indptr, dtype=np.int32)
        matrix.index_ = np.asarray(rows.indices, dtype=np.int32)
        matrix.value_ = np.asarray(rows.data, dtype=float)
    lp.integrality_ = np.array([
        _highs.HighsVarType.kInteger if flag else _highs.HighsVarType.kContinuous
        for flag in np.asarray(compiled.integrality).astype(bool)
    ])

    solver = _highs._Highs()
    solver.setOptionValue("output_flag", bool(options.verbose))
    solver.setOptionValue("log_to_console", bool(options.verbose))
    solver.setOptionValue("mip_rel_gap", float(options.mip_rel_gap))
    if time_limit is not None:
        solver.setOptionValue("time_limit", float(time_limit))
    if options.node_limit is not None:
        solver.setOptionValue("mip_max_nodes", int(options.node_limit))
    if solver.passModel(lp) != _highs.HighsStatus.kOk:
        raise SolverError("HiGHS rejected the model")

    cancelled = []
    if token is not None:
        def _interrupt(callback_type, message, data_out, data_in, user_data):
            # polled at HiGHS's MIP interrupt points; the token read is
            # lock-free and monotonic (cancel() only ever sets it)
            if token.cancelled():
                cancelled.append(True)
                data_in.user_interrupt = True

        if solver.setCallback(_interrupt, None) != _highs.HighsStatus.kOk:
            raise SolverError("HiGHS rejected the interrupt callback")
        solver.startCallbackInt(int(_highs.cb.HighsCallbackType.kCallbackMipInterrupt))
    solver.run()

    name = solver.getModelStatus().name
    solution = solver.getSolution()
    info = solver.getInfo()
    values = np.asarray(solution.col_value, dtype=float) if solution.value_valid else None
    message = f"HiGHS model status: {name}"
    if cancelled:
        message += " (cancelled by CancelToken mid-solve)"
    gap = float(info.mip_gap)
    return IlpSolution(
        status=_status(name, values is not None),
        objective=_objective(compiled, values),
        values=values,
        mip_gap=gap if np.isfinite(gap) else None,
        message=message,
        node_count=max(int(info.mip_node_count), 0),  # a pure LP reports -1
    )


def _solve_milp(compiled, rows, row_lb, row_ub, time_limit, options, reason) -> IlpSolution:
    """Solve through :func:`scipy.optimize.milp` when the binding is unusable."""
    from repro import obs

    global _fallback_warned
    obs.count("ilp.fallback.milp")
    with _fallback_lock:
        first, _fallback_warned = not _fallback_warned, True
    if first:
        warnings.warn(
            f"solving ILPs through scipy.optimize.milp because {reason}; "
            "solves can no longer be cancelled mid-solve",
            UserWarning,
            stacklevel=3,
        )
    milp_options = {"disp": options.verbose, "mip_rel_gap": options.mip_rel_gap}
    if time_limit is not None:
        milp_options["time_limit"] = float(time_limit)
    if options.node_limit is not None:
        milp_options["node_limit"] = int(options.node_limit)
    constraints = [optimize.LinearConstraint(rows, row_lb, row_ub)] if rows.shape[0] else None
    try:
        result = optimize.milp(
            c=compiled.c,
            constraints=constraints,
            bounds=optimize.Bounds(compiled.var_lb, compiled.var_ub),
            integrality=compiled.integrality,
            options=milp_options,
        )
    except (ValueError, TypeError, ArithmeticError) as exc:  # pragma: no cover - defensive
        # scipy.optimize.milp rejects malformed inputs with ValueError /
        # TypeError; ArithmeticError covers numerical blowups in HiGHS glue
        raise SolverError(f"scipy.optimize.milp failed: {exc}") from exc

    values = np.asarray(result.x) if result.x is not None else None
    name = _MILP_STATUS_NAMES[result.status] if result.status < 4 else "kNotset"
    gap = getattr(result, "mip_gap", None)
    return IlpSolution(
        status=_status(name, values is not None),
        objective=_objective(compiled, values),
        values=values,
        mip_gap=None if gap is None or not np.isfinite(gap) else float(gap),
        message=f"optimize.milp: {result.message}",
        node_count=int(getattr(result, "mip_node_count", 0) or 0),
    )


def _objective(compiled: CompiledModel, values: Optional[np.ndarray]) -> Optional[float]:
    """Objective of ``values`` in the model's original space."""
    if values is None:
        return None
    sign = 1.0 if compiled.sense is Sense.MINIMIZE else -1.0
    return sign * float(compiled.c @ values) + compiled.objective_constant
