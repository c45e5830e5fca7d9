"""HiGHS solves through the scipy-vendored binding: cancellation, limits and
the ``optimize.milp`` fallback.

Every scipy-backend solve drives ``scipy.optimize._highspy._core``
directly; inside a ``cancel_scope`` the MIP-interrupt callback polls the
token.  The binding-dependent classes are skipped when the private binding
is absent — the backend then runs every solve through ``optimize.milp``,
which :class:`TestMilpFallback` exercises by fault injection and the
pre-dispatch refusal test pins regardless of the binding.
"""

import warnings

import numpy as np
import pytest

from repro import obs
from repro.ilp import IlpModel, SolutionStatus, SolverOptions, solve_with_scipy
from repro.ilp import scipy_backend
from repro.ilp.cancellation import CancelToken, cancel_scope

needs_highs = pytest.mark.skipif(
    scipy_backend._highs is None,
    reason="scipy-vendored HiGHS binding unavailable",
)

#: status mapping of a solve the interrupt callback stopped
INTERRUPTED = (SolutionStatus.NO_SOLUTION, SolutionStatus.FEASIBLE)


def knapsack_model():
    """max 10x0 + 6x1 + 4x2 s.t. 5x0 + 4x1 + 3x2 <= 8 -> optimum 14."""
    model = IlpModel("knapsack")
    x = [model.add_binary(f"x{i}") for i in range(3)]
    model.add_constraint(5 * x[0] + 4 * x[1] + 3 * x[2] <= 8)
    model.maximize(10 * x[0] + 6 * x[1] + 4 * x[2])
    return model


def market_split_model(m=3, n=20, seed=7):
    """A small market-split instance: trivially sized knapsacks solve in
    presolve without ever polling the MIP-interrupt callback, this one is
    guaranteed to branch (thousands of polls) yet finishes in ~1s."""
    rng = np.random.RandomState(seed)
    weights = rng.randint(0, 100, (m, n))
    targets = weights.sum(axis=1) // 2
    model = IlpModel("market-split")
    x = [model.add_binary(f"x{i}") for i in range(n)]
    for row in range(m):
        model.add_constraint(
            sum(int(weights[row, i]) * x[i] for i in range(n))
            == int(targets[row])
        )
    model.minimize(sum(x))
    return model


class TripAfterFirstPoll(CancelToken):
    """Reports cancelled from the second interrupt poll on.

    The backend reads the token once before dispatch; with a model that
    enters branch and bound, the callback then polls it many times, so this
    token makes the mid-solve cancellation path deterministic without
    wall-clock races.
    """

    def __init__(self):
        super().__init__()
        self.polls = 0

    def cancelled(self):
        self.polls += 1
        return self.polls > 2


class FlipsAfterDispatch(TripAfterFirstPoll):
    """Passes the pre-dispatch check, then reports cancelled at every poll."""

    def cancelled(self):
        self.polls += 1
        return self.polls > 1


def solve_in_scope(model, token, **options):
    with cancel_scope(token):
        return solve_with_scipy(model, SolverOptions(**options))


@needs_highs
class TestDirectSolve:
    def test_uncancelled_solve_is_optimal(self):
        solution = solve_in_scope(knapsack_model(), CancelToken())
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)
        assert "cancelled" not in solution.message

    def test_matches_plain_backend_objective(self):
        model = knapsack_model()
        plain = solve_with_scipy(model)
        with_token = solve_in_scope(model, CancelToken())
        assert with_token.status == plain.status == SolutionStatus.OPTIMAL
        assert with_token.objective == pytest.approx(plain.objective)
        assert with_token.node_count == plain.node_count
        assert np.array_equal(with_token.values, plain.values)

    def test_cutoff_row_prunes_like_milp_path(self):
        # a warm start at 15 cuts off the optimum (14) of the maximization
        solution = solve_in_scope(
            knapsack_model(), CancelToken(), warm_start_objective=15.0
        )
        assert solution.status is SolutionStatus.INFEASIBLE

    def test_mid_solve_cancellation_is_deterministic(self):
        token = TripAfterFirstPoll()
        solution = solve_in_scope(market_split_model(), token, time_limit=60.0)
        assert token.polls >= 3  # the callback really was consulted
        assert solution.status in INTERRUPTED
        assert "cancelled by CancelToken mid-solve" in solution.message

    def test_cancelled_already_token_stops_at_first_poll(self):
        token = FlipsAfterDispatch()
        solution = solve_in_scope(market_split_model(), token, time_limit=60.0)
        assert solution.status in INTERRUPTED
        assert "cancelled by CancelToken mid-solve" in solution.message
        assert solution.node_count <= 1


@needs_highs
class TestNodeLimit:
    @pytest.mark.parametrize("node_limit", [1, 3])
    def test_node_count_reported_at_the_limit(self, node_limit):
        # outside any cancel scope: the solve that optimize.milp used to run
        # and report with node_count == 0
        solution = solve_with_scipy(
            market_split_model(), SolverOptions(time_limit=60.0, node_limit=node_limit)
        )
        assert solution.status is SolutionStatus.NO_SOLUTION
        assert solution.node_count == node_limit


class TestBackendFallback:
    def test_pre_cancelled_scope_refuses_dispatch(self):
        token = CancelToken()
        token.cancel("budget exhausted")
        with cancel_scope(token):
            solution = solve_with_scipy(knapsack_model())
        assert solution.status == SolutionStatus.NO_SOLUTION
        assert "cancelled before dispatch" in solution.message


@pytest.fixture
def fallback_observed(monkeypatch):
    """Counters on, and the once-per-process fallback warning re-armed."""
    obs.configure_tracing(True, spill_dir=None)
    obs.metrics().reset()
    monkeypatch.setattr(scipy_backend, "_fallback_warned", False)
    yield
    obs.configure_tracing(False, spill_dir=None)
    obs.get_tracer().reset()
    obs.metrics().reset()


@pytest.fixture(scope="module")
def binding_solutions():
    if scipy_backend._highs is None:
        pytest.skip("scipy-vendored HiGHS binding unavailable")
    return [solve_with_scipy(build()) for build in (knapsack_model, market_split_model)]


def _break_binding(monkeypatch, fault):
    if fault == "import":
        monkeypatch.setattr(scipy_backend, "_highs", None)
        return "failed to import"

    binding = scipy_backend._highs

    class RaisingHighs(binding._Highs):
        def run(self):
            raise RuntimeError("injected fault")

    class BrokenBinding:
        """The real binding module, except that ``run`` raises; optimize.milp
        keeps its own reference to the module and stays intact."""

        _Highs = RaisingHighs

        def __getattr__(self, name):
            return getattr(binding, name)

    monkeypatch.setattr(scipy_backend, "_highs", BrokenBinding())
    return "raised RuntimeError: injected fault"


class TestMilpFallback:
    @pytest.mark.parametrize("fault", ["import", "run"])
    def test_fallback_warns_counts_and_agrees(
        self, fault, monkeypatch, fallback_observed, binding_solutions
    ):
        reason = _break_binding(monkeypatch, fault)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback = [
                solve_with_scipy(build()) for build in (knapsack_model, market_split_model)
            ]
        messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
        assert len(messages) == 1  # once per process, not once per solve
        assert "scipy.optimize.milp" in messages[0] and reason in messages[0]
        assert obs.metrics().counter("ilp.fallback.milp") == 2.0
        # the knapsack is optimal at 14, the market split is infeasible
        for got, expected in zip(fallback, binding_solutions):
            assert got.status is expected.status
            assert got.objective == pytest.approx(expected.objective)
            assert got.message.startswith("optimize.milp")
        assert [s.status for s in fallback] == [
            SolutionStatus.OPTIMAL, SolutionStatus.INFEASIBLE
        ]
