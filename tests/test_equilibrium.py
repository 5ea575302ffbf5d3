import math

import numpy as np
import pytest

from flowauction import (
    AuctionParams,
    Beta,
    ConvergenceError,
    InvalidParamsError,
    QuadratureDistribution,
    SolutionStatus,
    SupportInterval,
    Uniform,
    effective_spread,
    execution_probability,
    expected_utility,
    option_value,
    revenue,
    solve_equilibrium,
    uniform_closed_form_bid,
)
from flowauction import equilibrium
from flowauction.cli import main
from flowauction.equilibrium import solution_at

U01 = Uniform(0.0, 1.0)


def base_expected_utility(d, strike, alpha, b):
    """The p = q = 0 utility written out from distribution primitives."""
    t = strike + (1.0 - alpha) * b
    return d.partial_expectation(t) - t * (1.0 - d.cdf(t)) - alpha * b


def base_solve(d, strike, alpha):
    """Independent bisection on the base utility, used as a second route."""
    f = lambda b: base_expected_utility(d, strike, alpha, b)
    hi = (d.support.hi - strike) / (1.0 - alpha) if alpha < 1.0 else d.support.hi - strike
    for _ in range(64):
        if f(hi) <= 0.0:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# expected utility
# ---------------------------------------------------------------------------

class TestExpectedUtility:
    def test_all_upfront_zero_bid_is_option_value(self):
        # ∫_{1/2}^{1} (x - 1/2) dx = 1/8
        params = AuctionParams(strike=0.5, alpha=1.0)
        assert expected_utility(U01, params, 0.0) == pytest.approx(0.125, abs=1e-15)

    def test_zero_profit_point(self):
        params = AuctionParams(strike=0.5, alpha=0.25)
        assert expected_utility(U01, params, 2 / 9) == pytest.approx(0.0, abs=1e-15)

    def test_bid_emptying_execution_region_loses_the_upfront(self):
        # (1 - alpha) * b parks the threshold exactly at the support top
        params = AuctionParams(strike=0.5, alpha=0.5)
        assert expected_utility(U01, params, 1.0) == -0.5

    def test_generalized_matches_base_when_p_q_zero(self):
        rng = np.random.default_rng(321)
        for _ in range(100):
            alpha = rng.uniform(0.0, 1.0)
            b = rng.uniform(0.0, 1.5)
            params = AuctionParams(strike=0.5, alpha=alpha)
            assert abs(
                expected_utility(U01, params, b) - base_expected_utility(U01, 0.5, alpha, b)
            ) <= 1e-12

    def test_forced_execution_term(self):
        # p = 1 reduces to mean - K - b
        params = AuctionParams(strike=0.25, alpha=0.5, p=1.0)
        assert expected_utility(U01, params, 0.1) == pytest.approx(0.5 - 0.25 - 0.1, abs=1e-15)


def test_option_value_matches_partial_expectation_identity():
    for d in [U01, Beta(2.0, 5.0)]:
        for t in [0.1, 0.5, 0.9]:
            expected = d.partial_expectation(t) - t * (1.0 - d.cdf(t))
            assert option_value(d, t) == expected


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class TestSolveEquilibrium:
    def test_all_upfront_corner(self):
        sol = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=1.0))
        assert sol.b_star == pytest.approx(0.125, abs=1e-12)
        assert sol.status == SolutionStatus.INTERIOR_ROOT
        assert abs(sol.residual) <= 1e-12

    def test_all_contingent_corner_full_erosion(self):
        sol = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=0.0))
        assert sol.b_star == 0.5
        assert sol.p_exec == 0.0
        assert sol.revenue == 0.0
        assert sol.effective_spread is None
        assert sol.status == SolutionStatus.BOUNDARY_FULL_EROSION

    def test_quarter_upfront(self):
        sol = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=0.25))
        assert sol.b_star == pytest.approx(2 / 9, abs=1e-12)

    def test_forced_execution_linear_root(self):
        sol = solve_equilibrium(U01, AuctionParams(strike=0.25, alpha=0.5, p=1.0))
        assert sol.b_star == pytest.approx(0.25, abs=1e-12)
        assert sol.p_exec == 1.0

    def test_corner_consistency_with_option_value(self):
        for d in [U01, Beta(2.0, 5.0), Beta(0.5, 0.5)]:
            sol = solve_equilibrium(d, AuctionParams(strike=0.5, alpha=1.0), tol=1e-12)
            assert sol.b_star == pytest.approx(option_value(d, 0.5), abs=1e-12)

    def test_matches_independent_route(self):
        for d in [U01, Beta(2.0, 2.0), Beta(2.0, 5.0)]:
            for alpha in [0.1, 0.4, 0.8, 1.0]:
                sol = solve_equilibrium(d, AuctionParams(strike=0.5, alpha=alpha))
                assert sol.b_star == pytest.approx(base_solve(d, 0.5, alpha), abs=1e-12)

    def test_negative_value_auction_bids_zero(self):
        # forced execution of an out-of-the-money order: winning is a liability
        sol = solve_equilibrium(U01, AuctionParams(strike=0.8, alpha=0.5, p=0.5, q=0.2))
        assert sol.b_star == 0.0
        assert sol.status == SolutionStatus.BOUNDARY_ZERO_BID
        assert sol.residual <= 0.0

    def test_forced_failure_only(self):
        sol = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=0.5, q=1.0))
        assert sol.b_star == 0.0
        assert sol.p_exec == 0.0
        assert sol.status == SolutionStatus.BOUNDARY_ZERO_BID

    def test_strike_above_support_rejected(self):
        with pytest.raises(InvalidParamsError):
            solve_equilibrium(U01, AuctionParams(strike=1.5, alpha=0.5))
        with pytest.raises(InvalidParamsError):
            solve_equilibrium(U01, AuctionParams(strike=1.0, alpha=0.5))

    def test_strike_above_support_allowed_with_forced_execution(self):
        sol = solve_equilibrium(U01, AuctionParams(strike=1.5, alpha=0.5, p=0.5))
        assert sol.status == SolutionStatus.BOUNDARY_ZERO_BID

    def test_bad_tol_rejected(self):
        with pytest.raises(InvalidParamsError):
            solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=0.5), tol=0.0)

    def test_unreachable_tol_raises(self):
        # the search ends at adjacent floats, where the residual here is 4.2e-17
        with pytest.raises(ConvergenceError, match=r"for Beta\(2\.0, 5\.0\) at alpha 0\.1 exceeds tol"):
            solve_equilibrium(Beta(2.0, 5.0), AuctionParams(strike=0.5, alpha=0.1), tol=1e-300)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e4), (0.0, 1e6), (0.0, 1e12), (-1e6, 1e6),
                                        (100.0, 101.0), (1e4, 1e4 + 1.0), (1e6, 1e6 + 1.0)])
    def test_default_tol_holds_on_wide_and_far_supports(self, lo, hi):
        # rounding in the utility grows with the prices (residuals up to 1.5e-4
        # on [0, 1e12]) and with the support's offset from zero in widths
        # (5.6e-6 on [1e6, 1e6 + 1]), which an absolute tol would reject
        d = Uniform(lo, hi)
        for strike in {0.5, 0.5 * (lo + hi)}:
            for alpha in np.linspace(0.01, 1.0, 100):
                for p, q in [(0.0, 0.0), (0.2, 0.1)]:
                    sol = solve_equilibrium(d, AuctionParams(strike, alpha, p, q))
                    assert sol.status in (SolutionStatus.INTERIOR_ROOT, SolutionStatus.BOUNDARY_ZERO_BID)

    def test_revenue_identity_at_solution(self):
        # revenue = p_exec * spread is a consequence of zero profit, so it is
        # asserted wherever the solved bid actually satisfies zero profit; at
        # a zero-bid boundary (winning is a liability, bids cannot go
        # negative) the payment identity pins revenue to 0 instead.
        for d in [U01, Beta(2.0, 5.0)]:
            for p, q in [(0.0, 0.0), (0.1, 0.1), (0.3, 0.0), (0.0, 0.5)]:
                for alpha in np.linspace(0.0, 1.0, 21):
                    sol = solve_equilibrium(d, AuctionParams(0.5, float(alpha), p, q))
                    if sol.status == SolutionStatus.BOUNDARY_ZERO_BID:
                        assert sol.revenue == 0.0
                    elif sol.p_exec > 0.0:
                        assert sol.revenue == pytest.approx(
                            sol.p_exec * sol.effective_spread, abs=1e-9
                        )

    @pytest.mark.parametrize("d", [U01, Beta(2.0, 5.0), Beta(0.5, 0.5), Uniform(-1.0, 2.0),
                                   QuadratureDistribution(Beta(2.0, 5.0).pdf, SupportInterval(0.0, 1.0))])
    def test_solution_fields_match_the_public_functions(self, d):
        # a record reads the law once at its bid; each field must equal its own function
        # exactly, at b* and at bids off the equilibrium
        for strike, alpha, p, q in [(0.3, 0.0, 0.0, 0.0), (0.3, 0.4, 0.0, 0.0), (0.3, 1.0, 0.0, 0.0),
                                    (0.3, 0.4, 0.2, 0.1), (0.8, 0.5, 0.5, 0.2), (0.5, 0.5, 0.0, 1.0)]:
            params = AuctionParams(strike, alpha, p, q)
            solved = solve_equilibrium(d, params)
            for sol in (solved, solution_at(d, params, 0.5 * solved.b_star, None),
                        solution_at(d, params, solved.b_star + 0.05, None)):
                p_exec = execution_probability(d, params, sol.b_star)
                assert sol.residual == expected_utility(d, params, sol.b_star)
                assert sol.p_exec == p_exec
                assert sol.effective_spread == effective_spread(d, params, sol.b_star)
                assert sol.revenue == revenue(params, sol.b_star, p_exec)

    def test_figure2_grid_takes_few_utility_evaluations(self, monkeypatch, tmp_path):
        # wrapped the way bench/spans.py counts the solver's work; plain
        # bisection to adjacent floats took about 58 per root
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        original = equilibrium.expected_utility
        monkeypatch.setattr(equilibrium, "expected_utility", counted)
        out = tmp_path / "figure2.csv"
        assert main(["sweep", "--figure2", "--output", str(out)]) == 0
        roots = out.read_text().count("interior_root")
        assert roots == 400
        assert calls / roots <= 15

    def test_closed_form_grid(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            sol = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=float(alpha)))
            assert abs(sol.b_star - uniform_closed_form_bid(float(alpha))) <= 1e-9


class TestAuctionParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strike=0.5, alpha=-0.1),
            dict(strike=0.5, alpha=1.1),
            dict(strike=0.5, alpha=0.5, p=-0.2),
            dict(strike=0.5, alpha=0.5, q=-0.2),
            dict(strike=0.5, alpha=0.5, p=0.7, q=0.7),
            dict(strike=math.nan, alpha=0.5),
            dict(strike=0.5, alpha=0.5, p=math.nan),
            dict(strike=0.5, alpha=0.5, q=math.nan),
            dict(strike=0.5, alpha=0.5, p=math.inf),
            dict(strike=0.5, alpha=0.5, q=-math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParamsError):
            AuctionParams(**kwargs)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_execution_probability_values(self):
        assert execution_probability(U01, AuctionParams(0.5, 1.0), 0.125) == pytest.approx(
            0.5, abs=1e-15
        )
        assert execution_probability(U01, AuctionParams(0.5, 0.25), 2 / 9) == pytest.approx(
            1 / 3, abs=1e-15
        )
        assert execution_probability(U01, AuctionParams(0.5, 0.3, p=1.0), 0.4) == 1.0

    def test_effective_spread_values(self):
        assert effective_spread(U01, AuctionParams(0.5, 1.0), 0.125) == pytest.approx(
            0.25, abs=1e-12
        )
        # 1/4 + (1 - alpha) b / 2 for the uniform law
        assert effective_spread(U01, AuctionParams(0.5, 0.25), 2 / 9) == pytest.approx(
            1 / 3, abs=1e-12
        )
        assert effective_spread(U01, AuctionParams(0.5, 0.0), 0.5) is None

    def test_revenue_values(self):
        assert revenue(AuctionParams(0.5, 1.0), 0.125, 0.5) == pytest.approx(0.125, abs=1e-15)
        assert revenue(AuctionParams(0.5, 0.0), 0.5, 0.0) == 0.0
        assert revenue(AuctionParams(0.5, 0.25), 2 / 9, 1 / 3) == pytest.approx(1 / 9, abs=1e-15)


# ---------------------------------------------------------------------------
# monotonicity in the upfront share
# ---------------------------------------------------------------------------

def test_monotone_in_alpha_uniform():
    grid = np.linspace(0.0, 1.0, 101)
    sols = [solve_equilibrium(U01, AuctionParams(0.5, float(a))) for a in grid]
    slack = 1e-9
    for prev, cur in zip(sols, sols[1:]):
        assert cur.p_exec >= prev.p_exec - slack
        assert cur.revenue >= prev.revenue - slack
        assert cur.b_star <= prev.b_star + slack
        assert cur.threshold <= prev.threshold + slack
        if prev.effective_spread is not None and cur.effective_spread is not None:
            assert cur.effective_spread <= prev.effective_spread + slack
