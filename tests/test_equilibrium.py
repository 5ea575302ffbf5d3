import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowauction import (
    AuctionParams,
    Beta,
    BracketError,
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
    solve_columns,
    solve_equilibria,
    solve_equilibrium,
    uniform_closed_form_bid,
)
from flowauction.cli import main
from flowauction.equilibrium import solution_at, upper_bid_bracket
from test_bisect import find_crossing

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
        # (5.6e-6 on [1e6, 1e6 + 1]), which an absolute tol would reject; each
        # grid, solved in one call, equals its alphas solved one at a time
        d = Uniform(lo, hi)
        for strike in {0.5, 0.5 * (lo + hi)}:
            for p, q in [(0.0, 0.0), (0.2, 0.1)]:
                grid = [AuctionParams(strike, alpha, p, q) for alpha in np.linspace(0.01, 1.0, 100)]
                sols = [solve_equilibrium(d, params) for params in grid]
                assert all(sol.status in (SolutionStatus.INTERIOR_ROOT, SolutionStatus.BOUNDARY_ZERO_BID)
                           for sol in sols)
                assert [vars(sol) for sol in solve_equilibria(d, grid)] == [vars(sol) for sol in sols]

    def test_a_huge_uniform_support_scales_the_unit_law(self):
        # hi * hi overflowed in Uniform.partial_expectation, so this had no finite solution
        sol = solve_equilibrium(Uniform(0.0, 1e160), AuctionParams(0.0, 0.5))
        unit = solve_equilibrium(U01, AuctionParams(0.0, 0.5))
        assert sol.b_star == 5.358983848622455e159
        assert sol.b_star == pytest.approx(1e160 * unit.b_star, rel=1e-15)

    @pytest.mark.parametrize("params", [AuctionParams(0.0, 0.5), AuctionParams(-1e308, 0.0)])
    def test_an_overflowing_bid_bracket_raises(self, params):
        # (hi - K) / (1 - alpha) is inf: no float bid, searched or eroded, is the root
        with pytest.raises(ConvergenceError, match="upper bid bracket .* overflows to inf"):
            solve_equilibrium(Uniform(0.0, 1e308), params)
        with pytest.raises(ConvergenceError, match="upper bid bracket"):
            upper_bid_bracket(Uniform(0.0, 1e308), params)

    def test_a_nan_residual_fails_the_gate(self):
        class NanTail(Uniform):
            def partial_expectation(self, t):
                return np.full(np.shape(t), math.nan)

        with pytest.raises(ConvergenceError, match="residual nan"):
            solve_equilibrium(NanTail(0.0, 1.0), AuctionParams(0.5, 0.5))

    def test_a_uniform_support_far_from_zero_scales_the_unit_law(self):
        # hi**2 - t**2 cancelled there: b* came out 4.9 times the rescaled unit law's
        d = Uniform(1e9, 1e9 + 1e-3)
        width = d.support.hi - d.support.lo
        sol = solve_equilibrium(d, AuctionParams(0.5 * (d.support.lo + d.support.hi), 0.5))
        unit = solve_equilibrium(U01, AuctionParams(0.5, 0.5))
        assert sol.b_star == pytest.approx(width * unit.b_star, rel=5e-4)

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
        # wrapped the way bench/spans.py wraps the laws; each law's grid is one
        # lockstep search, whose rounds each read the law once on the running
        # searches, and then one read of the records at the roots.  Plain
        # bisection to adjacent floats took about 58 evaluations per root
        sizes: dict[str, list[int]] = {}

        def counted(law, t):
            sizes.setdefault(repr(law), []).append(np.size(t))
            return original(law, t)

        original = Beta.cdf
        monkeypatch.setattr(Beta, "cdf", counted)
        out = tmp_path / "figure2.csv"
        assert main(["sweep", "--figure2", "--output", str(out)]) == 0
        roots = out.read_text().count("interior_root")
        assert roots == 400 and len(sizes) == 4
        rounds = {law: calls[:-1] for law, calls in sizes.items()}
        assert sum(sum(r) for r in rounds.values()) / roots <= 15
        assert max(len(r) for r in rounds.values()) <= 20

    def test_closed_form_grid(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            sol = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=float(alpha)))
            assert abs(sol.b_star - uniform_closed_form_bid(float(alpha))) <= 1e-9


class TestSolveEquilibria:
    @pytest.mark.parametrize("d", [U01, Beta(2.0, 2.0), Beta(2.0, 5.0), Beta(5.0, 2.0), Beta(0.5, 0.5)])
    def test_a_grid_equals_its_alphas_solved_alone(self, d):
        # alpha = 0 erodes the bid, strike 0.8 with p = 0.5 forces a zero bid
        for strike, p, q in [(0.5, 0.0, 0.0), (0.5, 0.1, 0.1), (0.8, 0.5, 0.2)]:
            grid = [AuctionParams(strike, float(alpha), p, q) for alpha in np.linspace(0.0, 1.0, 101)]
            sols = solve_equilibria(d, grid)
            assert len(sols) == len(grid)
            for params, sol in zip(grid, sols):
                assert vars(sol) == vars(solve_equilibrium(d, params))
                if sol.status == SolutionStatus.INTERIOR_ROOT and p == 0.0:
                    # the scalar search on the scalar utility takes the same steps
                    b = find_crossing(lambda b: expected_utility(d, params, b), 0.0,
                                      upper_bid_bracket(d, params))
                    assert sol.b_star.hex() == b.hex()
            if p == 0.0:
                assert sols[0].status == SolutionStatus.BOUNDARY_FULL_EROSION
            if strike == 0.8:
                assert SolutionStatus.BOUNDARY_ZERO_BID in {sol.status for sol in sols}

    def test_an_empty_grid_has_no_solutions(self):
        assert solve_equilibria(U01, []) == []
        columns, statuses = solve_columns(U01, [])
        assert [column.size for column in columns.values()] == [0] * 6 and statuses == []

    def test_the_records_are_the_rows_of_the_columns(self):
        # alpha = 0 erodes the bid (p_exec = 0), strike 0.8 with p = 0.5 forces a zero bid
        alphas = [float(alpha) for alpha in np.linspace(0.0, 1.0, 11)]
        pairs = [(d, AuctionParams(strike, alpha, p, q)) for d in (U01, Beta(2.0, 5.0)) for alpha in alphas
                 for strike, p, q in [(0.5, 0.0, 0.0), (0.5, 0.1, 0.1), (0.8, 0.5, 0.2)]]
        laws, grid = zip(*pairs)
        columns, statuses = solve_columns(laws, grid)
        sols = solve_equilibria(laws, grid)
        assert [*columns, "status"] == list(vars(sols[0]))
        assert all(column.dtype == np.float64 and column.shape == (len(grid),) for column in columns.values())
        assert statuses == [sol.status for sol in sols]
        assert set(statuses) == set(SolutionStatus)
        rows = zip(*(column.tolist() for column in columns.values()))
        for sol, row, status in zip(sols, rows, statuses):
            row = dict(zip(columns, row), status=status)
            assert (sol.effective_spread is None) == (row["p_exec"] <= 0.0)
            if sol.effective_spread is None:
                row["effective_spread"] = None
            assert list(map(repr, vars(sol).values())) == list(map(repr, row.values()))

    # at tol 1e-300, Beta(2, 5) and K = 0.5, the residual gate fails at alpha 0.1
    # and 0.2 but not at 0.5; a strike at the support top is refused before any
    # search, and alpha = 0 erodes the bid without one
    GATED, GATED_TOO = AuctionParams(0.5, 0.1), AuctionParams(0.5, 0.2)
    REFUSED, SOLVED, ERODED = AuctionParams(1.0, 0.5), AuctionParams(0.5, 0.5), AuctionParams(0.5, 0.0)
    # on Beta(2, 5) at alpha 0.5 the bracket (1 - K) / 0.5 overflows for K below about -9e307
    OVERFLOWED = AuctionParams(-1e308, 0.5)

    # two-law grids, law-major: Beta(5, 2) fails the gate at alpha 0.05, earlier in
    # alpha than Beta(2, 5) does, and no strike is below the top of Uniform(0, 0.4)
    EARLY = [(Beta(5.0, 2.0), AuctionParams(0.5, 0.05)), (Beta(5.0, 2.0), SOLVED)]
    NARROW = [(Uniform(0.0, 0.4), AuctionParams(0.5, 0.05)), (Uniform(0.0, 0.4), SOLVED)]

    @pytest.mark.parametrize("grid", [[SOLVED, GATED_TOO, REFUSED, GATED], [ERODED, REFUSED, GATED],
                                      [GATED, GATED_TOO], [GATED_TOO, GATED], [SOLVED, ERODED],
                                      [SOLVED, OVERFLOWED, GATED], [GATED, OVERFLOWED],
                                      [REFUSED, OVERFLOWED],
                                      [SOLVED, GATED_TOO, *EARLY], [SOLVED, ERODED, *EARLY],
                                      [SOLVED, GATED, *NARROW], [SOLVED, *NARROW, *EARLY]])
    def test_the_first_failing_element_raises_what_it_raises_alone(self, grid):
        # an element is its params, under Beta(2, 5), or a (law, params) pair
        laws, grid = zip(*(x if isinstance(x, tuple) else (Beta(2.0, 5.0), x) for x in grid))

        def outcome(call):
            try:
                call()
            except (ConvergenceError, InvalidParamsError) as exc:
                return type(exc), str(exc)
            return None

        alone = [outcome(lambda: solve_equilibrium(d, params, tol=1e-300)) for d, params in zip(laws, grid)]
        first = next(filter(None, alone), None)
        assert outcome(lambda: solve_equilibria(laws, grid, tol=1e-300)) == first
        if len(set(map(repr, laws))) == 1:
            assert outcome(lambda: solve_equilibria(laws[0], grid, tol=1e-300)) == first

    def test_several_laws_in_one_call_equal_each_law_solved_alone(self):
        laws = [U01, Beta(2.0, 2.0), Beta(2.0, 5.0), Beta(5.0, 2.0), Beta(0.5, 0.5)]
        alphas = [float(alpha) for alpha in np.linspace(0.0, 1.0, 21)]
        # alpha = 0 erodes the bid, strike 0.8 with p = 0.5 forces a zero bid
        mixes = [AuctionParams(strike, alpha, p, q) for alpha in alphas
                 for strike, p, q in [(0.5, 0.0, 0.0), (0.5, 0.1, 0.1), (0.8, 0.5, 0.2)]]
        pairs = [(d, params) for d in laws for params in mixes]  # law-major
        sols = solve_equilibria([d for d, _ in pairs], [params for _, params in pairs])
        assert [vars(sol) for sol in sols] == [vars(solve_equilibrium(d, params)) for d, params in pairs]
        assert {sol.status for sol in sols} == set(SolutionStatus)
        # laws interleaved, so that no two adjacent elements share one
        pairs = pairs[::7] + pairs[3::7]
        sols = solve_equilibria([d for d, _ in pairs], [params for _, params in pairs])
        assert [vars(sol) for sol in sols] == [vars(solve_equilibrium(d, params)) for d, params in pairs]

    def test_one_law_per_element_or_one_for_all(self):
        grid = [self.SOLVED, self.ERODED]
        assert solve_equilibria([U01, U01], grid) == solve_equilibria(U01, grid)
        with pytest.raises(InvalidParamsError, match="one law per element"):
            solve_equilibria([U01], grid)


@st.composite
def auctions(draw):
    """A law and auction parameters with the strike below the support top."""
    if draw(st.booleans()):
        lo = draw(st.floats(-1e3, 1e3))
        d = Uniform(lo, lo + draw(st.floats(1e-3, 1e3)))
    else:
        d = Beta(draw(st.floats(0.2, 50.0)), draw(st.floats(0.2, 50.0)))
    lo, hi = d.support.lo, d.support.hi
    strike = draw(st.floats(lo - (hi - lo), hi, exclude_max=True) | st.just(math.nextafter(hi, -math.inf)))
    alpha = draw(st.sampled_from([5e-324, 1e-300, 1.0 - 2.0**-53, 1.0]) | st.floats(0.0, 1.0))
    p = draw(st.floats(0.0, 1.0))
    q = draw(st.floats(0.0, 1.0 - p))
    return d, AuctionParams(strike, alpha, p, q)


@settings(max_examples=150, deadline=None)
@given(cases=st.lists(auctions(), min_size=1, max_size=8))
def test_every_search_brackets_its_crossing(cases):
    # find_crossings never widens a bracket, so the utility must be nonpositive
    # at the upper end of each bracket the solver searches
    for d, params in cases:
        upper = upper_bid_bracket(d, params)
        if expected_utility(d, params, upper) > 0.0:
            # the threshold rounds below the support top; the solver searches again from 2 * upper
            assert params.strike + (1.0 - params.alpha) * upper < d.support.hi
            assert expected_utility(d, params, 2.0 * upper) <= 0.0
    solve_equilibria([d for d, _ in cases], [params for _, params in cases])  # no BracketError


def test_a_threshold_rounded_below_the_top_is_searched_from_twice_the_bracket():
    d, params = Uniform(-40.49519244342981, 42.018311888024805), AuctionParams(-27.302838737813303, 1e-20)
    upper = upper_bid_bracket(d, params)
    assert params.strike + (1.0 - params.alpha) * upper < d.support.hi
    assert expected_utility(d, params, upper) > 0.0
    # the crossing lies between upper and the next float
    sol = solve_equilibrium(d, params)
    assert sol.b_star.hex() == "0x1.1548dbb5ac422p+6" and sol.status == SolutionStatus.INTERIOR_ROOT
    assert expected_utility(d, params, math.nextafter(upper, math.inf)) <= 0.0


class Limitless(Uniform):
    """A uniform law whose upper partial expectation is 1e300 at every threshold,
    so the winner's utility is positive at every bid."""

    def partial_expectation(self, t):
        return np.full(np.shape(t), 1e300)


def test_a_utility_positive_at_twice_the_bracket_is_a_bracket_error():
    d, params = Limitless(0.0, 1.0), AuctionParams(0.5, 0.5)  # the upper bracket is 1.0
    message = r"^no sign change up to 2\.0; f is positive at both ends$"
    with pytest.raises(BracketError, match=message):
        solve_equilibrium(d, params)
    # the first failing element raises, whatever the others do
    with pytest.raises(BracketError, match=message):
        solve_equilibria([U01, d, U01], [params, params, AuctionParams(2.0, 0.5)])
    with pytest.raises(InvalidParamsError, match="worthless"):
        solve_equilibria([U01, d], [AuctionParams(2.0, 0.5), params])


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
