import csv
import math
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flowauction import (
    AuctionParams,
    Beta,
    ConvergenceError,
    DistributionSpec,
    InvalidParamsError,
    QuadratureDistribution,
    SolutionStatus,
    SupportInterval,
    Uniform,
    expected_utility,
    option_value,
    revenue,
    solve_columns,
    solve_equilibria,
    solve_equilibrium,
    uniform_closed_form_bid,
)
from flowauction import distributions
from flowauction.cli import FIGURE2_DISTS, main
from flowauction.equilibrium import _Batch, _record_columns, solution_at, upper_bid_bracket

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


def newton_reference(d, params):
    """The solver's search for one interior root, on Python floats: Newton's steps
    from b = 0 on :func:`expected_utility`, whose slope is -(alpha + (1 - alpha)
    (p + D (1 - F(t)))), D = 1 - p - q; a step at or beyond ``right``, first twice the
    upper bracket, bisects ``[left, right]`` instead.  This is the scalar statement of
    the loop that ``solve_columns`` runs in arrays."""
    alpha, p, q = params.alpha, params.p, params.q
    left, right, b, newton = 0.0, 2.0 * upper_bid_bracket(d, params), 0.0, True
    while True:
        u = expected_utility(d, params, b)
        if u > 0.0:
            t = params.strike + (1.0 - alpha) * b
            step = b + u / (alpha + (1.0 - alpha) * (p + (1.0 - p - q) * (1.0 - d.cdf(t))))
            if not step > b:
                return b
            left = b
        elif newton:
            return b
        else:
            right = b
        newton = u > 0.0 and step < right
        mid = left + 0.5 * (right - left)
        if not newton and (mid == left or mid == right):
            return right
        b = step if newton else mid


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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_rejected_on_an_empty_grid(self, tol):
        # the empty grid returned [] before tol was checked
        with pytest.raises(InvalidParamsError, match="tol must be positive"):
            solve_equilibria(U01, [], tol=tol)

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
        # a record reads the law once at its bid; its utility and revenue must equal
        # their own functions exactly, at b* and at bids off the equilibrium
        for strike, alpha, p, q in [(0.3, 0.0, 0.0, 0.0), (0.3, 0.4, 0.0, 0.0), (0.3, 1.0, 0.0, 0.0),
                                    (0.3, 0.4, 0.2, 0.1), (0.8, 0.5, 0.5, 0.2), (0.5, 0.5, 0.0, 1.0)]:
            params = AuctionParams(strike, alpha, p, q)
            solved = solve_equilibrium(d, params)
            for sol in (solved, solution_at(d, params, 0.5 * solved.b_star),
                        solution_at(d, params, solved.b_star + 0.05)):
                assert sol.residual == expected_utility(d, params, sol.b_star)
                assert sol.revenue == revenue(params, sol.b_star, sol.p_exec)

    def test_figure2_grid_takes_few_utility_evaluations(self, monkeypatch, tmp_path):
        # wrapped the way bench/spans.py wraps the laws; the 4 laws' grids are one
        # lockstep search, whose rounds each read the Beta family once on the
        # running searches, and then one read of the records at the roots.  Newton's
        # steps take about 5.6 reads per root in 10 rounds, the bracketed search
        # they replaced about 11.5 in 20, and plain bisection to adjacent floats
        # about 58
        sizes: list[int] = []

        def counted(law, t):
            sizes.append(np.size(t))
            return original(law, t)

        original = Beta.cdf
        monkeypatch.setattr(Beta, "cdf", counted)
        out = tmp_path / "figure2.csv"
        assert main(["sweep", "--figure2", "--output", str(out)]) == 0
        roots = out.read_text().count("interior_root")
        assert roots == 400 and sizes[-1] == 404
        rounds = sizes[:-1]
        assert sum(rounds) / roots <= 8
        assert len(rounds) <= 12

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
                if sol.status == SolutionStatus.INTERIOR_ROOT:
                    # the scalar search on the scalar utility takes the same steps
                    assert sol.b_star.hex() == newton_reference(d, params).hex()
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
    # the solver's bisections narrow [0, 2 * upper], so the utility must be
    # nonpositive at twice the upper bracket, and at the bracket itself unless
    # the threshold there rounds below the support top
    for d, params in cases:
        upper = upper_bid_bracket(d, params)
        if expected_utility(d, params, upper) > 0.0:
            assert params.strike + (1.0 - params.alpha) * upper < d.support.hi
        assert expected_utility(d, params, 2.0 * upper) <= 0.0
    solve_equilibria([d for d, _ in cases], [params for _, params in cases])  # every element passes the gate


def test_a_threshold_rounded_below_the_top_is_solved():
    d, params = Uniform(-40.49519244342981, 42.018311888024805), AuctionParams(-27.302838737813303, 1e-20)
    upper = upper_bid_bracket(d, params)
    assert params.strike + (1.0 - params.alpha) * upper < d.support.hi
    assert expected_utility(d, params, upper) > 0.0
    # the crossing lies between upper and the next float
    assert expected_utility(d, params, math.nextafter(upper, math.inf)) <= 0.0
    sol = solve_equilibrium(d, params)  # solve_equilibrium raises where the residual gate fails
    assert sol.status == SolutionStatus.INTERIOR_ROOT and sol.residual <= 0.0


@settings(max_examples=200, deadline=None)
@given(
    uniform=st.tuples(st.floats(-10.0, 10.0), st.floats(0.1, 10.0)) | st.none(),
    shapes=st.tuples(st.floats(0.2, 50.0), st.floats(0.2, 50.0)),
    where=st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2).map(sorted),
    alpha=st.floats(0.0, 1.0, exclude_max=True),
    p=st.floats(0.0, 1.0),
    share=st.floats(0.0, 1.0),
)
def test_the_utility_slope_is_the_closed_form(uniform, shapes, where, alpha, p, share):
    # U'(b) = -(D (1 - alpha) (1 - F(t)) + alpha + p (1 - alpha)), D = 1 - p - q,
    # against a central difference that moves t by 1e-6 of the support width
    d = Uniform(uniform[0], sum(uniform)) if uniform else Beta(*shapes)
    lo, width = d.support.lo, d.support.hi - d.support.lo
    strike, t = (lo + u * width for u in where)  # the strike and threshold, away from the support ends
    q = share * (1.0 - p)
    params, b = AuctionParams(strike, alpha, p, q), (t - strike) / (1.0 - alpha)
    tail = 1.0 - d.cdf(strike + (1.0 - alpha) * b)
    slope = -((1.0 - p - q) * (1.0 - alpha) * tail + alpha + p * (1.0 - alpha))
    # near a zero slope (alpha and p near 0, and D near 0 or F(t) near 1) the difference is mostly rounding
    assume(slope <= -1e-3)
    h = 1e-6 * width / (1.0 - alpha)
    central = (expected_utility(d, params, b + h) - expected_utility(d, params, b - h)) / (2.0 * h)
    assert abs(central - slope) <= 1e-6 * abs(slope)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-10.0, 10.0), width=st.floats(0.1, 10.0), at=st.floats(0.0, 0.99),
    log_s=st.floats(-8.0, 8.0), c=st.floats(-1e3, 1e3),
    alpha=st.floats(0.01, 1.0), p=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0),
)
def test_mapping_prices_by_an_affine_map_scales_the_bid_and_keeps_p_exec(lo, width, at, log_s, c, alpha, p, share):
    # S -> c + s S maps the equilibrium bid to s b* and keeps p_exec.  Each solve's
    # residual is at most tol times its price scale and |U'(b)| >= alpha + p (1 - alpha),
    # so each bid is within their ratio of its exact root; 4 eps covers the residual's
    # own rounding.  p_exec = p + D (1 - F(t)) moves by D (1 - alpha) / width per unit
    # of b / s, and by at most 4 D / width per unit that rounding moves the mapped
    # strike or an end, eps (|c| + m) / s in the first law's units (m: the mapped law's
    # largest price).  At alpha = 1, t is the strike and only that rounding is left
    eps, s, q, tol = np.finfo(float).eps, math.exp(log_s), share * (1.0 - p), 1e-12
    strike = lo + at * width
    laws = [Uniform(lo, lo + width), Uniform(c + s * lo, c + s * (lo + width))]
    grid = [AuctionParams(strike, alpha, p, q), AuctionParams(c + s * strike, alpha, p, q)]
    one, two = solve_equilibria(laws, grid, tol)
    assume(one.status == two.status == SolutionStatus.INTERIOR_ROOT)
    prices = [max(abs(d.support.lo), abs(d.support.hi), abs(params.strike)) for d, params in zip(laws, grid)]
    scales = [m * max(1.0, m / (d.support.hi - d.support.lo)) for m, d in zip(prices, laws)]
    bound = (tol + 4.0 * eps) * (scales[0] + scales[1] / s) / (alpha + p * (1.0 - alpha))
    mapped = eps * (abs(c) + prices[1]) / s
    assert abs(two.b_star / s - one.b_star) <= bound
    assert abs(two.p_exec - one.p_exec) <= (1.0 - p - q) * ((1.0 - alpha) * bound + 4.0 * mapped) / width + 4.0 * eps


class Limitless(Uniform):
    """A uniform law whose upper partial expectation is 1e300 at every threshold,
    so the winner's utility is positive at every bid."""

    def partial_expectation(self, t):
        return np.full(np.shape(t), 1e300)


def test_a_utility_positive_at_twice_the_bracket_fails_the_residual_gate():
    # every Newton step overshoots twice the upper bracket, 2.0, so the search
    # bisects [left, 2.0] down to adjacent floats and returns 2.0
    d, params = Limitless(0.0, 1.0), AuctionParams(0.5, 0.5)  # the upper bracket is 1.0
    message = r"^residual 1e\+300 at bid 2\.0 for "
    with pytest.raises(ConvergenceError, match=message):
        solve_equilibrium(d, params)
    # the first failing element raises, whatever the others do
    with pytest.raises(ConvergenceError, match=message):
        solve_equilibria([U01, d, U01], [params, params, AuctionParams(2.0, 0.5)])
    with pytest.raises(InvalidParamsError, match="worthless"):
        solve_equilibria([U01, d], [AuctionParams(2.0, 0.5), params])


def test_the_figure2_sweep_reads_each_law_family_once_a_round(monkeypatch, tmp_path):
    # a counting stand-in for scipy.special: a read of the batch takes one Beta cdf
    # and one partial expectation, one betainc each, for all four Beta laws; a
    # read of each law on its own run of elements made 140 calls in the sweep
    special, calls = distributions._special(), {"betainc": 0, "read": 0}

    def betainc(*args):
        calls["betainc"] += 1
        return special.betainc(*args)

    def read(table, t):
        calls["read"] += 1
        return original(table, t)

    original = _Batch.read
    stand_in = SimpleNamespace(betainc=betainc, betaln=special.betaln)
    monkeypatch.setattr(distributions, "_special", lambda: stand_in)
    monkeypatch.setattr(_Batch, "read", read)
    assert main(["sweep", "--figure2", "--output", str(tmp_path / "figure2.csv")]) == 0
    assert calls["betainc"] <= 2 * calls["read"] and calls["betainc"] <= 26


def test_the_figure2_grid_matches_the_40_digit_reference():
    # tests/golden/figure2-reference.csv, written at 40 digits by make_figure2_reference.py:
    # every field of each interior root within 1e-13 relative (the worst was 1.3e-14),
    # and b* within the residual gate over the utility's slope, which is at least alpha
    # at p = 0, with 4 eps for the residual's own rounding; the price scale is 1 here
    with (Path(__file__).parent / "golden" / "figure2-reference.csv").open(encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [row["dist"] for row in rows[::101]] == list(FIGURE2_DISTS) and len(rows) == 404
    alpha = np.array([float(row["alpha"]) for row in rows])
    columns, statuses = solve_columns([DistributionSpec.parse(row["dist"]).build() for row in rows],
                                      [AuctionParams(0.5, a) for a in alpha.tolist()])
    interior = np.array([status == SolutionStatus.INTERIOR_ROOT for status in statuses])
    assert interior.tolist() == (alpha > 0.0).tolist()
    for key in ("b_star", "p_exec", "revenue", "effective_spread"):
        want = np.array([float(row[key] or "nan") for row in rows])
        assert (np.abs(columns[key] - want) <= 1e-13 * np.abs(want))[interior].all(), key
        if key == "b_star":
            gate = (1e-12 + 4.0 * np.finfo(float).eps) / alpha[interior]
            assert (np.abs(columns[key] - want)[interior] <= gate).all()
            assert (columns[key][~interior] == want[~interior]).all()  # eroded: b* = 1 - K


QUAD = QuadratureDistribution(lambda x: x * (2.0 - x), SupportInterval(0.0, 2.0))
MIXED = [U01, Beta(2.0, 2.0), QUAD, Beta(2.0, 5.0), Uniform(-1.0, 3.0), Beta(0.5, 0.5), Beta(2.0, 2.0)]


def edge_points(d):
    """Points off, at and inside the support, where Beta's cdf turns to the reflection."""
    lo, hi = d.support.lo, d.support.hi
    return [-math.inf, lo - 1.0, lo, math.nextafter(0.5, -1.0), 0.5, math.nextafter(0.5, 1.0), hi,
            hi + 1.0, math.inf, math.nan]


# point-major, so that no two adjacent elements share a law
READS = [(d, edge_points(d)[k]) for k in range(10) for d in MIXED]


@settings(max_examples=40, deadline=None)
@given(running=st.lists(st.booleans(), min_size=len(READS), max_size=len(READS)))
def test_a_grouped_read_equals_each_laws_own(running):
    table = _Batch.of([AuctionParams(0.0, 0.5)] * len(READS), [d for d, _ in READS])
    assert table.lo.tolist() == [d.support.lo for d, _ in READS]
    i = np.flatnonzero(running)
    rows = _Batch(*(column[i] for column in table[:-2]), table.groups, table.forced)  # the rows still running
    F, P = rows.read(np.array([READS[k][1] for k in i.tolist()]))
    np.testing.assert_array_equal(F, [READS[k][0].cdf(READS[k][1]) for k in i.tolist()])
    np.testing.assert_array_equal(P, [READS[k][0].partial_expectation(READS[k][1]) for k in i.tolist()])


@st.composite
def elements(draw):
    """A law of any family and auction parameters with the strike below the support top."""
    uniforms = st.builds(lambda lo, width: Uniform(lo, lo + width), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
    d = draw(st.sampled_from([Beta(2.0, 2.0), Beta(2.0, 5.0), Beta(5.0, 2.0), Beta(0.5, 0.5), QUAD]) | uniforms)
    lo, hi = d.support.lo, d.support.hi
    strike = min(lo + draw(st.floats(-1.0, 1.0)) * (hi - lo), math.nextafter(hi, -math.inf))
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    p = draw(st.just(0.0) | st.floats(0.0, 1.0))
    q = draw(st.floats(0.0, 1.0 - p))
    return d, AuctionParams(strike, alpha, p, q)


def hex_rows(columns):
    return [tuple(float(x).hex() for x in row) for row in zip(*columns.values())]


@settings(max_examples=30, deadline=None)
@given(cases=st.lists(elements(), min_size=2, max_size=12), data=st.data())
def test_a_batch_gives_each_element_what_it_gives_alone(cases, data):
    # round-robin over the families, so that they alternate as far as their counts allow
    families: dict[type, list] = {}
    for case in cases:
        families.setdefault(type(case[0]), []).append(case)
    cases = [case for row in zip_longest(*families.values()) for case in row if case is not None]
    laws, grid = zip(*cases)
    columns, statuses = solve_columns(laws, grid)
    rows = hex_rows(columns)
    for k, (d, params) in enumerate(cases):
        # bit for bit, signed zeros and the spread where p_exec is 0 (NaN or inf) included;
        # solve_equilibrium's record is this one-element row
        alone, alone_statuses = solve_columns(d, [params])
        assert rows[k] == hex_rows(alone)[0] and statuses[k:k + 1] == alone_statuses
    order = data.draw(st.permutations(range(len(cases))))
    shuffled, shuffled_statuses = solve_columns([laws[k] for k in order], [grid[k] for k in order])
    assert hex_rows(shuffled) == [rows[k] for k in order]
    assert shuffled_statuses == [statuses[k] for k in order]


def test_the_forced_term_is_added_only_where_p_is_positive():
    # at p = 0 the forced term is 0 * (mean - K - (1 - alpha) * b), which is NaN
    # where the bracket overflows: it must not be added, alone or beside a p > 0 element
    assert solution_at(Uniform(-1e308, 0.0), AuctionParams(-2.0, 0.0, q=0.5), 1.5e308).residual == 0.0
    d, params, b = Uniform(0.5e308, 1e308), AuctionParams(-1.5e308, 0.0), 1.5e308  # mean - K overflows
    forced = AuctionParams(0.5, 0.5, p=0.5)
    columns = _record_columns(_Batch.of([params, forced], [d, U01]), np.array([b, 0.3]))
    for k, lone in enumerate([solution_at(d, params, b), solution_at(U01, forced, 0.3)]):
        assert [float(column[k]).hex() for column in columns.values()] == [
            float(getattr(lone, key)).hex() for key in columns]


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
        assert solution_at(U01, AuctionParams(0.5, 1.0), 0.125).p_exec == pytest.approx(
            0.5, abs=1e-15
        )
        assert solution_at(U01, AuctionParams(0.5, 0.25), 2 / 9).p_exec == pytest.approx(
            1 / 3, abs=1e-15
        )
        assert solution_at(U01, AuctionParams(0.5, 0.3, p=1.0), 0.4).p_exec == 1.0

    def test_effective_spread_values(self):
        assert solution_at(U01, AuctionParams(0.5, 1.0), 0.125).effective_spread == pytest.approx(
            0.25, abs=1e-12
        )
        # 1/4 + (1 - alpha) b / 2 for the uniform law
        assert solution_at(U01, AuctionParams(0.5, 0.25), 2 / 9).effective_spread == pytest.approx(
            1 / 3, abs=1e-12
        )
        assert solution_at(U01, AuctionParams(0.5, 0.0), 0.5).effective_spread is None

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
