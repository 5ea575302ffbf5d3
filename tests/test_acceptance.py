"""End-to-end acceptance checks.

Each test covers one gate of the suite, prints a single PASS line with its
runtime when it succeeds, and pins the tolerance it enforces.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from flowauction import (
    AuctionParams,
    Beta,
    SimConfig,
    SolutionStatus,
    Uniform,
    calibrate_zero_profit_bid,
    expected_utility,
    published_closed_form_bid,
    regularized_incomplete_beta,
    simulate_auction,
    solve_equilibria,
    solve_equilibrium,
    uniform_closed_form_bid,
)
from flowauction.cli import main

U01 = Uniform(0.0, 1.0)
BETA_LAWS = [Beta(2.0, 2.0), Beta(2.0, 5.0), Beta(5.0, 2.0), Beta(0.5, 0.5)]


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _report(number, label, timer, budget=None):
    note = f" ({timer.elapsed:.2f}s" + (f" < {budget:g}s)" if budget else ")")
    print(f"\n[criterion {number:2d}] PASS - {label}{note}")
    if budget is not None:
        assert timer.elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_corner_cases():
    with _Timer() as t:
        s1 = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=1.0))
        s0 = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=0.0))
    assert abs(s1.b_star - 0.125) <= 1e-9
    assert abs(s1.p_exec - 0.5) <= 1e-9
    assert abs(s1.revenue - 0.125) <= 1e-9
    assert abs(s0.b_star - 0.5) <= 1e-9
    assert abs(s0.p_exec) <= 1e-9
    assert abs(s0.revenue) <= 1e-9
    _report(1, "corner cases (all-upfront and all-contingent)", t, budget=1.0)


def test_criterion_02_closed_form_agreement():
    with _Timer() as t:
        alphas = [float(alpha) for alpha in np.linspace(0.0, 1.0, 1001)]
        sols = solve_equilibria(U01, [AuctionParams(strike=0.5, alpha=alpha) for alpha in alphas])
        worst = max(abs(sol.b_star - uniform_closed_form_bid(alpha)) for alpha, sol in zip(alphas, sols))
    assert worst <= 1e-9, f"max closed-form gap {worst:.3e}"
    _report(2, f"solver vs 1/(2(1+sqrt(a))^2) on 1001 alphas, max gap {worst:.2e}", t, budget=1.0)


def test_criterion_03_errata_regression(capsys):
    with _Timer() as t:
        assert published_closed_form_bid(1.0) == 0.25
        assert uniform_closed_form_bid(1.0) == 0.125
        numeric = solve_equilibrium(U01, AuctionParams(strike=0.5, alpha=1.0)).b_star
        assert abs(numeric - 0.125) <= 1e-12
        code = main(["compare-oracle", "--alpha-grid", "0,1,11"])
        out = capsys.readouterr().out
    assert code == 0
    last_row = out.strip().splitlines()[-2]
    footer = out.strip().splitlines()[-1]
    assert last_row.startswith("1,0.125,0.25,0.125,")
    assert "max_abs_published_minus_numeric=0.125" in footer
    with capsys.disabled():
        _report(3, "published closed form pinned to 0.25 at alpha=1, corrected/numeric to 0.125", t)


def test_criterion_04_monotonicity():
    slack = 1e-9
    grid = np.linspace(0.0, 1.0, 101)
    with _Timer() as t:
        for d in [U01] + BETA_LAWS:
            sols = solve_equilibria(d, [AuctionParams(0.5, float(a)) for a in grid])
            for prev, cur in zip(sols, sols[1:]):
                assert cur.p_exec >= prev.p_exec - slack
                assert cur.revenue >= prev.revenue - slack
                assert cur.b_star <= prev.b_star + slack
                assert cur.threshold <= prev.threshold + slack
                if prev.effective_spread is not None and cur.effective_spread is not None:
                    assert cur.effective_spread <= prev.effective_spread + slack
    _report(4, "p_exec/revenue up, spread/bid down in alpha on 5 laws x 101 alphas", t, budget=5.0)


def test_criterion_05_revenue_identity():
    grid = np.linspace(0.0, 1.0, 101)
    with _Timer() as t:
        checked = 0
        for d in [U01] + BETA_LAWS:
            for p, q in [(0.0, 0.0), (0.1, 0.1), (0.3, 0.0), (0.0, 0.5)]:
                for sol in solve_equilibria(d, [AuctionParams(0.5, float(alpha), p, q) for alpha in grid]):
                    if sol.status == SolutionStatus.BOUNDARY_ZERO_BID:
                        # zero profit fails at the bid floor; the payment
                        # identity pins revenue to zero there instead
                        assert sol.revenue == 0.0
                        continue
                    if sol.p_exec > 0.0:
                        assert abs(sol.revenue - sol.p_exec * sol.effective_spread) <= 1e-9
                        checked += 1
    assert checked > 1500
    _report(5, f"revenue = p_exec x spread at {checked} zero-profit grid points incl. p/q", t, budget=5.0)


def test_criterion_06_monte_carlo_validation():
    with _Timer() as t:
        worst = 0.0
        for d in [U01, Beta(2.0, 5.0)]:
            for alpha in [0.25, 0.5, 1.0]:
                params = AuctionParams(strike=0.5, alpha=alpha)
                sol = solve_equilibrium(d, params)
                res = simulate_auction(d, params, SimConfig(n_trials=10**6, seed=42, bid=sol.b_star))
                zs = [res.mean_utility / res.se_utility,
                      (res.exec_rate - sol.p_exec) / res.se_exec,
                      (res.mean_spread_given_exec - sol.effective_spread) / res.se_spread]
                if res.se_revenue > 0.0:
                    zs.append((res.mean_revenue - sol.revenue) / res.se_revenue)
                else:
                    assert abs(res.mean_revenue - sol.revenue) <= 1e-12
                assert all(abs(z) <= 4.0 for z in zs), (d, alpha, zs)
                worst = max(worst, max(abs(z) for z in zs))
    _report(6, f"10^6-trial z-checks at b* for 6 cases, worst |z| = {worst:.2f}", t, budget=30.0)


def test_criterion_07_empirical_calibration():
    with _Timer() as t:
        for d, alpha in [(U01, 0.5), (Beta(2.0, 2.0), 0.5)]:
            params = AuctionParams(strike=0.5, alpha=alpha)
            sol = solve_equilibrium(d, params)
            cal = calibrate_zero_profit_bid(d, params, n_per_eval=10**6, seed=42)
            res = simulate_auction(d, params, SimConfig(n_trials=10**6, seed=42, bid=sol.b_star))
            h = 1e-6
            slope = (
                expected_utility(d, params, sol.b_star + h)
                - expected_utility(d, params, sol.b_star - h)
            ) / (2 * h)
            se_bid = res.se_utility / abs(slope)
            assert abs(cal - sol.b_star) <= 3.0 * se_bid, (d, cal, sol.b_star, se_bid)
    _report(7, "stochastic bisection lands within 3 SE of b* (uniform and Beta(2,2))", t, budget=60.0)


def test_criterion_08_forced_outcome_reduction():
    rng = np.random.default_rng(20240817)
    with _Timer() as t:
        for case in range(20):
            if case % 2 == 0:
                lo = rng.uniform(-1.0, 1.0)
                hi = lo + rng.uniform(0.5, 2.0)
                d = Uniform(lo, hi)
                strike = lo + rng.uniform(0.2, 0.7) * (hi - lo)
            else:
                d = Beta(rng.uniform(0.6, 6.0), rng.uniform(0.6, 6.0))
                strike = rng.uniform(0.2, 0.8)
            alpha = rng.uniform(0.05, 1.0)
            general = solve_equilibrium(d, AuctionParams(strike, alpha, 0.0, 0.0))

            # independent route: bisection on the utility written without p/q
            def base_eu(b):
                thr = strike + (1.0 - alpha) * b
                return d.partial_expectation(thr) - thr * (1.0 - d.cdf(thr)) - alpha * b

            b_hi = (d.support.hi - strike) / (1.0 - alpha)
            for _ in range(64):
                if base_eu(b_hi) <= 0.0:
                    break
                b_hi *= 2.0
            b_lo = 0.0
            for _ in range(200):
                mid = 0.5 * (b_lo + b_hi)
                if mid == b_lo or mid == b_hi:
                    break
                if base_eu(mid) > 0.0:
                    b_lo = mid
                else:
                    b_hi = mid
            base_bid = 0.5 * (b_lo + b_hi)
            assert abs(general.b_star - base_bid) <= 1e-12

        forced = solve_equilibrium(U01, AuctionParams(0.25, 0.5, p=1.0))
        assert forced.p_exec == 1.0
        failed = solve_equilibrium(U01, AuctionParams(0.5, 0.5, q=1.0))
        assert failed.p_exec == 0.0
    _report(8, "p=q=0 solver matches the base route on 20 random cases; p=1 and q=1 corners exact", t)


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
# [x/2, x], [x/4, x/2], ..., [x/2**60, x/2**59], [0, x/2**60]: each panel but
# the last is as wide as its distance from 0, where the integrand is singular
GRADED_HI = 2.0 ** -np.arange(61.0)
GRADED_LO = np.append(GRADED_HI[1:], 0.0)


def _graded_gauss_legendre(g, x):
    """``∫_0^x g`` by a fixed 20-point Gauss–Legendre rule on panels graded toward 0.

    ``g`` takes an ndarray.  A power ``t**c`` is smooth on every panel that
    does not touch 0, and the last one holds a mass below ``x * 2**-60``.
    """
    lo, hi = x * GRADED_LO, x * GRADED_HI
    half = 0.5 * (hi - lo)[:, None]
    nodes = lo[:, None] + half * (1.0 + GL_NODES)
    return float(np.sum(half * GL_WEIGHTS * g(nodes)))


def _betainc_by_quadrature(a, b, x):
    """Graded Gauss–Legendre reference for I_x(a,b).

    The symmetry switch keeps the upper integration endpoint away from 1;
    substituting t = u^(1/a) removes the t = 0 singularity when a < 1.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc_by_quadrature(b, a, 1.0 - x)
    norm = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    if a < 1.0:
        inv_a = 1.0 / a
        g = lambda u: norm * inv_a * (1.0 - u**inv_a) ** (b - 1.0)
        return _graded_gauss_legendre(g, x**a)
    g = lambda t: norm * t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)
    return _graded_gauss_legendre(g, x)


def test_criterion_09_special_function_accuracy():
    rng = np.random.default_rng(20240817)
    with _Timer() as t:
        worst = 0.0
        for _ in range(1000):
            a = rng.uniform(0.5, 10.0)
            b = rng.uniform(0.5, 10.0)
            x = rng.random()
            err = abs(regularized_incomplete_beta(a, b, x) - _betainc_by_quadrature(a, b, x))
            worst = max(worst, err)
    assert worst <= 1e-10, f"max |betainc - quadrature| = {worst:.3e}"
    _report(9, f"incomplete beta vs quadrature on 1000 samples, max err {worst:.2e}", t)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    sim_args = ["simulate", "--dist", "beta:2,5", "--strike", "0.5", "--alpha", "0.5",
                "--n", "300000", "--seed", "42"]
    sweep_args = ["sweep", "--figure2", "--alpha-grid", "0,1,21"]
    with _Timer() as t:
        paths = [tmp_path / name for name in ("sim1", "sim2", "sweep1", "sweep2")]
        assert main(sim_args + ["--output", str(paths[0])]) == 0
        assert main(sim_args + ["--output", str(paths[1])]) == 0
        assert main(sweep_args + ["--output", str(paths[2])]) == 0
        assert main(sweep_args + ["--output", str(paths[3])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[2].read_bytes() == paths[3].read_bytes()
    with capsys.disabled():
        _report(10, "repeated simulate/sweep runs are byte-identical", t)
