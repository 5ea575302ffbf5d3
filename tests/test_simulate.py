import math

import pytest

from flowauction import (
    AuctionParams,
    Beta,
    InvalidParamsError,
    SimConfig,
    Uniform,
    calibrate_zero_profit_bid,
    effective_spread,
    execution_probability,
    expected_utility,
    revenue,
    simulate_auction,
    solve_equilibrium,
)

U01 = Uniform(0.0, 1.0)


def z(emp, ana, se):
    return (emp - ana) / se


def check_against_analytic(d, params, n=200_000, seed=42):
    """Simulate at the analytic equilibrium bid and z-test every estimate."""
    sol = solve_equilibrium(d, params)
    res = simulate_auction(d, params, SimConfig(n_trials=n, seed=seed, bid=sol.b_star))
    assert abs(z(res.mean_utility, 0.0, res.se_utility)) <= 4.0
    assert abs(z(res.exec_rate, sol.p_exec, res.se_exec)) <= 4.0
    if res.se_revenue > 0.0:
        assert abs(z(res.mean_revenue, sol.revenue, res.se_revenue)) <= 4.0
    else:
        assert res.mean_revenue == pytest.approx(sol.revenue, abs=1e-12)
    if sol.effective_spread is not None:
        assert abs(z(res.mean_spread_given_exec, sol.effective_spread, res.se_spread)) <= 4.0
    return res, sol


class TestSimulateAuction:
    def test_deterministic_given_config(self):
        params = AuctionParams(strike=0.5, alpha=0.25)
        cfg = SimConfig(n_trials=300_000, seed=7, bid=2 / 9)
        assert simulate_auction(U01, params, cfg) == simulate_auction(U01, params, cfg)

    def test_parallel_equals_serial(self):
        params = AuctionParams(strike=0.5, alpha=0.5, p=0.1, q=0.1)
        cfg = SimConfig(n_trials=600_000, seed=3, bid=0.1)
        assert simulate_auction(U01, params, cfg, workers=4) == simulate_auction(
            U01, params, cfg
        )

    def test_empty_execution_region_is_exact(self):
        # threshold 0.5 + 0.5*1.2 = 1.1 sits above the support
        params = AuctionParams(strike=0.5, alpha=0.5)
        res = simulate_auction(U01, params, SimConfig(n_trials=100_000, seed=1, bid=1.2))
        assert res.exec_rate == 0.0
        assert res.n_exec == 0
        assert res.mean_utility == -0.6
        assert res.se_utility == 0.0
        assert res.mean_spread_given_exec is None
        assert res.mean_revenue == 0.6  # the upfront half is still collected

    def test_forced_execution_rate_exact(self):
        params = AuctionParams(strike=0.5, alpha=0.5, p=1.0)
        res = simulate_auction(U01, params, SimConfig(n_trials=50_000, seed=2, bid=0.1))
        assert res.exec_rate == 1.0
        assert res.n_exec == 50_000

    def test_forced_failure_rate_exact(self):
        params = AuctionParams(strike=0.5, alpha=0.5, q=1.0)
        res = simulate_auction(U01, params, SimConfig(n_trials=50_000, seed=2, bid=0.1))
        assert res.exec_rate == 0.0
        assert res.mean_utility == -0.05

    def test_uniform_zero_profit(self):
        check_against_analytic(U01, AuctionParams(strike=0.5, alpha=1.0))
        check_against_analytic(U01, AuctionParams(strike=0.5, alpha=0.25))

    def test_beta_zero_profit(self):
        check_against_analytic(Beta(2.0, 5.0), AuctionParams(strike=0.5, alpha=0.5))

    def test_forced_outcomes_zero_profit(self):
        check_against_analytic(U01, AuctionParams(strike=0.5, alpha=0.5, p=0.1, q=0.1))

    def test_empirical_revenue_identity(self):
        params = AuctionParams(strike=0.5, alpha=0.5)
        res, sol = check_against_analytic(U01, params, n=400_000)
        combined_se = math.sqrt(
            res.se_revenue**2
            + (res.mean_spread_given_exec * res.se_exec) ** 2
            + (res.exec_rate * res.se_spread) ** 2
        )
        gap = res.mean_revenue - res.exec_rate * res.mean_spread_given_exec
        assert abs(gap) <= 4.0 * combined_se

    def test_off_equilibrium_bid_against_analytic(self):
        params = AuctionParams(strike=0.5, alpha=0.5)
        bid = 0.1
        res = simulate_auction(U01, params, SimConfig(n_trials=200_000, seed=11, bid=bid))
        assert abs(z(res.mean_utility, expected_utility(U01, params, bid), res.se_utility)) <= 4.0
        p_exec = execution_probability(U01, params, bid)
        assert abs(z(res.exec_rate, p_exec, res.se_exec)) <= 4.0
        assert abs(z(res.mean_revenue, revenue(params, bid, p_exec), res.se_revenue)) <= 4.0
        assert abs(
            z(res.mean_spread_given_exec, effective_spread(U01, params, bid), res.se_spread)
        ) <= 4.0

    def test_mean_utility_unbiased_across_seeds(self):
        # per-seed z-check; the count of |z| > 4 events should be ~0 out of 100
        params = AuctionParams(strike=0.5, alpha=0.5)
        b_star = solve_equilibrium(U01, params).b_star
        passes = 0
        for seed in range(100):
            res = simulate_auction(U01, params, SimConfig(n_trials=100_000, seed=seed, bid=b_star))
            if abs(res.mean_utility) <= 4.0 * res.se_utility:
                passes += 1
        assert passes >= 99

    def test_strike_above_support_rejected(self):
        with pytest.raises(InvalidParamsError):
            simulate_auction(
                U01, AuctionParams(strike=1.5, alpha=0.5), SimConfig(n_trials=10, seed=0, bid=0.1)
            )

    def test_config_validation(self):
        with pytest.raises(InvalidParamsError):
            SimConfig(n_trials=0, seed=0, bid=0.1)
        with pytest.raises(InvalidParamsError):
            SimConfig(n_trials=10, seed=0, bid=math.inf)

    @pytest.mark.parametrize(
        "n_trials, seed", [(True, 1), (10, True), (10.0, 1), (10, 1.5), (10, "1")]
    )
    def test_config_rejects_non_integer_counts(self, n_trials, seed):
        with pytest.raises(InvalidParamsError):
            SimConfig(n_trials=n_trials, seed=seed, bid=0.1)


class TestCalibration:
    def test_uniform_all_upfront(self):
        params = AuctionParams(strike=0.5, alpha=1.0)
        sol = solve_equilibrium(U01, params)
        cal = calibrate_zero_profit_bid(U01, params, n_per_eval=200_000, seed=42)
        res = simulate_auction(U01, params, SimConfig(n_trials=200_000, seed=42, bid=sol.b_star))
        h = 1e-6
        slope = (
            expected_utility(U01, params, sol.b_star + h)
            - expected_utility(U01, params, sol.b_star - h)
        ) / (2 * h)
        assert abs(cal - sol.b_star) <= 3.0 * res.se_utility / abs(slope)

    @pytest.mark.parametrize(
        "n_per_eval, seed", [(True, 1), (1000, True), (1000.5, 1), (1000, 1.5), (1000, "1"), (1, 1)]
    )
    def test_rejects_non_integer_counts(self, n_per_eval, seed):
        params = AuctionParams(strike=0.5, alpha=0.5)
        with pytest.raises(InvalidParamsError):
            calibrate_zero_profit_bid(U01, params, n_per_eval=n_per_eval, seed=seed)

    def test_rejects_degenerate_setting(self):
        with pytest.raises(InvalidParamsError):
            calibrate_zero_profit_bid(U01, AuctionParams(strike=0.5, alpha=0.0), 1000, 0)

    def test_liability_case_returns_zero(self):
        params = AuctionParams(strike=0.8, alpha=0.5, p=0.5, q=0.2)
        assert calibrate_zero_profit_bid(U01, params, 10_000, 0) == 0.0
