#!/usr/bin/env python3
"""Validate the analytic solution by playing the auction trial-by-trial.

Every quantity the solver produces has an empirical counterpart: mean winner
utility (zero at the equilibrium bid), execution rate, revenue per auction,
and the average spread of executed orders.  The simulation also recovers the
equilibrium bid itself as the zero crossing of the empirical utility under
common random numbers: one sort of the trials that can execute, then a
binary search and one slice sum per bid the root search tries.
"""

from flowauction import (
    AuctionParams,
    Beta,
    SimConfig,
    Uniform,
    calibrate_zero_profit_bid,
    simulate_auction,
    solve_equilibrium,
)

N = 1_000_000
SEED = 42

for d, label in [(Uniform(0.0, 1.0), "uniform[0,1]"), (Beta(2.0, 5.0), "beta(2,5)")]:
    print(f"--- {label}, K = 0.5, alpha = 0.5, {N:,} trials, seed {SEED} ---")
    params = AuctionParams(strike=0.5, alpha=0.5)
    sol = solve_equilibrium(d, params)
    res = simulate_auction(d, params, SimConfig(n_trials=N, seed=SEED, bid=sol.b_star))

    rows = [
        ("mean utility", res.mean_utility, 0.0, res.se_utility),
        ("execution rate", res.exec_rate, sol.p_exec, res.se_exec),
        ("revenue", res.mean_revenue, sol.revenue, res.se_revenue),
        ("spread | exec", res.mean_spread_given_exec, sol.effective_spread, res.se_spread),
    ]
    print(f"{'quantity':<15} {'simulated':>12} {'analytic':>12} {'z':>7}")
    for name, emp, ana, se in rows:
        z = (emp - ana) / se if se > 0 else 0.0
        print(f"{name:<15} {emp:12.6f} {ana:12.6f} {z:+7.2f}")

    calibrated = calibrate_zero_profit_bid(d, params, n_per_eval=N, seed=SEED)
    print(f"empirical zero-profit bid: {calibrated:.6f} (analytic {sol.b_star:.6f})")
    print()

print("Forced outcomes: p forces execution, q forces failure, regardless of the winner.")
params = AuctionParams(strike=0.5, alpha=0.5, p=0.2, q=0.1)
d = Uniform(0.0, 1.0)
sol = solve_equilibrium(d, params)
res = simulate_auction(d, params, SimConfig(n_trials=N, seed=SEED, bid=sol.b_star))
print(f"p=0.2, q=0.1: simulated exec rate {res.exec_rate:.4f} vs analytic {sol.p_exec:.4f}, "
      f"mean utility {res.mean_utility:+.6f} (se {res.se_utility:.6f})")
