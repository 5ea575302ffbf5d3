#!/usr/bin/env python3
"""Sweep the upfront share on several price laws and check the monotone trends.

This reproduces the data behind the usual execution/revenue/spread curves:
for every law, execution probability and revenue rise with the upfront share
while the effective spread falls.  The same table is available from the CLI:

    flowauction sweep --alpha-grid 0,1,101
    flowauction sweep --figure2 --output figure2_data.csv
"""

import numpy as np

from flowauction import AuctionParams, Beta, Uniform, solve_equilibria

LAWS = {
    "uniform[0,1]": Uniform(0.0, 1.0),
    "beta(2,2)": Beta(2.0, 2.0),
    "beta(2,5)": Beta(2.0, 5.0),
    "beta(5,2)": Beta(5.0, 2.0),
    "beta(0.5,0.5)": Beta(0.5, 0.5),
}
K = 0.5
grid = np.linspace(0.0, 1.0, 11)

for name, d in LAWS.items():
    print(f"--- {name}, K = {K} ---")
    print(f"{'alpha':>6} {'b*':>10} {'P(exec)':>9} {'spread':>9} {'revenue':>10}")
    # one call solves the whole grid: its searches run in lockstep
    sols = solve_equilibria(d, [AuctionParams(strike=K, alpha=float(alpha)) for alpha in grid])
    for alpha, sol in zip(grid, sols):
        spread = f"{sol.effective_spread:9.4f}" if sol.effective_spread is not None else "      n/a"
        print(f"{alpha:6.2f} {sol.b_star:10.6f} {sol.p_exec:9.4f} {spread} {sol.revenue:10.6f}")

    p_up = all(b.p_exec >= a.p_exec - 1e-9 for a, b in zip(sols, sols[1:]))
    r_up = all(b.revenue >= a.revenue - 1e-9 for a, b in zip(sols, sols[1:]))
    defined = [s.effective_spread for s in sols if s.effective_spread is not None]
    s_down = all(b <= a + 1e-9 for a, b in zip(defined, defined[1:]))
    print(f"monotone: P(exec) rising {p_up}, revenue rising {r_up}, spread falling {s_down}")
    print()
