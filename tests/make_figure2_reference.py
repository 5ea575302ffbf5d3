"""Write tests/golden/figure2-reference.csv: the figure-2 grid solved at 40 digits.

For each of the four Beta laws of ``sweep --figure2`` and each of its 101
alphas, at strike K = 1/2 and p = q = 0, the zero-profit bid b* solves

    E[(S - t)+] = alpha * b,   t = K + (1 - alpha) * b,

where E[(S - t)+] = mean * (1 - I_t(a + 1, b)) - t * (1 - I_t(a, b)) and I is
the regularized incomplete beta function.  mpmath evaluates it at 40 digits
and finds each root with a bracketing solver on [0, (1 - K) / (1 - alpha)],
where the utility goes from positive to -alpha * b.  The row then holds b*,
p_exec = 1 - I_t(a, b), revenue alpha b* + (1 - alpha) b* p_exec and the
effective spread E[(S - K) 1{S > t}] / p_exec, each at 20 significant digits.
At alpha = 0 competition erodes the bid to b* = 1 - K, where p_exec and revenue
are 0 and the spread is undefined (an empty field).

Nothing here calls the library, so tier 1 reads the table without mpmath.
Run it by hand, with mpmath installed:

    python tests/make_figure2_reference.py [--output PATH]
"""

import argparse
import csv
from pathlib import Path

import mpmath as mp
import numpy as np

OUTPUT = Path(__file__).parent / "golden" / "figure2-reference.csv"
LAWS = [("beta:2,2", 2, 2), ("beta:2,5", 2, 5), ("beta:5,2", 5, 2), ("beta:0.5,0.5", 0.5, 0.5)]
STRIKE = mp.mpf(1) / 2
ALPHAS = np.linspace(0.0, 1.0, 101).tolist()  # the bits of the CLI's default grid
DIGITS = 20


def row(a, b, alpha):
    """b*, p_exec, revenue and spread of Beta(a, b) at ``alpha``, or ``None`` where undefined."""
    a, b, alpha = mp.mpf(a), mp.mpf(b), mp.mpf(alpha)
    mean = a / (a + b)

    def tail(t):  # p_exec and E[S 1{S > t}] at the threshold t, which rounding may put past 1
        t = min(t, 1)
        return 1 - mp.betainc(a, b, 0, t, regularized=True), mean * (1 - mp.betainc(a + 1, b, 0, t, regularized=True))

    def utility(bid):
        t = STRIKE + (1 - alpha) * bid
        above, partial = tail(t)
        return partial - t * above - alpha * bid

    if alpha == 0:
        return 1 - STRIKE, mp.mpf(0), mp.mpf(0), None
    upper = (1 - STRIKE) / (1 - alpha) if alpha < 1 else 1 - STRIKE
    bid = mp.findroot(utility, (mp.mpf(0), upper), solver="anderson")
    assert abs(utility(bid)) < mp.mpf(10) ** -35, (a, b, alpha)
    p_exec, partial = tail(STRIKE + (1 - alpha) * bid)
    revenue = alpha * bid + (1 - alpha) * bid * p_exec
    return bid, p_exec, revenue, (partial - STRIKE * p_exec) / p_exec


def main():
    parser = argparse.ArgumentParser(description="Write the 40-digit figure-2 reference table.")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args()
    mp.mp.dps = 40
    with args.output.open("w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["dist", "alpha", "b_star", "p_exec", "revenue", "effective_spread"])
        for label, a, b in LAWS:
            for alpha in ALPHAS:
                values = row(a, b, alpha)
                writer.writerow([label, repr(alpha), *("" if v is None else mp.nstr(v, DIGITS) for v in values)])


if __name__ == "__main__":
    main()
