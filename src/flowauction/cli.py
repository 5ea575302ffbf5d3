"""Command-line interface.

Subcommands::

    flowauction solve --dist uniform:0,1 --strike 0.5 --alpha 0.25
    flowauction sweep --alpha-grid 0,1,101 --format csv --output sweep.csv
    flowauction sweep --figure2
    flowauction simulate --dist beta:2,5 --alpha 0.5 --n 1000000 --seed 42
    flowauction compare-oracle --alpha-grid 0,1,11

``solve`` prints one equilibrium record, ``sweep`` one record per grid alpha
(the data behind the execution/revenue/spread curves), ``simulate`` a Monte
Carlo run with analytic comparison columns and z-scores, ``compare-oracle``
the corrected/published/numeric bid comparison for uniform[0,1], K = 1/2.

Output is CSV (floats at 12 significant digits, undefined values as empty
fields) or JSON (full precision, re-serializable byte-for-byte).  Exit codes:
0 success, 2 configuration error, 3 internal numeric failure.  Flags override
values from an optional ``--config`` file of ``key = value`` lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import Distribution, DistributionSpec
from .equilibrium import (
    AuctionParams,
    EquilibriumSolution,
    effective_spread,
    execution_probability,
    expected_utility,
    revenue,
    solve_equilibrium,
)
from .errors import BracketError, InvalidParamsError
from .oracle import build_oracle_reports
from .simulate import SimConfig, simulate_auction

__all__ = ["RunConfig", "SweepRow", "main"]

DEFAULT_DIST = "uniform:0,1"
DEFAULT_STRIKE = 0.5
DEFAULT_TOL = 1e-12
DEFAULT_SEED = 42
DEFAULT_N_TRIALS = 1_000_000
DEFAULT_GRID = (0.0, 1.0, 101)
FIGURE2_DISTS = ("beta:2,2", "beta:2,5", "beta:5,2", "beta:0.5,0.5")

SWEEP_COLUMNS = (
    "alpha",
    "b_star",
    "threshold",
    "p_exec",
    "effective_spread",
    "revenue",
    "residual",
    "status",
)

SIMULATE_COLUMNS = (
    "alpha",
    "bid",
    "n_trials",
    "seed",
    "n_exec",
    "mean_utility",
    "se_utility",
    "exec_rate",
    "se_exec",
    "mean_revenue",
    "se_revenue",
    "mean_spread_given_exec",
    "se_spread",
    "analytic_utility",
    "analytic_p_exec",
    "analytic_revenue",
    "analytic_spread",
    "z_utility",
    "z_exec",
    "z_revenue",
    "z_spread",
)

ORACLE_COLUMNS = (
    "alpha",
    "corrected_bid",
    "published_bid",
    "numeric_bid",
    "corrected_minus_numeric",
    "published_minus_numeric",
)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of an alpha sweep."""

    alpha: float
    b_star: float
    threshold: float
    p_exec: float
    effective_spread: float | None
    revenue: float
    residual: float
    status: str

    @classmethod
    def from_solution(cls, alpha: float, sol: EquilibriumSolution) -> "SweepRow":
        return cls(
            alpha=alpha,
            b_star=sol.b_star,
            threshold=sol.threshold,
            p_exec=sol.p_exec,
            effective_spread=sol.effective_spread,
            revenue=sol.revenue,
            residual=sol.residual,
            status=sol.status.value,
        )

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "b_star": self.b_star,
            "threshold": self.threshold,
            "p_exec": self.p_exec,
            "effective_spread": self.effective_spread,
            "revenue": self.revenue,
            "residual": self.residual,
            "status": self.status,
        }


@dataclass(frozen=True)
class RunConfig:
    """Fully merged and validated settings for one CLI invocation."""

    command: str
    dists: tuple[DistributionSpec, ...]
    strike: float
    alpha: float | None
    alpha_grid: tuple[float, ...]
    p: float
    q: float
    tol: float
    n_trials: int
    seed: int
    bid: float | None
    fmt: str
    figure2: bool
    output: str | None


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        # RFC 4180 quoting for labels that contain the separator (beta:2,5)
        if "," in value or '"' in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def _csv_text(header, rows, footer: str | None = None) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    if footer is not None:
        lines.append(footer)
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Argument and config-file handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowauction",
        description="Equilibrium bids, execution probability, revenue and effective "
        "spread for order flow auctions with mixed upfront/contingent fees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, grid: bool, single_alpha: bool, sim: bool, figure2: bool):
        sp.add_argument("--dist", action="append", metavar="SPEC",
                        help="distribution spec: uniform:<lo>,<hi> or beta:<a>,<b>")
        sp.add_argument("--strike", type=float, metavar="K")
        if single_alpha:
            sp.add_argument("--alpha", type=float, metavar="A",
                            help="upfront share of the bid, in [0,1]")
        if grid:
            sp.add_argument("--alpha-grid", dest="alpha_grid", metavar="START,STOP,POINTS")
        sp.add_argument("--p", type=float, metavar="P", help="forced-execution probability")
        sp.add_argument("--q", type=float, metavar="Q", help="forced-failure probability")
        sp.add_argument("--tol", type=float, metavar="TOL")
        if sim:
            sp.add_argument("--n", dest="n_trials", type=int, metavar="N")
            sp.add_argument("--seed", type=int, metavar="SEED")
            sp.add_argument("--bid", type=float, metavar="B",
                            help="override the analytic equilibrium bid")
        if figure2:
            sp.add_argument("--figure2", action="store_true", default=None,
                            help="sweep the four default Beta laws and add a dist column")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"))
        sp.add_argument("--config", metavar="PATH", help="key = value defaults file")
        sp.add_argument("--output", metavar="PATH", help="write output here instead of stdout")

    add_common(sub.add_parser("solve", help="solve a single equilibrium"),
               grid=False, single_alpha=True, sim=False, figure2=False)
    add_common(sub.add_parser("sweep", help="solve on an alpha grid"),
               grid=True, single_alpha=False, sim=False, figure2=True)
    add_common(sub.add_parser("simulate", help="Monte Carlo validation run"),
               grid=False, single_alpha=True, sim=True, figure2=False)
    add_common(sub.add_parser("compare-oracle", help="closed-form vs numeric bid comparison"),
               grid=True, single_alpha=False, sim=False, figure2=False)
    return parser


_CONFIG_KEYS = {
    "dist", "strike", "alpha", "alpha-grid", "p", "q", "tol",
    "n", "seed", "bid", "format", "figure2", "output",
}


def _load_config_file(path: str) -> dict:
    out: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParamsError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidParamsError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise InvalidParamsError(f"{path}:{lineno}: unknown config key {key!r}")
        if key == "dist":
            out.setdefault("dist", []).append(value)
        else:
            out[key] = value
    return out


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidParamsError(f"expected a boolean, got {text!r}")


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidParamsError(f"--alpha-grid expects start,stop,points; got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError as exc:
        raise InvalidParamsError(f"bad --alpha-grid value {text!r}") from exc
    if points < 2:
        raise InvalidParamsError(f"alpha grid needs at least 2 points, got {points}")
    if not (0.0 <= start < stop <= 1.0):
        raise InvalidParamsError(f"alpha grid must be increasing within [0, 1], got {text!r}")
    return tuple(float(a) for a in np.linspace(start, stop, points))


def _make_run_config(ns: argparse.Namespace) -> RunConfig:
    config = _load_config_file(ns.config) if ns.config else {}

    def pick(attr: str, key: str, conv, default):
        flag = getattr(ns, attr, None)
        if flag is not None:
            return flag
        if key in config:
            try:
                return conv(config[key])
            except InvalidParamsError:
                raise
            except (TypeError, ValueError) as exc:
                raise InvalidParamsError(
                    f"bad config value for {key!r}: {config[key]!r}"
                ) from exc
        return default

    command = ns.command
    dist_texts = pick("dist", "dist", lambda v: v, None)
    figure2 = bool(pick("figure2", "figure2", _parse_bool, False))
    if figure2 and command != "sweep":
        raise InvalidParamsError("--figure2 applies to the sweep command only")

    if command == "compare-oracle":
        # fixed to the case the closed forms cover
        if dist_texts is not None and list(dist_texts) != [DEFAULT_DIST]:
            raise InvalidParamsError("compare-oracle is fixed to --dist uniform:0,1")
        strike_flag = pick("strike", "strike", float, None)
        if strike_flag is not None and strike_flag != DEFAULT_STRIKE:
            raise InvalidParamsError("compare-oracle is fixed to --strike 0.5")
        dist_texts = [DEFAULT_DIST]

    if dist_texts is None:
        dist_texts = FIGURE2_DISTS if figure2 else (DEFAULT_DIST,)
    dists = tuple(DistributionSpec.parse(t) for t in dist_texts)
    if command in ("solve", "simulate") and len(dists) != 1:
        raise InvalidParamsError(f"{command} takes exactly one --dist")

    alpha = pick("alpha", "alpha", float, None)
    if command in ("solve", "simulate"):
        if alpha is None:
            raise InvalidParamsError(f"{command} requires --alpha")
        if not 0.0 <= alpha <= 1.0:
            raise InvalidParamsError(f"alpha must lie in [0, 1], got {alpha}")

    grid_text = pick("alpha_grid", "alpha-grid", lambda v: v, None)
    if grid_text is not None:
        alpha_grid = _parse_grid(grid_text)
    else:
        alpha_grid = tuple(float(a) for a in np.linspace(*DEFAULT_GRID))

    p = pick("p", "p", float, 0.0)
    q = pick("q", "q", float, 0.0)
    tol = pick("tol", "tol", float, DEFAULT_TOL)
    n_trials = int(pick("n_trials", "n", int, DEFAULT_N_TRIALS))
    seed = int(pick("seed", "seed", int, DEFAULT_SEED))
    bid = pick("bid", "bid", float, None)
    fmt = pick("fmt", "format", lambda v: v, "csv")
    if fmt not in ("csv", "json"):
        raise InvalidParamsError(f"format must be csv or json, got {fmt!r}")
    output = pick("output", "output", lambda v: v, None)

    return RunConfig(
        command=command,
        dists=dists,
        strike=float(pick("strike", "strike", float, DEFAULT_STRIKE)),
        alpha=alpha,
        alpha_grid=alpha_grid,
        p=float(p),
        q=float(q),
        tol=float(tol),
        n_trials=n_trials,
        seed=seed,
        bid=bid,
        fmt=fmt,
        figure2=figure2,
        output=output,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _solution_values(row: SweepRow) -> list:
    return [
        row.alpha,
        row.b_star,
        row.threshold,
        row.p_exec,
        row.effective_spread,
        row.revenue,
        row.residual,
        row.status,
    ]


def cmd_solve(cfg: RunConfig) -> str:
    d = cfg.dists[0].build()
    params = AuctionParams(strike=cfg.strike, alpha=cfg.alpha, p=cfg.p, q=cfg.q)
    row = SweepRow.from_solution(cfg.alpha, solve_equilibrium(d, params, cfg.tol))
    if cfg.fmt == "json":
        return _json_text(row.as_dict())
    return _csv_text(SWEEP_COLUMNS, [_solution_values(row)])


def cmd_sweep(cfg: RunConfig) -> str:
    multi = cfg.figure2 or len(cfg.dists) > 1
    labeled_rows: list[tuple[str, SweepRow]] = []
    for spec in cfg.dists:
        d = spec.build()
        for alpha in cfg.alpha_grid:
            sol = solve_equilibrium(d, AuctionParams(cfg.strike, alpha, cfg.p, cfg.q), cfg.tol)
            labeled_rows.append((str(spec), SweepRow.from_solution(alpha, sol)))
    if cfg.fmt == "json":
        payload = []
        for label, row in labeled_rows:
            obj = {"dist": label, **row.as_dict()} if multi else row.as_dict()
            payload.append(obj)
        return _json_text(payload)
    if multi:
        header = ("dist",) + SWEEP_COLUMNS
        rows = [[label] + _solution_values(row) for label, row in labeled_rows]
    else:
        header = SWEEP_COLUMNS
        rows = [_solution_values(row) for _, row in labeled_rows]
    return _csv_text(header, rows)


def _z_score(empirical: float | None, analytic: float | None, se: float) -> float | None:
    if empirical is None or analytic is None:
        return None
    if se > 0.0:
        return (empirical - analytic) / se
    return 0.0 if empirical == analytic else None


def cmd_simulate(cfg: RunConfig) -> str:
    d = cfg.dists[0].build()
    params = AuctionParams(strike=cfg.strike, alpha=cfg.alpha, p=cfg.p, q=cfg.q)
    bid = cfg.bid if cfg.bid is not None else solve_equilibrium(d, params, cfg.tol).b_star
    res = simulate_auction(d, params, SimConfig(n_trials=cfg.n_trials, seed=cfg.seed, bid=bid))

    analytic_utility = expected_utility(d, params, bid)
    analytic_p_exec = execution_probability(d, params, bid)
    analytic_revenue = revenue(params, bid, analytic_p_exec)
    analytic_spread = effective_spread(d, params, bid)

    values = {
        "alpha": cfg.alpha,
        "bid": bid,
        "n_trials": cfg.n_trials,
        "seed": cfg.seed,
        "n_exec": res.n_exec,
        "mean_utility": res.mean_utility,
        "se_utility": res.se_utility,
        "exec_rate": res.exec_rate,
        "se_exec": res.se_exec,
        "mean_revenue": res.mean_revenue,
        "se_revenue": res.se_revenue,
        "mean_spread_given_exec": res.mean_spread_given_exec,
        "se_spread": res.se_spread,
        "analytic_utility": analytic_utility,
        "analytic_p_exec": analytic_p_exec,
        "analytic_revenue": analytic_revenue,
        "analytic_spread": analytic_spread,
        "z_utility": _z_score(res.mean_utility, analytic_utility, res.se_utility),
        "z_exec": _z_score(res.exec_rate, analytic_p_exec, res.se_exec),
        "z_revenue": _z_score(res.mean_revenue, analytic_revenue, res.se_revenue),
        "z_spread": _z_score(res.mean_spread_given_exec, analytic_spread, res.se_spread),
    }
    if cfg.fmt == "json":
        return _json_text(values)
    return _csv_text(SIMULATE_COLUMNS, [[values[c] for c in SIMULATE_COLUMNS]])


def cmd_compare_oracle(cfg: RunConfig) -> str:
    reports = build_oracle_reports(cfg.alpha_grid, cfg.tol)
    max_corrected = max(abs(r.corrected_minus_numeric) for r in reports)
    max_published = max(abs(r.published_minus_numeric) for r in reports)
    if cfg.fmt == "json":
        return _json_text(
            {
                "rows": [
                    {
                        "alpha": r.alpha,
                        "corrected_bid": r.corrected_bid,
                        "published_bid": r.published_bid,
                        "numeric_bid": r.numeric_bid,
                        "corrected_minus_numeric": r.corrected_minus_numeric,
                        "published_minus_numeric": r.published_minus_numeric,
                    }
                    for r in reports
                ],
                "max_abs_corrected_minus_numeric": max_corrected,
                "max_abs_published_minus_numeric": max_published,
            }
        )
    rows = [
        [r.alpha, r.corrected_bid, r.published_bid, r.numeric_bid,
         r.corrected_minus_numeric, r.published_minus_numeric]
        for r in reports
    ]
    footer = (
        f"# max_abs_corrected_minus_numeric={_fmt(max_corrected)}"
        f" max_abs_published_minus_numeric={_fmt(max_published)}"
    )
    return _csv_text(ORACLE_COLUMNS, rows, footer=footer)


_DISPATCH = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "compare-oracle": cmd_compare_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _make_run_config(ns)
        text = _DISPATCH[cfg.command](cfg)
        if cfg.output:
            try:
                Path(cfg.output).write_bytes(text.encode("utf-8"))
            except OSError as exc:
                raise InvalidParamsError(f"cannot write {cfg.output}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
