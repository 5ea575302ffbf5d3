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

Each command builds one table, column name to values (``solve`` and ``sweep``
take the solver's float64 arrays, no record per row), written by one renderer
as CSV (header from the column names, floats at 12 significant digits,
undefined values as empty fields) or JSON rows (full precision,
re-serializable byte-for-byte).  Every option is declared once in
``OPTIONS``, which yields the subcommand flags, the keys accepted in a
``--config`` file of ``key = value`` lines, and their merge: a flag wins over
the config file, which wins over the default.  Exit codes: 0 success,
2 usage or configuration error, 3 numeric failure (a residual above
``--tol`` times the price scale, or a NaN or infinite value in the result, which
is never printed).  Every failure is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .distributions import DistributionSpec, check_tol
from .equilibrium import AuctionParams, check_alpha, defined_spreads, solution_at, solve_columns, solve_equilibrium
from .errors import ConvergenceError, InvalidParamsError
from .oracle import build_oracle_reports
from .simulate import SimConfig, simulate_auction

__all__ = ["main"]

DEFAULT_DIST = "uniform:0,1"
DEFAULT_STRIKE = 0.5
FIGURE2_DISTS = ("beta:2,2", "beta:2,5", "beta:5,2", "beta:0.5,0.5")


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
    return _fields(np.array([value], dtype=float))[0]


def _fields(values) -> list[str]:
    """One column's CSV fields: floats in one ``%.12g`` format call, as ``format(x + 0.0,
    ".12g")`` writes each (None: empty), and any other value once however often it recurs."""
    if isinstance(values, np.ndarray):
        return ("%.12g," * len(values) % tuple((values + 0.0).tolist())).split(",")[:-1]
    if set(map(type, values)) <= {float, type(None)}:
        return ["" if v is None else x for v, x in zip(values, _fields(np.array(values, dtype=float)))]
    formatted = {v: _fmt(v) for v in set(values)}
    return [formatted[v] for v in values]


def _rows(table: dict) -> list[dict]:
    columns = [values.tolist() if isinstance(values, np.ndarray) else values for values in table.values()]
    return [dict(zip(table, row)) for row in zip(*columns)]


def _check_finite(records: list[dict], summary: dict | None) -> None:
    """Raise :class:`FloatingPointError` naming the first NaN or infinite value, row by row."""
    for record in (*records, summary or {}):
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise FloatingPointError(f"{key} is {value}")


def render(table: dict, fmt: str, *, one: bool = False, summary: dict | None = None) -> str:
    """Write ``table``, column name to a float64 array or a list of values, as
    CSV or JSON rows; ``one`` makes the JSON an object, not a list.

    ``summary`` values follow the rows: a ``# key=value`` CSV footer, or keys
    beside a JSON ``rows`` list.  A NaN or infinite value raises
    :class:`FloatingPointError`; None is written as an empty field or null.
    """
    if fmt == "json":
        rows = _rows(table)
        _check_finite(rows, summary)
        payload = rows[0] if one else rows
        if summary is not None:
            payload = {"rows": rows, **summary}
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(table), *map(",".join, zip(*map(_fields, table.values())))]
    if summary is not None:
        lines.append("# " + " ".join(f"{k}={_fmt(v)}" for k, v in summary.items()))
    text = "\n".join(lines) + "\n"
    if "nan" in text or "inf" in text:  # a non-finite float is written so; a label may be too
        _check_finite(_rows(table), summary)
    return text


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


class Option(NamedTuple):
    """One subcommand flag.  Its name without ``--`` is the config-file key that
    sets the same value; ``--config`` alone has no key."""

    flag: str
    conv: Callable[[str], object]  # text -> value, for the flag and the config file
    default: object
    commands: tuple[str, ...]
    argparse_kwargs: dict


ALL = ("solve", "sweep", "simulate", "compare-oracle")
MODEL = ("solve", "sweep", "simulate")  # compare-oracle is fixed to U(0,1), K = 1/2, p = q = 0
SINGLE = ("solve", "simulate")

OPTIONS = (
    Option("--dist", str, None, MODEL, dict(
        action="append", metavar="SPEC",
        help="distribution spec: uniform:<lo>,<hi> or beta:<a>,<b>")),
    Option("--strike", float, DEFAULT_STRIKE, MODEL, dict(metavar="K")),
    Option("--alpha", float, None, SINGLE, dict(
        metavar="A", help="upfront share of the bid, in [0,1]")),
    Option("--alpha-grid", str, "0,1,101", ("sweep", "compare-oracle"),
           dict(metavar="START,STOP,POINTS")),
    Option("--p", float, 0.0, MODEL, dict(metavar="P", help="forced-execution probability")),
    Option("--q", float, 0.0, MODEL, dict(metavar="Q", help="forced-failure probability")),
    Option("--tol", float, 1e-12, ALL, dict(metavar="TOL")),
    Option("--n", int, 1_000_000, ("simulate",), dict(metavar="N")),
    Option("--seed", int, 42, ("simulate",), dict(metavar="SEED")),
    Option("--bid", float, None, ("simulate",), dict(
        metavar="B", help="override the analytic equilibrium bid")),
    Option("--figure2", _parse_bool, False, ("sweep",), dict(
        action="store_true", default=None,
        help="sweep the four default Beta laws and add a dist column")),
    Option("--format", str, "csv", ALL, dict(choices=("csv", "json"))),
    Option("--config", str, None, ALL, dict(
        metavar="PATH", help="key = value defaults file")),
    Option("--output", str, None, ALL, dict(
        metavar="PATH", help="write output here instead of stdout")),
)
_BY_KEY = {opt.flag[2:]: opt for opt in OPTIONS if opt.flag != "--config"}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise, so ``main`` reports them in one line."""

    def error(self, message):
        raise InvalidParamsError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="flowauction",
        description="Equilibrium bids, execution probability, revenue and effective "
        "spread for order flow auctions with mixed upfront/contingent fees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for opt in OPTIONS:
            if command in opt.commands:
                kwargs = dict(opt.argparse_kwargs)
                if kwargs.get("action") != "store_true":
                    kwargs["type"] = opt.conv
                sp.add_argument(opt.flag, **kwargs)
    return parser


def _load_config_file(path: str) -> dict:
    out: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _BY_KEY:
            raise InvalidParamsError(f"{path}:{lineno}: unknown config key {key!r}")
        if _BY_KEY[key].argparse_kwargs.get("action") == "append":
            out.setdefault(key, []).append(value)
        else:
            out[key] = value
    return out


def _from_config(key: str, opt: Option, text):
    try:
        return [opt.conv(t) for t in text] if isinstance(text, list) else opt.conv(text)
    except InvalidParamsError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"bad config value for {key!r}: {text!r}") from exc


def _settings(ns: argparse.Namespace) -> argparse.Namespace:
    """Merge flags, the config file and defaults into ``ns``, then validate.

    A config key is read only where the command takes its flag, so one file
    can serve every command.
    """
    config = _load_config_file(ns.config) if ns.config else {}
    for key, opt in _BY_KEY.items():
        dest = key.replace("-", "_")  # argparse's name for the flag's value
        value = getattr(ns, dest, None)
        if value is None and key in config and ns.command in opt.commands:
            value = _from_config(key, opt, config[key])
        setattr(ns, dest, opt.default if value is None else value)

    command = ns.command
    dist_texts = ns.dist or (FIGURE2_DISTS if ns.figure2 else (DEFAULT_DIST,))
    ns.dists = tuple(DistributionSpec.parse(t) for t in dist_texts)
    if command in SINGLE:
        if len(ns.dists) != 1:
            raise InvalidParamsError(f"{command} takes exactly one --dist")
        if ns.alpha is None:
            raise InvalidParamsError(f"{command} requires --alpha")
        check_alpha(ns.alpha)
    ns.alpha_grid = _parse_grid(ns.alpha_grid)
    if ns.format not in ("csv", "json"):
        raise InvalidParamsError(f"format must be csv or json, got {ns.format!r}")
    check_tol(ns.tol)  # here, not only in the solver, which simulate --bid skips
    return ns


def _solution_table(cfg, alphas) -> dict:
    """One row per law and alpha, law-major, all solved in one search."""
    grid = [AuctionParams(cfg.strike, alpha, cfg.p, cfg.q) for alpha in alphas]
    laws = [law for spec in cfg.dists for law in [spec.build()] * len(grid)]
    columns, statuses = solve_columns(laws, grid * len(cfg.dists), cfg.tol)
    columns["effective_spread"] = defined_spreads(columns)
    table = {"alpha": np.tile(alphas, len(cfg.dists)), **columns, "status": statuses}
    if cfg.figure2 or len(cfg.dists) > 1:
        table = {"dist": [label for label in map(str, cfg.dists) for _ in grid], **table}
    return table


def cmd_solve(cfg) -> str:
    return render(_solution_table(cfg, (cfg.alpha,)), cfg.format, one=True)


def cmd_sweep(cfg) -> str:
    return render(_solution_table(cfg, cfg.alpha_grid), cfg.format)


def _z_score(empirical: float | None, analytic: float | None, se: float) -> float | None:
    if empirical is None or analytic is None:
        return None
    if se > 0.0:
        return (empirical - analytic) / se
    return 0.0 if empirical == analytic else None


def cmd_simulate(cfg) -> str:
    d = cfg.dists[0].build()
    params = AuctionParams(strike=cfg.strike, alpha=cfg.alpha, p=cfg.p, q=cfg.q)
    if cfg.bid is None:
        sol = solve_equilibrium(d, params, cfg.tol)
    else:
        sol = solution_at(d, params, cfg.bid)
    res = simulate_auction(d, params, SimConfig(n_trials=cfg.n, seed=cfg.seed, bid=sol.b_star))

    record = {
        "alpha": cfg.alpha,
        "bid": sol.b_star,
        "n_trials": cfg.n,
        "seed": cfg.seed,
        "n_exec": res.n_exec,  # placed before the other SimResult fields, which keep their order
        **vars(res),
        "analytic_utility": sol.residual,
        "analytic_p_exec": sol.p_exec,
        "analytic_revenue": sol.revenue,
        "analytic_spread": sol.effective_spread,
        "z_utility": _z_score(res.mean_utility, sol.residual, res.se_utility),
        "z_exec": _z_score(res.exec_rate, sol.p_exec, res.se_exec),
        "z_revenue": _z_score(res.mean_revenue, sol.revenue, res.se_revenue),
        "z_spread": _z_score(res.mean_spread_given_exec, sol.effective_spread, res.se_spread),
    }
    return render({key: [value] for key, value in record.items()}, cfg.format, one=True)


def cmd_compare_oracle(cfg) -> str:
    reports = build_oracle_reports(cfg.alpha_grid, cfg.tol)
    table = {key: np.array([getattr(r, key) for r in reports]) for key in vars(reports[0])}
    gaps = ("corrected_minus_numeric", "published_minus_numeric")
    summary = {f"max_abs_{key}": float(np.abs(table[key]).max()) for key in gaps}
    return render(table, cfg.format, summary=summary)


COMMANDS = {
    "solve": ("solve a single equilibrium", cmd_solve),
    "sweep": ("solve on an alpha grid", cmd_sweep),
    "simulate": ("Monte Carlo validation run", cmd_simulate),
    "compare-oracle": ("closed-form vs numeric bid comparison", cmd_compare_oracle),
}


def main(argv=None) -> int:
    try:
        cfg = _settings(_build_parser().parse_args(argv))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result exits 3 below
            text = COMMANDS[cfg.command][1](cfg)
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
    except MemoryError as exc:  # an input too large to hold, such as a huge --alpha-grid
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
