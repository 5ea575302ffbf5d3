import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import flowauction
from flowauction.cli import _fields, main, render
from flowauction.oracle import uniform_closed_form_bid, uniform_metrics


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], [r for r in rows[1:] if r and not r[0].startswith("#")]
    return header, data


class TestSolve:
    def test_all_upfront(self, capsys):
        code, out, _ = run(capsys, "solve", "--dist", "uniform:0,1", "--strike", "0.5", "--alpha", "1")
        assert code == 0
        header, data = parse_csv(out)
        assert header == [
            "alpha", "b_star", "threshold", "p_exec", "effective_spread",
            "revenue", "residual", "status",
        ]
        row = dict(zip(header, data[0]))
        assert float(row["b_star"]) == pytest.approx(0.125, abs=1e-9)
        assert float(row["p_exec"]) == pytest.approx(0.5, abs=1e-9)
        assert float(row["revenue"]) == pytest.approx(0.125, abs=1e-9)
        assert row["status"] == "interior_root"

    def test_all_contingent_boundary(self, capsys):
        code, out, _ = run(capsys, "solve", "--dist", "uniform:0,1", "--strike", "0.5", "--alpha", "0")
        assert code == 0
        header, data = parse_csv(out)
        row = dict(zip(header, data[0]))
        assert float(row["b_star"]) == 0.5
        assert float(row["p_exec"]) == 0.0
        assert float(row["revenue"]) == 0.0
        assert row["effective_spread"] == ""  # undefined over a null event
        assert row["status"] == "boundary_full_erosion"

    def test_strike_above_support_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--dist", "uniform:0,1", "--strike", "1.5", "--alpha", "0.5")
        assert code == 2
        assert "error" in err

    def test_missing_alpha_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "--dist", "uniform:0,1")
        assert code == 2

    def test_bad_dist_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "--dist", "cauchy:0,1", "--alpha", "0.5")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_nan_forced_probability_exits_2(self, capsys, flag):
        code, out, err = run(capsys, "solve", "--alpha", "0.5", flag, "nan")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_beta_shapes_solve(self, capsys):
        code, out, _ = run(capsys, "solve", "--dist", "beta:1e6,1e6", "--alpha", "0.5")
        assert code == 0
        header, data = parse_csv(out)
        assert dict(zip(header, data[0]))["status"] == "interior_root"

    def test_json_object(self, capsys):
        code, out, _ = run(capsys, "solve", "--alpha", "0.25", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["b_star"] == pytest.approx(2 / 9, abs=1e-9)
        assert json.dumps(obj, indent=2) + "\n" == out


class TestSweep:
    def test_default_grid(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        header, data = parse_csv(out)
        assert len(data) == 101
        alphas = [float(r[0]) for r in data]
        assert alphas == sorted(alphas)
        assert alphas[0] == 0.0 and alphas[-1] == 1.0

    def test_monotone_columns(self, capsys):
        _, out, _ = run(capsys, "sweep")
        header, data = parse_csv(out)
        idx = {name: i for i, name in enumerate(header)}
        p_exec = [float(r[idx["p_exec"]]) for r in data]
        rev = [float(r[idx["revenue"]]) for r in data]
        spread = [float(r[idx["effective_spread"]]) for r in data if r[idx["effective_spread"]]]
        assert all(b >= a - 1e-9 for a, b in zip(p_exec, p_exec[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(rev, rev[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(spread, spread[1:]))

    def test_figure2_row_count_and_dist_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--figure2", "--alpha-grid", "0,1,11")
        assert code == 0
        header, data = parse_csv(out)
        assert header[0] == "dist"
        assert len(data) == 4 * 11
        assert {r[0] for r in data} == {"beta:2,2", "beta:2,5", "beta:5,2", "beta:0.5,0.5"}

    def test_multiple_dists_add_label(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--dist", "uniform:0,1", "--dist", "beta:2,2", "--alpha-grid", "0,1,5"
        )
        assert code == 0
        header, data = parse_csv(out)
        assert header[0] == "dist" and len(data) == 10

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alpha-grid", "0,1,7", "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_a_dense_uniform_grid_matches_the_closed_forms(self, capsys):
        code, out, err = run(capsys, "sweep", "--dist", "uniform:0,1", "--alpha-grid", "0,1,10001",
                             "--format", "json")
        assert (code, err) == (0, "")
        rows = json.loads(out)
        assert len(rows) == 10001
        for row in rows:
            alpha = row["alpha"]
            assert abs(row["b_star"] - uniform_closed_form_bid(alpha)) <= 1e-9
            want = uniform_metrics(alpha)
            assert abs(row["p_exec"] - want.p_exec) <= 1e-9
            assert abs(row["revenue"] - want.revenue) <= 1e-9
            if want.effective_spread is None:  # alpha = 0: nothing executes
                assert row["effective_spread"] is None
            else:
                assert abs(row["effective_spread"] - want.effective_spread) <= 1e-9

    def test_bad_grid_exits_2(self, capsys):
        assert run(capsys, "sweep", "--alpha-grid", "0,1,1")[0] == 2
        assert run(capsys, "sweep", "--alpha-grid", "0,2,11")[0] == 2
        assert run(capsys, "sweep", "--alpha-grid", "nope")[0] == 2


class TestSimulate:
    ARGS = (
        "simulate", "--dist", "uniform:0,1", "--strike", "0.5",
        "--alpha", "0.25", "--n", "200000", "--seed", "42",
    )

    def test_z_scores_small_at_equilibrium(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        header, data = parse_csv(out)
        row = dict(zip(header, data[0]))
        assert float(row["bid"]) == pytest.approx(2 / 9, abs=1e-9)
        for col in ("z_utility", "z_exec", "z_revenue", "z_spread"):
            assert abs(float(row[col])) <= 4.0

    def test_empty_execution_region_exact(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dist", "uniform:0,1", "--strike", "0.5",
            "--alpha", "0.5", "--bid", "1.2", "--n", "50000",
        )
        assert code == 0
        header, data = parse_csv(out)
        row = dict(zip(header, data[0]))
        assert float(row["exec_rate"]) == 0.0
        assert float(row["mean_utility"]) == -0.6
        assert row["mean_spread_given_exec"] == ""

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS)
        _, out2, _ = run(capsys, *self.ARGS)
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


class TestCompareOracle:
    def test_reports_divergence(self, capsys):
        code, out, _ = run(capsys, "compare-oracle", "--alpha-grid", "0,1,5")
        assert code == 0
        header, data = parse_csv(out)
        first = dict(zip(header, data[0]))
        last = dict(zip(header, data[-1]))
        assert float(first["corrected_bid"]) == float(first["published_bid"]) == 0.5
        assert float(last["published_bid"]) == 0.25
        assert float(last["corrected_bid"]) == 0.125
        assert abs(float(last["numeric_bid"]) - 0.125) <= 1e-9
        footer = out.strip().splitlines()[-1]
        assert footer.startswith("# max_abs_corrected_minus_numeric=")
        assert "max_abs_published_minus_numeric=0.125" in footer

    def test_rejects_dist_override(self, capsys):
        code, _, err = run(capsys, "compare-oracle", "--dist", "beta:2,2")
        assert code == 2
        assert "fixed" in err

    def test_rejects_strike_override(self, capsys):
        assert run(capsys, "compare-oracle", "--strike", "0.4")[0] == 2

    def test_allows_matching_values(self, capsys):
        code, _, _ = run(
            capsys, "compare-oracle", "--dist", "uniform:0,1", "--strike", "0.5",
            "--alpha-grid", "0,1,3",
        )
        assert code == 0

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "compare-oracle", "--alpha-grid", "0,1,5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["max_abs_corrected_minus_numeric"] <= 1e-9
        assert obj["max_abs_published_minus_numeric"] == pytest.approx(0.125, abs=1e-9)


class TestConfigAndOutput:
    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code = main(["sweep", "--alpha-grid", "0,1,5", "--output", str(path)])
        assert code == 0
        _, stdout_text, _ = run(capsys, "sweep", "--alpha-grid", "0,1,5")
        assert path.read_bytes() == stdout_text.encode()

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "x.csv"
        code, out, err = run(capsys, "solve", "--alpha", "0.5", "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strike = 0.25\nformat = json\ndist = uniform:0,1\n")
        code, out, _ = run(capsys, "solve", "--alpha", "1", "--config", str(cfg))
        assert code == 0
        obj = json.loads(out)
        # E max(S - 1/4, 0) for U[0,1] is (3/4)^2 / 2
        assert obj["b_star"] == pytest.approx(0.28125, abs=1e-9)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strike = 0.25\n")
        code, out, _ = run(capsys, "solve", "--alpha", "1", "--strike", "0.5", "--config", str(cfg))
        assert code == 0
        _, data = parse_csv(out)
        assert float(data[0][1]) == pytest.approx(0.125, abs=1e-9)

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strik = 0.25\n")
        assert run(capsys, "solve", "--alpha", "1", "--config", str(cfg))[0] == 2

    def test_bad_config_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strike = half\n")
        assert run(capsys, "solve", "--alpha", "1", "--config", str(cfg))[0] == 2

    def test_missing_config_file_exits_2(self, capsys):
        assert run(capsys, "solve", "--alpha", "1", "--config", "/nonexistent.cfg")[0] == 2

    def test_figure2_outside_sweep_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("figure2 = true\n")
        assert run(capsys, "solve", "--alpha", "1", "--config", str(cfg))[0] == 2


class TestExitContract:
    # the initial bid bracket (hi - K) / (1 - alpha) overflows, so no float bid is the root
    HUGE = ("--dist", "uniform:0,1e308", "--alpha", "0.5", "--strike=0")
    HUGE_FAILURE = ("numeric failure: the upper bid bracket (hi - K) / (1 - alpha) overflows to inf "
                    "for Uniform(0.0, 1e+308) at strike 0.0 and alpha 0.5\n")

    def test_solve_non_finite_exits_3(self, capsys):
        code, out, err = run(capsys, "solve", *self.HUGE)
        assert code == 3
        assert out == ""
        assert err == self.HUGE_FAILURE

    def test_simulate_on_an_overflowing_bracket_exits_3(self, capsys):
        # a numeric failure, not a usage error about the bid the solver hands on
        assert run(capsys, "simulate", *self.HUGE, "--n", "1000") == (3, "", self.HUGE_FAILURE)

    def test_a_support_wider_than_the_largest_float_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "--dist", "uniform:-1e308,1e308", "--alpha", "0.5")
        assert (code, out) == (2, "")
        assert err == "error: support width must be finite, got [-1e+308, 1e+308]\n"

    def test_a_huge_uniform_support_solves(self, capsys):
        code, out, err = run(capsys, "solve", "--dist", "uniform:0,1e160", "--alpha", "0.5", "--strike=0",
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["b_star"] == 5.358983848622455e159

    def test_unreachable_tol_exits_3(self, capsys):
        code, out, err = run(capsys, "sweep", "--dist", "beta:2,5", "--tol", "1e-300")
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert "Beta(2.0, 5.0)" in err and "alpha" in err  # which of the 101 rows failed

    def test_default_tol_holds_on_wide_supports(self, capsys):
        # residuals there reach 1.5e-10 and 4e-9, above an absolute 1e-12
        for dist, strike in [("uniform:0,1e6", "0.5"), ("uniform:1e4,10001", "10000.5")]:
            code, out, err = run(capsys, "sweep", "--dist", dist, "--strike", strike)
            assert (code, err) == (0, "")
            assert out.count("\n") == 102

    def test_simulate_non_finite_exits_3_without_warnings(self):
        env = {**os.environ, "PYTHONPATH": str(Path(flowauction.__file__).parents[1])}
        proc = subprocess.run(
            # the bid is finite there; the squared gains of its trials overflow
            [sys.executable, "-m", "flowauction", "simulate", "--dist", "uniform:0,1e307", "--alpha", "0.5",
             "--strike=0", "--n", "2000", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("numeric failure: ") and proc.stderr.count("\n") == 1


class TestRender:
    def test_the_first_non_finite_value_in_row_major_order_is_named(self):
        # column by column, the NaN of column a would be met first
        for a in ([1.0, math.nan], np.array([1.0, math.nan])):
            table = {"a": a, "b": np.array([math.inf, 2.0]), "c": ["x", "y"]}
            for fmt in ("csv", "json"):
                with pytest.raises(FloatingPointError) as info:
                    render(table, fmt)
                assert str(info.value) == "b is inf"
        with pytest.raises(FloatingPointError) as info:
            render({"a": np.array([1.0])}, "csv", summary={"n": 3, "worst": -math.inf})
        assert str(info.value) == "worst is -inf"

    def test_fields(self):
        table = {"x": np.array([-0.0, 1e-13, 123456789.123456]), "y": [None, 2.0, None],
                 "n": [np.int64(7), 8, True], "z": [0.1, np.float64(-0.0), None],
                 "dist": ["beta:2,5", 'a"b', "nan"]}
        assert render(table, "csv") == (
            "x,y,n,z,dist\n"
            '0,,7,0.1,"beta:2,5"\n'
            '1e-13,2,8,0,"a""b"\n'
            "123456789.123,,1,,nan\n"
        )
        first = {key: values[:1] for key, values in table.items()}
        assert render(first, "csv", summary={"k": -0.0, "label": "u,v"}) == (
            'x,y,n,z,dist\n0,,7,0.1,"beta:2,5"\n# k=0 label="u,v"\n'
        )
        # JSON keeps full precision and the sign of zero
        rows = json.loads(render({"x": table["x"], "y": table["y"], "dist": table["dist"]}, "json"))
        assert rows[0] == {"x": -0.0, "y": None, "dist": "beta:2,5"}
        assert rows[2]["x"] == 123456789.123456
        assert math.copysign(1.0, rows[0]["x"]) == -1.0


FLOAT64 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(FLOAT64, min_size=1, max_size=40))
def test_a_float_column_is_written_as_format_writes_each_value(values):
    assert _fields(np.array(values)) == [format(x + 0.0, ".12g") for x in values]


SCIPY_FREE = [
    ["solve", "--dist", "uniform:0,1", "--alpha", "0.5"],
    ["compare-oracle"],
    ["simulate", "--dist", "uniform:0,1", "--alpha", "0.5", "--n", "1000", "--seed", "1"],
    ["sweep"],
]


def test_commands_without_a_beta_law_never_import_scipy():
    # scipy.special is most of the import time, and only Beta calls it; the thread
    # pool (concurrent.futures, which loads logging) only a simulation with workers > 1
    script = (
        "import contextlib, io, sys\n"
        "from flowauction.cli import main\n"
        f"for argv in {SCIPY_FREE!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(flowauction.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "False False\n"


EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e160, -1e160, 1e308, -0.0, 5e-324])
DIST_RANGES = {"uniform": ((-1.0, 0.5), (0.6, 5.0)), "beta": ((0.1, 5.0), (0.1, 5.0))}
RANGES = {"strike": (-1.0, 0.5), "alpha": (0.0, 1.0), "p": (0.0, 0.5), "q": (0.0, 0.5),
          "tol": (1e-15, 1e-6)}


@st.composite
def cli_argv(draw):
    """A valid run in which up to two of the numbers are replaced by extreme floats."""
    command = draw(st.sampled_from(["solve", "sweep", "simulate"]))
    kind = draw(st.sampled_from(sorted(DIST_RANGES)))
    ranges = dict(zip(("x", "y"), DIST_RANGES[kind]), **RANGES)
    wild = draw(st.sets(st.sampled_from(sorted(ranges)), max_size=2))
    v = {name: draw(EXTREMES if name in wild else st.floats(lo, hi))
         for name, (lo, hi) in ranges.items()}
    argv = [command, f"--dist={kind}:{v['x']!r},{v['y']!r}",
            *(f"--{name}={v[name]!r}" for name in ("strike", "p", "q", "tol")),
            f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    if command == "sweep":
        return argv + ["--alpha-grid=0,1,3"]
    argv.append(f"--alpha={v['alpha']!r}")
    return argv + ["--n=2000"] if command == "simulate" else argv


def reject_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv())
@example(argv=["solve", "--alpha", "abc"])  # usage errors: argparse's own messages, one line
@example(argv=["solve", "--alpha", "0.5", "--format", "xml"])
@example(argv=["solve", "--alpha", "0.5", "--n", "10"])
@example(argv=[])
@example(argv=["frobnicate"])
def test_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        if "--format=json" in argv:
            json.loads(out, parse_constant=reject_constant)
        else:
            for cell in (c for row in parse_csv(out)[1] for c in row):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # the status label or an undefined (empty) field
                assert math.isfinite(value), out
    else:
        assert code in (2, 3)
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
