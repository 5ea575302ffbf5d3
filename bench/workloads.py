"""The benchmark's workloads: inputs, jobs, output checks and the measuring loop.

This file runs in the workload process that ``bench/run.py`` starts, with the
checkout's ``src/`` on PYTHONPATH and the thread-count variables pinned::

    python bench/workloads.py setup --workload NAME --seed N
    python bench/workloads.py run --workload NAME --seed N --seconds T --trace 0|1

``setup`` imports flowauction, builds the workload's inputs and exits; its
wall time is the set-up sample.  ``run`` times one untimed warm-up job and
then whole rounds of jobs until ``T`` seconds have passed, checks every
job's output, and prints one JSON object as its last stdout line.  With
``--trace 1`` rounds alternate untraced and traced, so the run also yields
the tracing overhead and the per-layer numbers.

A job's seed is derived from the workload seed and the job's index, so the
same seed gives the same inputs; the program only ever receives the derived
seeds (``--seed``, ``SimConfig.seed``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import astuple, dataclass
from pathlib import Path

import flowauction as fa
import flowauction.cli
import numpy as np
import scipy

import calibrate
import spans

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
if not Path(fa.__file__).resolve().is_relative_to(BENCH_DIR.parent / "src"):
    raise SystemExit(f"flowauction was imported from {fa.__file__}, not from this checkout's src/")

STRIKE = 0.5
TOL = 1e-12
SLACK = 1e-9  # monotonicity slack, as in acceptance criterion 4
Z_MAX = 5.0
QUAD_ALPHAS = (0.25, 0.75)  # keeps the quadrature leg near a third of a figure-2 job
MC_TRIALS = 1_000_000
CLI_ROTATION = (
    # (argv, equilibria solved, Monte Carlo trials); "{seed}" is the job seed
    (("solve", "--dist", "uniform:0,1", "--alpha", "0.25"), 1, 0),
    (("solve", "--dist", "beta:2,5", "--alpha", "0.5", "--format", "json"), 1, 0),
    (("compare-oracle", "--alpha-grid", "0,1,11"), 11, 0),
    (("simulate", "--dist", "uniform:0,1", "--alpha", "0.5", "--n", "100000",
      "--seed", "{seed}"), 1, 100_000),
    (("sweep", "--alpha-grid", "0,1,101"), 101, 0),
)


class CheckFailed(Exception):
    """A job's output broke one of the benchmark's correctness checks."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class JobResult:
    output: object  # compared exactly between traced and untraced runs
    solves: int
    trials: int
    output_bytes: int


def job_seed(seed: int, k: int) -> int:
    return random.Random(f"{seed}:{k}").getrandbits(63)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _num(text: str) -> float | None:
    return float(text) if text else None


def check_sweep_csv(text: str, n_rows: int) -> None:
    """Residual, boundary and monotonicity checks on a ``sweep`` CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) == n_rows, f"sweep has {len(rows)} rows, expected {n_rows}")
    by_dist: dict[str, list[dict]] = {}
    for row in rows:
        by_dist.setdefault(row.get("dist", ""), []).append(row)
    for dist, group in by_dist.items():
        for row in group:
            if row["status"] == "interior_root":
                require(abs(float(row["residual"])) <= TOL, f"{dist} residual {row['residual']}")
            if float(row["alpha"]) == 0.0:
                require(row["status"] == "boundary_full_erosion", f"{dist} alpha=0 {row['status']}")
        for prev, cur in zip(group, group[1:]):
            where = f"{dist} alpha={cur['alpha']}"
            require(float(cur["p_exec"]) >= float(prev["p_exec"]) - SLACK, f"p_exec falls at {where}")
            require(float(cur["revenue"]) >= float(prev["revenue"]) - SLACK, f"revenue falls at {where}")
            require(float(cur["b_star"]) <= float(prev["b_star"]) + SLACK, f"b_star rises at {where}")
            s0, s1 = _num(prev["effective_spread"]), _num(cur["effective_spread"])
            if s0 is not None and s1 is not None:
                require(s1 <= s0 + SLACK, f"spread rises at {where}")


def check_cli_output(argv: tuple, text: str) -> None:
    command = argv[0]
    if "json" in argv:
        doc = json.loads(text)
        require(math.isfinite(doc["b_star"]), "b_star is not finite")
    elif command == "sweep":
        check_sweep_csv(text, 101)
    elif command == "compare-oracle":
        lines = text.splitlines()
        require(len(list(csv.DictReader(lines[:-1]))) == 11, "compare-oracle row count")
        fields = dict(f.split("=") for f in lines[-1].lstrip("# ").split())
        worst = float(fields["max_abs_corrected_minus_numeric"])
        require(worst <= 1e-10, f"max |corrected - numeric| = {worst}")
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        require(len(rows) == 1, f"{command} printed {len(rows)} rows")
        for column, value in rows[0].items():
            try:
                x = float(value)
            except ValueError:
                continue  # the status label or an undefined (empty) field
            require(math.isfinite(x), f"{command} printed {column}={value}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """A workload builds its inputs once, then runs, checks and compares jobs."""

    name: str
    round_jobs = 1  # jobs per round; runs measure whole rounds
    # how much the workload's jobs weigh each part of the calibration pass;
    # none: the jobs are timed uncalibrated
    calibration_weights = {"scalar": 1.0, "vector": 1.0}

    def reference(self, inputs: dict):
        """Values the checks compare against, computed untimed."""
        return None

    def comparable(self, result: JobResult):
        """The part of a job's output that tracing must leave unchanged."""
        return result.output


class Figure2Sweep(Workload):
    """``sweep --figure2`` in process, then a short quadrature alpha grid."""

    name = "figure2-sweep"

    def build(self) -> dict:
        beta = fa.Beta(2.0, 5.0)
        quad = fa.QuadratureDistribution(beta.pdf, fa.SupportInterval(0.0, 1.0))
        return {"quad": quad, "beta": beta}

    def reference(self, inputs: dict) -> list[float]:
        return [fa.solve_equilibrium(inputs["beta"], fa.AuctionParams(STRIKE, a)).b_star
                for a in QUAD_ALPHAS]

    def job(self, inputs, k, seed, workdir, trace, watch) -> JobResult:
        path = workdir / "figure2.csv"
        code = fa.cli.main(["sweep", "--figure2", "--output", str(path)])
        data = path.read_bytes()
        watch.lap()
        bids = [fa.solve_equilibrium(inputs["quad"], fa.AuctionParams(STRIKE, a)).b_star
                for a in QUAD_ALPHAS]
        return JobResult((code, data, bids), 4 * 101 + len(QUAD_ALPHAS), 0, len(data))

    def check(self, inputs, reference, result: JobResult) -> None:
        code, data, bids = result.output
        require(code == 0, f"sweep --figure2 exited {code}")
        check_sweep_csv(data.decode("utf-8"), 4 * 101)
        for a, got, want in zip(QUAD_ALPHAS, bids, reference):
            require(abs(got - want) <= 1e-9, f"quadrature bid at alpha={a}: {got} vs {want}")


class McValidate(Workload):
    """Demo 03: solve, simulate at b*, calibrate, for Uniform(0,1) and Beta(2,5)."""

    name = "mc-validate"
    # Over several sets of ten runs, no mix of passes kept the median steadier
    # than the wall time does: a short pass does not track jobs of seconds
    # spent on large arrays.
    calibration_weights: dict[str, float] = {}
    params = fa.AuctionParams(strike=STRIKE, alpha=0.5)

    def build(self) -> dict:
        return {"laws": (fa.Uniform(0.0, 1.0), fa.Beta(2.0, 5.0))}

    def job(self, inputs, k, seed, workdir, trace, watch) -> JobResult:
        rng = random.Random(seed)
        out = []
        for d in inputs["laws"]:
            sol = fa.solve_equilibrium(d, self.params)
            cfg = fa.SimConfig(n_trials=MC_TRIALS, seed=rng.getrandbits(63), bid=sol.b_star)
            res = fa.simulate_auction(d, self.params, cfg)
            cal = fa.calibrate_zero_profit_bid(d, self.params, n_per_eval=MC_TRIALS,
                                               seed=rng.getrandbits(63))
            out.append((sol, res, cal))
        return JobResult(out, 2, 4 * MC_TRIALS, 0)

    def check(self, inputs, reference, result: JobResult) -> None:
        p = self.params
        for d, (sol, res, cal) in zip(inputs["laws"], result.output):
            eu = fa.expected_utility(d, p, sol.b_star)
            zs = {
                "utility": (res.mean_utility - eu) / res.se_utility,
                "exec": (res.exec_rate - sol.p_exec) / res.se_exec,
                "revenue": (res.mean_revenue - sol.revenue) / res.se_revenue,
                "spread": (res.mean_spread_given_exec - sol.effective_spread) / res.se_spread,
            }
            for what, z in zs.items():
                require(abs(z) < Z_MAX, f"{d}: z_{what} = {z:.2f}")
            h = 1e-6  # standard error of the bid as in acceptance criterion 7
            slope = (fa.expected_utility(d, p, sol.b_star + h)
                     - fa.expected_utility(d, p, sol.b_star - h)) / (2 * h)
            se_bid = res.se_utility / abs(slope)
            require(abs(cal - sol.b_star) <= Z_MAX * se_bid,
                    f"{d}: calibrated {cal} vs b* {sol.b_star}, se {se_bid}")

    def comparable(self, result: JobResult) -> list:
        return [(sol.b_star, astuple(res), cal) for sol, res, cal in result.output]


class CliOneshot(Workload):
    """One client running ``python -m flowauction`` commands back to back."""

    name = "cli-oneshot"
    round_jobs = len(CLI_ROTATION)
    calibration_weights = {"spawn": 1.0}

    def build(self) -> dict:
        return {"rotation": CLI_ROTATION}

    def job(self, inputs, k, seed, workdir, trace, watch) -> JobResult:
        template, solves, trials = inputs["rotation"][k % len(inputs["rotation"])]
        argv = tuple(a.format(seed=seed) for a in template)
        out = workdir / "cli.out"
        if trace is None:
            cmd = [sys.executable, "-m", "flowauction", *argv, "--output", str(out)]
        else:
            span_file = workdir / "cli.spans.npz"
            cmd = [sys.executable, str(BENCH_DIR / "spans.py"), str(span_file),
                   *argv, "--output", str(out)]
        proc = subprocess.run(cmd, capture_output=True, timeout=120, check=False)
        if trace is not None:
            tracer, root = trace
            tracer.adopt(spans.load(span_file), root)
        data = out.read_bytes() if proc.returncode == 0 else b""
        out.unlink(missing_ok=True)
        return JobResult((argv, proc.returncode, data, proc.stderr), solves, trials, len(data))

    def check(self, inputs, reference, result: JobResult) -> None:
        argv, code, data, stderr = result.output
        require(code == 0, f"{' '.join(argv)} exited {code}: {stderr.decode(errors='replace')}")
        check_cli_output(argv, data.decode("utf-8"))

    def comparable(self, result: JobResult):
        argv, code, data, _stderr = result.output
        return argv, code, data


WORKLOADS = {w.name: w for w in (Figure2Sweep(), McValidate(), CliOneshot())}


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

class Stopwatch:
    """A job's wall time, taken in legs that the job ends with ``lap()``.

    With a calibration, a pass runs after each leg, outside the timing, and
    each leg is calibrated by the passes either side of it, so the job's
    calibrated time follows a machine whose speed drifts while it runs.
    Without one, the calibrated time is the wall time.
    """

    def __init__(self, cal: calibrate.Calibration | None = None):
        self.cal = cal
        self.wall_s = self.ref_s = 0.0
        self.legs: list[dict] = []
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._t0
        self.wall_s += wall
        leg = self.cal.timed(wall) if self.cal is not None else {"wall_s": wall, "ref_s": wall}
        self.ref_s += leg["ref_s"]
        self.legs.append(leg)
        self._t0 = time.perf_counter()


def run_job(workload, inputs, k, seed, workdir, tracer=None, cal=None):
    """Run job ``k``; return ``(Stopwatch, JobResult)``.

    With a tracer, every flowauction layer is wrapped for the job's duration
    only and the job is one root span with id ``k``; a traced job is not
    calibrated, so that no pass runs inside its spans.
    """
    saved = spans.install(tracer) if tracer is not None else None
    try:
        if tracer is None:
            watch = Stopwatch(cal)
            result = workload.job(inputs, k, job_seed(seed, k), workdir, None, watch)
        else:
            watch = Stopwatch()
            tracer.job_id = k
            root = tracer.open(tracer.intern("job"))
            try:
                result = workload.job(inputs, k, job_seed(seed, k), workdir, (tracer, root), watch)
            finally:
                tracer.close(root)
                tracer.job_id = -1
        watch.lap()
    finally:
        if saved is not None:
            spans.restore(saved)
    return watch, result


def layer_metrics(tracer: spans.Tracer, traced: list[dict]) -> dict:
    """Per-layer numbers over the traced jobs, normalised per job.

    Spans with job id -1 were recorded while the inputs were built.
    """
    n_jobs = len(traced)
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    in_job = a["job"] >= 0
    ids = a["name_id"][in_job]
    n_names = len(tracer.names)
    calls_by_id = np.bincount(ids, minlength=n_names)
    self_by_id = np.bincount(ids, weights=(dur - a["child"])[in_job], minlength=n_names)
    incl_by_id = np.bincount(ids, weights=dur[in_job], minlength=n_names)
    calls = {n: int(calls_by_id[i]) for i, n in enumerate(tracer.names)}
    self_s = {n: float(self_by_id[i]) for i, n in enumerate(tracer.names)}
    incl_s = {n: float(incl_by_id[i]) for i, n in enumerate(tracer.names)}
    init_id = tracer.intern("distributions.QuadratureDistribution.init")
    init_s = float(dur[~in_job & (a["name_id"] == init_id)].sum())
    solve_us = np.sort(dur[in_job & (a["name_id"] == tracer.intern("equilibrium.solve"))]) * 1e6

    counts = tracer.counts
    m: dict[str, float] = {}
    for law in spans.LAWS:
        for method in spans.LAW_METHODS:
            key = f"distributions.{law}.{method}"
            if method == "sample":
                m[key + ".draws"] = counts.get(key + ".draws", 0) / n_jobs
            else:
                m[key + ".calls"] = calls.get(key, 0) / n_jobs
            m[key + ".self_s"] = self_s.get(key, 0.0) / n_jobs
    m["distributions.QuadratureDistribution.init_s"] = init_s

    m["equilibrium.solve.calls"] = calls.get("equilibrium.solve", 0) / n_jobs
    m["equilibrium.solve.self_s"] = self_s.get("equilibrium.solve", 0.0) / n_jobs
    m["equilibrium.solve.p50_us"] = float(np.median(solve_us)) if len(solve_us) else 0.0
    m["equilibrium.solve.p99_us"] = (
        float(solve_us[math.ceil(0.99 * len(solve_us)) - 1]) if len(solve_us) else 0.0
    )
    m["equilibrium.solve.samples"] = len(solve_us)
    solves = counts.get("equilibrium.solves", 0)
    m["equilibrium.eu_evals_per_solve"] = counts.get("equilibrium.eu_evals", 0) / solves if solves else 0.0
    m["equilibrium.max_residual_over_tol"] = tracer.max_residual_over_tol

    sim_s = incl_s.get("simulate.simulate_auction", 0.0)
    m["simulate.simulate_auction.calls"] = calls.get("simulate.simulate_auction", 0) / n_jobs
    m["simulate.simulate_auction.self_s"] = self_s.get("simulate.simulate_auction", 0.0) / n_jobs
    m["simulate.simulate_auction.trials_per_s"] = (
        counts.get("simulate.simulate_auction.trials", 0) / sim_s if sim_s else 0.0
    )
    m["simulate.calibrate.calls"] = calls.get("simulate.calibrate", 0) / n_jobs
    m["simulate.calibrate.self_s"] = self_s.get("simulate.calibrate", 0.0) / n_jobs
    m["simulate.peak_traced_mb"] = tracer.peak_traced_bytes / 2**20

    m["oracle.build_oracle_reports.self_s"] = self_s.get("oracle.build_oracle_reports", 0.0) / n_jobs
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0) / n_jobs
    m["cli.output_bytes"] = sum(j["output_bytes"] for j in traced) / n_jobs
    return m


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    tracer = spans.Tracer() if trace else None
    saved = spans.install(tracer) if trace else None
    try:
        inputs = workload.build()  # traced, for the quadrature normalising integral
    finally:
        if saved is not None:
            spans.restore(saved)
    reference = workload.reference(inputs)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    jobs = {"untraced": [], "traced": []}
    rounds = {"untraced": [], "traced": []}
    attempted = failed = 0
    errors: list[str] = []

    cal = calibrate.Calibration(workload.calibration_weights) if workload.calibration_weights else None

    def attempt(k, kind):
        nonlocal attempted, failed
        attempted += 1
        try:
            watch, result = run_job(workload, inputs, k, seed, workdir,
                                    tracer if kind == "traced" else None, cal)
            workload.check(inputs, reference, result)
        except Exception as exc:  # a failed job is counted and the run goes on
            failed += 1
            errors.append(f"job {k}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            if cal is not None:
                cal.factors = cal.measure()
            return None
        return {"k": k, "wall_s": watch.wall_s, "ref_s": watch.ref_s,
                "legs": watch.legs, "solves": result.solves,
                "trials": result.trials, "output_bytes": result.output_bytes}

    try:
        warm = attempt(-1, "untraced")
        kinds = ("untraced", "traced") if trace else ("untraced",)
        k = 0
        t_start = time.perf_counter()
        n_rounds = 0
        while n_rounds < 2 * len(kinds) or time.perf_counter() - t_start < seconds:
            kind = kinds[n_rounds % len(kinds)]
            done = [attempt(k + i, kind) for i in range(workload.round_jobs)]
            k += workload.round_jobs
            n_rounds += 1
            done = [j for j in done if j is not None]
            jobs[kind].extend(done)
            if len(done) == workload.round_jobs:
                rounds[kind].append(sum(j["wall_s"] for j in done))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "workload": workload.name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "warmup_s": warm["wall_s"] if warm else None,
        "round_jobs": workload.round_jobs,
        "jobs": jobs["untraced"],
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN if isinstance(workload, CliOneshot) else resource.RUSAGE_SELF
        ).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "flowauction": fa.__version__},
    }
    if trace:
        out["layers"] = layer_metrics(tracer, jobs["traced"])
        out["layers"]["trace.overhead_frac"] = min(rounds["traced"]) / min(rounds["untraced"]) - 1.0
        spans_path = OUT_DIR / f"spans-{workload.name}.npz"
        tracer.save(spans_path)
        out["spans_file"] = str(spans_path.relative_to(BENCH_DIR.parent))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        workload.build()
        return 0
    print(json.dumps(measure(workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
