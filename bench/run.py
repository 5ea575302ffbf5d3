#!/usr/bin/env python3
"""flowauction benchmark: one command, three workloads, outputs checked.

    python3 bench/run.py --workload figure2-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1                 # every workload, one after another

Runs against this checkout's ``src/`` (through PYTHONPATH, never an installed
copy), each workload in a process of its own with the BLAS/OpenMP thread
counts pinned to 1.  With ``--trace 0`` it prints the end-to-end metrics that
``BENCHMARK.json`` lists; with ``--trace 1`` the per-layer metrics.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the seed and the
environment, is written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 4  # before the workload process, and as many again after it
IMPORT_SAMPLES = 5
INTERPRETER_SAMPLES = 9
WORKER_TIMEOUT_S = 150
# how much a set-up sample weighs each part of the calibration pass
SETUP_WEIGHTS = {"spawn": 1.0}
# Printed with the end-to-end metrics but not listed in BENCHMARK.json: the
# uncalibrated wall times move with a shared machine's slow spells, and
# BENCHMARK.json admits only metrics that are never 0, while no figure-2 job
# samples and on correct code no job fails.
UNBOUNDED_UNITS = {"setup_wall_s": "s", "job_wall_p50_s": "s", "job_wall_best_s": "s",
                   "mc_trials_per_s": "1/s", "failed_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same string hashes, and dict layouts, in every run
    # imports read cached bytecode, as after an install, and the cache is
    # kept inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def environment(versions: dict) -> dict:
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "thread_vars_given": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_pinned": {v: "1" for v in THREAD_VARS},
    }


def wall_of(cmd: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return wall, proc


def import_times(env: dict) -> dict:
    """Median ``-X importtime`` figures: the whole package, and scipy's and numpy's own modules."""
    samples = {"flowauction": [], "scipy": [], "numpy": []}
    for _ in range(IMPORT_SAMPLES):
        _, proc = wall_of([sys.executable, "-X", "importtime", "-c", "import flowauction"], env)
        own = {"scipy": 0, "numpy": 0}
        whole = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line or "self" in line:
                continue
            self_us, cumulative_us, module = (f.strip() for f in line[len("import time:"):].split("|"))
            top = module.split(".")[0]
            if top in own:
                own[top] += int(self_us)
            if module == "flowauction":
                whole = int(cumulative_us)
        samples["flowauction"].append(whole / 1e6)
        for top, us in own.items():
            samples[top].append(us / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = child_env()
    setup_cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "setup",
                 "--workload", workload, "--seed", str(seed)]
    wall_of(setup_cmd, env)  # untimed: fills the bytecode cache
    values: dict[str, float] = {}
    setup_samples: list[dict] = []
    if trace:
        imports = import_times(env)
        for name in ("flowauction", "scipy", "numpy"):
            values[f"cli.import.{name}_s"] = imports[name]
        values["cli.interpreter_s"] = statistics.median(
            wall_of([sys.executable, "-c", "pass"], env)[0] for _ in range(INTERPRETER_SAMPLES))
    else:
        cal = calibrate.Calibration(SETUP_WEIGHTS)
        setup_samples += [cal.timed(wall_of(setup_cmd, env)[0]) for _ in range(SETUP_SAMPLES)]

    # its own session, so that a timeout also ends the CLI commands it started
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py"), "run", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"workload process for {workload} exited {proc.returncode}")
    raw = json.loads(stdout.strip().splitlines()[-1])
    if not trace:
        # samples on both sides of the run, so that a slow spell of a shared
        # machine weighs on set-up no more than on the jobs
        cal = calibrate.Calibration(SETUP_WEIGHTS)
        setup_samples += [cal.timed(wall_of(setup_cmd, env)[0]) for _ in range(SETUP_SAMPLES)]
        values["setup_wall_s"] = statistics.median(x["wall_s"] for x in setup_samples)
        values["setup_s"] = statistics.median(x["ref_s"] for x in setup_samples)

    # A round is one job, or one pass through the cli-oneshot commands; the
    # job timings are per place in a round, then averaged over the places.
    # The bounded ones use each job's calibrated time (see bench/calibrate.py),
    # which is its wall time on a workload that is not calibrated; the wall
    # times are recorded too.
    walls = [j["wall_s"] for j in raw["jobs"]]
    per_place: dict[int, list[dict]] = {}
    for j in raw["jobs"]:
        per_place.setdefault(j["k"] % raw["round_jobs"], []).append(j)
    if len(per_place) < raw["round_jobs"]:
        raise RuntimeError(f"every {workload} job at some place of a round failed: {raw['errors']}")
    places = list(per_place.values())
    round_s = sum(statistics.median(j["ref_s"] for j in jobs) for jobs in places)
    values["job_p50_s"] = round_s / len(places)
    values["solves_per_s"] = sum(jobs[0]["solves"] for jobs in places) / round_s
    values["mc_trials_per_s"] = sum(jobs[0]["trials"] for jobs in places) / round_s
    values["job_wall_p50_s"] = sum(
        statistics.median(j["wall_s"] for j in jobs) for jobs in places) / len(places)
    values["job_wall_best_s"] = sum(min(j["wall_s"] for j in jobs) for jobs in places) / len(places)
    values["peak_rss_mb"] = raw["peak_rss_kb"] / 1024
    values["failed_frac"] = raw["failed"] / raw["attempted"]
    if trace:
        values.update(raw["layers"])
        values["job.tail_s"] = tail_s(walls)
        values["job.samples"] = len(walls)
        values["job.warmup_s"] = raw["warmup_s"]

    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(raw["versions"]),
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": raw["errors"],
        "metrics": metrics,
        "also": {k: v for k, v in values.items() if k not in metrics},
        "job_walls_s": walls,
        "jobs": raw["jobs"],
        "setup_samples": setup_samples,
        "spans_file": raw.get("spans_file"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def tail_s(walls: list[float]) -> float:
    """The highest order statistic with at least ten samples above it (the median below 11 samples)."""
    ordered = sorted(walls)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else statistics.median(ordered)


def print_summary(record: dict) -> None:
    print(f"# {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"jobs={record['attempted']}  failed={record['failed']}")
    for name, m in record["metrics"].items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, unit in UNBOUNDED_UNITS.items():
        if name in record["also"]:
            print(f"{name:<48} {record['also'][name]:>14.6g} {unit}  (not bounded)")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="flowauction benchmark")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowauction" / "__init__.py").is_file():
        print(f"error: no flowauction package under {SRC}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(spec, w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_summary(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
