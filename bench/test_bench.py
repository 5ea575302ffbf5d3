"""Self-test of the benchmark: tracing must not change what the program does.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import flowauction as fa
from flowauction import cli, distributions, equilibrium, oracle, simulate

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
# job index 3 is the seeded `simulate` command of the cli-oneshot rotation
JOB = 3
EXPECTED_SPANS = {
    "figure2-sweep": {"cli.main", "equilibrium.solve", "distributions.Beta.cdf",
                      "distributions.Beta.partial_expectation",
                      "distributions.QuadratureDistribution.cdf"},
    "mc-validate": {"equilibrium.solve", "simulate.simulate_auction", "simulate.calibrate",
                    "distributions.Uniform.sample", "distributions.Beta.sample"},
    "cli-oneshot": {"cli.import", "cli.main", "equilibrium.solve", "simulate.simulate_auction",
                    "distributions.Uniform.sample"},
}


def attribute_snapshot() -> dict:
    owners = (fa, cli, distributions, equilibrium, oracle, simulate,
              *(getattr(distributions, law) for law in spans.LAWS))
    return {(owner.__name__, k): v for owner in owners for k, v in vars(owner).items()}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # for the CLI subprocesses
    return tmp_path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, workdir):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build()
    before = attribute_snapshot()

    plain_watch, plain = workloads.run_job(workload, inputs, JOB, SEED, workdir)
    tracer = spans.Tracer()
    traced_watch, traced = workloads.run_job(workload, inputs, JOB, SEED, workdir, tracer)
    plain_s, traced_s = plain_watch.wall_s, traced_watch.wall_s

    assert attribute_snapshot() == before, "a wrapped attribute was not restored"
    workload.check(inputs, workload.reference(inputs), plain)
    assert workload.comparable(traced) == workload.comparable(plain)
    assert EXPECTED_SPANS[name] <= set(tracer.names[i] for i in set(tracer.name_id))

    # self times of all spans, the root job span's being the untraced gaps,
    # add up to the job's wall time
    a = tracer.arrays()
    total_self = float((a["end"] - a["start"] - a["child"]).sum())
    overhead = max(traced_s - plain_s, 1e-3)
    assert abs(total_self - traced_s) <= overhead


def test_sweep_check_rejects_a_rising_bid():
    rows = ["alpha,b_star,threshold,p_exec,effective_spread,revenue,residual,status",
            "0,0.5,1,0,,0,0,boundary_full_erosion",
            "0.5,0.2,0.6,0.4,0.3,0.12,1e-13,interior_root",
            "1,0.3,0.5,0.5,0.25,0.125,1e-13,interior_root"]
    with pytest.raises(workloads.CheckFailed, match="b_star rises"):
        workloads.check_sweep_csv("\n".join(rows) + "\n", 3)


def test_a_calibrated_leg_is_its_wall_time_over_the_slowdown_around_it():
    watch = workloads.Stopwatch(calibrate.Calibration({"scalar": 1.0, "vector": 1.0}))
    watch.lap()
    watch.lap()
    assert len(watch.legs) == 2
    assert watch.legs[0]["calibration"][1] == watch.legs[1]["calibration"][0]
    for leg in watch.legs:
        slow = [(f["scalar"] + f["vector"]) / 2 for f in leg["calibration"]]
        assert leg["ref_s"] == pytest.approx(leg["wall_s"] / (sum(slow) / 2))
    assert watch.wall_s == pytest.approx(sum(leg["wall_s"] for leg in watch.legs))
    assert watch.ref_s == pytest.approx(sum(leg["ref_s"] for leg in watch.legs))
