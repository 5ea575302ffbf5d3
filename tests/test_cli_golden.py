"""Byte-for-byte CLI output, pinned by the files in ``tests/golden/``.

Each case is one ``flowauction`` argv and the file holding its expected
output.  After a change that alters output on purpose, rewrite the files with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

from pathlib import Path

import pytest

from flowauction.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def both_formats(stem, *argv):
    return [(f"{stem}.csv", argv), (f"{stem}.json", (*argv, "--format", "json"))]


CASES = [
    *both_formats("solve-uniform", "solve", "--alpha", "0.25"),
    *both_formats("solve-beta", "solve", "--dist", "beta:2,5", "--alpha", "0.5"),
    *both_formats("solve-forced", "solve", "--dist", "uniform:-1,2", "--strike", "0.3",
                  "--alpha", "0.4", "--p", "0.2", "--q", "0.1"),
    *both_formats("solve-alpha0", "solve", "--alpha", "0"),
    *both_formats("sweep", "sweep"),
    *both_formats("sweep-uniform-beta", "sweep", "--dist", "uniform:0,1", "--dist", "beta:2,2",
                  "--alpha-grid", "0,1,11"),
    *both_formats("sweep-beta", "sweep", "--dist", "beta:0.5,0.5", "--alpha-grid", "0,1,11"),
    # uniform rows are interior roots; forced execution makes every Beta row a zero bid
    *both_formats("sweep-forced", "sweep", "--dist", "uniform:0,1", "--dist", "beta:2,5",
                  "--strike", "0.6", "--p", "0.3", "--q", "0.1", "--alpha-grid", "0,1,5"),
    ("sweep-figure2.csv", ("sweep", "--figure2")),
    ("sweep-figure2-11.json", ("sweep", "--figure2", "--alpha-grid", "0,1,11", "--format", "json")),
    *both_formats("simulate-uniform", "simulate", "--alpha", "0.25", "--n", "200000", "--seed", "42"),
    *both_formats("simulate-beta", "simulate", "--dist", "beta:2,5", "--alpha", "0.5",
                  "--n", "100000", "--seed", "7"),
    # 600,000 trials are three chunks, two full and one partial
    *both_formats("simulate-beta-chunks", "simulate", "--dist", "beta:2,5", "--alpha", "0.5",
                  "--n", "600000", "--seed", "9"),
    # 1,000,000 trials are two pairs of chunks, the last one holding 213,568 trials
    *both_formats("simulate-beta-pairs", "simulate", "--dist", "beta:2,5", "--alpha", "0.5",
                  "--n", "1000000", "--seed", "8"),
    *both_formats("simulate-no-exec", "simulate", "--alpha", "0.5", "--bid", "1.2", "--n", "50000"),
    *both_formats("simulate-bid", "simulate", "--alpha", "0.5", "--bid", "0.1", "--n", "50000",
                  "--seed", "3"),
    # a support far below 1 is scaled up by a power of two before its gains are summed
    *both_formats("simulate-tiny", "simulate", "--dist", "uniform:0,1e-200", "--strike", "5e-201",
                  "--alpha", "0.5", "--n", "2000", "--seed", "4"),
    *both_formats("compare-oracle", "compare-oracle", "--alpha-grid", "0,1,11"),
    ("sweep-config.json", ("sweep", "--config", str(GOLDEN / "sweep.cfg"), "--strike", "0.4")),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv, tmp_path):
    out = tmp_path / name
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_successive_calls_in_one_process_reproduce_their_goldens(tmp_path):
    # the parser is built once per process; no --dist list or other parsed
    # value may carry over from one call to the next
    for k, (name, argv) in enumerate([*CASES, *reversed(CASES)]):
        out = tmp_path / f"{k}-{name}"
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
    assert _build_parser() is _build_parser()


if __name__ == "__main__":
    for name, argv in CASES:
        if main([*argv, "--output", str(GOLDEN / name)]) != 0:
            raise SystemExit(f"{name}: flowauction {' '.join(argv)} failed")
