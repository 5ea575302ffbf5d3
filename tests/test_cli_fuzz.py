"""Byte-identical CLI behaviour over a fixed corpus of fuzzed argvs.

``tests/golden/cli-fuzz.txt`` holds one JSON list per line: the exit code,
the first 16 hex digits of the sha256 of stdout, the argv and the stderr
text.  The argvs come from :func:`fuzz_argv` with a fixed seed and cover
every command in both formats, forced outcomes, and extreme literals in any
numeric option.  The test replays each argv in process and compares all
three.  After a change that alters output on purpose, rewrite the corpus
with ``PYTHONPATH=src python tests/test_cli_fuzz.py`` and review the diff.

Run as a script, this file writes a corpus of ``--size`` argvs drawn at
``--seed`` to ``--output``; the defaults rewrite the committed corpus.  A
fresh corpus written against the ``src`` of each of two checkouts, at one
seed, shows by its diff every argv whose behaviour they do not share.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import warnings
from pathlib import Path

from flowauction.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli-fuzz.txt"
SEED, SIZE = 20231015, 750
EXTREMES = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0.0", "0")


def fuzz_argv(rng: random.Random) -> list[str]:
    """One argv: mostly valid values, each numeric one an extreme literal now and then."""

    def number(lo, hi):
        if rng.random() < 0.06:
            return rng.choice(EXTREMES)
        x = rng.uniform(lo, hi)
        return repr(x) if rng.random() < 0.3 else f"{x:.4g}"

    def law():
        if rng.random() < 0.5:
            return f"uniform:{number(-1.0, 0.5)},{number(0.6, 5.0)}"
        return f"beta:{number(0.1, 5.0)},{number(0.1, 5.0)}"

    command = rng.choice(["solve", "solve", "sweep", "sweep", "simulate", "compare-oracle"])
    argv = [command]
    if command == "compare-oracle":
        if rng.random() < 0.1:  # refused by compare-oracle, as --p and --q below are
            argv.append(rng.choice(["--dist=uniform:0,1", "--dist=beta:2,2", "--strike=0.5", "--strike=0.4"]))
    else:
        laws = 2 if rng.random() < (0.4 if command == "sweep" else 0.05) else 1
        argv += [f"--dist={law()}" for _ in range(laws)]
        argv.append(f"--strike={number(-1.0, 0.5)}")
    if command in ("solve", "simulate"):
        argv.append(f"--alpha={rng.choice([number(0.0, 1.0), '0', '1'])}")
    else:
        start, stop = rng.choice([0.0, round(0.5 * rng.random(), 3)]), rng.choice([1.0, round(rng.random(), 3)])
        argv.append(f"--alpha-grid={start!r},{stop!r},{rng.randint(1 if rng.random() < 0.03 else 2, 11)}")
    if command == "sweep" and rng.random() < 0.05:
        argv = [a for a in argv if not a.startswith("--dist")] + ["--figure2"]
    for flag, lo, hi, chance in (("p", 0.0, 0.5, 0.3), ("q", 0.0, 0.5, 0.3), ("tol", 1e-15, 1e-6, 0.15)):
        if rng.random() < chance:
            argv.append(f"--{flag}={number(lo, hi)}")
    if command == "simulate":
        argv += [f"--n={rng.randint(1, 2000)}", f"--seed={rng.randint(0, 2**32)}"]
        if rng.random() < 0.2:
            argv.append(f"--bid={number(0.0, 1.0)}")
    argv.append(f"--format={rng.choice(['csv', 'json'])}")
    return argv


def run(argv: list[str]) -> list:
    """``[exit code, sha256(stdout)[:16], argv, stderr]`` of ``flowauction argv``, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], argv, err.getvalue()]


def test_the_corpus_replays_byte_for_byte():
    corpus = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert len(corpus) == SIZE
    moved = [(want, got) for want in corpus if (got := run(want[2])) != want]
    assert not moved, f"{len(moved)} of {SIZE} argvs changed; (corpus, now): {moved[:3]}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write a corpus of fuzzed argvs and what each does.")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--size", type=int, default=SIZE)
    parser.add_argument("--output", type=Path, default=CORPUS)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    args.output.write_text("".join(json.dumps(run(fuzz_argv(rng))) + "\n" for _ in range(args.size)),
                           encoding="utf-8")
