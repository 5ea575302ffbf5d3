"""Span recording for the benchmark's traced runs.

The recorder wraps flowauction's public functions at run time, from outside
the package: ``install`` rebinds each wrapped function in every module that
looks it up, and ``restore`` puts the originals back.  Nothing under
``src/`` is edited.

A span is one call of a wrapped function: name, start, end, parent span and
job id.  Spans are kept in memory in flat arrays (a figure-2 job makes about
50 000 of them) and written to a numpy archive with ``Tracer.save`` when the
run ends.  A
span's self time is its duration minus the time its child spans cover; spans
nest strictly because every workload runs on one thread.

Run as a script, this file is the traced stand-in for ``python -m
flowauction``: ``python bench/spans.py SPANS_PATH CLI_ARGS...`` imports the
package, installs the wrappers, runs the CLI and saves its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from array import array

# numpy is imported where spans are saved or loaded, so that the traced CLI's
# package-import span still covers numpy's import

LAWS = ("Uniform", "Beta", "QuadratureDistribution")
LAW_METHODS = ("cdf", "partial_expectation", "sample")
_ARRAYS = ("name_id", "start", "end", "child", "parent", "job")


class Tracer:
    """Spans in flat arrays plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.parent = array("q")
        self.job = array("i")
        self.counts: dict[str, float] = {}
        self.peak_traced_bytes = 0
        self.max_residual_over_tol = 0.0
        self.job_id = -1
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def adopt(self, data: dict, parent: int) -> None:
        """Append spans that another process saved (see ``load``) under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock, so the
        other process's times need no shifting.
        """
        import numpy as np

        base = len(self.start)
        remap = np.array([self.intern(n) for n in data["names"]], dtype=np.int32)
        top = data["parent"] < 0
        self.name_id.frombytes(remap[data["name_id"]].astype(np.int32).tobytes())
        self.start.frombytes(data["start"].tobytes())
        self.end.frombytes(data["end"].tobytes())
        self.child.frombytes(data["child"].tobytes())
        self.parent.frombytes(np.where(top, parent, data["parent"] + base).astype(np.int64).tobytes())
        self.job.frombytes(np.full(len(top), self.job[parent], dtype=np.int32).tobytes())
        self.child[parent] += float((data["end"] - data["start"])[top].sum())
        for name, n in data["counts"].items():
            self.count(name, n)
        self.peak_traced_bytes = max(self.peak_traced_bytes, data["peak_traced_bytes"])
        self.max_residual_over_tol = max(self.max_residual_over_tol, data["max_residual_over_tol"])

    def arrays(self) -> dict:
        """Copies of the span arrays as numpy arrays."""
        import numpy as np

        return {k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode).copy()
                for k in _ARRAYS}

    def save(self, path) -> None:
        """Write every span and counter to ``path`` (a numpy ``.npz`` archive)."""
        import numpy as np

        meta = {"names": self.names, "counts": self.counts,
                "peak_traced_bytes": self.peak_traced_bytes,
                "max_residual_over_tol": self.max_residual_over_tol}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **self.arrays())


def load(path) -> dict:
    """Read what ``Tracer.save`` wrote: the arrays plus names and counters."""
    import numpy as np

    with np.load(path) as z:
        data = json.loads(str(z["meta"]))
        data.update({k: z[k] for k in _ARRAYS})
    return data


def _spanned(tracer: Tracer, name: str, fn, after=None, tracemem: bool = False):
    """Wrap ``fn`` so each call is one span; ``after(args, kwargs, result)`` adds counts."""
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracemem:
            tracemalloc.start()
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
            if tracemem:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.peak_traced_bytes = max(tracer.peak_traced_bytes, peak)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap the public functions of every flowauction layer; return what ``restore`` needs."""
    import flowauction as fa
    from flowauction import cli, distributions, equilibrium, oracle, simulate

    saved: list = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def everywhere(fn, new):
        # rebind the name in every module that looks it up
        for mod in (fa, cli, equilibrium, oracle, simulate):
            if mod.__dict__.get(fn.__name__) is fn:
                patch(mod, fn.__name__, new)

    for law in LAWS:
        cls = getattr(distributions, law)
        for method in LAW_METHODS:
            name = f"distributions.{law}.{method}"
            after = None
            if method == "sample":
                def after(args, kwargs, result, key=name + ".draws"):
                    tracer.count(key, getattr(result, "size", 1))
            patch(cls, method, _spanned(tracer, name, cls.__dict__[method], after))
    quad = distributions.QuadratureDistribution
    patch(quad, "__init__", _spanned(tracer, "distributions.QuadratureDistribution.init",
                                     quad.__dict__["__init__"]))

    solve = equilibrium.solve_equilibrium
    solve_sig = inspect.signature(solve)

    def after_solve(args, kwargs, sol):
        tracer.count("equilibrium.solves")
        if sol.status.value == "interior_root":
            bound = solve_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            ratio = abs(sol.residual) / bound.arguments["tol"]
            tracer.max_residual_over_tol = max(tracer.max_residual_over_tol, ratio)

    everywhere(solve, _spanned(tracer, "equilibrium.solve", solve, after_solve))

    eu = equilibrium.expected_utility

    @functools.wraps(eu)
    def counted_eu(*args, **kwargs):
        tracer.count("equilibrium.eu_evals")
        return eu(*args, **kwargs)

    # only the solver's lookups: eu_evals_per_solve counts the root finder's work
    patch(equilibrium, "expected_utility", counted_eu)

    def after_sim(args, kwargs, result):
        cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
        tracer.count("simulate.simulate_auction.trials", cfg.n_trials)

    everywhere(simulate.simulate_auction,
               _spanned(tracer, "simulate.simulate_auction", simulate.simulate_auction,
                        after_sim, tracemem=True))
    everywhere(simulate.calibrate_zero_profit_bid,
               _spanned(tracer, "simulate.calibrate", simulate.calibrate_zero_profit_bid,
                        tracemem=True))
    everywhere(oracle.build_oracle_reports,
               _spanned(tracer, "oracle.build_oracle_reports", oracle.build_oracle_reports))
    patch(cli, "main", _spanned(tracer, "cli.main", cli.main))
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    import runpy

    tracer = Tracer()
    tracer.job_id = 0
    i = tracer.open(tracer.intern("cli.import"))
    import flowauction  # noqa: F401  (package import is part of the cli layer)
    tracer.close(i)
    saved = install(tracer)
    sys.argv = ["flowauction", *argv]
    try:
        runpy.run_module("flowauction", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        restore(saved)
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_cli(sys.argv[1], sys.argv[2:]))
