#!/usr/bin/env python3
"""In-process parts of the traced benchmark run; ``perfbench/run.py`` starts
each in a fresh interpreter with ``PYTHONPATH`` set to the checkout's ``src``.

    traced.py replay --workload NAME --spans FILE -- CLI-ARGS...
    traced.py layers --seed N --scratch DIR [--toy]
    traced.py cold --point NAME --seed N [--toy]

``replay`` runs ``cancornorm.cli.main`` on the given arguments with every
public function that one module calls from another wrapped in a span, plus
``RngStream.generator``.  The spans (id, parent, name, start, end,
workload) stay in memory and are written to FILE once at the end; the last
output line gives each layer's self time and the call counts.  The package
itself is not changed.

``layers`` times the public functions of each module at fixed sizes and
``cold`` times the first ``evaluate_batch`` call of a fresh process minus a
warm one.  Each prints one JSON line last.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import pkgutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path

class Tracer:
    """Span recorder: (id, parent, name, start_ns, end_ns); parent -1 is a root."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap each public function a package module imported from another one."""
    package = importlib.import_module("cancornorm")
    for info in pkgutil.iter_modules(package.__path__):
        mod = importlib.import_module(f"cancornorm.{info.name}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            origin = obj.__module__
            if origin.startswith("cancornorm.") and origin != mod.__name__:
                layer = origin.split(".", 1)[1]
                setattr(mod, attr, tracer.wrap(f"{layer}.{attr}", obj))
    stream = importlib.import_module("cancornorm.alternatives").RngStream
    stream.generator = tracer.wrap("alternatives.RngStream.generator", stream.generator)


def summarize(spans: list[tuple]) -> dict:
    children = defaultdict(int)
    for _, parent, _, start, end in spans:
        children[parent] += end - start
    self_ns = defaultdict(int)
    calls = Counter()
    for sid, _, name, start, end in spans:
        self_ns[name.split(".", 1)[0]] += end - start - children[sid]
        calls[name] += 1
    return {
        "root_s": children[-1] / 1e9,
        "self_s": {layer: ns / 1e9 for layer, ns in sorted(self_ns.items())},
        "calls": dict(sorted(calls.items())),
        "counts": {
            "replications": calls["alternatives.generate"],
            "simulate_calls": calls["montecarlo.calibrate"] + calls["montecarlo.power"],
            "cli_invocations": calls["cli.main"],
            "tables_read": calls["store.find_null"] + calls["store.load_null"],
        },
        "spans": len(spans),
    }


def cmd_replay(ns) -> dict:
    import cancornorm.cli as cli

    tracer = Tracer()
    instrument(tracer)
    rc = tracer.wrap("cli.main", cli.main)(ns.cli_args)
    spans = tracer.spans
    with open(ns.spans, "w") as fh:
        fh.write("id\tparent\tname\tstart_ns\tend_ns\tworkload\n")
        fh.writelines(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\t{ns.workload}\n" for s in spans)
    return {"returncode": rc, **summarize(spans)}


def median_time(fn, budget_s: float = 1.0, max_calls: int = 25) -> float:
    """Median wall time of calls repeated while they fit in the budget."""
    times: list[float] = []
    while not times or (len(times) < max_calls and sum(times) < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_once(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# One alternative per sampler kind, at the study's parameters.
KIND_EXAMPLES = {
    "normal": "normal", "iid_exp": "indep_exp", "shared_product": "logn_1",
    "shared_add": "chisq8", "laplace_product": "laplace2", "gamma_ratio": "beta12",
    "student_t": "t2", "asym_laplace": "al1_r05", "normal_mixture": "mix90_m1_r05",
}
POPULATION_EXAMPLE = "mix90_m1_r05"  # one of the ten mixture rows, no caching inside
POINTS = {"n20p2": (20, 2), "n50p3": (50, 3), "n100p5": (100, 5), "n100p6": (100, 6)}


def cmd_layers(ns) -> dict:
    import numpy as np

    import cancornorm as cc
    from cancornorm import cli, montecarlo
    from cancornorm.montecarlo import NullTable, empirical_pvalues

    metrics: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    rng = np.random.default_rng(ns.seed)
    batch = 8 if ns.toy else montecarlo.CHUNK
    points = {k: (20, 2) for k in POINTS} if ns.toy else POINTS
    stats_all = cc.ALL_STATISTICS
    families = {
        "mardia": tuple(s for s in stats_all if s.family.startswith("mardia")),
        "z2": tuple(s for s in stats_all if s.family == "z2"),
        "z3": tuple(s for s in stats_all if s.family == "z3"),
        "all": stats_all,
    }

    # alternatives -- population moments first: the gamma-ratio quadrature is
    # cached per process, and popvalues pays its first call.
    for kind, name in KIND_EXAMPLES.items():
        spec = cc.alternative(name, 3)
        if spec.kind != kind:
            raise RuntimeError(f"{name} is of kind {spec.kind}, not {kind}")
        if kind != "student_t":
            t, _ = timed_once(lambda: cc.population_moments(spec, 6))
            put(f"alternatives.population_moments_ms.{kind}", 1000 * t, "ms")
    gen_reps = 32 if ns.toy else 1000
    t = median_time(lambda: [cc.RngStream(ns.seed).child(1, r).generator() for r in range(gen_reps)])
    put("alternatives.generator_us", 1e6 * t / gen_reps, "us")
    for kind, name in KIND_EXAMPLES.items():
        spec = cc.alternative(name, 2)
        stream = cc.RngStream(ns.seed)
        t = median_time(lambda: [cc.generate(spec, 20, stream.child(1, r)) for r in range(batch)])
        put(f"alternatives.generate_us.{kind}", 1e6 * t / batch, "us")

    # montecarlo -- before any engine call, so that forked pool workers build
    # their own index programs, as they do under the CLI.
    for point, reps in (("n20p2", 2048), ("n100p5", 1024)):
        n, p = points[point]
        reps = 1000 if ns.toy else reps
        run = lambda w: cc.calibrate(stats_all, n, p, reps, cc.RngStream(ns.seed), workers=w)  # noqa: E731
        t2, _ = timed_once(lambda: run(2))
        t1, out = timed_once(lambda: run(1))
        if point == "n20p2":
            tables = out  # the null tables power() needs below
        put(f"montecarlo.calibrate_s.w1.{point}", t1, "s")
        put(f"montecarlo.calibrate_s.w2.{point}", t2, "s")
        put(f"montecarlo.parallel_eff.{point}", t1 / (2 * t2), "ratio")
    n, p = points["n20p2"]
    spec = cc.alternative("indep_exp", p)
    for w in (2, 1):
        t, _ = timed_once(lambda: cc.power(
            spec, stats_all, n, p, 0.05, 1000 if ns.toy else 2048, tables,
            cc.RngStream(ns.seed).child(1), workers=w))
        put(f"montecarlo.power_s.w{w}", t, "s")
    observed = rng.random(1000)
    table = tables[cc.StatisticId.parse("z2_hl")]
    put("montecarlo.empirical_pvalues_us",
        1e6 * median_time(lambda: empirical_pvalues(observed, table), 0.2), "us")

    # per-sample path at (60, 4): the statistics `cancornorm test` computes
    n, p = (20, 2) if ns.toy else (60, 4)
    x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.3 * rng.standard_normal((p, p)))
    null_values = np.sort(rng.random(1000))
    nulls = {sid: NullTable(sid, n, p, 1000, 0, (), null_values, "") for sid in stats_all}
    run_test = median_time(lambda: [cc.run_test(x, sid, nulls[sid]) for sid in stats_all])
    compute = median_time(lambda: cc.compute_statistics(x))
    put("montecarlo.run_test_ms", 1000 * run_test, "ms")
    put("montecarlo.run_test_redundancy", run_test / compute, "ratio")
    put("stats.compute_statistics_ms", 1000 * compute, "ms")
    put("stats.z2_statistics_ms", 1000 * median_time(lambda: cc.z2_statistics(x)), "ms")
    put("stats.z3_statistics_ms", 1000 * median_time(lambda: cc.z3_statistics(x)), "ms")
    put("stats.mardia_ms", 1000 * median_time(lambda: (cc.mardia_b1p(x), cc.mardia_b2p(x))), "ms")
    put("moments.central_moments_ms", 1000 * median_time(lambda: cc.central_moments(x, 6)), "ms")
    m6 = cc.central_moments(x, 6)
    put("covblocks.psi_blocks_ms.sample", 1000 * median_time(lambda: cc.psi_blocks(m6, n)), "ms")

    # population path at p = 3, as `cancornorm popvalues` runs it
    spec = cc.alternative(POPULATION_EXAMPLE, 2 if ns.toy else 3)
    t_moments = median_time(lambda: cc.population_moments(spec, 6))
    mpop = cc.population_moments(spec, 6)
    t_lambda = median_time(lambda: cc.lambda_blocks(mpop, None))
    t_psi = median_time(lambda: cc.psi_blocks(mpop, None))
    psi = cc.psi_blocks(mpop, None)
    t_cancor = median_time(lambda: cc.cancor_sq(psi))
    put("covblocks.lambda_blocks_ms.pop", 1000 * t_lambda, "ms")
    put("covblocks.psi_blocks_ms.pop", 1000 * t_psi, "ms")
    put("cancor.cancor_sq_ms", 1000 * t_cancor, "ms")
    per_family = {}
    for family, sid in (("mardia_skew", "mardia_skew"), ("mardia_kurt", "mardia_kurt"),
                        ("z2", "z2_hl"), ("z3", "z3_hl")):
        sid = cc.StatisticId.parse(sid)
        per_family[family] = median_time(lambda: cc.population_value(spec, sid))
        put(f"montecarlo.population_value_ms.{family}", 1000 * per_family[family], "ms")
    all_twelve = (per_family["mardia_skew"] + per_family["mardia_kurt"]
                  + 5 * per_family["z2"] + 5 * per_family["z3"])
    put("montecarlo.population_redundancy",
        all_twelve / (t_moments + t_lambda + t_psi + 2 * t_cancor), "ratio")

    # store and CLI input
    scratch = Path(ns.scratch)
    table = nulls[stats_all[0]]
    path = scratch / "table.null"
    put("store.save_null_ms", 1000 * median_time(lambda: cc.save_null(table, path), 0.2), "ms")
    put("store.load_null_ms", 1000 * median_time(lambda: cc.load_null(path), 0.2), "ms")
    csv_path = scratch / "data.csv"
    np.savetxt(csv_path, x, delimiter=",", header=",".join(f"x{j}" for j in range(p)),
               comments="", fmt="%.17g")
    put("cli.read_csv_ms", 1000 * median_time(lambda: cli.read_csv_sample(csv_path), 0.2), "ms")

    # engine: one chunk of B samples per point, each family on its own
    x1 = x[None]
    cc.evaluate_batch(x1)
    put("engine.all_ms.b1.n60p4", 1000 * median_time(lambda: cc.evaluate_batch(x1)), "ms")
    for point, (n, p) in points.items():
        data = rng.standard_normal((batch, n, p))
        cc.evaluate_batch(data)  # builds the index program for p
        for family, stats in families.items():
            t = median_time(lambda: cc.evaluate_batch(data, stats))
            put(f"engine.{family}_ms_per_rep.{point}", 1000 * t / batch, "ms")
        tracemalloc.start()
        cc.evaluate_batch(data)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        put(f"engine.peak_mb.{point}", peak / 2**20, "MB")
    return {"metrics": metrics}


def cmd_cold(ns) -> dict:
    import numpy as np

    import cancornorm as cc
    from cancornorm.montecarlo import CHUNK

    n, p = (20, 2) if ns.toy else POINTS[ns.point]
    batch = 8 if ns.toy else CHUNK
    data = np.random.default_rng(ns.seed).standard_normal((batch, n, p))
    cold, _ = timed_once(lambda: cc.evaluate_batch(data))
    warm, _ = timed_once(lambda: cc.evaluate_batch(data))
    return {"cold_ms": 1000 * (cold - warm)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("replay")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--spans", required=True)
    sp.add_argument("cli_args", nargs=argparse.REMAINDER)
    sp.set_defaults(func=cmd_replay)
    sp = sub.add_parser("layers")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--scratch", required=True)
    sp.add_argument("--toy", action="store_true")
    sp.set_defaults(func=cmd_layers)
    sp = sub.add_parser("cold")
    sp.add_argument("--point", required=True, choices=sorted(POINTS))
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--toy", action="store_true")
    sp.set_defaults(func=cmd_cold)
    ns = parser.parse_args(argv)
    if getattr(ns, "cli_args", None) and ns.cli_args[0] == "--":
        ns.cli_args = ns.cli_args[1:]
    result = ns.func(ns)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
