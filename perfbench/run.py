"""Benchmark for the packclass engine: seeded workloads through the public
entry points, end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload opp-tight --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all       # every workload in turn

The package is imported from `src/` next to this directory. The timed
calls run in passes over the same call list until `--seconds` is used up.
A fixed pure-Python yardstick (`reference.py`) runs right before every
call, and each call's time is divided by the yardstick's time around it,
so the timing metrics are in yardstick units ("ref") and a host that
slows for a while slows both alike. Each call's time is its best over the
passes. Set-up (import, instance generation and construction, instance
files) is repeated before every pass and its median reported in seconds.
Every output is checked by the benchmark's own code, and a wrong output
makes the run exit 1. With
`--trace 1` half the time runs untraced, then one traced pass wraps each
layer's functions from outside and reports calls, self time and hit ratios.

The last line of standard output is one JSON object with `correct`,
`attempted` (distinct calls), `failed` (calls that raised) and
`metrics`. A record of every call and, when traced, every span is written
under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from reference import reference_s
from tracing import Tracer, layer_totals
from workloads import HIT_LAYERS, LAYER_CLASSES, WORKLOADS, Outcome, digest, layer_targets

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SCHEMA = 2
REF_WINDOW = 15  # yardstick runs on each side of a call that its time is divided by


def fresh_setup(workload, seed: int, workdir: str):
    """Import the package from scratch and build the call list; (seconds, calls)."""
    for name in [m for m in sys.modules if m == "packclass" or m.startswith("packclass.")]:
        del sys.modules[name]
    start = time.perf_counter()
    calls = workload.build(seed, workdir)
    elapsed = time.perf_counter() - start
    loaded = os.path.abspath(sys.modules["packclass"].__file__)
    if not loaded.startswith(os.path.join(SRC, "")):
        raise SystemExit(f"packclass was imported from {loaded}, not from {SRC}")
    return elapsed, calls


def run_pass(calls, tracer=None, yardstick=None) -> tuple[list[tuple[str, float, Outcome]], list[float]]:
    """Run every call and its follow-ups in order; (records, yardstick
    seconds). With a yardstick, it runs once right before each call."""
    records, refs = [], []
    todo = list(reversed(calls))
    while todo:
        call = todo.pop()
        if tracer is not None:
            tracer.call_id = len(records)
        if yardstick is not None:
            refs.append(yardstick())
        start = time.perf_counter()
        try:
            result = call.run()
        except Exception as exc:  # an exception ends the call unsolved; the run goes on
            elapsed = time.perf_counter() - start
            outcome = Outcome(f"error:{type(exc).__name__}: {exc}", 0, digest(repr(exc)), True)
        else:
            elapsed = time.perf_counter() - start
            outcome = call.judge(result)
        records.append((call.label, elapsed, outcome))
        todo.extend(reversed(outcome.then))
    return records, refs


def in_ref(times: list[float], refs: list[float]) -> list[float]:
    """Each call's time as a multiple of the yardstick's median over the
    runs closest to it, so the call and its yardstick saw the same host."""
    return [
        t / statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        for i, t in enumerate(times)
    ]


def run_passes(workload, seed: int, workdir: str, seconds: float) -> dict:
    """Set up afresh before every pass, so set-up is sampled across the
    run like the calls are; at least one pass, another only while it fits
    the time left. Each call keeps its best time over the passes, in
    seconds and in yardstick units: other work on the host only ever adds
    time, so the best is the least disturbed measurement. Only the first
    pass's records are kept, so memory does not grow with the passes."""
    setups, pass_s, pass_ref_s = [], [], []
    first, best_s, best_ref, same = None, None, None, True
    start = time.perf_counter()
    while True:
        calls = records = None  # the previous pass's objects are not set-up's
        gc.collect()
        elapsed, calls = fresh_setup(workload, seed, workdir)
        setups.append(elapsed)
        gc.collect()
        records, refs = run_pass(calls, yardstick=reference_s)
        times = [t for _, t, _ in records]
        ratios = in_ref(times, refs)
        pass_s.append(sum(times))
        pass_ref_s.append(statistics.median(refs))
        if first is None:
            first, best_s, best_ref = records, times, ratios
        else:
            same = same and views(records) == views(first)
            best_s = [min(a, b) for a, b in zip(best_s, times)]
            best_ref = [min(a, b) for a, b in zip(best_ref, ratios)]
        used = time.perf_counter() - start
        if used + used / len(pass_s) > seconds:
            return {"setups": setups, "first": first, "best_s": best_s, "best_ref": best_ref,
                    "pass_s": pass_s, "pass_ref_s": pass_ref_s, "same": same}


def views(records) -> list[tuple[str, str, str]]:
    return [(label, o.verdict, o.digest) for label, _, o in records]


def end_to_end(first, best_ref: list[float], setup_s: float) -> dict:
    return {
        "wall_ref": (sum(best_ref), "ref"),
        "latency_p50_ref": (statistics.median(best_ref), "ref"),
        "latency_p90_ref": (statistics.quantiles(best_ref, n=10)[8], "ref"),
        "unsolved_frac": (sum(o.unsolved for _, _, o in first) / len(first), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def trace_pass(workload, seed: int, workdir: str) -> tuple[Tracer, list, float]:
    """One pass with every layer wrapped, after a fresh set-up like the
    untraced passes; (tracer, records, seconds)."""
    _, calls = fresh_setup(workload, seed, workdir)
    gc.collect()
    tracer = Tracer()
    for name, module, attr, tally in layer_targets():
        if module in sys.modules and tracer.patch_function("packclass", module, attr, name, tally) == 0:
            raise SystemExit(f"traced name {module}.{attr} is not held by any module")
    for name, module, cls in LAYER_CLASSES:
        tracer.patch_constructor(getattr(sys.modules[module], cls), name)
    start = time.perf_counter()
    try:
        records, _ = run_pass(calls, tracer)
    finally:
        tracer.restore()
    return tracer, records, time.perf_counter() - start


def per_layer(tracer: Tracer, wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics of the traced pass; `wall_s` is the untraced
    calls' total best time in seconds."""
    names = [t[0] for t in layer_targets()] + [c[0] for c in LAYER_CLASSES]
    totals = layer_totals(tracer.spans, names)
    metrics = {}
    for name in names:
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in HIT_LAYERS:
        calls = totals[name][0]
        metrics[f"{name}.hit_frac"] = (tracer.tallies[f"{name}.hits"] / calls if calls else 0.0, "ratio")
    nodes = tracer.tallies["opp.nodes"]
    metrics["opp.nodes"] = (nodes, "count")
    metrics["opp.nodes_per_s"] = (nodes / wall_s, "1/s")
    spans = tracer.spans
    inner = sum(
        1 for s in spans
        if s[0] == "opp.solve_opp" and s[3] >= 0 and spans[s[3]][0] in ("solve.solve_okp", "solve.solve_spp")
    )
    metrics["solve.inner_calls"] = (inner, "count")
    examined = tracer.tallies["solve.examined"]
    metrics["solve.screen_frac"] = (tracer.tallies["solve.screened"] / examined if examined else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measured = run_passes(workload, seed, workdir, seconds / 2 if traced else seconds)
        first, best_s = measured["first"], measured["best_s"]
        problems = []
        if not measured["same"]:
            problems.append("verdicts or statistics differ between passes of the same calls")
        e2e = end_to_end(first, measured["best_ref"], statistics.median(measured["setups"]))
        if traced:
            tracer, traced_records, traced_wall_s = trace_pass(workload, seed, workdir)
            if views(traced_records) != views(first):
                problems.append("the traced pass gave other verdicts or statistics than the untraced one")
            metrics = per_layer(tracer, sum(best_s), traced_wall_s - statistics.median(measured["pass_s"]))
            tracer.write(os.path.join(OUT, f"SPANS_{workload.name}_seed{seed}.jsonl"))
        else:
            metrics = e2e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, _, outcome in first:
        problems += [f"{label}: {p}" for p in outcome.problems]
    unchecked = sum(1 for _, _, o in first if o.verdict == "infeasible")
    result = {
        "schema": SCHEMA,
        "workload": workload.name,
        "seed": seed,
        "node_budget": workload.budget,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "traced": traced,
        "patched": tracer.patched if traced else {},
        "passes": len(measured["pass_s"]),
        "pass_s": measured["pass_s"],
        "pass_yardstick_s": measured["pass_ref_s"],
        "setup_runs_s": measured["setups"],
        "wall_s": sum(best_s),
        "problems": problems,
        # The brute-force oracle stops at n <= 5; larger infeasible verdicts
        # have no independent check.
        "unchecked_infeasible": unchecked,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "calls": [
            {"label": label, "verdict": o.verdict, "nodes": o.nodes, "digest": o.digest,
             "time_s": t, "time_ref": r}
            for (label, _, o), t, r in zip(first, best_s, measured["best_ref"])
        ],
        # Each distinct call counts once, however many passes ran. A call
        # that ends at its node budget has a checked, deterministic outcome;
        # only a call that raised has failed.
        "attempted": len(first),
        "failed": sum(o.verdict.startswith("error:") for _, _, o in first),
    }
    with open(os.path.join(OUT, f"BENCH_{workload.name}_seed{seed}_trace{int(traced)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "packclass", "__init__.py")):
        print(f"error: no packclass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]

    for r in results:
        print(f"{r['workload']} (seed {r['seed']}, node budget {r['node_budget']}, "
              f"{r['passes']} passes of {len(r['calls'])} calls, {r['wall_s']:.4g} s of calls, "
              f"yardstick {statistics.median(r['pass_yardstick_s']) * 1e3:.4g} ms)")
        for name, m in r["metrics"].items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
        if r["unchecked_infeasible"]:
            print(f"  note: {r['unchecked_infeasible']} infeasible verdicts are unchecked "
                  "(the brute-force oracle stops at n <= 5)")
        for p in r["problems"]:
            print(f"  WRONG: {p}")
    problems = [p for r in results for p in r["problems"]]
    if args.trace and len(results) > 1:
        for key in results[0]["metrics"]:
            if key.endswith(".calls") and not any(r["metrics"][key]["value"] for r in results):
                problems.append(f"{key[:-len('.calls')]} recorded no call on any workload")
                print(f"  WRONG: {problems[-1]}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
