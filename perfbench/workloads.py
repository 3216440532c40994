"""The three benchmark workloads and the layers the traced run wraps.

A workload turns a seed into a list of `Call`s: a zero-argument entry-point
call (the timed part) and a judge that checks its output with the
benchmark's own code (untimed). Every call carries a fixed node budget, so
a search that does not finish still does the same work on every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from math import prod
from typing import Callable

from checker import packing_problems
from generators import Generated, guillotine, tight, with_extras


@dataclass
class Outcome:
    verdict: str
    nodes: int
    digest: str  # of the call's deterministic statistics
    unsolved: bool  # ended in a resource limit
    problems: list[str] = field(default_factory=list)  # wrong outputs
    then: list["Call"] = field(default_factory=list)  # follow-up calls


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    judge: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    budget: int  # nodes per entry-point call
    # (seed, work dir) -> calls; imports what it uses, which counts as set-up
    build: Callable[[int, str], list[Call]]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _stats_digest(stats: dict) -> str:
    return digest(sorted((k, v) for k, v in stats.items() if k not in ("wall_time", "wall_time_s")))


def _ids(g: Generated) -> dict[str, tuple[int, ...]]:
    return {f"b{j}": size for j, size in enumerate(g.sizes)}


def _boxes(model, g: Generated) -> list:
    return [model.Box(box_id, size, value=prod(size)) for box_id, size in _ids(g).items()]


# -- opp-tight -------------------------------------------------------------

TIGHT_CALLS = 360
TIGHT_BUDGET = 80


def _judge_opp(g: Generated, outcome) -> Outcome:
    out = Outcome(
        verdict=outcome.verdict,
        nodes=outcome.stats.nodes,
        digest=digest(outcome.stats.deterministic_view()),
        unsolved=outcome.verdict == "resource_limit",
    )
    if outcome.verdict == "feasible":
        if outcome.packing is None:
            out.problems.append("feasible verdict without a packing")
        else:
            out.problems += packing_problems(_ids(g), g.container, outcome.packing.positions)
    return out


def tight_suite(seed: int) -> list[Generated]:
    rng = random.Random(seed)
    return [tight(rng, 6 + k % 4) for k in range(TIGHT_CALLS)]


def build_opp_tight(seed: int, workdir: str) -> list[Call]:
    model = importlib.import_module("packclass.model")
    opp = importlib.import_module("packclass.opp")
    limits = opp.SearchLimits(max_nodes=TIGHT_BUDGET, time_limit=None, use_heuristic=False)
    calls = []
    for k, g in enumerate(tight_suite(seed)):
        inst = model.Instance(boxes=_boxes(model, g), container=g.container)
        calls.append(Call(
            label=f"tight-{k}-n{g.n}",
            run=lambda inst=inst: opp.solve_opp(inst, limits),
            judge=lambda result, g=g: _judge_opp(g, result),
        ))
    return calls


# -- opp-perfect -------------------------------------------------------------

PERFECT_INSTANCES = 80
PERFECT_BUDGET = 10
PERFECT_CONTAINERS = {2: (20, 20), 3: (8, 8, 8)}
# Each instance file is solved twice: by the engine alone (the ROADMAP's
# perfect-packing target) and through the default front door, heuristic on.
PERFECT_FLAGS = {"engine": ["--no-heuristic"], "default": []}
EXIT_CODE = {"feasible": 0, "infeasible": 1, "resource_limit": 2}


def _write_instance(path: str, g: Generated) -> None:
    doc = {
        "d": g.d,
        "container": list(g.container),
        "boxes": [{"id": b, "size": list(s)} for b, s in _ids(g).items()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _quiet(fn, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fn(*args)
    return code, buf.getvalue()


def _judge_verify(result_path: str, result) -> Outcome:
    code, text = result
    os.unlink(result_path)
    out = Outcome(verdict="pass" if code == 0 else "fail", nodes=0,
                  digest=digest((code, text)), unsolved=False)
    if code != 0 or "packing: ok" not in text or "class: ok" not in text:
        out.problems.append(f"verify rejected a feasible result (exit {code}): {text.strip()}")
    return out


def _judge_cli_opp(cli, label: str, g: Generated, inst_path: str, result_path: str, code) -> Outcome:
    if not os.path.exists(result_path):
        return Outcome(f"exit {code}", 0, digest(code), True,
                       [f"exit code {code} and no result file for a valid instance"])
    with open(result_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    verdict = doc["verdict"]
    out = Outcome(verdict=verdict, nodes=doc["stats"]["nodes"],
                  digest=_stats_digest(doc["stats"]), unsolved=verdict == "resource_limit")
    if code != EXIT_CODE.get(verdict):
        out.problems.append(f"exit code {code} for verdict {verdict!r}")
    if verdict == "infeasible":
        out.problems.append("a perfect packing was reported infeasible")
    if verdict == "feasible":
        out.problems += packing_problems(_ids(g), g.container, doc.get("positions", {}))
        argv = ["verify", inst_path, result_path]
        out.then.append(Call(
            label=f"{label}-verify",
            run=lambda: _quiet(cli.main, argv),
            judge=lambda result: _judge_verify(result_path, result),
        ))
    else:
        os.unlink(result_path)
    return out


def perfect_suite(seed: int) -> list[Generated]:
    """Alternately 2-D and 3-D; n rises evenly through 10..30."""
    rng = random.Random(seed)
    return [
        guillotine(rng, PERFECT_CONTAINERS[2 + k % 2], 10 + k * 21 // PERFECT_INSTANCES)
        for k in range(PERFECT_INSTANCES)
    ]


def build_opp_perfect(seed: int, workdir: str) -> list[Call]:
    cli = importlib.import_module("packclass.cli")
    calls = []
    for k, g in enumerate(perfect_suite(seed)):
        inst_path = os.path.join(workdir, f"perfect-{k}.json")
        _write_instance(inst_path, g)
        for mode, flags in PERFECT_FLAGS.items():
            result_path = os.path.join(workdir, f"perfect-{k}-{mode}.result.json")
            argv = ["opp", inst_path, "-o", result_path, "--node-limit", str(PERFECT_BUDGET),
                    "--time-limit", "3600", *flags]
            label = f"perfect-{k}-d{g.d}-n{g.n}-{mode}"
            calls.append(Call(
                label=label,
                run=lambda argv=argv: cli.main(argv),
                judge=lambda code, a=(label, g, inst_path, result_path): _judge_cli_opp(cli, *a, code),
            ))
    return calls


# -- okp-spp -------------------------------------------------------------

OKP_SPP_PAIRS = 150
OKP_SPP_BUDGET = 10
OKP_EXTRAS = 3
OKP_EXTRA_SIDE = 3


def _judge_spp(solve, g: Generated, sol) -> Outcome:
    if isinstance(sol, solve.ResourceLimit):
        return Outcome("resource_limit", sol.stats["engine_nodes"], _stats_digest(sol.stats), True)
    out = Outcome("solved", sol.stats["engine_nodes"], _stats_digest(sol.stats), False)
    height = g.container[-1]
    if sol.height != height:
        out.problems.append(f"strip height {sol.height}, optimum is {height}")
    out.problems += packing_problems(_ids(g), (*g.container[:-1], sol.height), sol.packing.positions)
    return out


def _judge_okp(solve, g: Generated, sol) -> Outcome:
    if isinstance(sol, solve.ResourceLimit):
        return Outcome("resource_limit", sol.stats["engine_nodes"], _stats_digest(sol.stats), True)
    out = Outcome("solved", sol.stats["engine_nodes"], _stats_digest(sol.stats), False)
    sizes = _ids(g)
    chosen = {b: sizes[b] for b in sol.chosen}
    if sol.total_value != g.optimum or sum(prod(s) for s in chosen.values()) != g.optimum:
        out.problems.append(f"knapsack value {sol.total_value}, optimum is {g.optimum}")
    out.problems += packing_problems(chosen, g.container, sol.packing.positions)
    return out


def okp_spp_suite(seed: int) -> list[tuple[Generated, Generated]]:
    """(strip, knapsack) pairs: a guillotine cut of a 10 x H strip into
    8..16 boxes, and a cut 10 x 10 square plus extra boxes, 8..14 boxes in
    all; both counts rise evenly along the list. Knapsacks stop at 14
    because at 15-16 boxes a few that run out of budget take most of the
    time, and how many there are swings with the seed."""
    rng = random.Random(seed)
    pairs = []
    for k in range(OKP_SPP_PAIRS):
        strip = guillotine(rng, (10, rng.randint(8, 14)), 8 + k * 9 // OKP_SPP_PAIRS)
        square = guillotine(rng, (10, 10), 8 + k * 7 // OKP_SPP_PAIRS - OKP_EXTRAS)
        pairs.append((strip, with_extras(rng, square, OKP_EXTRAS, OKP_EXTRA_SIDE)))
    return pairs


def build_okp_spp(seed: int, workdir: str) -> list[Call]:
    model = importlib.import_module("packclass.model")
    opp = importlib.import_module("packclass.opp")
    solve = importlib.import_module("packclass.solve")
    limits = opp.SearchLimits(max_nodes=OKP_SPP_BUDGET, time_limit=None)
    calls = []
    for k, (strip, knap) in enumerate(okp_spp_suite(seed)):
        boxes = _boxes(model, strip)
        calls.append(Call(
            label=f"spp-{k}-n{strip.n}",
            run=lambda boxes=boxes, cross=strip.container[:-1]: solve.solve_spp(boxes, cross, limits),
            judge=lambda sol, g=strip: _judge_spp(solve, g, sol),
        ))
        inst = model.Instance(boxes=_boxes(model, knap), container=knap.container)
        calls.append(Call(
            label=f"okp-{k}-n{knap.n}",
            run=lambda inst=inst: solve.solve_okp(inst, limits),
            judge=lambda sol, g=knap: _judge_okp(solve, g, sol),
        ))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload("opp-tight", TIGHT_BUDGET, build_opp_tight),
        Workload("opp-perfect", PERFECT_BUDGET, build_opp_perfect),
        Workload("okp-spp", OKP_SPP_BUDGET, build_okp_spp),
    )
}


# -- layers wrapped by the traced run ----------------------------------------

def _hits(name: str, pred: Callable[[object], bool]) -> Callable[[object], dict]:
    return lambda result: {f"{name}.hits": 1} if pred(result) else {}


def layer_targets() -> list[tuple[str, str, str, object]]:
    """(span name, module, attribute, tally) for every wrapped function;
    tally is None, or maps the result to counts. Read after set-up, so the
    predicates see the classes of the modules actually in use."""
    opp = importlib.import_module("packclass.opp")
    is_some = lambda r: r is not None  # noqa: E731
    return [
        ("opp.solve_opp", "packclass.opp", "solve_opp",
         lambda r: {"opp.nodes": r.stats.nodes}),
        ("opp.quick_infeasible", "packclass.opp", "quick_infeasible",
         _hits("opp.quick_infeasible", lambda r: r is True)),
        ("opp.heuristic_pack", "packclass.opp", "heuristic_pack",
         _hits("opp.heuristic_pack", is_some)),
        ("opp.initial_state", "packclass.opp", "initial_state",
         _hits("opp.initial_state", lambda r: isinstance(r, opp.ImmediateConflict))),
        ("opp.propagate", "packclass.opp", "propagate",
         _hits("opp.propagate", lambda r: isinstance(r, opp.Conflict))),
        ("opp.branch_select", "packclass.opp", "branch_select", None),
        ("opp.prune_check", "packclass.opp", "prune_check", _hits("opp.prune_check", is_some)),
        # The accept step has no public name; ROADMAP counts it as a layer.
        ("opp.accept", "packclass.opp", "_try_accept", _hits("opp.accept", is_some)),
        ("packing_class.verify_packing_class", "packclass.packing_class", "verify_packing_class", None),
        ("packing_class.orient_class", "packclass.packing_class", "orient_class", None),
        ("packing_class.extract_packing", "packclass.packing_class", "extract_packing", None),
        ("chargraph.is_interval_graph", "packclass.chargraph", "is_interval_graph", None),
        ("chargraph.transitive_orientation", "packclass.chargraph", "transitive_orientation", None),
        ("graph.max_weight_clique", "packclass.graph", "max_weight_clique", None),
        ("graph.max_weight_stable_set_interval", "packclass.graph",
         "max_weight_stable_set_interval", None),
        ("model.validate_packing", "packclass.model", "validate_packing", None),
        ("model.project_to_class", "packclass.model", "project_to_class", None),
        ("solve.solve_okp", "packclass.solve", "solve_okp",
         lambda r: {"solve.examined": r.stats["examined"],
                    "solve.screened": r.stats["dismissed_screen"]}),
        ("solve.solve_spp", "packclass.solve", "solve_spp", None),
        ("fileio.load_instance", "packclass.fileio", "load_instance", None),
        ("fileio.write_json", "packclass.fileio", "write_json", None),
        ("cli.main", "packclass.cli", "main", None),
    ]


# Classes traced through their constructors: (span name, module, class).
LAYER_CLASSES = [
    ("graph.Graph", "packclass.graph", "Graph"),
    ("model.Instance", "packclass.model", "Instance"),  # includes restrict()
]

HIT_LAYERS = ("opp.quick_infeasible", "opp.heuristic_pack", "opp.initial_state",
              "opp.propagate", "opp.prune_check", "opp.accept")
