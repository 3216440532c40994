"""Batch front door: solve, verify, draw, and convert from the shell.

Exit codes: 0 feasible/pass, 1 infeasible/fail, 2 resource limit,
64 usage, parse and other library errors (an invalid packing, an output
path that cannot be written), 65 structural errors (wrong
dimensionality, malformed conversion input).
PACKCLASS_TIME_LIMIT (seconds) overrides the default 60 s search budget;
solvers are deterministic, so `--seed` exists only for the sweep instance
generator.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import fileio
from .errors import PackclassError
from .fileio import ParseError
from .model import project_to_class, to_fraction, validate_packing
from .opp import SearchLimits, solve_opp
from .packing_class import verify_packing_class

# `opp` and `verify` run only the modules imported above. The knapsack and
# strip solvers, the oracle and the sweep (with its process pool) are
# imported by the commands that run them.
if TYPE_CHECKING:
    from .solve import ResourceLimit

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_LIMIT = 2
EXIT_USAGE = 64
EXIT_STRUCTURE = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seconds(text: str) -> float:
    """A time limit in seconds. NaN is refused: it would compare false
    against every clock reading and so switch the deadline off."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid time limit {text!r} (want seconds)")
    return value


def _at_least(low: int):
    """The argument type of an integer count, size or limit of at least
    `low`; argparse names the flag when it refuses one."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"invalid value {text!r} (want an integer >= {low})")
        return value

    return parse


def _limits(args) -> SearchLimits:
    time_limit = args.time_limit
    if time_limit is None:
        env = os.environ.get("PACKCLASS_TIME_LIMIT")
        try:
            time_limit = _seconds(env) if env else 60.0
        except argparse.ArgumentTypeError as exc:
            raise ParseError(f"PACKCLASS_TIME_LIMIT: {exc}") from None
    return SearchLimits(
        max_nodes=args.node_limit,
        time_limit=time_limit,
        use_heuristic=not args.no_heuristic,
    )


def _drop_unfit_flag(sub) -> None:
    sub.add_argument("--drop-unfit", action="store_true",
                     help="drop boxes that do not fit the container (warn) instead of failing")


def _solver_flags(sub, drop_unfit: bool = True) -> None:
    sub.add_argument("instance", help="instance JSON file")
    sub.add_argument("-o", "--out", help="write the result file here (default: stdout)")
    if drop_unfit:  # spp refuses a box wider than its cross-section
        _drop_unfit_flag(sub)
    sub.add_argument("--time-limit", type=_seconds, default=None,
                     help="seconds before giving up (default 60, or PACKCLASS_TIME_LIMIT)")
    sub.add_argument("--node-limit", type=_at_least(0), default=10_000_000)
    sub.add_argument("--no-heuristic", action="store_true",
                     help="skip the bottom-left heuristic and go straight to search")


def _emit(doc, out_path) -> None:
    text = fileio.write_json(doc, out_path)
    if not out_path:
        sys.stdout.write(text)


def _emit_limit(sol: ResourceLimit, out_path) -> int:
    _emit({"format": fileio.RESULT_FORMAT, "verdict": "resource_limit",
           "reason": sol.reason, "stats": fileio.stats_to_json(sol.stats)}, out_path)
    return EXIT_LIMIT


def cmd_opp(args) -> int:
    inst, warnings = fileio.load_instance(args.instance, drop_unfit=args.drop_unfit)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    outcome = solve_opp(inst, _limits(args))
    doc = fileio.result_file(
        verdict=outcome.verdict,
        container=inst.container,
        packing=outcome.packing,
        edge_sets=outcome.packing_class.edge_sets if outcome.packing_class else None,
        stats=fileio.stats_to_json(vars(outcome.stats)),
    )
    _emit(doc, args.out)
    return {"feasible": EXIT_OK, "infeasible": EXIT_FAIL}.get(outcome.verdict, EXIT_LIMIT)


def cmd_okp(args) -> int:
    from .solve import ResourceLimit, solve_okp

    inst, warnings = fileio.load_instance(args.instance, drop_unfit=args.drop_unfit)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    sol = solve_okp(inst, _limits(args))
    if isinstance(sol, ResourceLimit):
        return _emit_limit(sol, args.out)
    edge_sets = project_to_class(sol.packing, inst).edge_sets if sol.chosen else None
    doc = fileio.result_file(
        verdict="feasible",
        container=inst.container,
        packing=sol.packing,
        edge_sets=edge_sets,
        stats=fileio.stats_to_json(sol.stats),
        extra={
            "chosen": sorted(sol.chosen),
            "value": fileio.rational_to_json(sol.total_value),
        },
    )
    _emit(doc, args.out)
    return EXIT_OK


def cmd_spp(args) -> int:
    from .solve import ResourceLimit, solve_spp

    boxes, container = fileio.load_spp_input(args.instance)
    if args.fixed_dims:
        cross = tuple(to_fraction(tok) for tok in args.fixed_dims.split(","))
    else:
        cross = container[:-1]
    sol = solve_spp(boxes, cross, _limits(args))
    if isinstance(sol, ResourceLimit):
        return _emit_limit(sol, args.out)
    doc = fileio.result_file(
        verdict="feasible",
        container=(*cross, sol.height),
        packing=sol.packing,
        stats=fileio.stats_to_json(sol.stats),
        extra={"height": fileio.rational_to_json(sol.height)},
    )
    _emit(doc, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst, _ = fileio.load_instance(args.instance, drop_unfit=args.drop_unfit)
    artifact, inst = fileio.load_result(args.artifact, inst)
    checked = False
    failures = []
    if "positions" in artifact:
        checked = True
        packing = fileio.packing_from_json(artifact["positions"], args.artifact)
        report = validate_packing(packing, inst)
        if report.valid:
            print(f"packing: ok ({len(packing.positions)} boxes)")
        else:
            for violation in report.violations:
                print(f"packing violation: {violation}")
            failures.append("packing")
    if "class" in artifact:
        checked = True
        edge_sets = fileio.class_from_json(artifact["class"], args.artifact)
        report = verify_packing_class(edge_sets, inst)
        if report.all_ok:
            print(f"class: ok ({len(edge_sets)} edge sets)")
        else:
            for i, (ok, wit) in enumerate(zip(report.p1_ok, report.p1_witnesses)):
                if not ok:
                    print(f"class violation: dimension {i} graph is not interval: {wit}")
            for i, (ok, wit) in enumerate(zip(report.p2_ok, report.p2_witnesses)):
                if ok is False:
                    stable, weight = wit
                    print(
                        f"class violation: dimension {i} stable set {stable} "
                        f"has width {weight}"
                    )
            if not report.p3_ok:
                print(f"class violation: pair {report.p3_witness} shared by all dimensions")
            failures.append("class")
    if not checked:
        raise ParseError(
            f"{args.artifact}: nothing to verify (needs 'positions' or 'class')"
        )
    return EXIT_FAIL if failures else EXIT_OK


def cmd_render(args) -> int:
    inst, _ = fileio.load_instance(args.instance)
    result, inst = fileio.load_result(args.result, inst)
    if "positions" not in result:
        raise ParseError(f"{args.result}: no 'positions' to draw")
    if inst.d != 2:
        print(f"error: rendering needs d=2, instance has d={inst.d}", file=sys.stderr)
        return EXIT_STRUCTURE
    packing = fileio.packing_from_json(result["positions"], args.result)
    for box_id, pos in packing.positions.items():
        if len(pos) != 2:
            raise ParseError(f"{args.result}: position of {box_id!r} needs 2 entries")
    svg = fileio.render_svg(inst, packing)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def cmd_convert(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
        converted = fileio.convert_ngcut(text, source=args.input)
    except OSError as exc:
        print(f"error: {args.input}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    out = Path(args.output)
    for k, (doc, rule) in enumerate(converted, start=1):
        if len(converted) == 1:
            target = out
        else:
            target = out.with_name(f"{out.stem}_{k}{out.suffix or '.json'}")
        fileio.write_json(doc, str(target))
        print(f"instance {k}: {len(doc['boxes'])} boxes -> {target} (rule: {rule})")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import brute_force_opp, enumerate_packing_classes

    inst, _ = fileio.load_instance(args.instance)
    if args.what == "opp":
        result = brute_force_opp(inst)
        doc = {
            "verdict": "feasible" if result.feasible else "infeasible",
            "positions": fileio.packing_to_json(result.packing) if result.packing else None,
        }
        _emit(doc, args.out)
        return EXIT_OK if result.feasible else EXIT_FAIL
    enum = enumerate_packing_classes(inst, cap=args.cap)
    doc = {
        "total": enum.total,
        "classes": [fileio.class_to_json(pc.edge_sets) for pc in enum.classes],
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .sweep import exhaustive_grid, random_instance, run_opp_sweep

    if args.mode == "exhaustive":
        instances = exhaustive_grid(
            max_boxes=args.max_boxes,
            sizes=tuple(range(1, args.max_size + 1)),
            container=(args.container, args.container),
        )
    else:
        rng = random.Random(args.seed)
        instances = [
            random_instance(
                rng,
                max_boxes=args.max_boxes,
                max_size=args.max_size,
                container=(args.container, args.container),
            )
            for _ in range(args.count)
        ]
    results = run_opp_sweep(instances, jobs=args.jobs)
    disagreements = [
        {
            "boxes": [[str(s) for s in b.size] for b in r.instance.boxes],
            "solver": r.solver_verdict,
            "oracle": "feasible" if r.oracle_feasible else "infeasible",
            "classes": r.class_count,
            "cell_fill": {True: "feasible", False: "infeasible"}.get(r.cell_fill_feasible),
        }
        for r in results
        if not r.agree
    ]
    doc = {
        "mode": args.mode,
        "instances": len(results),
        "agreements": len(results) - len(disagreements),
        "disagreements": disagreements,
    }
    _emit(doc, args.out)
    return EXIT_OK if not disagreements else EXIT_FAIL


@functools.cache  # parsing leaves the parser as it was; each call gets a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="packclass", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("opp", help="decide whether all boxes fit")
    _solver_flags(p)
    p.set_defaults(func=cmd_opp)

    p = sub.add_parser("okp", help="maximize packed value over subsets")
    _solver_flags(p)
    p.set_defaults(func=cmd_okp)

    p = sub.add_parser("spp", help="minimize container height")
    _solver_flags(p, drop_unfit=False)
    p.add_argument("--fixed-dims", default=None,
                   help="comma-separated W_1..W_{d-1} (default: container entries from the file)")
    p.set_defaults(func=cmd_spp)

    p = sub.add_parser("verify", help="check a packing or class file against an instance")
    p.add_argument("instance")
    p.add_argument("artifact", help="result file, or JSON with 'positions' or 'class'")
    _drop_unfit_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a 2-D result as SVG")
    p.add_argument("instance")
    p.add_argument("result")
    p.add_argument("out", help="output .svg path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("convert", help="convert external benchmark data")
    p.add_argument("--from", dest="fmt", required=True, choices=["ngcut"])
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("oracle", help="run the brute-force ground truth")
    p.add_argument("what", choices=["opp", "classes"])
    p.add_argument("instance")
    p.add_argument("--cap", type=_at_least(0), default=None, help="max classes to list")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="solver-vs-oracle agreement sweep")
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--count", type=_at_least(1), default=100, help="random mode: instance count")
    p.add_argument("--seed", type=int, default=0, help="random mode: generator seed")
    p.add_argument("--max-boxes", type=_at_least(1), default=4)
    p.add_argument("--max-size", type=_at_least(1), default=3)
    p.add_argument("--container", type=_at_least(1), default=3)
    p.add_argument("--jobs", type=_at_least(1), default=1, help="parallel workers over instances")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PackclassError as exc:  # ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # inputs are read as ParseError: this is an output path
        print(f"error: {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
