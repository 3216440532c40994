"""Exact solvers for d-dimensional orthogonal packing problems.

Feasible packings are represented up to combinatorial equivalence by
tuples of per-axis interval graphs ("packing classes"); the decision
engine searches over included/excluded box pairs with forbidden-subgraph
pruning, and optimization layers for knapsack value and strip height sit
on top of it.

`import packclass` loads only the package errors. Every other public name
is imported from its submodule on first use (PEP 562), so a caller pays
only for the solvers it runs: `solve_opp` never loads the knapsack, strip
or brute-force modules.
"""

import importlib

from .errors import PackclassError

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "model": ("Box", "Instance", "Packing", "ValidationReport", "is_gapless",
              "project_to_class", "validate_packing", "xi_feasible"),
    "graph": ("Graph", "complement", "induced"),
    "chargraph": ("Dag", "NotComparability", "is_interval_graph", "transitive_orientation"),
    "packing_class": ("ClassReport", "Orientation", "PackingClass", "extract_packing",
                      "orient_class", "verify_packing_class"),
    "opp": ("SearchLimits", "SearchOutcome", "heuristic_pack", "quick_infeasible", "solve_opp"),
    "solve": ("OkpSolution", "SppSolution", "solve_okp", "solve_spp"),
    "oracle": ("OracleConfig", "brute_force_opp", "cell_fill_opp", "enumerate_packing_classes"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["PackclassError", *_SUBMODULE])


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
