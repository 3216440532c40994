import concurrent.futures
import dataclasses
import json
import random

import pytest

from packclass.cli import main
from packclass.opp import SearchLimits
from packclass.sweep import exhaustive_grid, run_opp_sweep


def test_parallel_sweep_uses_the_callers_limits():
    # workers used to run every instance with the default limits
    instances = exhaustive_grid(max_boxes=3)
    limits = SearchLimits(max_nodes=0, use_heuristic=False)

    def records(jobs):
        return [
            (r.solver_verdict, r.oracle_feasible, r.class_count)
            for r in run_opp_sweep(instances, limits, jobs=jobs)
        ]

    serial = records(1)
    assert any(verdict == "resource_limit" for verdict, _, _ in serial)
    assert records(2) == serial


class SerialPool:
    """Stands in for the process pool: records the worker count it is
    given and maps in this process. The tests keep `jobs` small all the
    same, so that a sweep that bypassed this stand-in would start only a
    few real workers."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool a sweep starts; the pools map in this
    process."""
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: SerialPool(made, max_workers))
    return made


@pytest.mark.parametrize("count, jobs, workers", [
    (10, 8, [2]),  # two chunks of 8 instances: two workers, not eight
    (17, 2, [2]),
    (40, 3, [3]),
    (8, 4, []),  # one chunk runs in this process
    (1, 3, []),
    (0, 2, []),
])
def test_sweep_starts_no_more_workers_than_chunks(pools, count, jobs, workers):
    instances = exhaustive_grid(max_boxes=2)[:count]
    limits = SearchLimits(max_nodes=50, use_heuristic=False)
    serial = run_opp_sweep(instances, limits, jobs=1)
    assert pools == []
    parallel = run_opp_sweep(instances, limits, jobs=jobs)
    assert pools == workers
    assert [(r.solver_verdict, r.oracle_feasible, r.class_count) for r in parallel] == [
        (r.solver_verdict, r.oracle_feasible, r.class_count) for r in serial
    ]


def test_cli_sweep_caps_its_workers(pools, capsys):
    argv = ["sweep", "--mode", "random", "--count", "10", "--seed", "1"]
    assert main([*argv, "--jobs", "8"]) == 0
    assert pools == [2]
    capped = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == capped


def test_sweep_reports_a_cell_fill_disagreement(monkeypatch, capsys):
    """The sweep compares four answers; a cell fill that contradicts the
    other three fails the sweep, and its record names each answer."""
    from packclass import sweep
    from packclass.oracle import BruteForceResult

    monkeypatch.setattr(sweep, "cell_fill_opp", lambda inst: BruteForceResult(False))
    assert main(["sweep", "--max-boxes", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["instances"] == 9 and doc["agreements"] == 0
    assert doc["disagreements"][0] == {
        "boxes": [["1", "1"]], "solver": "feasible", "oracle": "feasible", "classes": 1, "cell_fill": "infeasible",
    }


def test_sweep_past_the_cell_fill_cap_compares_the_other_three(capsys):
    """Above 4,096 cells the cell fill raises TooLarge; the sweep records
    it as not compared and still checks the engine, brute force and class
    enumeration against each other."""
    from packclass.sweep import compare_opp, random_instance

    inst = random_instance(random.Random(3), container=(65, 65))
    c = compare_opp(inst)
    assert c.cell_fill_feasible is None and c.agree and c.solver_verdict == "feasible"
    assert not dataclasses.replace(c, oracle_feasible=False).agree
    assert main(["sweep", "--mode", "random", "--count", "3", "--container", "65"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instances"] == doc["agreements"] == 3
