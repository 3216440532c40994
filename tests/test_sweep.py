import concurrent.futures

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
