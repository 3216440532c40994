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
