"""Every solver either returns a result or raises a `PackclassError`, on
any box set and under any limits: no uncaught exception, whether or not
the library's `assert`s are stripped (`python -O`). Small box sets run
under every limit; sets of up to 80 boxes, where propagation's exact
clique test works on large minus graphs, run under a deadline, and each
resource limit there must come back within the deadline plus a stated
slack."""

import random
import time
from fractions import Fraction
from math import ceil

from hypothesis import given, settings, strategies as st

from packclass.errors import PackclassError
from packclass.model import Box, Instance, validate_packing
from packclass.opp import SearchLimits, solve_opp
from packclass.solve import OkpSolution, ResourceLimit, SppSolution, solve_okp, solve_spp


@st.composite
def problems(draw):
    """(boxes, container): n 0-12, d 1-3, sides and container on a 1, 1/2
    or 1/3 grid, values with denominators or by volume. In one problem of
    four a box side may be one grid step over the container's."""
    d = draw(st.integers(1, 3))
    den = draw(st.sampled_from((1, 2, 3)))
    over = draw(st.sampled_from((0, 0, 0, 1)))
    container = tuple(Fraction(draw(st.integers(1, 6 * den)), den) for _ in range(d))
    boxes = []
    for j in range(draw(st.integers(0, 12))):
        size = tuple(Fraction(draw(st.integers(1, int(w * den) + over)), den) for w in container)
        value = draw(st.none() | st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)))
        boxes.append(Box(f"b{j}", size, value=value))
    return boxes, container


limits = st.builds(
    SearchLimits,
    max_nodes=st.sampled_from((0, 1, 5, 50)),
    time_limit=st.sampled_from((None, 0, 1e-6, 0.01)),
    use_heuristic=st.booleans(),
)



@st.composite
def large_problems(draw):
    """(boxes, container): n 13-80, d 1-3, on a 1, 1/2 or 1/3 grid, box
    sides scaled to the container so that the boxes fill about as much
    as it holds; in one problem of four a side may be one grid step over
    the container's."""
    d = draw(st.integers(1, 3))
    den = draw(st.sampled_from((1, 2, 3)))
    over = draw(st.sampled_from((0, 0, 0, 1)))
    n = draw(st.integers(13, 64) | st.integers(65, 80))
    steps = [draw(st.integers(4 * den, 24 * den)) for _ in range(d)]
    per_axis = ceil(n ** (1 / d))  # boxes side by side along each axis
    boxes = []
    for j in range(n):
        tops = [max(1, 3 * w // (2 * per_axis)) + over for w in steps]
        size = tuple(Fraction(draw(st.integers(1, top)), den) for top in tops)
        value = draw(st.none() | st.integers(0, 12))
        boxes.append(Box(f"b{j}", size, value=value))
    return boxes, tuple(Fraction(w, den) for w in steps)


# OKP charges no nodes for the subsets it screens, so on many boxes only a
# deadline bounds it.
timed_limits = st.builds(
    SearchLimits,
    max_nodes=st.sampled_from((0, 1, 5, 50)),
    time_limit=st.sampled_from((0, 1e-6, 0.01, 0.05)),
    use_heuristic=st.booleans(),
)


# How long past its time limit a solve may return a resource limit. On
# the 13-80-box inputs below (400 examples of the same strategies) the
# largest overrun measured was 0.04 s, where `solve_opp` builds the
# initial state of 73-80 3-D boxes before its first deadline check, plus
# one 0.1 s outlier under host load; 0.5 s leaves a margin for slower
# machines.
DEADLINE_SLACK = 0.5


def _checked(run, deadline=None):
    """run(), or None if it raises a PackclassError. With a `deadline`
    (time limit plus slack, in seconds), a resource limit must come back
    within it."""
    start = time.perf_counter()
    try:
        out = run()
    except PackclassError:
        return None
    limited = isinstance(out, ResourceLimit) or getattr(out, "verdict", None) == "resource_limit"
    if deadline is not None and limited:
        assert time.perf_counter() - start <= deadline, (out, deadline)
    return out


def _check_solvers(problem, limits, slack=None):
    boxes, container = problem
    deadline = None if slack is None else limits.time_limit + slack
    inst = _checked(lambda: Instance(boxes=boxes, container=container))
    if inst is not None:
        out = _checked(lambda: solve_opp(inst, limits), deadline)
        if out is not None:
            assert out.verdict in ("feasible", "infeasible", "resource_limit")
            assert out.packing is None or validate_packing(out.packing, inst).valid
        out = _checked(lambda: solve_okp(inst, limits), deadline)
        assert out is None or isinstance(out, (OkpSolution, ResourceLimit))
    out = _checked(lambda: solve_spp(boxes, container[:-1], limits), deadline)
    assert out is None or isinstance(out, (SppSolution, ResourceLimit))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(problems(), limits)
def test_solvers_return_or_raise_a_packclass_error(problem, limits):
    _check_solvers(problem, limits)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(large_problems(), timed_limits)
def test_solvers_on_up_to_80_boxes_return_or_raise_a_packclass_error(problem, limits):
    """Also: every resource limit comes back within its time limit plus
    DEADLINE_SLACK."""
    _check_solvers(problem, limits, DEADLINE_SLACK)


@st.composite
def many_boxes(draw):
    """(boxes, container): n 500-1,000, d 1-3, integer sides 1-10 in a
    cube that the boxes fill to about 30 %."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(500, 1000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    boxes = [Box(f"b{j}", tuple(rng.randint(1, 10) for _ in range(d))) for j in range(n)]
    side = ceil((sum(b.volume for b in boxes) / Fraction(3, 10)) ** (1 / d))
    return boxes, (side,) * d


@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(many_boxes())
def test_solvers_on_many_boxes_return_within_the_deadline(problem):
    """With the heuristic on, every answer on 500-1,000 boxes, whatever its
    kind, comes back within a 0.1 s time limit plus DEADLINE_SLACK: the
    bottom-left orders read the deadline before each box. (On 1,000 2-D
    boxes the first order alone used to run 1.3 s and answer "feasible".)"""
    boxes, container = problem
    limits = SearchLimits(time_limit=0.1)
    inst = Instance(boxes=boxes, container=container)
    for run in (
        lambda: solve_opp(inst, limits),
        lambda: solve_okp(inst, limits),
        lambda: solve_spp(boxes, container[:-1], limits),
    ):
        start = time.perf_counter()
        run()
        assert time.perf_counter() - start <= limits.time_limit + DEADLINE_SLACK
