"""Every solver either returns a result or raises a `PackclassError`, on
any box set and under any limits: no uncaught exception, whether or not
the library's `assert`s are stripped (`python -O`)."""

from fractions import Fraction

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


def _checked(run):
    try:
        return run()
    except PackclassError:
        return None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(problems(), limits)
def test_solvers_return_or_raise_a_packclass_error(problem, limits):
    boxes, container = problem
    inst = _checked(lambda: Instance(boxes=boxes, container=container))
    if inst is not None:
        out = _checked(lambda: solve_opp(inst, limits))
        if out is not None:
            assert out.verdict in ("feasible", "infeasible", "resource_limit")
            assert out.packing is None or validate_packing(out.packing, inst).valid
        out = _checked(lambda: solve_okp(inst, limits))
        assert out is None or isinstance(out, (OkpSolution, ResourceLimit))
    out = _checked(lambda: solve_spp(boxes, container[:-1], limits))
    assert out is None or isinstance(out, (SppSolution, ResourceLimit))
