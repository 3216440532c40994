import random

import pytest
from hypothesis import settings

from packclass.model import Box, Instance

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def five_box_example() -> Instance:
    """The worked 5-box example: w=(4,1),(5,1),(1,3),(2,2),(1,2), W=(5,5)."""
    return Instance(
        boxes=(
            Box("b1", (4, 1)),
            Box("b2", (5, 1)),
            Box("b3", (1, 3)),
            Box("b4", (2, 2)),
            Box("b5", (1, 2)),
        ),
        container=(5, 5),
    )


def random_valid_packing(rng: random.Random, inst: Instance, tries: int = 200):
    """Rejection-sample a valid packing of a random subset (test helper)."""
    from fractions import Fraction

    from packclass.model import Packing, validate_packing

    ids = list(inst.ids)
    subset = [b for b in ids if rng.random() < 0.8]
    for _ in range(tries):
        positions = {}
        for b in subset:
            box = inst.box(b)
            pos = []
            for i in range(inst.d):
                hi = inst.container[i] - box.size[i]
                hi_int = int(hi * inst.scale(i))
                pos.append(Fraction(rng.randint(0, hi_int), inst.scale(i)))
            positions[b] = tuple(pos)
        p = Packing(positions)
        if validate_packing(p, inst).valid:
            return p
    return None


def assert_same_tables(derived: Instance, built: Instance) -> None:
    """`derived` equals `built` on every field the engine reads: boxes,
    container, scales, integer rows and container, ids, id index and the
    too-wide table."""
    assert derived.boxes == built.boxes and derived.container == built.container
    axes = range(built.d)
    assert [derived.scale(i) for i in axes] == [built.scale(i) for i in axes]
    assert [derived.int_container(i) for i in axes] == [built.int_container(i) for i in axes]
    assert derived.int_sizes == built.int_sizes
    assert derived.ids == built.ids and [derived.index(b) for b in built.ids] == list(range(built.n))
    assert derived.int_too_wide == built.int_too_wide
