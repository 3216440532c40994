"""Boxes, instances, packings, and exact geometric validation.

All sizes and coordinates are exact rationals (`fractions.Fraction`); no
check in this module uses floating point. A box's projection onto axis i
is the half-open interval [p_i, p_i + w_i), so boxes that merely touch do
not overlap.

Internally every instance is rescaled per dimension by the least common
multiple of all denominators occurring in that dimension, so solver
arithmetic runs on plain integers. Public coordinates stay `Fraction`.
Validation and projection run on integers too: each axis goes on a grid
whose scale also absorbs the denominators of the packing's coordinates
on that axis, so coordinates off the instance's own grid stay exact.
A sub-instance (`Instance.restrict`, each OKP and SPP sub-problem) is
derived from its validated parent's integer tables: only the scales and
the container are recomputed, and the one check left is that every box
fits the new container.

Dimension indices are 0-based throughout the package.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from math import lcm, prod
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    InvalidInstance,
    InvalidPacking,
    UnknownBox,
)

Rational = Union[Fraction, int, str]


def to_fraction(x: Rational) -> Fraction:
    """Convert int, Fraction, or a 'num/den' string to an exact Fraction.

    Floats are rejected on purpose: they would silently break the
    exactness contract of this module.
    """
    if isinstance(x, bool):
        raise InvalidInstance(f"not a rational: {x!r}")
    if type(x) is Fraction:
        return x  # immutable, so no copy
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"cannot parse rational {x!r}") from exc
    raise InvalidInstance(f"not an exact rational: {x!r} (floats are rejected)")


def _fraction_vector(xs: Sequence[Rational]) -> tuple[Fraction, ...]:
    return tuple(to_fraction(x) for x in xs)


@dataclass(frozen=True)
class Box:
    """A d-dimensional box with a fixed orientation.

    `value` is the objective weight used by the knapsack variant; it
    defaults to the box volume.
    """

    id: str
    size: tuple[Fraction, ...]
    value: Fraction = None  # type: ignore[assignment]  # filled in __post_init__

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise InvalidInstance(f"box id must be a non-empty string, got {self.id!r}")
        object.__setattr__(self, "size", _fraction_vector(self.size))
        if not self.size:
            raise InvalidInstance(f"box {self.id!r} has an empty size vector")
        # A Fraction's denominator is positive: its sign is its numerator's.
        if any(s.numerator <= 0 for s in self.size):
            raise InvalidInstance(f"box {self.id!r} has a non-positive size component")
        value = self.volume if self.value is None else to_fraction(self.value)
        if value.numerator < 0:
            raise InvalidInstance(f"box {self.id!r} has negative value {value}")
        object.__setattr__(self, "value", value)

    @property
    def volume(self) -> Fraction:
        return Fraction(prod(s.numerator for s in self.size), prod(s.denominator for s in self.size))


def _check_fits(box: Box, row: tuple[int, ...], int_container: tuple[int, ...], container) -> None:
    """Refuse a box whose integer row exceeds the integer container."""
    if any(map(int.__gt__, row, int_container)):
        i = next(i for i, (w, cap) in enumerate(zip(row, int_container)) if w > cap)
        raise InvalidInstance(
            f"box {box.id!r} does not fit the container in dimension {i}"
            f" ({box.size[i]} > {container[i]})"
        )


@dataclass(frozen=True)
class Instance:
    """A set of boxes plus the container they must fit into.

    Invariants enforced at construction: d >= 1, every size vector has d
    positive components, ids are unique and non-empty, and every box fits
    the container on its own (per-dimension w_i <= W_i). Container sides
    are positive, or 0 when there are no boxes (an empty strip has height 0).
    """

    boxes: tuple[Box, ...]
    container: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "container", _fraction_vector(self.container))
        d = len(self.container)
        if d < 1:
            raise InvalidInstance("container must have at least one dimension")
        if any(w.numerator < 0 or (w.numerator == 0 and self.boxes) for w in self.container):
            raise InvalidInstance("container dimensions must be positive")
        # Per-dimension integer rescaling (lcm of all denominators); a box
        # with too few components is refused below, before its row is used.
        denoms = [[w.denominator] for w in self.container]
        for box in self.boxes:
            for column, w in zip(denoms, box.size):
                column.append(w.denominator)
        scales = tuple(lcm(*column) for column in denoms)
        int_container = tuple(w.numerator * (k // w.denominator) for w, k in zip(self.container, scales))
        int_sizes = []
        seen: set[str] = set()
        for box in self.boxes:
            if box.id in seen:
                raise InvalidInstance(f"duplicate box id {box.id!r}")
            seen.add(box.id)
            if len(box.size) != d:
                raise DimensionMismatch(
                    f"box {box.id!r} has {len(box.size)} size components, expected {d}"
                )
            row = tuple([w.numerator * (k // w.denominator) for w, k in zip(box.size, scales)])
            _check_fits(box, row, int_container, self.container)
            int_sizes.append(row)
        ids = tuple(b.id for b in self.boxes)
        self._set_tables(scales, int_container, tuple(int_sizes), ids, {b: k for k, b in enumerate(ids)})

    def _set_tables(self, scales, int_container, int_sizes, ids, index) -> None:
        object.__setattr__(self, "_scales", scales)
        object.__setattr__(self, "_int_container", int_container)
        object.__setattr__(self, "_int_sizes", int_sizes)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_index", index)

    def _derive(self, keep: Optional[Sequence[int]], container: tuple[Fraction, ...]) -> "Instance":
        """The instance of the boxes at the ascending indices `keep` (None:
        all of them) in `container`, d `Fraction`s, built from this
        instance's validated tables without a second validation. Only the
        scales (the lcm of the denominators left) and the integer container
        are recomputed, rows are rescaled only where a scale changed, and
        the one check is that every kept box fits the new container."""
        if keep is None:
            boxes, ids, index = self.boxes, self._ids, self._index  # type: ignore[attr-defined]
            rows = self._int_sizes  # type: ignore[attr-defined]
        else:
            boxes = tuple([self.boxes[k] for k in keep])
            rows = tuple([self._int_sizes[k] for k in keep])  # type: ignore[attr-defined]
            ids = tuple([b.id for b in boxes])
            index = {b: k for k, b in enumerate(ids)}
        old = self._scales  # type: ignore[attr-defined]
        scales = tuple(
            lcm(w.denominator, *(b.size[i].denominator for b in boxes)) for i, w in enumerate(container)
        )
        if scales != old:  # size * new scale, exactly: a row holds size * old scale
            rows = tuple(tuple([r * k // o for r, k, o in zip(row, scales, old)]) for row in rows)
        int_container = tuple(w.numerator * (k // w.denominator) for w, k in zip(container, scales))
        for box, row in zip(boxes, rows):
            _check_fits(box, row, int_container, container)
        inst = object.__new__(Instance)
        object.__setattr__(inst, "boxes", boxes)
        object.__setattr__(inst, "container", container)
        inst._set_tables(scales, int_container, rows, ids, index)
        return inst

    @property
    def d(self) -> int:
        return len(self.container)

    @property
    def n(self) -> int:
        return len(self.boxes)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids  # type: ignore[attr-defined]

    def index(self, box_id: str) -> int:
        try:
            return self._index[box_id]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownBox(f"unknown box id {box_id!r}") from None

    def box(self, box_id: str) -> Box:
        return self.boxes[self.index(box_id)]

    # Integer-scaled views used by the solvers; scale_i is the lcm of all
    # denominators in dimension i, so these are exact.
    def scale(self, i: int) -> int:
        return self._scales[i]  # type: ignore[attr-defined]

    def int_container(self, i: int) -> int:
        return self._int_container[i]  # type: ignore[attr-defined]

    def int_size(self, box_idx: int, i: int) -> int:
        return self._int_sizes[box_idx][i]  # type: ignore[attr-defined]

    @property
    def int_sizes(self) -> tuple[tuple[int, ...], ...]:
        return self._int_sizes  # type: ignore[attr-defined]

    def int_volume(self, box_idx: int) -> int:
        return prod(self._int_sizes[box_idx])  # type: ignore[attr-defined]

    def int_container_volume(self) -> int:
        return prod(self._int_container)  # type: ignore[attr-defined]

    @cached_property
    def int_too_wide(self) -> tuple[tuple[int, ...], ...]:
        """[i][a]: bitset of the boxes b != a with s_a + s_b > container on
        axis i (scaled), built once: a suffix of the boxes sorted by s_i."""
        table = []
        for i, cap in enumerate(self._int_container):  # type: ignore[attr-defined]
            sizes = [size[i] for size in self._int_sizes]  # type: ignore[attr-defined]
            order = sorted(range(self.n), key=sizes.__getitem__)
            # suffix[k]: the boxes from position k of `order` on
            suffix = [*accumulate((1 << b for b in reversed(order)), int.__or__, initial=0)][::-1]
            ordered = sorted(sizes)
            table.append(tuple(
                suffix[bisect_right(ordered, cap - s)] & ~(1 << a) for a, s in enumerate(sizes)
            ))
        return tuple(table)

    def restrict(self, ids: Iterable[str]) -> "Instance":
        """Sub-instance with the given boxes (instance order preserved),
        derived from this instance's tables (`_derive`)."""
        wanted = set(ids)
        unknown = wanted.difference(self._index)  # type: ignore[attr-defined]
        if unknown:
            raise UnknownBox(f"unknown box ids {sorted(unknown)!r}")
        return self._derive([k for k, b in enumerate(self.ids) if b in wanted], self.container)

    def check_dimension(self, i: int) -> None:
        if not 0 <= i < self.d:
            raise DimensionOutOfRange(f"dimension {i} outside 0..{self.d - 1}")


@dataclass(frozen=True)
class Packing:
    """Corner coordinates for a subset of the boxes.

    Partial packings are first-class: the knapsack solver packs subsets.
    Coordinates must be non-negative exact rationals.
    """

    positions: Mapping[str, tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        normalized = {}
        for box_id, pos in self.positions.items():
            vec = _fraction_vector(pos)
            if any(c.numerator < 0 for c in vec):
                raise InvalidPacking(f"negative coordinate for box {box_id!r}")
            normalized[box_id] = vec
        object.__setattr__(self, "positions", normalized)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packing):
            return NotImplemented
        return dict(self.positions) == dict(other.positions)

    def canonical(self) -> tuple[tuple[str, tuple[Fraction, ...]], ...]:
        """Sorted, hashable form used when counting distinct packings."""
        return tuple(sorted(self.positions.items()))


@dataclass(frozen=True)
class Closedness:
    """Box `box` sticks out of the container in dimension `dimension`."""

    box: str
    dimension: int


@dataclass(frozen=True)
class Overlap:
    """Boxes `box_a` and `box_b` intersect in every dimension."""

    box_a: str
    box_b: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.violations


def _on_grid(p: Packing, inst: Instance) -> tuple[list, list[int]]:
    """The packed boxes as (index, per-axis integer [lo, hi) spans) in
    position order, and the container, on one integer grid per axis.

    Axis i uses lcm(inst.scale(i), every coordinate denominator on axis i),
    so coordinates off the instance's own grid (1/3 on an integer
    instance) stay exact.
    """
    placed = []
    for box_id, pos in p.positions.items():
        idx = inst.index(box_id)
        if len(pos) != inst.d:
            raise DimensionMismatch(
                f"position of box {box_id!r} has {len(pos)} components, expected {inst.d}"
            )
        placed.append((idx, pos))
    spans: list[tuple[int, list[tuple[int, int]]]] = [(idx, []) for idx, _ in placed]
    container = []
    for i in range(inst.d):
        grid = lcm(inst.scale(i), *(pos[i].denominator for _, pos in placed))
        factor = grid // inst.scale(i)
        container.append(inst.int_container(i) * factor)
        for (idx, box), (_, pos) in zip(spans, placed):
            lo = pos[i].numerator * (grid // pos[i].denominator)
            box.append((lo, lo + inst.int_size(idx, i) * factor))
    return spans, container


def _meets(spans: list, i: int) -> list[int]:
    """[k]: bitset over `spans` positions of the boxes whose axis-i span
    meets box k's (k among them): those that start before its end (a
    prefix of the boxes sorted by start) and end after its start (a
    suffix of the boxes sorted by end)."""
    axis = [box[i] for _, box in spans]
    by_start = sorted(range(len(axis)), key=lambda k: axis[k][0])
    by_end = sorted(range(len(axis)), key=lambda k: axis[k][1])
    starts = [*accumulate((1 << k for k in by_start), int.__or__, initial=0)]
    ends = [*accumulate((1 << k for k in reversed(by_end)), int.__or__, initial=0)][::-1]
    los = sorted(lo for lo, _ in axis)
    his = sorted(hi for _, hi in axis)
    return [starts[bisect_left(los, hi)] & ends[bisect_right(his, lo)] for lo, hi in axis]


def _pairs(masks: list[int]):
    """The pairs (k, m), k < m, with bit m set in masks[k], k outer and m
    ascending: the order of a nested loop over all pairs."""
    for k, mask in enumerate(masks):
        rest = mask >> k + 1
        while rest:
            low = rest & -rest
            rest ^= low
            yield k, k + low.bit_length()


def _violations(spans: list, container: list[int], inst: Instance) -> tuple:
    """Closedness and overlap violations of `_on_grid` spans; overlaps by
    the AND of the per-axis `_meets` bitsets."""
    violations: list = []
    for idx, box in spans:
        for i, ((_, hi), cap) in enumerate(zip(box, container)):
            if hi > cap:
                violations.append(Closedness(inst.ids[idx], i))
    overlaps = [reduce(int.__and__, column) for column in zip(*(_meets(spans, i) for i in range(inst.d)))]
    for k, m in _pairs(overlaps):
        first, second = sorted((inst.ids[spans[k][0]], inst.ids[spans[m][0]]))
        violations.append(Overlap(first, second))
    return tuple(violations)


def _valid_spans(spans: list, container: Sequence[int], inst: Instance) -> list:
    """The spans of a packing that must be valid, as `_violations` checks
    them against `container`; raises InvalidPacking otherwise."""
    violations = _violations(spans, container, inst)
    if violations:
        raise InvalidPacking(f"packing is invalid: {violations[:3]!r}")
    return spans


def _placed_packing(inst: Instance, placed: list[tuple[int, tuple[int, ...]]]) -> Packing:
    """The one builder of a `Packing` from integer-scaled placements (box
    index, non-negative corner), such as bottom-left's and the longest
    paths of `packing_class._place`. Their `[lo, hi)` spans are checked on
    the instance's own grid first, so an invalid placement raises
    InvalidPacking, under `python -O` too; only then is one `Fraction`
    made per distinct coordinate per axis, and the `Packing` built of them."""
    spans = [(b, [(lo, lo + w) for lo, w in zip(pos, inst.int_sizes[b])]) for b, pos in placed]
    _valid_spans(spans, inst._int_container, inst)  # type: ignore[attr-defined]
    axes = [{v: Fraction(v, inst.scale(i)) for v in {pos[i] for _, pos in placed}} for i in range(inst.d)]
    positions = {inst.ids[b]: tuple([axis[v] for axis, v in zip(axes, pos)]) for b, pos in placed}
    packing = object.__new__(Packing)
    object.__setattr__(packing, "positions", positions)
    return packing


def validate_packing(p: Packing, inst: Instance) -> ValidationReport:
    """Check closedness and pairwise disjointness, reporting every violation.

    Closedness: p_i + w_i <= W_i in every dimension. Disjointness: for each
    pair of boxes some axis must separate their half-open projections.
    """
    return ValidationReport(_violations(*_on_grid(p, inst), inst))


def xi_feasible(S: Iterable[str], i: int, inst: Instance) -> bool:
    """True iff the boxes in S can be lined up along axis i within W_i."""
    inst.check_dimension(i)
    total = sum(inst.int_size(inst.index(b), i) for b in S)
    return total <= inst.int_container(i)


def project_to_class(p: Packing, inst: Instance):
    """Project a valid packing to its per-axis overlap graphs.

    Two boxes are adjacent in graph i iff their half-open axis-i
    projections intersect. The result always satisfies the packing-class
    conditions P1/P2/P3.
    """
    from .packing_class import PackingClass  # deferred: avoids import cycle
    from .graph import Graph

    spans = sorted(_valid_spans(*_on_grid(p, inst), inst))  # instance order
    ids = [inst.ids[idx] for idx, _ in spans]
    if len(ids) < inst.n:
        inst = inst.restrict(ids)  # partial packing: class lives on the subset
    edge_sets = tuple(
        Graph._of_bitsets(ids, [m ^ (1 << k) for k, m in enumerate(_meets(spans, i))]) for i in range(inst.d)
    )
    return PackingClass(instance=inst, edge_sets=edge_sets)


def is_gapless(p: Packing, inst: Instance) -> bool:
    """True iff every coordinate is 0 or flush with another box's far side."""
    spans = _valid_spans(*_on_grid(p, inst), inst)
    for i in range(inst.d):
        tops = {box[i][1] for _, box in spans}
        if any(box[i][0] != 0 and box[i][0] not in tops for _, box in spans):
            return False
    return True
