"""File formats: JSON instances and results, SVG drawings, OR-Library input.

The canonical interchange format is JSON with exact rationals: plain
numbers must be integers, everything else is a "num/den" string. Floats
are rejected so no tolerance can sneak in through serialization.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .errors import DimensionMismatch, InvalidInstance, PackclassError
from .model import Box, Instance, Packing, to_fraction

RESULT_FORMAT = 1

SVG_SCALE = 1000  # user units per instance unit

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#edc948",
    "#76b7b2",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


class ParseError(PackclassError):
    """Malformed input file; message carries the location when known."""


def rational_from_json(value: Any, where: str) -> Fraction:
    """The exact rational a JSON value stands for (`to_fraction`)."""
    try:
        return to_fraction(value)
    except InvalidInstance as exc:
        raise ParseError(f"{where}: {exc}") from None


def _rationals(values: list, where: Callable[[int], str]) -> tuple[Fraction, ...]:
    """The entries of a JSON array as rationals. `where(i)` names entry i
    in the error message, so a location is formatted only on error."""
    try:
        return tuple(map(to_fraction, values))
    except InvalidInstance:
        for i, v in enumerate(values):  # raises at the first bad entry
            rational_from_json(v, where(i))
        raise


def rational_to_json(x: Fraction) -> Any:
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None


def parse_boxes(data: Any, path: str) -> tuple[list[Box], int, tuple[Fraction, ...]]:
    """Shared instance-file validation; returns (boxes, d, container)."""
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("container", "boxes"):
        if key not in data:
            raise ParseError(f"{path}: missing required key {key!r}")
    container = data["container"]
    if not isinstance(container, list) or not container:
        raise ParseError(f"{path}: 'container' must be a non-empty array")
    W = _rationals(container, lambda i: f"{path}: container[{i}]")
    d = data.get("d", len(W))
    if d != len(W):
        raise ParseError(f"{path}: d={d} but container has {len(W)} entries")
    raw_boxes = data["boxes"]
    if not isinstance(raw_boxes, list):
        raise ParseError(f"{path}: 'boxes' must be an array")
    boxes = []
    for k, rb in enumerate(raw_boxes):
        if not isinstance(rb, dict) or "id" not in rb or "size" not in rb:
            raise ParseError(f"{path}: boxes[{k}]: each box needs 'id' and 'size'")
        if not isinstance(rb["id"], str) or not rb["id"]:
            raise ParseError(f"{path}: boxes[{k}]: 'id' must be a non-empty string")
        size = rb["size"]
        if not isinstance(size, list) or len(size) != d:
            raise ParseError(f"{path}: boxes[{k}]: 'size' must be an array of {d} entries")
        sizes = _rationals(size, lambda i: f"{path}: boxes[{k}].size[{i}]")
        value = None
        if "value" in rb:
            value = rational_from_json(rb["value"], f"{path}: boxes[{k}].value")
        try:
            boxes.append(Box(id=rb["id"], size=sizes, value=value))
        except PackclassError as exc:
            raise ParseError(f"{path}: boxes[{k}]: {exc}") from None
    return boxes, d, W


def load_instance(
    path: str, drop_unfit: bool = False
) -> tuple[Instance, list[str]]:
    """Read an instance file. Boxes that do not fit the container are a
    hard error unless drop_unfit, in which case they are removed and a
    warning message returned per dropped box."""
    boxes, d, W = parse_boxes(_load_json(path), path)
    warnings = []
    if drop_unfit:
        kept = []
        for b in boxes:
            if all(b.size[i] <= W[i] for i in range(d)):
                kept.append(b)
            else:
                warnings.append(f"dropped box {b.id!r}: does not fit the container")
        boxes = kept
    try:
        inst = Instance(boxes=tuple(boxes), container=W)
    except PackclassError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return inst, warnings


def load_spp_input(path: str) -> tuple[list[Box], tuple[Fraction, ...]]:
    """Read boxes and container for the strip problem; the last container
    entry is the height placeholder and is not validated against."""
    boxes, d, W = parse_boxes(_load_json(path), path)
    return boxes, W


def packing_to_json(p: Packing) -> dict:
    return {
        box_id: [rational_to_json(c) for c in pos]
        for box_id, pos in sorted(p.positions.items())
    }


def packing_from_json(data: Any, where: str) -> Packing:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: 'positions' must be an object")
    positions = {}
    for box_id, pos in data.items():
        if not isinstance(pos, list):
            raise ParseError(f"{where}: position of {box_id!r} must be an array")
        positions[box_id] = _rationals(pos, lambda i: f"{where}.{box_id}[{i}]")
    return Packing(positions)


def class_to_json(edge_sets) -> list:
    out = []
    for g in edge_sets:
        out.append(sorted([a, b] for a, b in g.edges()))
    return out


def class_from_json(data: Any, where: str) -> list[list[tuple[str, str]]]:
    if not isinstance(data, list):
        raise ParseError(f"{where}: 'class' must be an array of edge arrays")
    sets = []
    for i, edges in enumerate(data):
        if not isinstance(edges, list):
            raise ParseError(f"{where}: class[{i}] must be an array")
        pairs = []
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
                raise ParseError(f"{where}: class[{i}] entries must be [id, id] pairs")
            pairs.append((e[0], e[1]))
        sets.append(pairs)
    return sets


def load_result(path: str, inst: Instance) -> tuple[dict, Instance]:
    """A result file's object, and `inst` restricted to the file's 'chosen'
    boxes and set in its 'container' where the file names them."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "chosen" in doc:
        chosen = doc["chosen"]
        if not (isinstance(chosen, list) and all(isinstance(b, str) for b in chosen)):
            raise ParseError(f"{path}: 'chosen' must be an array of box ids")
        inst = inst.restrict(chosen)
    if "container" in doc:
        if not isinstance(doc["container"], list):
            raise ParseError(f"{path}: 'container' must be an array")
        W = _rationals(doc["container"], lambda i: f"{path}: container[{i}]")
        inst = Instance(boxes=inst.boxes, container=W)
    return doc, inst


def result_file(
    verdict: str,
    container: Sequence[Fraction],
    packing: Optional[Packing] = None,
    edge_sets=None,
    stats: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    doc: dict = {
        "format": RESULT_FORMAT,
        "verdict": verdict,
        "container": [rational_to_json(w) for w in container],
    }
    if packing is not None:
        doc["positions"] = packing_to_json(packing)
    if edge_sets is not None:
        doc["class"] = class_to_json(edge_sets)
    if stats is not None:
        doc["stats"] = stats
    if extra:
        doc.update(extra)
    return doc


def write_json(doc: Any, path: Optional[str]) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def stats_to_json(stats: dict) -> dict:
    """The `stats` of a result file, in one shape for every solve command:
    the solver's counters by name, and its `wall_time` as `wall_time_s`,
    rounded to 6 digits."""
    doc = dict(stats)
    doc["wall_time_s"] = round(doc.pop("wall_time"), 6)
    return doc


# ---------------------------------------------------------------------------
# SVG rendering (2-D only, byte-deterministic)
# ---------------------------------------------------------------------------


def _svg_num(x: Fraction) -> str:
    v = x * SVG_SCALE
    if v.denominator == 1:
        return str(v.numerator)
    return repr(float(v))


def render_svg(inst: Instance, packing: Packing) -> str:
    """Draw a 2-D packing: viewBox (0,0,W1,W2) at 1000 user units per
    instance unit, y flipped so the origin sits bottom-left, one rectangle
    per box, labeled with its escaped id. Identical inputs give identical
    bytes."""
    from xml.sax.saxutils import escape  # deferred: it imports urllib.request

    if inst.d != 2:
        raise DimensionMismatch(f"SVG rendering is 2-D only, got d = {inst.d}")
    W1, W2 = inst.container
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_svg_num(W1)} {_svg_num(W2)}">',
        f'<rect x="0" y="0" width="{_svg_num(W1)}" height="{_svg_num(W2)}" '
        'fill="white" stroke="black" stroke-width="8"/>',
    ]
    order = {b: k for k, b in enumerate(inst.ids)}
    for box_id in sorted(packing.positions):
        pos = packing.positions[box_id]
        size = inst.box(box_id).size
        x = pos[0]
        y = W2 - pos[1] - size[1]  # flip: SVG y grows downward
        color = _PALETTE[order[box_id] % len(_PALETTE)]
        cx = pos[0] + size[0] / 2
        cy = W2 - pos[1] - size[1] / 2
        font = min(size) * Fraction(2, 5)
        lines.append(
            f'<rect x="{_svg_num(x)}" y="{_svg_num(y)}" width="{_svg_num(size[0])}" '
            f'height="{_svg_num(size[1])}" fill="{color}" fill-opacity="0.75" '
            'stroke="black" stroke-width="5"/>'
        )
        lines.append(
            f'<text x="{_svg_num(cx)}" y="{_svg_num(cy)}" font-size="{_svg_num(font)}" '
            'text-anchor="middle" dominant-baseline="central" '
            f'font-family="sans-serif">{escape(box_id)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# OR-Library non-guillotine cutting ("ngcut") conversion
# ---------------------------------------------------------------------------


def convert_ngcut(text: str, source: str = "<ngcut>") -> list[tuple[dict, str]]:
    """Convert OR-Library non-guillotine cutting data to instance files.

    Layout: instance count; then per instance a piece count, a container
    line (two integers), and one line per piece. A piece line of three
    integers reads as (length, width, value); four integers read as
    (length, width, max-copies, value) and the piece is replicated. The
    column rule is a documented best effort; the rule that fired is
    reported per instance.
    """
    lines = text.splitlines()
    pos = 0

    def next_ints(what: str) -> tuple[int, list[int]]:
        nonlocal pos
        while pos < len(lines) and not lines[pos].split():
            pos += 1
        if pos >= len(lines):
            raise ParseError(f"{source}: unexpected end of file while reading {what}")
        lineno = pos + 1
        tokens = lines[pos].split()
        pos += 1
        try:
            return lineno, [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"{source}: line {lineno}: expected integers for {what}") from None

    lineno, head = next_ints("instance count")
    if len(head) != 1 or head[0] < 0:
        raise ParseError(f"{source}: line {lineno}: expected a single instance count")
    out = []
    for k in range(head[0]):
        lineno, counts = next_ints(f"piece count of instance {k + 1}")
        if len(counts) != 1 or counts[0] < 0:
            raise ParseError(f"{source}: line {lineno}: expected a piece count")
        m = counts[0]
        lineno, dims = next_ints(f"container of instance {k + 1}")
        if len(dims) != 2 or min(dims) <= 0:
            raise ParseError(
                f"{source}: line {lineno}: expected two positive container dimensions"
            )
        boxes = []
        rules = set()
        serial = 0
        for _ in range(m):
            lineno, piece = next_ints(f"piece of instance {k + 1}")
            if len(piece) == 3:
                length, width, value = piece
                copies = 1
                rules.add("3-int (length,width,value)")
            elif len(piece) == 4:
                length, width, copies, value = piece
                rules.add("4-int (length,width,max-copies,value)")
            else:
                raise ParseError(
                    f"{source}: line {lineno}: piece lines must have 3 or 4 integers"
                )
            if min(length, width) <= 0 or copies < 0 or value < 0:
                raise ParseError(f"{source}: line {lineno}: piece values out of range")
            for _ in range(copies):
                serial += 1
                boxes.append(
                    {"id": f"p{serial}", "size": [length, width], "value": value}
                )
        doc = {"d": 2, "container": [dims[0], dims[1]], "boxes": boxes}
        out.append((doc, ", ".join(sorted(rules)) if rules else "no pieces"))
    return out
