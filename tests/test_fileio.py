import json
from fractions import Fraction

import pytest

from packclass.fileio import (
    ParseError,
    class_from_json,
    class_to_json,
    convert_ngcut,
    load_instance,
    packing_from_json,
    packing_to_json,
    rational_from_json,
    rational_to_json,
    render_svg,
    result_file,
    write_json,
)
from packclass.model import Box, Instance, Packing


def instance_to_json(inst: Instance) -> dict:
    return {
        "d": inst.d,
        "container": [rational_to_json(w) for w in inst.container],
        "boxes": [
            {
                "id": b.id,
                "size": [rational_to_json(s) for s in b.size],
                "value": rational_to_json(b.value),
            }
            for b in inst.boxes
        ],
    }


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


FIVE_BOX_DOC = {
    "d": 2,
    "container": [5, 5],
    "boxes": [
        {"id": "b1", "size": [4, 1]},
        {"id": "b2", "size": [5, 1]},
        {"id": "b3", "size": [1, 3]},
        {"id": "b4", "size": [2, 2]},
        {"id": "b5", "size": [1, 2]},
    ],
}


def test_rational_parsing():
    assert rational_from_json(3, "x") == 3
    assert rational_from_json("2/3", "x") == Fraction(2, 3)
    for bad in (1.5, True, "abc", "1/0", [1]):
        with pytest.raises(ParseError):
            rational_from_json(bad, "x")
    assert rational_to_json(Fraction(4)) == 4
    assert rational_to_json(Fraction(1, 3)) == "1/3"


def test_load_instance_roundtrip(tmp_path):
    path = write(tmp_path, "example.json", FIVE_BOX_DOC)
    inst, warnings = load_instance(path)
    assert warnings == [] and inst.n == 5 and inst.d == 2
    again = instance_to_json(inst)
    assert again["container"] == [5, 5]
    assert again["boxes"][0] == {"id": "b1", "size": [4, 1], "value": 4}


def test_load_instance_exact_fractions(tmp_path):
    doc = {
        "container": ["10/3", 2],
        "boxes": [{"id": "a", "size": ["1/3", 1], "value": "1/7"}],
    }
    inst, _ = load_instance(write(tmp_path, "frac.json", doc))
    assert inst.container[0] == Fraction(10, 3)
    assert inst.boxes[0].size[0] == Fraction(1, 3)
    assert inst.boxes[0].value == Fraction(1, 7)


@pytest.mark.parametrize(
    "doc",
    [
        {"boxes": []},  # missing container
        {"container": [3, 3]},  # missing boxes
        {"container": [3, 3], "boxes": [{"id": "a", "size": [1.5, 1]}]},  # float
        {"container": [3, 3], "boxes": [{"id": "a", "size": [1]}]},  # wrong arity
        {"container": [3, 3], "d": 3, "boxes": []},  # d mismatch
        {"container": [3, 3], "boxes": [{"id": "a", "size": [1, 1]},
                                        {"id": "a", "size": [1, 1]}]},  # dup id
    ],
)
def test_load_instance_rejects_bad_schema(tmp_path, doc):
    with pytest.raises(ParseError):
        load_instance(write(tmp_path, "bad.json", doc))


def test_load_instance_unfit_box(tmp_path):
    doc = {
        "container": [3, 3],
        "boxes": [{"id": "a", "size": [4, 1]}, {"id": "b", "size": [1, 1]}],
    }
    path = write(tmp_path, "unfit.json", doc)
    with pytest.raises(ParseError):
        load_instance(path)
    inst, warnings = load_instance(path, drop_unfit=True)
    assert inst.ids == ("b",)
    assert len(warnings) == 1 and "a" in warnings[0]


def test_packing_and_class_json_roundtrip():
    p = Packing({"a": (Fraction(1, 3), 0), "b": (2, Fraction(5, 2))})
    doc = packing_to_json(p)
    assert doc == {"a": ["1/3", 0], "b": [2, "5/2"]}
    assert packing_from_json(doc, "x") == p
    from packclass.graph import Graph

    sets = [Graph("ab", [("a", "b")]), Graph("ab")]
    doc = class_to_json(sets)
    assert doc == [[["a", "b"]], []]
    assert class_from_json(doc, "x") == [[("a", "b")], []]


def test_result_file_shape():
    inst = Instance(boxes=(Box("a", (1, 1)),), container=(2, 2))
    doc = result_file(
        "feasible", inst.container, packing=Packing({"a": (0, 0)}), stats={"nodes": 0}
    )
    assert doc["format"] == 1
    assert doc["verdict"] == "feasible"
    assert doc["positions"] == {"a": [0, 0]}
    assert doc["container"] == [2, 2]


def test_render_svg_deterministic_and_flipped():
    inst = Instance(boxes=(Box("a", (1, 1)),), container=(2, 2))
    packing = Packing({"a": (0, 0)})
    svg1 = render_svg(inst, packing)
    svg2 = render_svg(inst, packing)
    assert svg1 == svg2
    # box at the origin renders at the bottom-left: y = (2 - 0 - 1) * 1000
    assert '<rect x="0" y="1000" width="1000" height="1000"' in svg1
    assert 'viewBox="0 0 2000 2000"' in svg1


def test_render_svg_one_rect_per_box(five_box_example):
    packing = Packing(
        {"b1": (0, 1), "b2": (0, 0), "b3": (4, 1), "b4": (0, 2), "b5": (2, 2)}
    )
    svg = render_svg(five_box_example, packing)
    assert svg.count("<rect") == 6  # container outline + five boxes
    assert svg.count("<text") == 5


def test_write_json_trailing_newline(tmp_path):
    path = tmp_path / "out.json"
    text = write_json({"b": 1, "a": 2}, str(path))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert path.read_text() == text


NGCUT_SAMPLE = """1

2
10 10
4 3 12
5 2 2 10
"""


def test_convert_ngcut_rules():
    out = convert_ngcut(NGCUT_SAMPLE, source="demo")
    assert len(out) == 1
    doc, rule = out[0]
    assert doc["container"] == [10, 10]
    assert [b["size"] for b in doc["boxes"]] == [[4, 3], [5, 2], [5, 2]]
    assert [b["value"] for b in doc["boxes"]] == [12, 10, 10]
    assert "3-int" in rule and "4-int" in rule


def test_convert_ngcut_zero_instances():
    assert convert_ngcut("0\n") == []


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ("", "instance count"),
        ("1\n2\n10 10\n4 3 12\n", "unexpected end"),
        ("1\n1\n10 10\n4 3\n", "3 or 4 integers"),
        ("1\n1\nten 10\n4 3 1\n", "expected integers"),
        ("x\n", "expected integers"),
    ],
)
def test_convert_ngcut_structure_errors(payload, fragment):
    with pytest.raises(ParseError) as err:
        convert_ngcut(payload, source="demo")
    assert fragment in str(err.value)
