import ast
import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from packclass import cli
from packclass.cli import main
from packclass.graph import Graph, complement

from certcheck import check_induced_c4, check_odd_2chordless_cycle

FIVE_BOX = {
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

INFEASIBLE = {
    "container": [3, 3],
    "boxes": [{"id": "a", "size": [2, 2]}, {"id": "b", "size": [2, 2]}],
}


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(FIVE_BOX))
    return str(path)


def run(args):
    return main(args)


def test_opp_exit_codes(tmp_path, example_file):
    out = tmp_path / "res.json"
    assert run(["opp", example_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "feasible" and len(doc["positions"]) == 5
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(INFEASIBLE))
    assert run(["opp", str(bad)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert run(["opp", str(broken)]) == 64
    assert run(["opp", str(tmp_path / "missing.json")]) == 64


def test_invalid_packing_is_an_error_exit(example_file):
    """An invalid packing met inside `opp` (injected here through the
    validator) ends the process with exit 64 and the InvalidPacking
    message, not with an escaped exception's 1, the infeasible code."""
    script = (
        "import sys\n"
        "from packclass import cli, model\n"
        "model._violations = lambda spans, container, inst: ('injected',)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", script, "opp", example_file], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert run.returncode == 64, run.stderr
    assert run.stderr.startswith("error: packing is invalid: ('injected',)")


def test_opp_resource_limit_exit(example_file, capsys):
    assert run(["opp", example_file, "--no-heuristic", "--node-limit", "0"]) == 2
    capsys.readouterr()


def test_time_limit_env(example_file, monkeypatch, capsys):
    monkeypatch.setenv("PACKCLASS_TIME_LIMIT", "0.000001")
    assert run(["opp", example_file, "--no-heuristic"]) == 2
    capsys.readouterr()


def test_verify_roundtrip_and_failure(tmp_path, example_file, capsys):
    out = tmp_path / "res.json"
    assert run(["opp", example_file, "-o", str(out)]) == 0
    assert run(["verify", example_file, str(out)]) == 0
    doc = json.loads(out.read_text())
    # corrupt one coordinate to force an overlap
    doc["positions"]["b1"] = doc["positions"]["b2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", example_file, str(bad)]) == 1
    assert "violation" in capsys.readouterr().out


def test_verify_class_with_shared_edge(tmp_path, capsys):
    inst = tmp_path / "two.json"
    inst.write_text(
        json.dumps(
            {"container": [3, 3],
             "boxes": [{"id": "a", "size": [1, 1]}, {"id": "b", "size": [1, 1]}]}
        )
    )
    artifact = tmp_path / "class.json"
    artifact.write_text(json.dumps({"class": [[["a", "b"]], [["a", "b"]]]}))
    assert run(["verify", str(inst), str(artifact)]) == 1
    assert "shared by all dimensions" in capsys.readouterr().out


def test_render_deterministic_and_structure_guard(tmp_path, example_file, capsys):
    res = tmp_path / "res.json"
    assert run(["opp", example_file, "-o", str(res)]) == 0
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(["render", example_file, str(res), str(svg1)]) == 0
    assert run(["render", example_file, str(res), str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert svg1.read_text().count("<rect") == 6
    three_d = tmp_path / "3d.json"
    three_d.write_text(
        json.dumps(
            {"container": [2, 2, 2], "boxes": [{"id": "a", "size": [1, 1, 1]}]}
        )
    )
    res3 = tmp_path / "res3.json"
    assert run(["opp", str(three_d), "-o", str(res3)]) == 0
    assert run(["render", str(three_d), str(res3), str(tmp_path / "x.svg")]) == 65
    capsys.readouterr()


def test_okp_and_spp_results(tmp_path, example_file, capsys):
    okp_out = tmp_path / "okp.json"
    assert run(["okp", example_file, "-o", str(okp_out)]) == 0
    doc = json.loads(okp_out.read_text())
    assert doc["value"] == 18
    assert doc["chosen"] == ["b1", "b2", "b3", "b4", "b5"]
    assert run(["verify", example_file, str(okp_out)]) == 0

    spp_out = tmp_path / "spp.json"
    assert run(["spp", example_file, "--fixed-dims", "5", "-o", str(spp_out)]) == 0
    doc = json.loads(spp_out.read_text())
    assert doc["height"] == 4
    assert run(["verify", example_file, str(spp_out)]) == 0
    capsys.readouterr()


SEVEN_BOXES = {
    "d": 2,
    "container": [5, 5],
    "boxes": [{"id": f"b{k}", "size": size} for k, size in enumerate(
        [[3, 2], [2, 3], [3, 2], [2, 3], [1, 1], [2, 2], [2, 1]], start=1)],
}


STATS_KEYS = {
    "opp": {"nodes", "decisions", "propagations", "conflicts", "prunes", "wall_time_s"},
    "okp": {"examined", "dismissed_screen", "dismissed_opp", "engine_nodes", "wall_time_s"},
    "spp": {"candidates", "probes", "engine_nodes", "wall_time_s"},
}


@pytest.mark.parametrize("command, keys", [("okp", STATS_KEYS["okp"]), ("spp", STATS_KEYS["spp"])])
def test_resource_limit_file_carries_stats(tmp_path, capsys, command, keys):
    # The full box set overfills the square, so OKP decides a subset, and
    # SPP probes a height: one node each, then the limit.
    inst = tmp_path / "seven.json"
    inst.write_text(json.dumps(SEVEN_BOXES))
    out = tmp_path / "res.json"
    assert run([command, str(inst), "--node-limit", "1", "--no-heuristic", "-o", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "resource_limit"
    assert doc["reason"] == "inner decision hit its limit"
    assert set(doc["stats"]) == keys and doc["stats"]["engine_nodes"] == 1
    assert doc["stats"]["wall_time_s"] >= 0
    capsys.readouterr()


def test_solve_commands_write_stats_in_one_shape(tmp_path, capsys):
    # opp (a screened no), okp and spp write the solver's counters by name
    # and the wall time in seconds, rounded to 6 digits
    inst = tmp_path / "seven.json"
    inst.write_text(json.dumps(SEVEN_BOXES))
    for command, code in (("opp", 1), ("okp", 0), ("spp", 0)):
        out = tmp_path / f"{command}.json"
        assert run([command, str(inst), "-o", str(out)]) == code, command
        stats = json.loads(out.read_text())["stats"]
        assert set(stats) == STATS_KEYS[command], command
        assert stats["wall_time_s"] == round(stats["wall_time_s"], 6) >= 0, command
    capsys.readouterr()


def test_no_boxes_is_solved_by_every_command(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"d": 2, "container": [5, 5], "boxes": []}))
    for command in ("opp", "okp", "spp"):
        out = tmp_path / f"{command}.json"
        assert run([command, str(empty), "-o", str(out)]) == 0, command
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "feasible" and doc["positions"] == {}, command
    assert doc["height"] == 0 and doc["container"] == [5, 0]
    capsys.readouterr()


@pytest.mark.parametrize("container", [[0], [0, 0], [5, 0], [0, 0, 0], [5, 0, 5]])
@pytest.mark.parametrize("flags", [[], ["--no-heuristic"]])
def test_opp_of_no_boxes_in_a_zero_container(tmp_path, capsys, container, flags):
    # a zero container side is allowed with no boxes; the engine alone
    # once divided by it when ranking a pair's axes
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"container": container, "boxes": []}))
    out = tmp_path / "opp.json"
    assert run(["opp", str(empty), "-o", str(out), *flags]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "feasible" and doc["positions"] == {}
    assert capsys.readouterr().err == ""


def test_spp_of_no_boxes_verifies(tmp_path, capsys):
    # spp writes a strip of height 0, and verify must accept it
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"d": 2, "container": [5, 5], "boxes": []}))
    out = tmp_path / "spp.json"
    assert run(["spp", str(empty), "-o", str(out)]) == 0
    assert run(["verify", str(empty), str(out)]) == 0
    assert "packing: ok (0 boxes)" in capsys.readouterr().out
    # a zero side is still refused once there is a box
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"container": [5, 0], "boxes": [{"id": "a", "size": [1, 1]}]}))
    assert run(["opp", str(flat)]) == 64
    assert "container dimensions must be positive" in capsys.readouterr().err


def test_spp_has_no_drop_unfit(example_file, capsys):
    # spp never read the flag; it is now a usage error rather than a no-op
    with pytest.raises(SystemExit) as exit_info:
        run(["spp", example_file, "--drop-unfit"])
    assert exit_info.value.code == 64
    assert "unrecognized arguments: --drop-unfit" in capsys.readouterr().err


def test_okp_drop_unfit(tmp_path, capsys):
    inst = tmp_path / "unfit.json"
    inst.write_text(
        json.dumps(
            {"container": [3, 3],
             "boxes": [{"id": "big", "size": [9, 9]}, {"id": "a", "size": [2, 2]}]}
        )
    )
    assert run(["okp", str(inst)]) == 64  # hard error without the flag
    assert run(["okp", str(inst), "--drop-unfit"]) == 0
    captured = capsys.readouterr()
    assert "warning: dropped box 'big'" in captured.err


def test_oracle_commands(tmp_path, example_file, capsys):
    assert run(["oracle", "opp", example_file]) == 0
    inf = tmp_path / "inf.json"
    inf.write_text(json.dumps(INFEASIBLE))
    assert run(["oracle", "opp", str(inf)]) == 1
    out = tmp_path / "classes.json"
    assert run(["oracle", "classes", example_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == len(doc["classes"]) > 0
    capsys.readouterr()


def test_convert_multi_instance(tmp_path, capsys):
    src = tmp_path / "two.ngcut"
    src.write_text("2\n1\n4 4\n2 2 5\n1\n6 6\n3 3 9\n")
    out = tmp_path / "conv.json"
    assert run(["convert", "--from", "ngcut", str(src), str(out)]) == 0
    captured = capsys.readouterr()
    assert "rule:" in captured.out
    first = json.loads((tmp_path / "conv_1.json").read_text())
    second = json.loads((tmp_path / "conv_2.json").read_text())
    assert first["container"] == [4, 4] and second["container"] == [6, 6]
    bad = tmp_path / "bad.ngcut"
    bad.write_text("1\n")
    assert run(["convert", "--from", "ngcut", str(bad), str(out)]) == 65
    capsys.readouterr()


@pytest.mark.parametrize("command", ["opp", "okp", "spp", "oracle", "sweep", "render", "convert"])
def test_unwritable_output_path_is_one_error_line(tmp_path, example_file, capsys, command):
    """An output path in a missing directory ends each command that
    writes a file with one `error: PATH: reason` line and exit 64, not a
    traceback and exit 1, the code that means "infeasible"."""
    result, ngcut = tmp_path / "res.json", tmp_path / "one.ngcut"
    assert run(["opp", example_file, "-o", str(result)]) == 0
    ngcut.write_text("1\n1\n4 4\n2 2 5\n")
    target = str(tmp_path / "missing" / "out.json")
    argv = {
        "opp": ["opp", example_file, "-o", target],
        "okp": ["okp", example_file, "-o", target],
        "spp": ["spp", example_file, "-o", target],
        "oracle": ["oracle", "opp", example_file, "-o", target],
        "sweep": ["sweep", "--max-boxes", "1", "-o", target],
        "render": ["render", example_file, str(result), target],
        "convert": ["convert", "--from", "ngcut", str(ngcut), target],
    }[command]
    capsys.readouterr()
    assert run(argv) == 64
    assert capsys.readouterr().err.splitlines() == [f"error: {target}: {os.strerror(errno.ENOENT)}"]


def test_sweep_exhaustive_tiny(capsys):
    assert run(["sweep", "--mode", "exhaustive", "--max-boxes", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instances"] == 54 and doc["disagreements"] == []


def test_sweep_random_seeded(capsys):
    assert run(["sweep", "--mode", "random", "--count", "8", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert run(["sweep", "--mode", "random", "--count", "8", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
@pytest.mark.parametrize("flag", ["--max-boxes", "--max-size"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_sweep_sizes_below_one_are_usage_errors(capsys, mode, flag, value):
    # in random mode 0 ended in a ValueError from random.randint (exit 1)
    with pytest.raises(SystemExit) as exit_info:
        run(["sweep", "--mode", mode, "--count", "3", flag, value])
    assert exit_info.value.code == 64
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err and err.startswith("usage:") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
@pytest.mark.parametrize("value", ["0", "-3", "wide"])
def test_sweep_container_below_one_is_a_usage_error(capsys, mode, value):
    # `--container 0` once failed deep in instance construction with
    # "container dimensions must be positive"
    with pytest.raises(SystemExit) as exit_info:
        run(["sweep", "--mode", mode, "--count", "3", "--max-boxes", "2", "--container", value])
    assert exit_info.value.code == 64
    err = capsys.readouterr().err
    assert "error: argument --container" in err and err.startswith("usage:") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--count", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_sweep_count_and_jobs_below_one_are_usage_errors(capsys, flag, value):
    # `--count -1` once ran an empty sweep and exited 0, and `--jobs 0` or
    # below ran serially without a word
    with pytest.raises(SystemExit) as exit_info:
        run(["sweep", "--mode", "random", "--max-boxes", "2", flag, value])
    assert exit_info.value.code == 64
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err and err.startswith("usage:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["oracle", "classes", "{instance}", "--cap", "-1"], "--cap"),
        (["opp", "{instance}", "--node-limit", "-3"], "--node-limit"),
        (["okp", "{instance}", "--node-limit", "-1"], "--node-limit"),
        (["spp", "{instance}", "--fixed-dims", "5", "--node-limit", "x"], "--node-limit"),
    ],
)
def test_negative_cap_and_node_limit_are_usage_errors(example_file, capsys, argv, flag):
    # `--cap -1` once printed "classes": [] with the total and exited 0, and
    # a negative node limit was taken without a word
    with pytest.raises(SystemExit) as exit_info:
        run([example_file if arg == "{instance}" else arg for arg in argv])
    assert exit_info.value.code == 64
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err and err.startswith("usage:") and "Traceback" not in err


def test_zero_cap_counts_classes_without_listing_them(tmp_path, capsys):
    inst = tmp_path / "two.json"
    inst.write_text(json.dumps({"container": [3, 3], "boxes": [{"id": "a", "size": [2, 2]},
                                                                {"id": "b", "size": [1, 1]}]}))
    assert run(["oracle", "classes", str(inst), "--cap", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classes"] == [] and doc["total"] > 0
    assert run(["opp", str(inst), "--node-limit", "0"]) == 0  # the heuristic packs it
    capsys.readouterr()


def _violating_class(kind, rng):
    """An instance and a 2-D class over shuffled box ids that fails one
    condition: axis 0 a 4-cycle (P1, a hole), a long claw (P1, chordal,
    but its complement has an odd 2-chordless cycle) or edgeless over
    boxes too wide together (P2). Axis 1 is edgeless for the P1 cases,
    complete for P2."""
    if kind == "hole":
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    elif kind == "complement_odd_cycle":
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    else:
        edges = []
    n = 3 if kind == "stable" else 1 + max(b for _, b in edges)
    ids = [f"b{k}" for k in range(n)]
    rng.shuffle(ids)
    width = 2 if kind == "stable" else 1
    boxes = [{"id": b, "size": [width, 1]} for b in ids]
    axis0 = [[ids[a], ids[b]] for a, b in edges]
    axis1 = [[ids[a], ids[b]] for a in range(n) for b in range(a + 1, n)] if kind == "stable" else []
    return {"container": [5, n], "boxes": boxes}, {"class": [axis0, axis1]}, axis0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["hole", "complement_odd_cycle", "stable"])
def test_verify_prints_class_violations(tmp_path, capsys, kind, seed):
    instance, result, axis0 = _violating_class(kind, random.Random(seed))
    inst_path, result_path = tmp_path / "inst.json", tmp_path / "class.json"
    inst_path.write_text(json.dumps(instance))
    result_path.write_text(json.dumps(result))
    assert run(["verify", str(inst_path), str(result_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("class violation: dimension 0 "), lines
    G = Graph([b["id"] for b in instance["boxes"]], [tuple(e) for e in axis0])
    if kind == "stable":  # all three boxes, 6 wide on an axis of 5
        stable, width = lines[0][len("class violation: dimension 0 stable set "):].split(" has width ")
        assert sorted(ast.literal_eval(stable)) == sorted(G.vertices) and width == "6"
        return
    prefix = "class violation: dimension 0 graph is not interval: "
    assert lines[0].startswith(prefix), lines
    name, witness = ast.literal_eval(lines[0][len(prefix):])
    assert name == kind
    if kind == "hole":
        assert check_induced_c4(G, witness)
    else:
        assert check_odd_2chordless_cycle(complement(G), witness)


def test_cached_parser_carries_no_flag_over(tmp_path, example_file, monkeypatch, capsys):
    # `main` reuses one parser per process: each run must give the exit code
    # and result file that a freshly built parser gives, whatever ran before.
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["opp", example_file, "--no-heuristic"],
        ["opp", example_file, "--time-limit", "nan"],  # usage error
        ["opp", example_file],
    ]

    def outcomes(tag):
        got = []
        for k, argv in enumerate(runs):
            path = tmp_path / f"{tag}-{k}.json"
            try:
                code = main([*argv, "-o", str(path)])
            except SystemExit as exc:
                code = exc.code
            doc = json.loads(path.read_text()) if path.exists() else None
            if doc is not None:
                del doc["stats"]["wall_time_s"]
            got.append((code, doc))
        return got

    cached = outcomes("cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cached == outcomes("fresh")
    assert [code for code, _ in cached] == [0, 64, 0]
    # the heuristic is back on in the third run
    assert cached[0][1]["stats"] != cached[2][1]["stats"]
    capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 64


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_bad_time_limit_is_a_usage_error(example_file, monkeypatch, capsys, value):
    # a non-number used to raise ValueError (exit 1, the "infeasible" code)
    # and NaN used to switch the deadline off
    monkeypatch.setenv("PACKCLASS_TIME_LIMIT", value)
    assert run(["opp", example_file]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: PACKCLASS_TIME_LIMIT")
    monkeypatch.delenv("PACKCLASS_TIME_LIMIT")
    with pytest.raises(SystemExit) as exit_info:
        run(["opp", example_file, "--time-limit", value])
    assert exit_info.value.code == 64
    err = capsys.readouterr().err
    assert "error: argument --time-limit" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("verify", {"class": [[[["b1"], "b2"]], []]}),
        ("verify", {"positions": {}, "chosen": [["a"]]}),
        ("verify", {"positions": {}, "container": 5}),
        ("render", {"positions": {}, "chosen": [["a"]]}),
        ("render", {"positions": {}, "container": 5}),
        ("render", {"positions": {"b1": [1]}}),
    ],
)
def test_malformed_artifact_is_a_parse_error(tmp_path, example_file, capsys, command, doc):
    # each of these used to end in a TypeError or IndexError traceback,
    # which exits 1: the code that means "verification failed"
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    args = [command, example_file, str(artifact)]
    if command == "render":
        args.append(str(tmp_path / "out.svg"))
    assert run(args) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_verify_drop_unfit(tmp_path, capsys):
    # an okp result written with --drop-unfit checks only under the same flag
    inst = tmp_path / "unfit.json"
    inst.write_text(
        json.dumps(
            {"container": [4, 4],
             "boxes": [{"id": "a", "size": [2, 2]}, {"id": "d", "size": [5, 1]}]}
        )
    )
    result = tmp_path / "okp.json"
    assert run(["okp", str(inst), "--drop-unfit", "-o", str(result)]) == 0
    capsys.readouterr()
    assert run(["verify", str(inst), str(result), "--drop-unfit"]) == 0
    assert "packing: ok" in capsys.readouterr().out
    assert run(["verify", str(inst), str(result)]) == 64
    assert "box 'd' does not fit the container" in capsys.readouterr().err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9)
    | st.sampled_from(("", "x", "1/2", "3", "-1", "1/0")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("id", "size", "d", "x")), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def instance_texts(draw):
    """The text of an instance file: a valid instance (d 1-3, up to 6
    boxes, some values, in one file of four a side one over the
    container's), or one with a value swapped for any JSON value, a key
    dropped, or text that is not such a document at all."""
    d = draw(st.integers(1, 3))
    container = [draw(st.integers(1, 5)) for _ in range(d)]
    over = draw(st.sampled_from((0, 0, 0, 1)))
    boxes = []
    for j in range(draw(st.integers(0, 6))):
        box = {"id": f"b{j}", "size": [draw(st.integers(1, w + over)) for w in container]}
        if draw(st.booleans()):
            box["value"] = draw(st.sampled_from((0, 2, "3/2")))
        boxes.append(box)
    doc = {"d": d, "container": container, "boxes": boxes}
    fault = draw(st.sampled_from(("none", "none", "swap", "drop", "text")))
    if fault == "text":
        return draw(st.sampled_from(("", "{nope", "[]", "null", "7", '"boxes"')))
    if fault != "none":
        places = [(doc, key) for key in doc] + [(doc["container"], k) for k in range(d)]
        places += [(box, key) for box in boxes for key in box]
        places += [(box["size"], k) for box in boxes for k in range(d)]
        holder, key = draw(st.sampled_from(places))
        if fault == "drop":
            del holder[key]
        else:
            holder[key] = draw(json_values)
    return json.dumps(doc)


def _check_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 64, 65), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(instance_texts(), json_values, st.sampled_from(("0", "1", "50")), st.booleans())
def test_commands_exit_with_their_codes_on_any_instance_file(text, junk, nodes, heuristic):
    """opp, okp, spp and verify end with one of the documented exit codes
    and print no traceback, on valid and malformed instance files; verify
    checks the result file, that result with every box at the origin, and
    an arbitrary JSON document."""
    with tempfile.TemporaryDirectory() as tmp:
        instance, result, stacked, other = (Path(tmp, name) for name in ("i", "r", "s", "o"))
        instance.write_text(text)
        other.write_text(json.dumps(junk))
        flags = ["--node-limit", nodes, "--time-limit", "1", *([] if heuristic else ["--no-heuristic"])]
        for command in ("okp", "spp", "opp"):
            _check_exit([command, str(instance), *flags, "-o", str(result)])
        if result.exists():
            doc = json.loads(result.read_text())
            for pos in doc.get("positions", {}).values():
                pos[:] = [0] * len(pos)
            stacked.write_text(json.dumps(doc))
        for artifact in (result, stacked, other):
            _check_exit(["verify", str(instance), str(artifact)])
