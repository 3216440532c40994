"""What each entry point imports, and the package's lazily loaded names."""

import json
import os
import subprocess
import sys

import pytest

import packclass

SRC = os.path.dirname(os.path.dirname(packclass.__file__))
POOL_MODULES = {"multiprocessing", "concurrent.futures.process"}
OTHER_SOLVERS = {"packclass.oracle", "packclass.solve", "packclass.sweep"}


def modules_after(script: str, *argv: str) -> set[str]:
    """The names in `sys.modules` once `script` has run in a fresh interpreter."""
    run = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys\nprint(*sorted(sys.modules))", *argv],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_only_its_errors():
    loaded = modules_after("import packclass")
    assert {m for m in loaded if m.split(".")[0] == "packclass"} == {"packclass", "packclass.errors"}


def test_the_engine_loads_no_front_end_or_other_solver():
    loaded = modules_after("import packclass.opp")
    assert "packclass.opp" in loaded
    assert not loaded & {*OTHER_SOLVERS, "packclass.fileio", "packclass.cli"}


CLI_SCRIPT = """
import contextlib, io, sys
from packclass import cli
inst, result = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = cli.main(["opp", inst, "-o", result]), cli.main(["verify", inst, result])
if codes != (0, 0):
    sys.exit(f"exit codes {codes}")
"""


def test_opp_and_verify_commands_load_no_pool_or_other_solver(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "container": [4, 4],
        "boxes": [{"id": "a", "size": [2, 4]}, {"id": "b", "size": [2, 2]},
                  {"id": "c", "size": [2, 2]}],
    }))
    loaded = modules_after(CLI_SCRIPT, str(inst), str(tmp_path / "result.json"))
    assert "packclass.cli" in loaded
    assert not loaded & (POOL_MODULES | OTHER_SOLVERS)


def test_every_public_name_resolves(monkeypatch):
    for name in packclass.__all__:
        if name != "PackclassError":  # drop cached names, so each goes through the hook
            monkeypatch.delitem(vars(packclass), name, raising=False)
    star = {}
    exec("from packclass import *", star)
    assert set(star) - {"__builtins__"} == set(packclass.__all__)
    for name in packclass.__all__:
        value = getattr(packclass, name)
        assert star[name] is value
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert "__all__" in dir(packclass)
    assert set(packclass.__all__) <= set(dir(packclass))
    with pytest.raises(AttributeError, match="no_such_name"):
        packclass.no_such_name
