"""What a process loads: the lazy package and the per-command imports of the CLI.

Every CLI call is a fresh interpreter, and each module it loads costs its
import (and, without cached bytecode, its compilation).  So ``import dsmkit``
loads no solver module, each public name resolves on first access to the
object of its home module, and each command loads only the layers it uses.
Each check runs in a fresh interpreter, since this one has loaded everything.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dsmkit
from dsmkit import gen_pencil
from dsmkit.cli import main
from dsmkit.io import pencil_to_doc, save_json, vector_to_doc

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(f.stem for f in (ROOT / "src" / "dsmkit").glob("*.py") if f.stem != "__init__")


def _loaded_after(code, *argv):
    """The dsmkit modules in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('dsmkit'))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT, env=env)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_bare_import_loads_no_solver_module():
    assert _loaded_after("import dsmkit") == {"dsmkit"}


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # a fresh interpreter that imports this module first finds any import cycle the lazy imports left
    assert f"dsmkit.{module}" in _loaded_after(f"import dsmkit.{module}")


def test_every_public_name_is_its_home_modules_object():
    assert len(dsmkit.__all__) == len(set(dsmkit.__all__))
    listed = dir(dsmkit)
    for name in dsmkit.__all__:
        home = importlib.import_module(f"dsmkit.{dsmkit._HOME[name]}")
        obj = getattr(dsmkit, name)
        assert obj is vars(home)[name], name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name  # defined there, not re-exported
        assert name in listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dsmkit.no_such_name
    assert not hasattr(dsmkit, "oracle_no_such_name")
    assert not hasattr(dsmkit, "herm_skew_parts")  # deleted with min_eig_herm: no module of the package called them


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    files = {"P": str(d / "P.json"), "gen": str(d / "gen.json"), "csv": str(d / "sweep.csv")}
    save_json(files["P"], pencil_to_doc(gen_pencil(4, 1, 3)))
    rng = np.random.default_rng(4)
    files["x"] = str(d / "x.json")  # y = x: the identity is a Hermitian solution
    save_json(files["x"], vector_to_doc(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    commands = {
        "map": ["map", "solve", "--family", "hermitian", "--x", files["x"], "--y", files["x"]],
        "backerr": ["backerr", "--pencil", files["P"], "--lambda", "0.5i", "--blocks", "JREB", "--seed", "1"],
    }
    for kind, argv in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        files[kind] = str(d / f"{kind}.json")
        save_json(files[kind], json.loads(out.getvalue()))
    assert json.loads(pathlib.Path(files["map"]).read_text())["norms"]["exact"]  # so verify calls an oracle
    return files


COMMANDS = {
    "map solve": (["map", "solve", "--family", "hermitian", "--x", "{x}", "--y", "{x}"], {"oracle", "pencil"}),
    "pencil gen": (["pencil", "gen", "--n", "3", "--m", "1", "--seed", "2", "-o", "{gen}"], {"oracle", "dsm"}),
    "pencil validate": (["pencil", "validate", "{P}"], {"oracle", "dsm"}),
    "backerr": (["backerr", "--pencil", "{P}", "--lambda", "0.5i", "--blocks", "JREB", "--seed", "1"],
                {"oracle", "dsm"}),
    "backerr sweep": (["backerr", "sweep", "--pencil", "{P}", "--lambdas", "0.5i,0.9i", "--blocks", "JRB",
                       "--seed", "1", "--csv", "{csv}"], {"oracle", "dsm"}),
    "verify map": (["verify", "--result", "{map}"], {"pencil"}),
    "verify backerr": (["verify", "--result", "{backerr}"], {"oracle", "dsm"}),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_command_loads_only_the_layers_it_uses(inputs, command):
    argv, unused = COMMANDS[command]
    code = "import sys, dsmkit.cli\nassert dsmkit.cli.main(sys.argv[1:]) == 0"
    loaded = _loaded_after(code, *(arg.format(**inputs) for arg in argv))
    assert "dsmkit.cli" in loaded
    assert not loaded & {f"dsmkit.{module}" for module in unused}
