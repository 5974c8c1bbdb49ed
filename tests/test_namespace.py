"""The package namespace loads each submodule on first use.

Each test runs a fresh interpreter, since this process has long since
imported every submodule.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh(code):
    """JSON printed by `code` in a new interpreter that sees only src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_import_loads_no_submodule():
    loaded = _fresh("import sys, json, hamforms\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert "hamforms" in loaded
    assert [m for m in loaded if m.startswith("hamforms.")] == []


def test_name_loads_only_its_home_module():
    new = ("import sys, json\nbefore = set(sys.modules)\n%s\n"
           "print(json.dumps(sorted(set(sys.modules) - before)))")
    by_name = _fresh(new % "from hamforms import Poly")
    by_module = _fresh(new % "import hamforms.poly")
    assert "hamforms.poly" in by_name
    assert by_name == by_module


def test_names_are_the_objects_of_their_home_modules():
    shadowed = _fresh(
        "import importlib, json, pkgutil, sys, hamforms\n"
        "for m in pkgutil.iter_modules(hamforms.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('hamforms.' + m.name)\n"
        "out = []\n"
        "for name in hamforms.__all__:\n"
        "    obj = getattr(hamforms, name)\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    home = sys.modules.get(getattr(obj, '__module__', None))\n"
        "    if home is None or getattr(home, name, None) is not obj:\n"
        "        out.append(name)\n"
        "print(json.dumps(out))")
    assert shadowed == []


def test_star_import_dir_and_unknown_names():
    rep = _fresh(
        "import json, hamforms\n"
        "ns = {}\n"
        "exec('from hamforms import *', ns)\n"
        "try:\n"
        "    hamforms.nope\n"
        "    missing = False\n"
        "except AttributeError:\n"
        "    missing = True\n"
        "print(json.dumps({'star': sorted(set(ns) - {'__builtins__'}),\n"
        "                  'all': hamforms.__all__, 'dir': dir(hamforms),\n"
        "                  'missing': missing}))")
    assert len(rep["all"]) == 75 and rep["all"][-1] == "__version__"
    assert rep["star"] == sorted(rep["all"])
    assert set(rep["all"]) <= set(rep["dir"])
    assert rep["missing"]
