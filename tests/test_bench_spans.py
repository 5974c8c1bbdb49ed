"""The benchmark's span tables name functions that exist.

`bench/spans.py` wraps the functions and methods listed in its FUNCTIONS
and METHODS tables; a target missing from `hamforms` crashes a traced
benchmark run, and so does a target module that a fresh
`import hamforms.cli` leaves unloaded, since the tracer looks each one up
in `sys.modules`.  The module is only loaded here, nothing is wrapped.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _listed(where):
    return where if isinstance(where, list) else [where]


def test_span_targets_resolve():
    spans = _load_spans()
    missing = []
    for name, where in spans.FUNCTIONS.items():
        for modname, attr in _listed(where):
            fn = getattr(importlib.import_module(modname), attr, None)
            if not callable(fn):
                missing.append((name, modname, attr))
    for name, where in spans.METHODS.items():
        for modname, cls_name, attr in _listed(where):
            cls = getattr(importlib.import_module(modname), cls_name, None)
            if cls is None or attr not in vars(cls):
                missing.append((name, modname, cls_name, attr))
    assert not missing
    assert spans.FUNCTIONS and spans.METHODS


def test_cli_import_loads_every_span_module():
    spans = _load_spans()
    wanted = {where[0] for table in (spans.FUNCTIONS, spans.METHODS)
              for entry in table.values() for where in _listed(entry)}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hamforms.cli; print('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    assert wanted - set(out.stdout.split()) == set()
