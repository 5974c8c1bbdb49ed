"""Module boundaries of the package, read from its source with ast."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hamforms"


def _private_imports(path: Path) -> list:
    """'file:line name' for each private name a relative import brings in."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return ["%s:%d %s" % (path.name, node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_from_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert [hit for path in sources for hit in _private_imports(path)] == []


def test_private_imports_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .pairs import HamPair, _row_dot\n"
                     "from hamforms.poly import _pack\n"
                     "from . import _secret\n")
    assert _private_imports(probe) == ["probe.py:1 _row_dot",
                                       "probe.py:3 _secret"]
