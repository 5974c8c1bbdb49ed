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


_ROOTS = ("src", "tests", "bench", "demos")


def _definitions(path: Path) -> list:
    """(line, name) of each function and class, nested ones too, that is
    not a dunder, in source order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__")))


def _used_names(paths) -> set:
    """Every name a source uses: a Name, an attribute, an import alias,
    or a string constant that is an identifier (getattr, __all__)."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                       filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                used.add(node.value)
    return used


def _orphans(sources, paths) -> list:
    """'file:line name' for each definition in sources no path uses."""
    used = _used_names(paths)
    return ["%s:%d %s" % (path.name, line, name) for path in sources
            for line, name in _definitions(path) if name not in used]


def test_no_definition_is_orphaned():
    sources = sorted(PACKAGE.glob("*.py"))
    repo = PACKAGE.parents[1]
    paths = [p for root in _ROOTS for p in sorted((repo / root).rglob("*.py"))]
    assert sum(len(_definitions(path)) for path in sources) > 200
    assert _orphans(sources, paths) == []


def test_orphaned_definitions_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class Used:\n"
                     "    def __init__(self):\n"
                     "        self.kept = getattr(self, 'by_string')\n"
                     "    def by_string(self):\n"
                     "        return helper()\n"
                     "    def dead(self):\n"
                     "        pass\n"
                     "def helper():\n"
                     "    return Used\n"
                     "def _orphan():\n"
                     "    pass\n")
    assert _orphans([probe], [probe]) == ["probe.py:6 dead",
                                          "probe.py:10 _orphan"]
