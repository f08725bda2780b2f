"""No dead code in the package: every import is used, every module-level
private name is referenced somewhere in the package, and no constant is
written in two modules.

The modules of ``src/symcone`` are read with ``ast``, not imported.  An
import is used when its bound name is loaded anywhere in its module; a line
marked ``# noqa: F401`` keeps an import that only something outside the
package looks up (the benchmark's tracer), and ``__init__.py`` re-exports
what it imports.  A private module-level name (a function, class or
assignment whose name starts with one underscore) is referenced when some
module loads it by name or as an attribute, outside its own definition.  A
module-level name bound to a literal (a constant, such as a tolerance) is
bound so in one module only: two bindings of one name can drift apart.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symcone"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loaded(node: ast.AST) -> set:
    """Names loaded under node, bare or as the attribute of something."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _defined(stmt: ast.stmt) -> list:
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    lines = path.read_text().splitlines()
    tree = _tree(path)
    used = _loaded(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            marked = any("# noqa: F401" in lines[k - 1] for k in {node.lineno, alias.lineno})
            if bound not in used and not marked:
                unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert not unused, f"unused imports: {unused}"


def test_every_private_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    # (name, module, top-level statement) of every load, so that a function
    # that only calls itself does not count as referenced
    loads = []
    for module, tree in trees.items():
        for stmt in tree.body:
            loads += [(name, module, stmt) for name in _loaded(stmt)]
    unreferenced = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in filter(_private, _defined(stmt)):
                if not any(n == name and not (m == module and s is stmt)
                           for n, m, s in loads):
                    unreferenced.append(f"{module}:{stmt.lineno} {name}")
    assert not unreferenced, f"private names nothing in the package uses: {unreferenced}"


def _literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_no_constant_is_bound_in_two_modules():
    homes = {}
    for path in MODULES:
        for stmt in _tree(path).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _literal(stmt.value):
                for name in _defined(stmt):
                    homes.setdefault(name, []).append(path.name)
    shared = sorted(f"{name}: {', '.join(mods)}" for name, mods in homes.items()
                    if len(mods) > 1)
    assert not shared, f"constants bound to a literal in two modules: {shared}"


def test_finds_what_it_looks_for(tmp_path, monkeypatch):
    # the checks flag an unused import, an orphaned helper and a constant
    # bound in two modules (not a name bound to an expression), and respect
    # a noqa mark
    (tmp_path / "other.py").write_text("TOL = 1e-8\nVALUE = TOL * 2\n")
    (tmp_path / "mod.py").write_text(
        "import json\n"
        "import math  # noqa: F401\n"
        "import os\n"
        "def _orphan():\n"
        "    return _orphan()\n"
        "def _used():\n"
        "    return os.sep\n"
        "VALUE = _used()\n"
        "TOL = 1e-9\n")
    monkeypatch.setitem(globals(), "MODULES", [tmp_path / "mod.py", tmp_path / "other.py"])
    with pytest.raises(AssertionError, match=r"mod\.py:1 json'\]"):
        test_every_import_is_used(tmp_path / "mod.py")
    with pytest.raises(AssertionError, match=r"mod\.py:4 _orphan'\]"):
        test_every_private_name_is_referenced()
    with pytest.raises(AssertionError, match=r"modules: \['TOL: mod\.py, other\.py'\]"):
        test_no_constant_is_bound_in_two_modules()
