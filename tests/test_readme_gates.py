"""README's "Numerical gates" table names code that exists.

Each row's "home" cell names, in backticks, where the gate is written:
``module.name`` or ``module.Class.attr`` under ``symcone``.  A bare name
takes the module of the name before it in the cell (``algebra.COMMUTE_ATOL``,
``COMMUTE_RTOL``).  A home renamed or deleted in the package, and left in
the README, fails here.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _home_cells() -> list[str]:
    section = README.read_text().split("## Numerical gates", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    # the header and the |---| rule come first; "\|" inside a cell is not a border
    return [re.split(r"(?<!\\)\|", row)[2] for row in rows[2:]]


def _resolve(module: str, attrs: list[str]) -> bool:
    try:
        obj = importlib.import_module(f"symcone.{module}")
    except ImportError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_gate_home_resolves():
    cells = _home_cells()
    assert len(cells) >= 10, cells
    missing = []
    for cell in cells:
        module = None
        for name in re.findall(r"`([^`]+)`", cell):
            parts = name.split(".")
            if len(parts) > 1:
                module, parts = parts[0], parts[1:]
            if module is None or not _resolve(module, parts):
                missing.append(name)
    assert not missing
