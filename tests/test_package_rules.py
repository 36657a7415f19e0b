"""Source-level rules for the package itself.

Invariants are explicit checks that raise ``ZenError`` subclasses: an
``assert`` statement vanishes under ``python -O``, so none may appear in
``src/zen``. Every name the package exports must resolve, so deleting a
function cannot leave a dangling export behind.
"""

import ast
from pathlib import Path

import zen

SRC = Path(__file__).resolve().parents[1] / "src" / "zen"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no package sources under {SRC}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_every_export_resolves():
    missing = [name for name in zen.__all__ if not hasattr(zen, name)]
    assert not missing, f"exported but not defined: {', '.join(missing)}"
