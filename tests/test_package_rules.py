"""Source-level rules for the package itself.

Invariants are explicit checks that raise ``ZenError`` subclasses: an
``assert`` statement vanishes under ``python -O``, so none may appear in
``src/zen``.
"""

import ast
from pathlib import Path

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
