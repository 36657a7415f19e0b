"""Source-level rules for the package itself.

Invariants are explicit checks that raise ``ZenError`` subclasses: an
``assert`` statement vanishes under ``python -O``, so none may appear in
``src/zen``. Every name the package exports must resolve, so deleting a
function cannot leave a dangling export behind. And every export must have a
user: the package's own modules, the benchmark, the acceptance criteria or
README's library examples. A name that only the unit tests call belongs in
the tests, not in the API. The CLI spells the variant names out, so that
numpy is not imported before ``--threads`` takes effect; they must stay the
harness's names.
"""

import argparse
import ast
import re
from pathlib import Path

import zen
from zen import harness
from zen.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zen"


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


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names read through a ``Name`` or ``Attribute`` node, except inside the
    ``def`` or ``class`` that defines the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_user_outside_the_unit_tests():
    sources = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    texts = [path.read_text(encoding="utf-8") for path in sources]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts += re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    used = set().union(*(_referenced_names(ast.parse(text)) for text in texts))
    unused = sorted(set(zen.__all__) - used)
    assert not unused, f"exported but used only by the unit tests: {', '.join(unused)}"


def _choices(command: str, flag: str) -> tuple:
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    action = next(action for action in sub.choices[command]._actions
                  if flag in action.option_strings)
    return tuple(action.choices)


def test_cli_variant_choices_are_the_harness_variants():
    assert _choices("run", "--variant") == harness.VARIANTS
    closed_form = tuple(v for v in harness.VARIANTS if not harness._GD_WEIGHTS[v])
    assert _choices("explain", "--variant") == closed_form
