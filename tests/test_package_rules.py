"""Source-level rules for the package itself.

Invariants are explicit checks that raise ``ZenError`` subclasses: an
``assert`` statement vanishes under ``python -O``, so none may appear in
``src/zen``. Every name the package exports must resolve, so deleting a
function cannot leave a dangling export behind. And every export, and every
public method or property of an exported class, must have a user: the
package's own modules, the benchmark, the acceptance criteria or README's
library examples. A name that only the unit tests call belongs in the tests,
not in the API. The CLI spells the variant names out, so that
numpy is not imported before ``--threads`` takes effect; they must stay the
harness's names. Every count argument goes through ``errors.check_count``,
so each call site gives the same message for the same mistake, and every
entry point that takes features gives the one feature check's. README's
library example runs, its quickstart prints the line README quotes, and its
``zen rsi`` commands print the values README quotes, rounded.
"""

import argparse
import ast
import functools
import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import zen
from zen import (
    ConfigError, Hypergraph, HutchinsonParams, LabelSet, SpectralComponents,
    TrainingParams, WalkParams, dense_diag_oracle, harness, hutchinson_diag,
    make_kshot_split, random_walk_return_prob, simplex_grid,
)
from zen.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zen"
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


@functools.cache
def _names_used_outside_the_unit_tests() -> frozenset[str]:
    """Names read by the package's modules, the benchmark, the acceptance
    criteria and README's Python blocks."""
    sources = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    texts = [path.read_text(encoding="utf-8") for path in sources]
    texts += re.findall(r"^```python\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
    return frozenset().union(*(_referenced_names(ast.parse(text)) for text in texts))


def test_every_export_has_a_user_outside_the_unit_tests():
    unused = sorted(set(zen.__all__) - _names_used_outside_the_unit_tests())
    assert not unused, f"exported but used only by the unit tests: {', '.join(unused)}"


def test_every_public_member_of_an_export_has_a_user_outside_the_unit_tests():
    # methods and properties a class defines itself; dataclass fields and
    # enum members are data, and a name starting with _ is not public
    kinds = (property, classmethod, staticmethod)
    members = [f"{name}.{member}" for name in zen.__all__
               if inspect.isclass(cls := getattr(zen, name))
               for member, value in vars(cls).items()
               if not member.startswith("_")
               and (inspect.isfunction(value) or isinstance(value, kinds))]
    assert members, "no public members found on the exported classes"
    used = _names_used_outside_the_unit_tests()
    unused = sorted(m for m in members if m.split(".")[1] not in used)
    assert not unused, f"public but used only by the unit tests: {', '.join(unused)}"


def _choices(command: str, flag: str) -> tuple:
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    action = next(action for action in sub.choices[command]._actions
                  if flag in action.option_strings)
    return tuple(action.choices)


def test_cli_variant_choices_are_the_harness_variants():
    assert _choices("run", "--variant") == harness.VARIANTS
    closed_form = tuple(v for v, spec in harness._VARIANTS.items() if not spec.descent)
    assert _choices("explain", "--variant") == closed_form


_LABELS = LabelSet(np.repeat(np.arange(2), 5), 2)
_EDGE = Hypergraph(2, ((0, 1),))

# (argument name, smallest accepted value, a call that checks it)
_COUNT_SITES = [
    ("epochs", 1, lambda v: TrainingParams(epochs=v)),
    ("k", 1, lambda v: SpectralComponents(0.1, v, 2)),
    ("c", 1, lambda v: SpectralComponents(0.1, 2, v)),
    ("denominator", 1, lambda v: simplex_grid(v)),
    ("k", 1, lambda v: make_kshot_split(_LABELS, v, 0)),
    ("walk_length", 1, lambda v: WalkParams(v, 1)),
    ("trials", 1, lambda v: WalkParams(1, v)),
    ("rng_seed", 0, lambda v: WalkParams(1, 1, v)),
    ("num_probes", 1, lambda v: HutchinsonParams(v)),
    ("rng_seed", 0, lambda v: HutchinsonParams(1, v)),
    ("hop count", 0, lambda v: dense_diag_oracle(_EDGE, l=v)),
    ("node", 0, lambda v: random_walk_return_prob(_EDGE, v, WalkParams(1, 1))),
    ("dimension", 1, lambda v: hutchinson_diag(lambda z: z, v, HutchinsonParams(1))),
]


@pytest.mark.parametrize("name, minimum, site", _COUNT_SITES,
                         ids=[f"{i}-{s[0]}" for i, s in enumerate(_COUNT_SITES)])
def test_count_arguments_share_one_check(name, minimum, site):
    kind = "positive" if minimum == 1 else "nonnegative"
    for bad in (minimum - 1, 2.5, True):
        with pytest.raises(ConfigError) as info:
            site(bad)
        assert str(info.value) == f"{name} must be a {kind} integer, got {bad!r}"
    site(np.int64(minimum + 1))


# the entry points that take X for a hypergraph of n nodes
_FEATURE_SITES = {
    "Dataset": lambda X, n: zen.Dataset(
        "bad", Hypergraph(n, ()), X, LabelSet(np.zeros(n, dtype=np.int64), 1)),
    "propagated_basis": lambda X, n: zen.propagated_basis(Hypergraph(n, ((0, 1),)), X),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("site", ["load_features", *_FEATURE_SITES])
def test_non_finite_features_share_one_check(site, bad, tmp_path):
    X = np.ones((4, 3))
    X[2, 1] = bad
    # ``1.0`` and ``nan`` send the file to the text route
    path = tmp_path / "features.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in X.tolist()))
    with pytest.raises(zen.DatasetError) as info:
        zen.load_features(path) if site == "load_features" else _FEATURE_SITES[site](X, 4)
    prefix = f"{path}: " if site == "load_features" else ""
    assert str(info.value) == prefix + "features contain NaN or infinity"


# load_features takes no node count; load_dataset and zen run take it from
# the edge file and put the features path in front
@pytest.mark.parametrize("site", [*_FEATURE_SITES, "load_dataset", "zen run"])
def test_feature_row_counts_share_one_check(site, tmp_path, capsys):
    if site in _FEATURE_SITES:
        for X in (np.ones((5, 3)), sp.csr_matrix(np.ones((5, 3))), np.ones(4)):
            with pytest.raises(zen.DatasetError) as info:
                _FEATURE_SITES[site](X, 4)
            assert str(info.value) == f"features have shape {X.shape}, expected (4, num_features)"
        return
    edges, labels = tmp_path / "e.hg", tmp_path / "l.csv"
    edges.write_text("%nodes 4\n0 1\n2 3\n")
    labels.write_text("".join(f"{i},{i % 2}\n" for i in range(4)))
    for value in ("1", "1.0"):      # the digit grid's route and the text route
        features = tmp_path / f"f{value}.csv"
        features.write_text(f"{value},{value},{value}\n" * 5)
        message = f"{features}: features have shape (5, 3), expected (4, num_features)"
        if site == "load_dataset":
            with pytest.raises(zen.DatasetError) as info:
                zen.load_dataset(edges, features, labels)
            assert str(info.value) == message
        else:
            assert main(["run", "--edges", str(edges), "--features", str(features),
                         "--labels", str(labels), "--k", "1"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


def test_the_benchmark_traced_path_takes_a_loaded_sparse_dataset(tmp_path, monkeypatch):
    # bench/child.py's traced layers pass a loaded dataset's ``features`` to
    # the benchmark's own reference operators, which multiply dense arrays: a
    # sparse grid is stored as CSR, and ``features`` must still read dense
    rng = np.random.default_rng(40)
    n, d = 40, 64
    X = np.zeros((n, d), dtype=np.int64)
    X[np.arange(n), rng.integers(0, d, n)] = rng.integers(1, 10, n)
    edges = [tuple(sorted(rng.choice(n, size=3, replace=False).tolist())) for _ in range(30)]
    (tmp_path / "e.hg").write_text(f"%nodes {n}\n" + "".join(
        " ".join(map(str, e)) + "\n" for e in edges))
    (tmp_path / "f.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in X.tolist()))
    (tmp_path / "l.csv").write_text("".join(f"{i},{i % 2}\n" for i in range(n)))
    ds = zen.load_dataset(tmp_path / "e.hg", tmp_path / "f.csv", tmp_path / "l.csv")
    assert sp.issparse(ds._features)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import reference

    basis = reference.operators(n, ds.hypergraph.hyperedges).basis(ds.features)
    assert [b.shape for b in basis] == [(n, d)] * 3
    np.testing.assert_array_equal(basis[0], X)
    for got, want in zip(basis, zen.propagated_basis(ds.hypergraph, ds.features)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _readme_block(fence: str, starts: str) -> str:
    blocks = re.findall(rf"^```{fence}\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
    return next(block for block in blocks if block.startswith(starts))


def test_readme_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(_readme_block("python", ""), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_quickstart_line_is_what_zen_run_prints(monkeypatch, capsys):
    command = _readme_block("sh", "zen run").replace("\\\n", " ")
    quoted = re.search(r"^```\n(toy .*)\n```", README, flags=re.MULTILINE).group(1)
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == quoted + "\n"


def test_readme_rsi_figures_are_what_zen_rsi_prints(monkeypatch, capsys):
    block = _readme_block("sh", "# which features")
    commands = [line for line in block.splitlines() if line.startswith("zen rsi")]
    monkeypatch.chdir(ROOT)
    printed = []
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0
        report = json.loads(capsys.readouterr().out)
        printed += [report["value"], report["exact"]]
    # exact and Hutchinson rsi2, then the walk's estimate and exact value
    assert printed == [0.5, 0.5, 0.5190237243993278, 0.5, 0.27104, 0.2731481481481481]
    prose = re.search(r"^The first two measure .*?\n\n", README,
                      flags=re.DOTALL | re.MULTILINE).group(0)
    quoted = re.findall(r"\b0\.\d+", prose)
    assert quoted == ["0.5", "0.519", "0.271", "0.273"]
    for text, value in zip(quoted, [printed[0], printed[2], printed[4], printed[5]]):
        assert float(text) == round(value, len(text) - 2)
