"""The benchmark's child process, run on a tiny generated instance.

``bench/child.py`` is the process ``bench/run.py`` times. It calls the
package the way the benchmark needs: ``load_dataset`` and ``grid_search``
for a protocol round, ``build_A1_star``, ``rsi_diag_2(hg, a1_star=)``,
``degrees(hg).node_degrees``, ``hutchinson_diag`` and
``random_walk_return_prob`` for a diagnostics round, and the traced layers
beneath them. Each test writes a ``bench/gen.py`` instance of 120 nodes
and runs one child on it, with one BLAS thread, as ``bench/run.py`` does, so
a change to any of those calls fails here and not first in the benchmark.
The instance's edge and label files must also load through the loaders'
byte routes, so a change that sends the benchmark's inputs back to the text
parsers fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from zen import hypergraph, load_hypergraph, load_labels

BENCH = Path(__file__).resolve().parents[1] / "bench"
ONE_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _workdir(tmp_path, monkeypatch, protocol: bool) -> Path:
    """A tiny planted instance and its params.json, written as bench/run.py
    writes them: 3 classes of 40 nodes, 24 features (protocol only)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import gen
    import workloads

    inst = workloads.Instance(nodes=120, class_sizes=(40, 40, 40), edges=60, max_size=5,
                              features=24, active_per_node=3.0, p_topic=0.5)
    data = gen.generate(inst, seed=0, with_features=protocol)
    gen.write(data, str(tmp_path))
    touched = sorted({v for e in data.edges for v in e})
    params = {} if protocol else {"est_seed": 0, "walk_starts": touched[:2],
                                  "checked_nodes": touched[:10]}
    (tmp_path / "params.json").write_text(json.dumps(params))
    return tmp_path


def _child(workdir: Path, mode: str, seeds: str | None = None) -> dict:
    out = workdir / f"{mode}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(workdir), str(out)]
    proc = subprocess.run(cmd + ([seeds] if seeds else []), env=src_env(**ONE_THREAD),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["attempted"] > 0 and report["failed"] == 0, proc.stderr
    return report


@pytest.mark.parametrize("mode", ["round", "trace"])
def test_protocol_child_searches_two_seeds(tmp_path, monkeypatch, mode):
    report = _child(_workdir(tmp_path, monkeypatch, protocol=True), mode, "0,1")
    result = json.loads(Path(report["outputs"]["result_path"]).read_text())
    assert [s["seed"] for s in result["per_seed"]] == [0, 1]
    assert sorted(report["splits"]) == ["0", "1"]
    if mode == "trace":
        names = {span["name"] for span in report["spans"]}
        assert {"harness.grid_search", "propagation.build_A1_star"} <= names


@pytest.mark.parametrize("mode", ["round", "trace"])
def test_diagnostics_child_walks_from_two_starts(tmp_path, monkeypatch, mode):
    report = _child(_workdir(tmp_path, monkeypatch, protocol=False), mode)
    outputs = report["outputs"]
    assert len(outputs["rsi1"]) == len(outputs["rsi2"]) == len(outputs["hutchinson"]) == 120
    assert len(outputs["walks"]) == 2 and None not in outputs["walks"]
    if mode == "trace":
        names = {span["name"] for span in report["spans"]}
        assert {"propagation.build_A1_star", "rsi_approx.random_walk_return_prob"} <= names


def test_generated_edges_and_labels_take_the_byte_routes(tmp_path, monkeypatch):
    workdir = _workdir(tmp_path, monkeypatch, protocol=True)

    def refuse(*args, **kwargs):
        raise AssertionError("text route taken")

    monkeypatch.setattr(hypergraph, "_decoded", refuse)   # both text routes decode first
    monkeypatch.setattr(hypergraph, "parse_hypergraph", refuse)
    hg = load_hypergraph(workdir / "edges.hg")
    labels = load_labels(workdir / "labels.csv", hg.num_nodes)
    assert (hg.num_nodes, labels.num_classes) == (120, 3)
