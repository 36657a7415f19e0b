"""End-to-end command-line checks driven through ``zen.cli.main``."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from zen import ConfigError, Hypergraph, harness
from zen.cli import main, parse_seeds

from conftest import (
    build_A1_hat, serialize_hypergraph, src_env, two_hop_reference, walk_transition_matrix,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """A small labeled dataset on disk: 30 nodes, 3 named classes, 4 features."""
    root = tmp_path_factory.mktemp("toy")
    rng = np.random.default_rng(42)
    n, c = 30, 3
    labels = np.arange(n) % c
    class_names = ["alpha", "beta", "gamma"]

    edges = []
    for cls in range(c):
        members = np.flatnonzero(labels == cls)
        for i in range(0, len(members) - 2, 2):
            edges.append(tuple(int(v) for v in members[i:i + 3]))
    edges.append((0, 1, 2))  # one cross-class edge
    (root / "edges.hg").write_text(
        serialize_hypergraph(Hypergraph(n, tuple(edges)))
    )

    X = np.zeros((n, 4))
    X[np.arange(n), labels] = 1.0
    X[:, 3] = 1.0
    X += 0.05 * rng.random((n, 4))
    header = "fa,fb,fc,fd"
    rows = [",".join(repr(float(v)) for v in row) for row in X]
    (root / "features.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
    (root / "features_noheader.csv").write_text("\n".join(rows) + "\n")

    (root / "labels.csv").write_text(
        "node_id,label\n"
        + "\n".join(f"{i},{class_names[l]}" for i, l in enumerate(labels))
        + "\n"
    )
    return root


def dataset_args(root, features="features.csv"):
    return [
        "--edges", str(root / "edges.hg"),
        "--features", str(root / features),
        "--labels", str(root / "labels.csv"),
    ]


@pytest.fixture()
def triangle_file(tmp_path):
    p = tmp_path / "triangle.hg"
    p.write_text(serialize_hypergraph(Hypergraph(3, ((0, 1), (1, 2), (0, 2)))))
    return p


class TestParseSeeds:
    def test_forms(self):
        assert parse_seeds("0..3") == [0, 1, 2, 3]
        assert parse_seeds("1,4..6") == [1, 4, 5, 6]
        assert parse_seeds(" 5 , 7 ") == [5, 7]
        assert parse_seeds("3") == [3]

    def test_errors(self):
        for bad in ("x", "", "5..3", "1..b", ","):
            with pytest.raises(ConfigError):
                parse_seeds(bad)


class TestRun:
    def test_table_output(self, toy_files, capsys):
        code = main(["run", *dataset_args(toy_files), "--k", "2",
                     "--seeds", "0..2", "--grid-denominator", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "edges  k=2  variant=full  test " in out
        assert "(3 seeds)" in out

    def test_json_output(self, toy_files, capsys):
        code = main(["run", *dataset_args(toy_files), "--k", "2",
                     "--seeds", "0,5", "--grid-denominator", "2",
                     "--variant", "no_rap", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "no_rap"
        assert payload["seeds"] == [0, 5]
        assert len(payload["per_seed"]) == 2
        assert payload["timing_ms"] is None
        grid_points = {(a / 2, b / 2, (2 - a - b) / 2)
                       for a in range(3) for b in range(3 - a)}
        for record in payload["per_seed"]:
            assert tuple(record["selected_alphas"]) in grid_points
            assert 0.0 <= record["test_acc"] <= 1.0

    def test_out_file_is_deterministic(self, toy_files, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = main(["run", *dataset_args(toy_files), "--k", "2",
                         "--seeds", "0..1", "--grid-denominator", "2",
                         "--out", str(p)])
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        json.loads(paths[0].read_text())

    @pytest.mark.parametrize("norm", ["sym", "row"])
    @pytest.mark.parametrize("variant", ["full", "no_rap", "no_tcs", "no_both",
                                         "linearized_hgnn"])
    def test_json_output_matches_the_golden_file(self, capsys, variant, norm):
        # tests/golden/run_<variant>_<norm>.json holds the bytes of this command
        # on data/toy; a deliberate change to the output regenerates them
        code = main(["run", *dataset_args(ROOT / "data" / "toy"), "--k", "2",
                     "--seeds", "0..4", "--variant", variant, "--norm", norm,
                     "--format", "json"])
        assert code == 0
        golden = ROOT / "tests" / "golden" / f"run_{variant}_{norm}.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    def test_timing_flag(self, toy_files, capsys):
        code = main(["run", *dataset_args(toy_files), "--k", "2", "--seeds", "0",
                     "--grid-denominator", "1", "--format", "json", "--timing"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["timing_ms"]) == {"propagation_ms", "search_ms", "test_ms"}

    def test_row_normalization(self, toy_files, capsys):
        code = main(["run", *dataset_args(toy_files), "--k", "2", "--seeds", "0",
                     "--grid-denominator", "1", "--norm", "row"])
        capsys.readouterr()
        assert code == 0

    def test_descent_variant_flags(self, toy_files, capsys):
        code = main(["run", *dataset_args(toy_files), "--k", "2", "--seeds", "0",
                     "--grid-denominator", "1", "--variant", "no_tcs",
                     "--lr", "0.01", "--epochs", "50"])
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("variant", ["full", "no_rap"])
    @pytest.mark.parametrize("flag, value", [("--lr", "0.01"), ("--epochs", "50"),
                                             ("--epochs", "500")])
    def test_descent_flags_with_closed_form_weights_are_usage_errors(
            self, toy_files, capsys, variant, flag, value):
        code = main(["run", *dataset_args(toy_files), "--k", "2", "--seeds", "0",
                     "--grid-denominator", "1", "--variant", variant, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_a_bad_step_size_is_a_usage_error_naming_the_flag(self, toy_files, capsys,
                                                               value):
        code = main(["run", *dataset_args(toy_files), "--k", "2", "--seeds", "0",
                     "--grid-denominator", "1", "--variant", "no_tcs", f"--lr={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"argument --lr: must be a finite number > 0, got '{value}'" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    def test_epochs_default_to_500(self, toy_files, capsys):
        args = ["run", *dataset_args(toy_files), "--k", "2", "--seeds", "0..1",
                "--grid-denominator", "2", "--variant", "no_both", "--format", "json"]
        outputs = []
        for extra in ([], ["--epochs", "500"], ["--epochs", "3"]):
            assert main([*args, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

    def test_missing_file_exit_code(self, toy_files, capsys):
        code = main(["run", "--edges", str(toy_files / "nope.hg"),
                     "--features", str(toy_files / "features.csv"),
                     "--labels", str(toy_files / "labels.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "nope.hg" in err

    def test_bad_seeds_exit_code(self, toy_files, capsys):
        code = main(["run", *dataset_args(toy_files), "--seeds", "abc"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad seed" in err

    @pytest.mark.parametrize("threads", ["-1", "0"])
    def test_threads_validation(self, toy_files, capsys, threads):
        code = main(["run", *dataset_args(toy_files), "--k", "2", "--seeds", "0",
                     "--grid-denominator", "1", "--threads", threads])
        err = capsys.readouterr().err
        assert code == 2
        assert "--threads" in err

    def test_negative_seed_is_usage_error(self, toy_files, capsys):
        code = main(["run", *dataset_args(toy_files), "--k", "2", "--seeds=-1",
                     "--grid-denominator", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed" in err and "Traceback" not in err

    def test_threads_accepted(self, toy_files, capsys, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        code = main(["run", *dataset_args(toy_files), "--k", "2", "--seeds", "0",
                     "--grid-denominator", "1", "--threads", "2"])
        capsys.readouterr()
        assert code == 0
        import os
        assert os.environ["OMP_NUM_THREADS"] == "2"


BENCH_WORKLOADS = ("cora-protocol", "wide-edges")


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The benchmark's gen-seed-0 ``cora-protocol`` and ``wide-edges`` inputs,
    written by ``bench/gen.py`` once per module: workload name -> directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        import gen
        import workloads
    dirs = {}
    for name in BENCH_WORKLOADS:
        dirs[name] = tmp_path_factory.mktemp(name)
        gen.write(gen.generate(workloads.WORKLOADS[name].instance, seed=0), str(dirs[name]))
    return dirs


@pytest.fixture(scope="module")
def bench_golden():
    """tests/golden/bench_runs.json: "<workload> <variant> <norm>" -> the
    stdout of ``zen run --format json``; it pins every such run and no other."""
    golden = json.loads((ROOT / "tests" / "golden" / "bench_runs.json").read_text())
    assert sorted(golden) == sorted(f"{w} {v} {n}" for w in BENCH_WORKLOADS
                                    for v in harness.VARIANTS for n in ("sym", "row"))
    return golden


@pytest.mark.parametrize("norm", ["sym", "row"])
@pytest.mark.parametrize("variant", harness.VARIANTS)
@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_bench_input_json_matches_the_golden_file(bench_inputs, bench_golden, capsys,
                                                  workload, variant, norm):
    """``zen run --format json`` on the benchmark's inputs, with its k and
    grid and split seeds 0..2, byte for byte; a deliberate change to the
    output regenerates the golden file."""
    code = main(["run", *dataset_args(bench_inputs[workload]), "--k", "5", "--seeds", "0..2",
                 "--variant", variant, "--norm", norm, "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == bench_golden[f"{workload} {variant} {norm}"]


EXPLAIN_INPUTS = (*BENCH_WORKLOADS, "toy")


@pytest.fixture(scope="module")
def explain_digests():
    """tests/golden/explain_digests.json: "<input> <variant> <norm>" -> the
    SHA-256 of ``zen explain``'s csv stdout; it pins every such run and no
    other."""
    golden = json.loads((ROOT / "tests" / "golden" / "explain_digests.json").read_text())
    assert sorted(golden) == sorted(f"{i} {v} {n}" for i in EXPLAIN_INPUTS
                                    for v in ("full", "no_rap") for n in ("sym", "row"))
    return golden


@pytest.mark.parametrize("norm", ["sym", "row"])
@pytest.mark.parametrize("variant", ["full", "no_rap"])
@pytest.mark.parametrize("source", EXPLAIN_INPUTS)
def test_explain_output_matches_the_golden_digest(bench_inputs, explain_digests, capsys,
                                                  source, variant, norm):
    """``zen explain`` on the benchmark's inputs (``--k 5``) and on data/toy
    (``--k 2``), split seed 0, byte for byte: the printed weights keep the
    signs of their zeros. A deliberate change to the output regenerates the
    digests."""
    root, k = (ROOT / "data" / "toy", "2") if source == "toy" else (bench_inputs[source], "5")
    code = main(["explain", *dataset_args(root), "--k", k, "--seed", "0",
                 "--variant", variant, "--norm", norm])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == explain_digests[f"{source} {variant} {norm}"]


# graph -> the nodes it pins; "mixed" has unequal degrees, so its sym and row
# hop matrices differ
RSI_NODES = {"toy": range(5), "mixed": range(4)}
RSI_METHODS = {
    "exact": (range(5), []),
    "hutchinson": (range(5), ["--probes", "64", "--seed", "0"]),
    "walk": (range(1, 5), ["--trials", "2000", "--seed", "0"]),
}


@pytest.fixture(scope="module")
def rsi_digests():
    """tests/golden/rsi_digests.json: "<graph> <node> <method> <hops>" -> the
    SHA-256 of ``zen rsi``'s json stdout; it pins every such run and no other."""
    golden = json.loads((ROOT / "tests" / "golden" / "rsi_digests.json").read_text())
    assert sorted(golden) == sorted(f"{g} {node} {m} {l}" for g, nodes in RSI_NODES.items()
                                    for node in nodes
                                    for m, (hops, _) in RSI_METHODS.items() for l in hops)
    return golden


@pytest.mark.parametrize("method", RSI_METHODS)
@pytest.mark.parametrize("graph", RSI_NODES)
def test_rsi_output_matches_the_golden_digest(tmp_path, rsi_digests, capsys, graph, method):
    """``zen rsi`` on data/toy and on the mixed-degree graph {0,1}, {1,2,3},
    {0,3}, at every node and hop count of the grid, byte for byte."""
    if graph == "toy":
        edges = ROOT / "data" / "toy" / "edges.hg"
    else:
        edges = tmp_path / "mixed.hg"
        edges.write_text(serialize_hypergraph(Hypergraph(4, ((0, 1), (1, 2, 3), (0, 3)))))
    hops, flags = RSI_METHODS[method]
    got, want = {}, {}
    for node in RSI_NODES[graph]:
        for l in hops:
            assert main(["rsi", "--edges", str(edges), "--node", str(node),
                         "--method", method, "--hops", str(l), *flags]) == 0
            key = f"{graph} {node} {method} {l}"
            got[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            want[key] = rsi_digests[key]
    assert got == want


class TestRsi:
    def test_exact_one_hop(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        exact = payload.pop("exact")
        assert exact == pytest.approx(1.0, abs=1e-12)
        assert payload == {
            "node": 0, "l": 1, "method": "exact", "target": "rap-hop",
            "value": 1.0,
        }

    def test_exact_zero_hops(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "1",
                     "--hops", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1.0

    def test_exact_two_hops(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "2",
                     "--hops", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "rap-hop"
        assert payload["value"] == pytest.approx(1.0)
        assert payload["exact"] == pytest.approx(payload["value"])

    def test_exact_long_horizon_uses_walk_matrix(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "0",
                     "--hops", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "walk"
        assert payload["value"] == pytest.approx(payload["exact"])

    def test_walk_estimate(self, tmp_path, capsys):
        p = tmp_path / "edge.hg"
        p.write_text(serialize_hypergraph(Hypergraph(2, ((0, 1),))))
        code = main(["rsi", "--edges", str(p), "--node", "0", "--method", "walk",
                     "--trials", "20000", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "walk"
        assert payload["exact"] == pytest.approx(0.5)
        assert abs(payload["value"] - 0.5) < 0.015

    def test_hutchinson_one_hop(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "0",
                     "--method", "hutchinson", "--probes", "2000", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "rap-hop"
        assert payload["exact"] == pytest.approx(1.0)
        assert abs(payload["value"] - 1.0) < 0.08

    def test_hutchinson_two_hops(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "1",
                     "--hops", "2", "--method", "hutchinson",
                     "--probes", "2000", "--seed", "6"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "rap-hop"
        assert abs(payload["value"] - payload["exact"]) < 0.08

    @pytest.mark.parametrize("hops", ["1", "2", "0", "3"])
    def test_hutchinson_builds_no_hop_matrix(self, tmp_path, capsys, monkeypatch, hops):
        # every estimate applies its hops through the incidence, as
        # propagated_basis does: the one-hop matvec is the rap hop with its
        # diagonal kept, the two-hop one multiplies by d/(d-1) between two
        # hops that each subtract their diagonal, and a walk target applies
        # the plain row hop l times. Every hop matrix the package builds
        # passes through ``compact``. Unequal degrees, so the sym and row
        # forms differ.
        import zen.propagation as propagation
        import zen.rsi_approx as rsi_approx
        hg = Hypergraph(5, ((0, 1), (1, 2, 3), (0, 3), (3, 4)))
        p = tmp_path / "mixed.hg"
        p.write_text(serialize_hypergraph(hg))
        built, matvecs = [], []
        compact, hutchinson_diag = propagation.compact, rsi_approx.hutchinson_diag
        monkeypatch.setattr(propagation, "compact",
                            lambda *a, **kw: built.append(a) or compact(*a, **kw))
        monkeypatch.setattr(rsi_approx, "hutchinson_diag",
                            lambda matvec, *a: matvecs.append(matvec) or hutchinson_diag(matvec, *a))
        code = main(["rsi", "--edges", str(p), "--node", "1",
                     "--hops", hops, "--method", "hutchinson",
                     "--probes", "16", "--seed", "6"])
        capsys.readouterr()
        assert code == 0
        assert built == []
        # and the matvec applies the target's matrix
        want = {"0": np.eye(5),
                "1": build_A1_hat(hg).toarray(),
                "2": two_hop_reference(hg, keep_diagonal=True).toarray(),
                "3": np.linalg.matrix_power(walk_transition_matrix(hg).toarray(), 3)}[hops]
        got = np.column_stack([matvecs[0](e) for e in np.eye(5)])
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_exact_long_horizon_runs_the_oracle_once(self, tmp_path, capsys, monkeypatch):
        # the value of an exact walk target is the oracle's, and so is "exact"
        import zen.rsi_approx as rsi_approx
        p = tmp_path / "mixed.hg"
        p.write_text(serialize_hypergraph(Hypergraph(4, ((0, 1), (1, 2, 3), (0, 3)))))
        calls = []
        real = rsi_approx.dense_diag_oracle
        monkeypatch.setattr(rsi_approx, "dense_diag_oracle",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        code = main(["rsi", "--edges", str(p), "--node", "1", "--hops", "3"])
        assert code == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == (
            '{\n  "node": 1,\n  "l": 3,\n  "method": "exact",\n  "target": "walk",\n'
            '  "value": 0.2945601851851851,\n  "exact": 0.2945601851851851\n}\n'
        )

    def test_hutchinson_long_horizon(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "0",
                     "--hops", "3", "--method", "hutchinson",
                     "--probes", "2000", "--seed", "7"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "walk"
        assert abs(payload["value"] - payload["exact"]) < 0.08

    @pytest.mark.parametrize("method, hops", [("walk", 2), ("exact", 3), ("hutchinson", 3),
                                              ("hutchinson", 0)])
    @pytest.mark.parametrize("norm", ["sym", "row"])
    def test_norm_on_a_walk_target_is_a_usage_error(self, triangle_file, capsys,
                                                    method, hops, norm):
        args = ["rsi", "--edges", str(triangle_file), "--node", "0", "--method", method,
                "--hops", str(hops), "--trials", "100", "--probes", "4"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["target"] == "walk"
        assert main([*args, "--norm", norm]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --norm" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("method, hops", [("exact", 0), ("exact", 1), ("exact", 2),
                                              ("hutchinson", 1), ("hutchinson", 2)])
    def test_rap_hop_targets_default_to_sym(self, tmp_path, capsys, method, hops):
        # rsi1 and rsi2 are the same for both kinds, so a rap-hop target takes
        # no --norm: its oracle is the symmetric one, whose rounding differs
        # from the row one's at node 0 of this graph of unequal degrees
        from zen.propagation import NormalizationKind
        from zen.rsi_approx import dense_diag_oracle
        hg = Hypergraph(4, ((0, 1), (1, 2, 3), (0, 3)))
        p = tmp_path / "mixed.hg"
        p.write_text(serialize_hypergraph(hg))
        args = ["rsi", "--edges", str(p), "--node", "0", "--method", method,
                "--hops", str(hops), "--probes", "8"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "rap-hop"
        sym = dense_diag_oracle(hg, NormalizationKind.SYMMETRIC, hops)[0]
        assert payload["exact"] == sym
        for norm in ("sym", "row"):
            assert main([*args, "--norm", norm]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --norm" in captured.err

    @pytest.mark.parametrize("hops", ["0", "-1"])
    def test_walk_needs_a_positive_hop_count(self, triangle_file, capsys, hops):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "0",
                     "--method", "walk", "--hops", hops, "--trials", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--hops" in captured.err and "Traceback" not in captured.err

    def test_table_format(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "0",
                     "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 1.0" in out

    def test_node_out_of_range(self, triangle_file, capsys):
        code = main(["rsi", "--edges", str(triangle_file), "--node", "9"])
        assert code == 2
        assert "outside" in capsys.readouterr().err

    def test_isolated_node_walk_is_a_computation_error(self, tmp_path, capsys):
        p = tmp_path / "singleton.hg"
        p.write_text(serialize_hypergraph(Hypergraph(2, ((0,),))))
        code = main(["rsi", "--edges", str(p), "--node", "1", "--method", "walk"])
        assert code == 1
        assert "no incident hyperedge" in capsys.readouterr().err


# each case: the command line, with {edges} standing for the edge file and
# {dir} for a directory, and a run or explain given the three toy files; a
# toy file to replace with bytes; and the exit code
_INPUT_ERRORS = {
    "edges-directory": (["rsi", "--edges", "{dir}", "--node", "0"], None, 2),
    "out-directory": (["run", "--out", "{dir}"], None, 2),
    "explain-out-directory": (["explain", "--out", "{dir}"], None, 2),
    "edges-not-utf8": (["run"], ("edges.hg", b"0 1\n1 2\xff\n"), 2),
    "features-not-utf8": (["run"], ("features.csv", b"fa,fb\n1,\xe9\n"), 2),
    "labels-not-utf8": (["run"], ("labels.csv", b"0,a\n1,\xff\n"), 2),
    "feature-rows": (["run"], ("features.csv", b"1,0\n" * 31), 2),
    "nodes-rsi": (["rsi", "--edges", "{edges}", "--node", "0"],
                  ("edges.hg", b"%nodes 1000000000000000\n0 1\n"), 1),
    "nodes-run": (["run"], ("edges.hg", b"%nodes 1000000000000000\n0 1\n"), 1),
}


class TestInputErrors:
    """Every input that cannot be read ends in one ``error:`` line, in a
    child process, so an uncaught exception would show as a traceback."""

    @pytest.mark.parametrize("case", list(_INPUT_ERRORS))
    def test_one_error_line_and_no_traceback(self, toy_files, tmp_path, case):
        argv, replace, code = _INPUT_ERRORS[case]
        for name in ("edges.hg", "features.csv", "labels.csv"):
            (tmp_path / name).write_bytes((toy_files / name).read_bytes())
        if replace is not None:
            (tmp_path / replace[0]).write_bytes(replace[1])
        if argv[0] != "rsi":
            argv = [*argv, *dataset_args(tmp_path), "--k", "2"]
        if argv[0] == "run":
            argv = [*argv, "--seeds", "0"]
        names = {"edges": tmp_path / "edges.hg", "dir": tmp_path}
        proc = subprocess.run(
            [sys.executable, "-m", "zen.cli", *(a.format(**names) for a in argv)],
            capture_output=True, text=True, env=src_env(),
        )
        lines = proc.stderr.splitlines()
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert [ln for ln in lines if ln.startswith("error:")] == lines[-1:]

    @pytest.mark.parametrize("command", ["run", "explain"])
    def test_out_directory_fails_before_any_input_is_read(self, toy_files, tmp_path,
                                                          monkeypatch, capsys, command):
        def refuse(*args, **kwargs):
            raise AssertionError("dataset loaded")

        monkeypatch.setattr(harness, "load_dataset", refuse)
        code = main([command, "--out", str(tmp_path), *dataset_args(toy_files), "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 21]")

    @pytest.mark.parametrize("command", ["run", "explain"])
    def test_out_may_name_an_input(self, toy_files, tmp_path, capsys, command):
        # every input is read whole before the result replaces the file
        for name in ("edges.hg", "features.csv", "labels.csv"):
            (tmp_path / name).write_bytes((toy_files / name).read_bytes())
        argv = [command, *dataset_args(tmp_path), "--k", "2"]
        if command == "run":
            argv += ["--seeds", "0", "--format", "json"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert main([*argv, "--out", str(tmp_path / "features.csv")]) == 0
        assert (tmp_path / "features.csv").read_text() == expected

    @pytest.mark.parametrize("command", ["run", "explain"])
    def test_failed_run_leaves_out_as_it_was(self, toy_files, tmp_path, capsys, command):
        for name in ("edges.hg", "features.csv"):
            (tmp_path / name).write_bytes((toy_files / name).read_bytes())
        (tmp_path / "labels.csv").write_bytes(b"0,a\n1,\xff\n")
        out = tmp_path / "result"
        out.write_text("an earlier result\n")
        code = main([command, *dataset_args(tmp_path), "--k", "2", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert out.read_text() == "an earlier result\n"


class TestExplain:
    def test_csv_report(self, toy_files, capsys):
        code = main(["explain", *dataset_args(toy_files), "--k", "2",
                     "--grid-denominator", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "feature,alpha,beta,gamma"
        assert len(lines) == 5  # header + one row per feature
        assert lines[1].startswith("fa,")

    def test_generic_names_without_header(self, toy_files, capsys):
        code = main(["explain", *dataset_args(toy_files, "features_noheader.csv"),
                     "--k", "2", "--grid-denominator", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1].startswith("f0,")

    def test_json_report_to_file(self, toy_files, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code = main(["explain", *dataset_args(toy_files), "--k", "2",
                     "--grid-denominator", "2", "--format", "json",
                     "--out", str(dest)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["classes"] == ["alpha", "beta", "gamma"]
        assert len(payload["values"]) == 4
        assert len(payload["ranks"]) == 4

    def test_negative_seed_is_usage_error(self, toy_files, capsys):
        code = main(["explain", *dataset_args(toy_files), "--k", "2",
                     "--grid-denominator", "2", "--seed=-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed" in err and "Traceback" not in err

    def test_ablated_variant(self, toy_files, capsys):
        code = main(["explain", *dataset_args(toy_files), "--k", "2",
                     "--grid-denominator", "2", "--variant", "no_rap"])
        capsys.readouterr()
        assert code == 0


class TestErrbound:
    def test_table_value(self, capsys):
        code = main(["errbound", "--epsilon", "0.1", "--k", "5", "--c", "10"])
        assert code == 0
        assert capsys.readouterr().out == "1.14%\n"

    def test_json_value(self, capsys):
        code = main(["errbound", "--epsilon", "0.1", "--k", "5", "--c", "10",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relative_error_percent"] == pytest.approx(1.1417, abs=1e-3)

    def test_bad_epsilon(self, capsys):
        code = main(["errbound", "--epsilon", "0.6", "--k", "5", "--c", "10"])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_many_shots_and_classes(self, capsys):
        # k c = 10 000 is past the dense guard; the bound needs no projector
        code = main(["errbound", "--epsilon", "0.1", "--k", "100", "--c", "100",
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        payload = json.loads(captured.out)
        assert payload["relative_error_percent"] == pytest.approx(0.0125, abs=5e-5)


class TestCountFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--k", "0"), ("run", "--k", "two"), ("run", "--grid-denominator", "0"),
        ("run", "--epochs", "0"), ("run", "--threads", "-1"), ("explain", "--k", "0"),
        ("explain", "--grid-denominator", "0"), ("explain", "--seed", "-1"),
        ("explain", "--seed", "abc"), ("rsi", "--probes", "0"),
        ("rsi", "--trials", "0"), ("rsi", "--seed", "-1"), ("rsi", "--hops", "-1"),
        ("errbound", "--k", "0"), ("errbound", "--c", "-2"),
    ])
    def test_a_bad_count_is_a_usage_error_naming_the_flag(
            self, toy_files, triangle_file, capsys, command, flag, value):
        required = {
            "run": dataset_args(toy_files),
            "explain": dataset_args(toy_files),
            "rsi": ["--edges", str(triangle_file), "--node", "0"],
            "errbound": ["--epsilon", "0.1", "--k", "5", "--c", "10"],
        }[command]
        code = main([command, *required, f"{flag}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"argument {flag}: must be an integer >=" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["run", "--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_choice_is_usage_error(self, toy_files, capsys):
        code = main(["run", *dataset_args(toy_files), "--variant", "bogus"])
        capsys.readouterr()
        assert code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zen.cli", "errbound",
             "--epsilon", "0.05", "--k", "5", "--c", "10"],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "0.53%\n"

    def test_import_leaves_numpy_unloaded(self):
        # --threads sets the BLAS variables in main(); they only take effect
        # if numpy has not been imported by then
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, zen.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
