"""Acceptance gate: ten numbered end-to-end checks, one status line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines;
without ``-s`` pytest captures them. Statistical checks use frozen seeds whose
margins were verified against exact values before the tolerances were fixed,
so they are deterministic. Criterion 07 needs benchmark datasets on disk
(``ZEN_DATA_DIR``) and reports SKIPPED when they are absent, with criterion 03
standing in on synthetic data of the same geometry.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from zen import (
    Dataset,
    Hypergraph,
    NormalizationKind,
    PropagationConfig,
)
from zen.classifier import (
    SpectralComponents,
    TrainingParams,
    _descend,
    exact_weights,
    make_assumption_data,
    tcs_error_bound,
    tcs_weights,
)
from zen.cli import main as cli_main
from zen.harness import (
    grid_search,
    load_dataset,
    make_kshot_split,
    run_config,
    simplex_grid,
)
from zen.hypergraph import degrees
from zen.propagation import rsi_diag_1, rsi_diag_2
from zen.rsi_approx import (
    HutchinsonParams,
    WalkParams,
    dense_diag_oracle,
    hutchinson_diag,
    random_walk_return_prob,
)
from conftest import random_hypergraph, serialize_hypergraph, src_env


@contextmanager
def criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num:02d}] PASS - {label} ({elapsed:.1f}s)")


def test_criterion_01_weight_gap_reference_values():
    with criterion(1, "closed-form vs exact weight gap reference values"):
        t0 = time.perf_counter()
        expected = {0.1: 1.14, 0.01: 0.10, 0.001: 0.01}
        for eps, ref in expected.items():
            got = tcs_error_bound(eps, k=5, c=10)
            assert abs(got - ref) <= 0.005, (eps, got, ref)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_self_information_closed_forms():
    with criterion(2, "self-information closed forms match the dense oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        for _ in range(200):
            hg = random_hypergraph(rng)  # n <= 50, edge sizes 1..6
            for kind in (NormalizationKind.SYMMETRIC, NormalizationKind.ROW):
                got1 = rsi_diag_1(hg)
                got2 = rsi_diag_2(hg)
                ref1 = dense_diag_oracle(hg, kind, 1)
                ref2 = dense_diag_oracle(hg, kind, 2)
                assert np.abs(got1 - ref1).max() <= 1e-10
                assert np.abs(got2 - ref2).max() <= 1e-10
        assert time.perf_counter() - t0 < 30.0


def test_criterion_03_closed_form_matches_exact_solver():
    with criterion(3, "closed-form weights match the exact solver's predictions"):
        t0 = time.perf_counter()
        for i in range(20):
            Z, labels = make_assumption_data(500, 5, 1e-3, seed=i)
            split = make_kshot_split(labels, 5, seed=i)
            closed = np.argmax(Z @ tcs_weights(Z, split, labels), axis=1)
            exact = np.argmax(Z @ exact_weights(Z, split, labels), axis=1)
            keep = ~split.train_mask
            agreement = float(np.mean(closed[keep] == exact[keep]))
            assert agreement >= 0.99, (i, agreement)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_04_gradient_matches_finite_differences():
    with criterion(4, "applied descent gradient matches central finite differences"):
        h = 1e-6
        for t in range(20):
            rng = np.random.default_rng(1000 + t)
            n = int(rng.integers(10, 30))
            d = int(rng.integers(2, 8))
            c = int(rng.integers(2, 5))
            Z = rng.normal(size=(n, d))
            lab = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
            Zt = Z[: max(c, n // 2)]
            Yt = np.eye(c)[lab[: Zt.shape[0]]]

            def loss(W):
                R = Zt @ W - Yt
                return float(np.sum(R * R))

            K = (Zt @ Zt.T)[None]
            lr = 0.5 / np.linalg.eigvalsh(K[0])[-1]

            def weights(epochs):
                """W = Z_t^T C after ``epochs`` epochs of the dual descent."""
                C, diverged, _ = _descend(K, Yt, TrainingParams(lr=lr, epochs=epochs))
                assert diverged[0] < 0
                return Zt.T @ C[0]

            # the step from W_e to W_{e+1} is lr times the gradient applied at W_e
            e = int(rng.integers(1, 20))
            W_e = weights(e)
            g = (W_e - weights(e + 1)) / lr
            for i in range(d):
                for j in range(c):
                    Wp = W_e.copy()
                    Wp[i, j] += h
                    Wm = W_e.copy()
                    Wm[i, j] -= h
                    fd = (loss(Wp) - loss(Wm)) / (2 * h)
                    rel = abs(fd - g[i, j]) / max(1.0, abs(g[i, j]))
                    assert rel <= 1e-6, (t, i, j, rel)


def test_criterion_05_estimator_convergence():
    with criterion(5, "stochastic estimators converge at the expected rates"):
        t0 = time.perf_counter()

        # walk estimates inside the 99.7% binomial interval of the exact value
        master = np.random.default_rng(2024)
        for g in range(20):
            hg = random_hypergraph(master, max_nodes=30)
            start = int(np.flatnonzero(degrees(hg).node_degrees > 0)[0])
            for l in (1, 2, 3):
                exact = float(dense_diag_oracle(hg, l=l, family="walk")[start])
                trials = 100_000
                est = random_walk_return_prob(
                    hg, start, WalkParams(l, trials, 1000 * g + l)
                )
                sigma = np.sqrt(exact * (1.0 - exact) / trials)
                assert abs(est - exact) <= 3.0 * sigma + 1e-12, (g, l, est, exact)

        # probe-count error decays with log-log slope -1/2
        B = np.random.default_rng(7).random((40, 40))
        A = 0.5 * (B + B.T)
        true_diag = A.diagonal()
        ms = np.array([8, 32, 128, 512])
        mean_errs = []
        for m in ms:
            errs = []
            for rep in range(40):
                params = HutchinsonParams(int(m), 100_000 * int(m) + rep)
                est = hutchinson_diag(lambda z: A @ z, 40, params)
                errs.append(np.abs(est - true_diag).mean())
            mean_errs.append(np.mean(errs))
        slope = np.polyfit(np.log(ms), np.log(mean_errs), 1)[0]
        assert abs(slope + 0.5) <= 0.1, slope

        # exact on diagonal matrices with a single probe
        dvals = np.random.default_rng(11).normal(size=25)
        est = hutchinson_diag(lambda z: dvals * z, 25, HutchinsonParams(1, 0))
        assert np.array_equal(est, dvals)

        assert time.perf_counter() - t0 < 120.0


def test_criterion_06_projector_algebra():
    with criterion(6, "spectral projectors satisfy their algebra"):
        for k in range(1, 201):
            for c in range(1, 200 // k + 1):
                comps = SpectralComponents(epsilon=0.25, k=k, c=c)
                kc = k * c
                mats = (comps.m1(), comps.m2(), comps.m3())
                partition = mats[0] + mats[1] + mats[2] - np.eye(kc)
                assert np.abs(partition).max() <= 1e-10, (k, c)
                for a in range(3):
                    for b in range(3):
                        P = mats[a] @ mats[b]
                        Q = mats[a] if a == b else 0.0
                        assert np.abs(P - Q).max() <= 1e-10, (k, c, a, b)


def test_criterion_07_benchmark_reproduction():
    data_dir = os.environ.get("ZEN_DATA_DIR")
    if not data_dir:
        print(
            "\n[criterion 07] SKIPPED - benchmark dataset files not supplied "
            "(set ZEN_DATA_DIR to a directory with cora/ and citeseer/); "
            "the synthetic-geometry check of criterion 03 stands in"
        )
        pytest.skip("ZEN_DATA_DIR not set; criterion 03 substitutes")
    references = {"cora": (51.9, 10.1), "citeseer": (49.1, 4.8)}
    with criterion(7, "few-shot benchmark accuracy within one reported spread"):
        for name, (ref_mean, ref_std) in references.items():
            root = os.path.join(data_dir, name)
            ds = load_dataset(
                os.path.join(root, "edges.hg"),
                os.path.join(root, "features.csv"),
                os.path.join(root, "labels.csv"),
                name=name,
            )
            t0 = time.perf_counter()
            result = grid_search(ds, simplex_grid(9), k=5, seeds=range(10))
            elapsed = time.perf_counter() - t0
            mean_pct = 100.0 * result.mean_test
            assert abs(mean_pct - ref_mean) <= ref_std, (name, mean_pct)
            assert elapsed < 300.0, (name, elapsed)


PIPELINE_SCRIPT = """
import time
import numpy as np
from zen import Dataset, Hypergraph, LabelSet, PropagationConfig
from zen.harness import make_kshot_split, run_config

rng = np.random.Generator(np.random.Philox(key=99))
n, d, c, m = 2708, 1433, 7, 1600
edges = []
for _ in range(m):
    size = int(rng.integers(2, 7))
    edges.append(tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False))))
labels = rng.permutation(np.arange(n, dtype=np.int64) % c)
X = rng.random((n, d))

t0 = time.perf_counter()
ds = Dataset(
    name="synthetic",
    hypergraph=Hypergraph(n, tuple(edges)),
    features=X,
    labels=LabelSet(labels=labels, num_classes=c),
)
split = make_kshot_split(ds.labels, 5, seed=0)
val, test = run_config(ds, PropagationConfig((1/3, 1/3, 1/3)), split)
print(f"PIPELINE_SECONDS={time.perf_counter() - t0:.3f}")
"""


def test_criterion_08_pipeline_speed(tmp_path):
    with criterion(8, "full-scale pipeline run in under five seconds, one thread"):
        script = tmp_path / "pipeline_run.py"
        script.write_text(PIPELINE_SCRIPT)
        env = src_env(**dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"))
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        marker = [l for l in proc.stdout.splitlines() if l.startswith("PIPELINE_SECONDS=")]
        assert marker, proc.stdout
        seconds = float(marker[0].partition("=")[2])
        assert seconds < 5.0, seconds


def test_criterion_09_grid_integrity():
    with criterion(9, "mixing grid has exactly 55 unique simplex points"):
        grid = simplex_grid(9)
        assert len(grid) == 55
        assert len(set(grid.alphas)) == 55
        for alphas in grid:
            assert all(a >= 0.0 for a in alphas)
            assert abs(sum(alphas) - 1.0) <= 1e-12
            PropagationConfig(alphas)


def test_criterion_10_run_determinism(tmp_path, capsys):
    with criterion(10, "identical runs produce byte-identical reports"):
        rng = np.random.default_rng(3)
        n, c = 20, 2
        labels = np.arange(n) % c
        edges = tuple(
            tuple(sorted(int(v) for v in rng.choice(n, size=3, replace=False)))
            for _ in range(12)
        )
        (tmp_path / "edges.hg").write_text(
            serialize_hypergraph(Hypergraph(n, edges))
        )
        X = np.zeros((n, 3))
        X[np.arange(n), labels] = 1.0
        X[:, 2] = rng.random(n)
        (tmp_path / "features.csv").write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n"
        )
        (tmp_path / "labels.csv").write_text(
            "node_id,label\n"
            + "\n".join(f"{i},{l}" for i, l in enumerate(labels))
            + "\n"
        )
        flags = [
            "run",
            "--edges", str(tmp_path / "edges.hg"),
            "--features", str(tmp_path / "features.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--k", "2", "--seeds", "0..4", "--grid-denominator", "3",
        ]
        outs = []
        for stem in ("first", "second"):
            dest = tmp_path / f"{stem}.json"
            assert cli_main([*flags, "--out", str(dest)]) == 0
            outs.append(dest.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        json.loads(outs[0])
