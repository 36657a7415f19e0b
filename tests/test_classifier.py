"""Embedding, weight solvers, and the idealized-geometry analysis."""

import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from zen import (
    ConfigError,
    DivergenceError,
    GuardError,
    LabelSet,
    SplitError,
    Hypergraph,
    build_A1_star,
)
from zen import classifier
from zen.classifier import (
    SpectralComponents,
    Split,
    TrainingParams,
    exact_weights,
    make_assumption_data,
    normalize_rows,
    tcs_error_bound,
    tcs_weights,
    train_weights_gd,
)
from zen.harness import _test_accuracy

from conftest import edgeless_run, gd_reference


def toy_problem(n=40, d=6, c=3, train=30, seed=1):
    """Well-conditioned dense rows with every class in the training set."""
    rng = np.random.default_rng(seed)
    Z = normalize_rows(rng.random((n, d)) + 0.1)
    labels = LabelSet(labels=np.arange(n, dtype=np.int64) % c, num_classes=c)
    train_mask = np.zeros(n, bool)
    train_mask[:train] = True
    split = Split(train_mask, np.zeros(n, bool), ~train_mask)
    return Z, split, labels


class TestNormalization:
    def test_rows_become_unit(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(7, 4))
        N = normalize_rows(M)
        npt.assert_allclose(np.linalg.norm(N, axis=1), 1.0, atol=1e-12)

    def test_zero_rows_preserved(self):
        M = np.array([[3.0, 4.0], [0.0, 0.0]])
        N = normalize_rows(M)
        npt.assert_allclose(N, [[0.6, 0.8], [0.0, 0.0]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        once = normalize_rows(M)
        npt.assert_allclose(normalize_rows(once), once, atol=1e-14)


class TestEmbedding:
    def test_triangle_one_hop_mixes_neighbors(self, triangle_hg):
        Z = normalize_rows(build_A1_star(triangle_hg) @ np.eye(3))
        s = 1.0 / np.sqrt(2.0)
        npt.assert_allclose(Z, [[0, s, s], [s, 0, s], [s, s, 0]], atol=1e-15)

    def test_isolated_node_row_is_zero(self, singleton_hg):
        Z = normalize_rows(build_A1_star(singleton_hg) @ np.ones((2, 3)))
        npt.assert_allclose(Z, np.zeros((2, 3)), atol=0)


class TestSplit:
    def test_overlap_rejected(self):
        m = np.array([True, False, False])
        with pytest.raises(SplitError, match="overlap"):
            Split(m, m, np.zeros(3, bool))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SplitError, match="length"):
            Split(np.zeros(3, bool), np.zeros(4, bool), np.zeros(3, bool))

    def test_num_nodes(self):
        s = Split(np.zeros(5, bool), np.zeros(5, bool), np.ones(5, bool))
        assert s.num_nodes == 5


class TestPrediction:
    """A test node's class is the argmax of its row of Z W (Z the X block of
    an edgeless hypergraph's run, scored by ``harness._test_accuracy``);
    each truth below is right only under the rule tested."""

    @staticmethod
    def accuracy(Z, truth):
        n, c = len(Z), int(max(truth)) + 1
        split = Split(np.zeros(n, bool), np.zeros(n, bool), np.ones(n, bool))
        run = edgeless_run(Z, LabelSet(labels=np.array(truth), num_classes=c))
        return _test_accuracy(run, (1.0, 0.0, 0.0), np.eye(c), split)

    def test_ties_take_lower_class(self):
        Z = np.array([[1.0, 1.0, 0.5], [0.0, 2.0, 2.0], [0.0, 0.0, 3.0]])
        assert self.accuracy(Z, [0, 1, 2]) == 1.0

    def test_zero_rows_warn(self, caplog):
        Z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with caplog.at_level("WARNING", logger="zen.classifier"):
            assert self.accuracy(Z, [0, 0, 1]) == 1.0
        assert "1 zero embedding row(s)" in caplog.text


class TestClosedFormWeights:
    def test_columns_are_unit(self):
        Z, split, labels = toy_problem()
        W = tcs_weights(Z, split, labels)
        assert W.shape == (6, 3)
        npt.assert_allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-12)

    def test_nonnegative_for_nonnegative_embeddings(self):
        Z, split, labels = toy_problem()
        assert (tcs_weights(Z, split, labels) >= 0).all()

    def test_one_shot_points_at_the_training_row(self):
        rng = np.random.default_rng(5)
        Z = normalize_rows(rng.random((6, 4)))
        labels = LabelSet(labels=np.array([0, 1, 2, 0, 1, 2]), num_classes=3)
        train = np.array([True, True, True, False, False, False])
        split = Split(train, np.zeros(6, bool), ~train)
        W = tcs_weights(Z, split, labels)
        npt.assert_allclose(W, Z[:3].T, atol=1e-12)

    def test_scale_invariant(self):
        Z, split, labels = toy_problem()
        npt.assert_allclose(
            tcs_weights(Z, split, labels), tcs_weights(7.5 * Z, split, labels), atol=1e-12
        )

    def test_missing_training_class_rejected(self):
        Z, split, labels = toy_problem()
        train = np.zeros(40, bool)
        train[0] = True  # only class 0
        bad = Split(train, np.zeros(40, bool), np.zeros(40, bool))
        with pytest.raises(SplitError, match="no training node"):
            tcs_weights(Z, bad, labels)

    def test_size_mismatch_rejected(self):
        Z, split, labels = toy_problem()
        with pytest.raises(SplitError, match="inconsistent"):
            tcs_weights(Z[:10], split, labels)


class TestExactWeights:
    def test_residual_is_orthogonal_to_columns(self):
        Z, split, labels = toy_problem()
        W = exact_weights(Z, split, labels)
        Zt, Yt = Z[split.train_mask], labels.one_hot()[split.train_mask]
        npt.assert_allclose(Zt.T @ (Zt @ W - Yt), np.zeros_like(W), atol=1e-10)

    def test_interpolates_when_possible(self):
        # more features than training rows: residual must vanish
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(10, 20))
        labels = LabelSet(labels=np.arange(10, dtype=np.int64) % 2, num_classes=2)
        train = np.zeros(10, bool)
        train[:6] = True
        split = Split(train, np.zeros(10, bool), ~train)
        W = exact_weights(Z, split, labels)
        assert np.sum((Z[train] @ W - labels.one_hot()[train]) ** 2) < 1e-20

    def test_minimum_norm_on_rank_deficient_systems(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(12, 3))
        Z = np.hstack([base, base])  # exactly collinear duplicate columns
        labels = LabelSet(labels=np.arange(12, dtype=np.int64) % 3, num_classes=3)
        train = np.zeros(12, bool)
        train[:9] = True
        split = Split(train, np.zeros(12, bool), ~train)
        W = exact_weights(Z, split, labels)
        Y = labels.one_hot()[train]
        ref, *_ = np.linalg.lstsq(Z[train], Y, rcond=1e-10)
        npt.assert_allclose(W, ref, atol=1e-10)

    def test_guard(self, monkeypatch):
        Z, split, labels = toy_problem()
        monkeypatch.setattr(classifier, "EXACT_GUARD", 5)
        with pytest.raises(GuardError, match=r"\(5\)"):
            exact_weights(Z, split, labels)
        monkeypatch.setattr(classifier, "EXACT_GUARD", 6)
        exact_weights(Z, split, labels)


class TestGradientDescent:
    def test_converges_to_exact_solution(self):
        Z, split, labels = toy_problem()
        We = exact_weights(Z, split, labels)
        Wg = train_weights_gd(Z, split, labels, TrainingParams(epochs=4000))
        npt.assert_allclose(Wg, We, atol=1e-10)

    def test_default_budget_is_close(self):
        Z, split, labels = toy_problem()
        We = exact_weights(Z, split, labels)
        Wg = train_weights_gd(Z, split, labels)
        npt.assert_allclose(Wg, We, atol=1e-3)

    def test_deterministic(self):
        Z, split, labels = toy_problem()
        a = train_weights_gd(Z, split, labels, TrainingParams(epochs=50))
        b = train_weights_gd(Z, split, labels, TrainingParams(epochs=50))
        npt.assert_array_equal(a, b)

    def test_divergence_detected(self):
        Z, split, labels = toy_problem()
        with pytest.raises(DivergenceError, match="step size"):
            train_weights_gd(Z, split, labels, TrainingParams(lr=50.0, epochs=200))

    def test_params_validation(self):
        for lr in (0.0, -1.0, float("nan"), float("inf"), True, "0.1"):
            with pytest.raises(ConfigError, match="lr must be positive and finite"):
                TrainingParams(lr=lr)
        with pytest.raises(ConfigError):
            TrainingParams(epochs=0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 4), t=st.integers(4, 30),
           d=st.integers(1, 30), signed=st.booleans(), epochs=st.integers(1, 500),
           overshoot=st.floats(2.0, 20.0))
    @example(seed=1, c=3, t=20, d=3, signed=False, epochs=500, overshoot=2.0)
    @example(seed=2, c=2, t=5, d=25, signed=True, epochs=500, overshoot=20.0)
    def test_dual_form_matches_the_primal_reference(self, seed, c, t, d, signed, epochs,
                                                    overshoot):
        # t > d leaves the training Gram singular, t < d leaves Z_t wide
        rng = np.random.default_rng(seed)
        n = t + 5
        Z = normalize_rows(rng.normal(size=(n, d)) if signed else rng.random((n, d)))
        labels = LabelSet(np.concatenate([np.arange(c), rng.integers(0, c, n - c)]), c)
        train = np.arange(n) < t
        split = Split(train, ~train, np.zeros(n, bool))
        params = TrainingParams(epochs=epochs)
        W, ref = train_weights_gd(Z, split, labels, params), gd_reference(Z, split, labels, params)
        # rows whose top two reference scores tie to rounding (d = 1 makes
        # exact ties common) may rank either way; with one class, none count
        top2 = np.sort(Z @ ref, axis=1)[:, -2:]
        clear = top2[:, -1] - top2[:, 0] > 1e-9 * np.maximum(1.0, np.abs(top2[:, -1]))
        npt.assert_array_equal(np.argmax(Z @ W, axis=1)[clear],
                               np.argmax(Z @ ref, axis=1)[clear])
        npt.assert_allclose(W, ref, rtol=1e-9, atol=1e-12 * max(1.0, np.abs(ref).max()))
        # With positive rows the top eigenvector of the training Gram is
        # positive, so every class's residual has a part along it, and a step
        # of overshoot / lambda_max grows that part at least 3x an epoch.
        Z = np.abs(Z)
        lam = np.linalg.eigvalsh(Z[train] @ Z[train].T)[-1]
        params = TrainingParams(lr=overshoot / lam, epochs=200)
        with pytest.raises(DivergenceError) as expected:
            gd_reference(Z, split, labels, params)
        with pytest.raises(DivergenceError) as raised:
            train_weights_gd(Z, split, labels, params)
        pattern = r"training diverged at epoch (\d+) \(loss (.*)\); lower the step size"
        (want_epoch, want_loss), = re.findall(pattern, str(expected.value))
        (got_epoch, got_loss), = re.findall(pattern, str(raised.value))
        assert got_epoch == want_epoch
        assert float(got_loss) == pytest.approx(float(want_loss), rel=1e-9)


class TestSpectralComponents:
    def test_projectors_diagonalize_the_gram_matrix(self):
        eps, k, c = 0.2, 4, 3
        comps = SpectralComponents(epsilon=eps, k=k, c=c)
        G = (1 - 2 * eps) * np.kron(np.eye(c), np.ones((k, k))) + eps * (
            np.eye(k * c) + np.ones((k * c, k * c))
        )
        for lam, M in (
            (comps.lambda1, comps.m1()),
            (comps.lambda2, comps.m2()),
            (comps.lambda3, comps.m3()),
        ):
            npt.assert_allclose(G @ M, lam * M, atol=1e-10)

    def test_projectors_partition_identity(self):
        comps = SpectralComponents(epsilon=0.1, k=5, c=2)
        total = comps.m1() + comps.m2() + comps.m3()
        npt.assert_allclose(total, np.eye(10), atol=1e-12)

    def test_projectors_are_idempotent_and_orthogonal(self):
        comps = SpectralComponents(epsilon=0.3, k=3, c=4)
        mats = (comps.m1(), comps.m2(), comps.m3())
        for i, Mi in enumerate(mats):
            npt.assert_allclose(Mi @ Mi, Mi, atol=1e-12)
            for j, Mj in enumerate(mats):
                if i != j:
                    npt.assert_allclose(Mi @ Mj, np.zeros_like(Mi), atol=1e-12)

    def test_multiplicities_via_trace(self):
        comps = SpectralComponents(epsilon=0.1, k=6, c=4)
        assert round(np.trace(comps.m1())) == 6 * 4 - 4
        assert round(np.trace(comps.m2())) == 4 - 1
        assert round(np.trace(comps.m3())) == 1

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("ZEN_DENSE_GUARD", "10")
        comps = SpectralComponents(epsilon=0.1, k=4, c=4)
        with pytest.raises(GuardError):
            comps.m1()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SpectralComponents(epsilon=0.0, k=2, c=2)
        with pytest.raises(ConfigError):
            SpectralComponents(epsilon=0.5, k=2, c=2)
        with pytest.raises(ConfigError):
            SpectralComponents(epsilon=0.1, k=0, c=2)


class TestErrorBound:
    def test_reference_values(self):
        # verified against an independent eigendecomposition before freezing
        assert abs(tcs_error_bound(0.01, 5, 10) - 0.10) < 0.005
        assert abs(tcs_error_bound(0.05, 5, 10) - 0.53) < 0.005
        assert abs(tcs_error_bound(0.10, 5, 10) - 1.14) < 0.005

    def test_matches_eigendecomposition(self):
        eps, k, c = 0.07, 3, 4
        kc = k * c
        G = (1 - 2 * eps) * np.kron(np.eye(c), np.ones((k, k))) + eps * (
            np.eye(kc) + np.ones((kc, kc))
        )
        target = np.linalg.inv(G) @ np.linalg.inv(G)
        approx = np.linalg.inv(G) / eps
        expected = 100.0 * np.linalg.norm(target - approx) / np.linalg.norm(target)
        assert abs(tcs_error_bound(eps, k, c) - expected) < 1e-8

    def test_shrinks_with_epsilon(self):
        assert (
            tcs_error_bound(0.001, 5, 10)
            < tcs_error_bound(0.01, 5, 10)
            < tcs_error_bound(0.1, 5, 10)
        )

    def test_epsilon_range_enforced(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ConfigError):
                tcs_error_bound(bad, 5, 10)

    @pytest.mark.parametrize("eps", [0.001, 0.01, 0.1, 0.25, 0.49])
    def test_closed_form_matches_the_projector_sum(self, eps):
        # the Frobenius norms of the kc x kc projector sums, formed densely
        for k in (1, 2, 5, 13):
            for c in (1, 2, 3, 10):
                comps = SpectralComponents(epsilon=eps, k=k, c=c)
                lams = (comps.lambda1, comps.lambda2, comps.lambda3)
                mats = (comps.m1(), comps.m2(), comps.m3())
                target = sum(M / lam**2 for lam, M in zip(lams, mats))
                gap = sum((1 / lam) * (1 / lam - 1 / eps) * M for lam, M in zip(lams, mats))
                expected = 100.0 * np.linalg.norm(gap) / np.linalg.norm(target)
                assert tcs_error_bound(eps, k, c) == pytest.approx(expected, rel=1e-12)


class TestAssumptionData:
    def test_gram_structure(self):
        Z, labels = make_assumption_data(30, 3, 0.2, seed=1)
        G = Z @ Z.T
        same = labels.labels[:, None] == labels.labels[None, :]
        expected = np.where(same, 0.8, 0.2)
        np.fill_diagonal(expected, 1.0)
        npt.assert_allclose(G, expected, atol=1e-8)

    @pytest.mark.parametrize("n, c, eps, seed", [
        (24, 2, 0.45, 0),
        (50, 7, 0.01, 4),
        (200, 5, 1e-3, 6),
        (9, 9, 0.3, 8),
    ])
    def test_realized_geometry_across_shapes(self, n, c, eps, seed):
        Z, labels = make_assumption_data(n, c, eps, seed=seed)
        G = Z @ Z.T
        same = labels.labels[:, None] == labels.labels[None, :]
        expected = np.where(same, 1.0 - eps, eps)
        np.fill_diagonal(expected, 1.0)
        npt.assert_allclose(G, expected, rtol=0, atol=1e-8)

    def test_balanced_classes(self):
        _, labels = make_assumption_data(30, 3, 0.2, seed=3)
        npt.assert_array_equal(labels.class_counts(), [10, 10, 10])

    def test_deterministic(self):
        Z1, _ = make_assumption_data(10, 2, 0.3, seed=5)
        Z2, _ = make_assumption_data(10, 2, 0.3, seed=5)
        npt.assert_array_equal(Z1, Z2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_assumption_data(10, 2, 0.6)
        with pytest.raises(ConfigError):
            make_assumption_data(2, 5, 0.1)
