"""Dataset assembly, k-shot splits, grid search, and report serialization."""

import contextlib
import json
import os
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from zen import (
    ConfigError,
    DatasetError,
    Dataset,
    DivergenceError,
    Hypergraph,
    LabelSet,
    NormalizationKind,
    PropagationConfig,
    SplitError,
    TrainingParams,
    explain_weights,
    grid_search,
    load_dataset,
    make_kshot_split,
    propagated_basis,
    run_config,
    simplex_grid,
)
from zen import harness, propagation, sparsetools
from zen.classifier import (
    Split,
    normalize_rows,
    tcs_weights,
    train_weights_gd,
)
from zen.harness import (
    VARIANTS,
    SeedResult,
    RunResult,
    _mixed_embedding,
    _Run,
    _select_config,
    _test_accuracy,
)

from conftest import (
    StoredBlocks,
    adversarial_hypergraphs,
    edgeless_run,
    non_canonical_csr,
    peak_bytes,
    select_reference,
    serialize_hypergraph,
    whole_matrix_test_scoring,
)


def masked_accuracy(hard_labels: np.ndarray, mask: np.ndarray, labels: LabelSet) -> float:
    """Fraction of the masked nodes whose label in ``hard_labels`` is right."""
    return float(np.mean(hard_labels[mask] == labels.labels[mask]))


def descent_only(variant: str, training: TrainingParams) -> TrainingParams | None:
    """``training`` for a descent variant; None for a closed-form one, which refuses it."""
    return training if harness._VARIANTS[variant].descent else None


def one_hot_features(labels: np.ndarray, c: int) -> np.ndarray:
    X = np.zeros((labels.size, c))
    X[np.arange(labels.size), labels] = 1.0
    return X


def cross_pair_dataset() -> Dataset:
    """12 nodes, 2 balanced classes, each edge pairs a node with the other class.

    One hop swaps the class signal exactly (a consistent permutation, so the
    closed-form classifier still separates it); two hops vanish because every
    degree is 1.
    """
    labels = np.array([0] * 6 + [1] * 6, dtype=np.int64)
    edges = tuple((i, i + 6) for i in range(6))
    return Dataset(
        name="crosspair",
        hypergraph=Hypergraph(12, edges),
        features=one_hot_features(labels, 2),
        labels=LabelSet(labels=labels, num_classes=2),
    )


def singleton_graph_dataset() -> Dataset:
    """Separable features on a hypergraph whose edges carry no information.

    Every edge is a singleton, so all diagonal-free hop matrices are
    structurally zero: any mixture without identity weight embeds every node
    at the origin and scores 0.5 on the balanced classes.
    """
    labels = np.array([0] * 6 + [1] * 6, dtype=np.int64)
    edges = tuple((i,) for i in range(12))
    return Dataset(
        name="singletons",
        hypergraph=Hypergraph(12, edges),
        features=one_hot_features(labels, 2),
        labels=LabelSet(labels=labels, num_classes=2),
    )


def noisy_dataset(seed=0, n=24, c=3, d=5) -> Dataset:
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % c
    X = rng.random((n, d)) + 0.2 * one_hot_features(labels, c) @ rng.random((c, d))
    edges = tuple(
        tuple(sorted(rng.choice(n, size=3, replace=False))) for _ in range(20)
    )
    return Dataset(
        name="noisy",
        hypergraph=Hypergraph(n, edges),
        features=X,
        labels=LabelSet(labels=labels, num_classes=c),
    )


def isolated_nodes_dataset(seed=0, n=24, c=3, d=5, isolated=6) -> Dataset:
    """noisy_dataset with its last ``isolated`` nodes in no edge, so every
    mixture without identity weight embeds them at the origin."""
    ds = noisy_dataset(seed, n, c, d)
    rng = np.random.default_rng(seed + 1)
    edges = tuple(
        tuple(sorted(rng.choice(n - isolated, size=3, replace=False))) for _ in range(20)
    )
    return Dataset(name="isolated", hypergraph=Hypergraph(n, edges),
                   features=ds.features, labels=ds.labels)


def zero_rows_dataset(isolated=6) -> Dataset:
    """isolated_nodes_dataset whose isolated nodes also have all-zero
    features, so every mixture embeds them at the origin."""
    ds = isolated_nodes_dataset(isolated=isolated)
    X = ds.features.copy()
    X[-isolated:] = 0.0
    return Dataset(name="zero-rows", hypergraph=ds.hypergraph, features=X, labels=ds.labels)


def rows_per_block(ds, rows):
    """Patch the slice budget so test scoring takes ``rows`` rows at a time."""
    return mock.patch.object(sparsetools, "_BLOCK_BYTES", 8 * ds.num_features * rows)


# 90 nodes in 3 classes on edges of 2-5 members; the last 6 nodes are isolated
TWIN_GRAPH = Hypergraph(90, tuple(
    tuple(sorted(np.random.default_rng(e).choice(84, size=2 + e % 4, replace=False).tolist()))
    for e in range(70)))
TWIN_LABELS = LabelSet(labels=np.arange(90, dtype=np.int64) % 3, num_classes=3)


def signed_zero_features(density, d=200):
    """90 x d features with a fraction ``density`` of nonzeros, a class
    signal in the first three columns, and -0.0 at a few of the zeros."""
    rng = np.random.default_rng(90)
    X = np.where(rng.random((90, d)) < density, rng.standard_normal((90, d)), 0.0)
    X[np.arange(90), TWIN_LABELS.labels] += 1.0
    X[(rng.random((90, d)) < 0.004) & (X == 0)] = -0.0
    return X


class TestDataset:
    def test_properties(self):
        ds = cross_pair_dataset()
        assert ds.num_nodes == 12
        assert ds.num_features == 2

    def test_feature_shape_checked(self):
        labels = LabelSet(labels=np.zeros(3, dtype=np.int64), num_classes=1)
        with pytest.raises(DatasetError, match="features"):
            Dataset("bad", Hypergraph(3, ((0, 1),)), np.ones((4, 2)), labels)

    # the check goes a row slice at a time; one-row slices put the bad value
    # in a later slice than the first
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slice_rows", [1, None])
    def test_non_finite_features_rejected(self, bad, slice_rows):
        labels = LabelSet(labels=np.zeros(3, dtype=np.int64), num_classes=1)
        X = np.ones((3, 2))
        X[2, 1] = bad
        budget = 16 * slice_rows if slice_rows else sparsetools._BLOCK_BYTES
        with mock.patch.object(sparsetools, "_BLOCK_BYTES", budget), \
                pytest.raises(DatasetError, match="features contain NaN or infinity"):
            Dataset("bad", Hypergraph(3, ((0, 1),)), X, labels)

    def test_label_count_checked(self):
        labels = LabelSet(labels=np.zeros(2, dtype=np.int64), num_classes=1)
        with pytest.raises(DatasetError, match="labels"):
            Dataset("bad", Hypergraph(3, ((0, 1),)), np.ones((3, 2)), labels)

    def test_feature_names_checked(self):
        labels = LabelSet(labels=np.zeros(3, dtype=np.int64), num_classes=1)
        with pytest.raises(DatasetError, match="names"):
            Dataset(
                "bad", Hypergraph(3, ((0, 1),)), np.ones((3, 2)), labels,
                feature_names=("only_one",),
            )

    # 1% nonzero X is stored as CSR whichever form it comes in; 30% nonzero
    # X stays dense when given dense and CSR when given CSR, so the two
    # datasets then take different propagation routes
    @pytest.mark.parametrize("density", [0.01, 0.3])
    def test_a_csr_and_a_dense_x_give_the_same_bytes(self, density):
        X = signed_zero_features(density)
        dense, csr = (Dataset("twins", TWIN_GRAPH, F, TWIN_LABELS) for F in (X, sp.csr_matrix(X)))
        assert sp.issparse(dense._features) == (density < 0.1)
        assert sp.issparse(csr._features)
        for ds in (dense, csr):
            assert isinstance(ds.features, np.ndarray)
            npt.assert_array_equal(ds.features, X)
        assert (dense.features is X) == (density > 0.1)
        grid, training = simplex_grid(3), TrainingParams(epochs=40)
        for variant in VARIANTS:
            got, want = (grid_search(ds, grid, k=3, seeds=[0, 1], variant=variant,
                                     training=descent_only(variant, training)).to_json()
                         for ds in (csr, dense))
            assert got == want, variant

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_csr_features_rejected(self, bad):
        X = sp.csr_matrix(np.eye(3, 2))
        X.data[-1] = bad
        labels = LabelSet(labels=np.zeros(3, dtype=np.int64), num_classes=1)
        with pytest.raises(DatasetError, match="features contain NaN or infinity"):
            Dataset("bad", Hypergraph(3, ((0, 1),)), X, labels)

    # unsorted indices, duplicates and stored -0.0: X is stored summed, as
    # its dense twin would be, and is not changed itself
    def test_a_non_canonical_csr_is_stored_as_its_summed_twin(self):
        X, twin = non_canonical_csr(TWIN_GRAPH.num_nodes, 200, seed=4)
        kept = X.indices.copy()
        csr, dense = (Dataset("twins", TWIN_GRAPH, F, TWIN_LABELS) for F in (X, twin))
        npt.assert_array_equal(X.indices, kept)
        assert csr._features.has_canonical_format
        npt.assert_array_equal(csr.features.view(np.int64), twin.view(np.int64))
        for kind in NormalizationKind:
            for variant in ("full", "no_rap"):
                got, want = (_Run.prepare(ds, variant, kind, simplex_grid(9).alphas).rows()
                             for ds in (csr, dense))
                for g, w in zip(got, want):
                    npt.assert_array_equal(g.view(np.int64), w.view(np.int64))

    # the stored CSR keeps X's -0.0 entries, so block 0 keeps their bits
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", list(NormalizationKind))
    def test_stored_x_propagates_like_the_array(self, variant, kind):
        X = signed_zero_features(0.01)
        ds = Dataset("twins", TWIN_GRAPH, X, TWIN_LABELS)
        assert sp.issparse(ds._features)
        assert ds.features.view(np.int64).tolist() == X.view(np.int64).tolist()
        rows = np.random.default_rng(5).permutation(X.shape[0])[:17]
        rap = variant in ("full", "no_tcs")
        # a pinned variant propagates at its own kind, sym
        pinned = NormalizationKind.SYMMETRIC if variant == "linearized_hgnn" else kind
        want = propagated_basis(TWIN_GRAPH, X, pinned, rap, rows)
        got = _Run.prepare(ds, variant, kind, simplex_grid(9).alphas).rows(rows)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            npt.assert_array_equal(g.view(np.int64), w.view(np.int64))

    def test_the_package_never_reads_the_dense_features(self, monkeypatch):
        def refuse(self, obj, owner=None):
            if obj is None:
                raise AttributeError("features")
            raise AssertionError("Dataset.features read")

        ds = Dataset("twins", TWIN_GRAPH, signed_zero_features(0.01), TWIN_LABELS)
        monkeypatch.setattr(harness._Features, "__get__", refuse)
        split = make_kshot_split(ds.labels, 3, 0)
        for variant in VARIANTS:
            training = descent_only(variant, TrainingParams(epochs=5))
            run_config(ds, PropagationConfig((0.2, 0.5, 0.3)), split, variant, training)
            grid_search(ds, simplex_grid(2), k=3, seeds=[0], variant=variant,
                        training=training)
        assert ds.num_features == 200

    def test_load_dataset_roundtrip(self, tmp_path):
        ds = cross_pair_dataset()
        edges = tmp_path / "pairs.hg"
        edges.write_text(serialize_hypergraph(ds.hypergraph))
        feats = tmp_path / "features.csv"
        feats.write_text(
            "fa,fb\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in ds.features)
            + "\n"
        )
        labs = tmp_path / "labels.csv"
        labs.write_text(
            "node_id,label\n"
            + "\n".join(f"{i},{l}" for i, l in enumerate(ds.labels.labels))
            + "\n"
        )
        loaded = load_dataset(edges, feats, labs)
        assert loaded.name == "pairs"
        assert loaded.hypergraph == ds.hypergraph
        npt.assert_array_equal(loaded.features, ds.features)
        npt.assert_array_equal(loaded.labels.labels, ds.labels.labels)
        assert loaded.feature_names == ("fa", "fb")
        named = load_dataset(edges, feats, labs, name="custom")
        assert named.name == "custom"

    def test_load_dataset_row_mismatch(self, tmp_path):
        edges = tmp_path / "e.hg"
        edges.write_text("%nodes 3\n0 1\n")
        feats = tmp_path / "f.csv"
        feats.write_text("1.0,2.0\n3.0,4.0\n")
        labs = tmp_path / "l.csv"
        labs.write_text("node_id,label\n0,a\n1,a\n2,b\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(edges, feats, labs)
        assert str(info.value) == f"{feats}: features have shape (2, 2), expected (3, num_features)"


class TestSimplexGrid:
    def test_vertices_at_denominator_one(self):
        g = simplex_grid(1)
        assert g.alphas == ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))

    def test_default_size_and_order(self):
        g = simplex_grid(9)
        assert len(g) == 55
        assert g.denominator == 9
        assert g.alphas[0] == (0.0, 0.0, 1.0)
        assert g.alphas[-1] == (1.0, 0.0, 0.0)
        assert len(set(g.alphas)) == 55

    def test_counts_follow_triangle_numbers(self):
        for q in range(1, 13):
            assert len(simplex_grid(q)) == (q + 1) * (q + 2) // 2

    def test_all_points_on_the_simplex(self):
        for alphas in simplex_grid(7):
            assert all(a >= 0 for a in alphas)
            assert abs(sum(alphas) - 1.0) < 1e-12
            PropagationConfig(alphas)  # accepted by the validator

    def test_validation(self):
        for bad in (0, -3, 2.5):
            with pytest.raises(ConfigError):
                simplex_grid(bad)


class TestKShotSplit:
    def test_counts_per_class(self):
        labels = LabelSet(labels=np.arange(60, dtype=np.int64) % 3, num_classes=3)
        split = make_kshot_split(labels, 5, seed=0)
        assert split.train_mask.sum() == 15
        assert split.val_mask.sum() == 15
        assert split.test_mask.sum() == 30
        for cls in range(3):
            members = labels.labels == cls
            assert (split.train_mask & members).sum() == 5
            assert (split.val_mask & members).sum() == 5

    def test_deterministic_per_seed(self):
        labels = LabelSet(labels=np.arange(40, dtype=np.int64) % 2, num_classes=2)
        a = make_kshot_split(labels, 3, seed=11)
        b = make_kshot_split(labels, 3, seed=11)
        npt.assert_array_equal(a.train_mask, b.train_mask)
        npt.assert_array_equal(a.val_mask, b.val_mask)
        c = make_kshot_split(labels, 3, seed=12)
        assert not np.array_equal(a.train_mask, c.train_mask)

    def test_too_small_class_is_named(self):
        labels = LabelSet(
            labels=np.array([0, 0, 0, 0, 1], dtype=np.int64), num_classes=2
        )
        with pytest.raises(SplitError, match="class 1"):
            make_kshot_split(labels, 2, seed=0)

    def test_empty_test_warns(self):
        labels = LabelSet(labels=np.arange(4, dtype=np.int64) % 2, num_classes=2)
        with pytest.warns(UserWarning, match="test mask is empty"):
            split = make_kshot_split(labels, 1, seed=0)
        assert split.test_mask.sum() == 0

    def test_battery_disjoint_and_counted(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            c = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            n = int(rng.integers(2 * k * c + 1, 2 * k * c + 40))
            raw = np.concatenate(
                [np.repeat(np.arange(c), 2 * k), rng.integers(0, c, n - 2 * k * c)]
            ).astype(np.int64)
            labels = LabelSet(labels=rng.permutation(raw), num_classes=c)
            seed = int(rng.integers(0, 10_000))
            split = make_kshot_split(labels, k, seed)
            again = make_kshot_split(labels, k, seed)
            npt.assert_array_equal(split.train_mask, again.train_mask)
            npt.assert_array_equal(split.val_mask, again.val_mask)
            assert split.train_mask.sum() == k * c
            assert split.val_mask.sum() == k * c
            assert not (split.train_mask & split.val_mask).any()

    def test_k_validation(self):
        labels = LabelSet(labels=np.zeros(4, dtype=np.int64), num_classes=1)
        with pytest.raises(ConfigError):
            make_kshot_split(labels, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128, 2.5, True, "3"],
                             ids=["negative", "2**128", "2.5", "True", "str"])
    def test_seed_outside_the_generator_key_range(self, seed):
        labels = LabelSet(labels=np.arange(8, dtype=np.int64) % 2, num_classes=2)
        with pytest.raises(ConfigError, match="seed"):
            make_kshot_split(labels, 1, seed=seed)
        make_kshot_split(labels, 1, seed=2**128 - 1)


class TestEvaluateAccuracy:
    # test scoring of a one-hot basis with identity weights predicts the hot class
    def test_extremes_and_fractions(self):
        labels = LabelSet(labels=np.array([0, 1, 0, 1], dtype=np.int64), num_classes=2)
        split = Split(np.zeros(4, bool), np.zeros(4, bool), np.ones(4, bool))
        for predicted, expected in ((labels.labels, 1.0), (1 - labels.labels, 0.0),
                                    (np.array([0, 1, 1, 0]), 0.5)):
            run = edgeless_run(one_hot_features(predicted, 2), labels)
            assert _test_accuracy(run, (1.0, 0.0, 0.0), np.eye(2), split) == expected

    def test_empty_mask_rejected(self):
        labels = LabelSet(labels=np.array([0, 1]), num_classes=2)
        split = Split(np.array([True, False]), np.array([False, True]), np.zeros(2, bool))
        with pytest.raises(SplitError, match="empty"):
            _test_accuracy(edgeless_run(np.eye(2), labels), (1.0, 0.0, 0.0), np.eye(2), split)


class TestRunConfig:
    def test_identity_weight_classifies_separable_data(self):
        ds = cross_pair_dataset()
        split = make_kshot_split(ds.labels, 2, seed=0)
        val, test = run_config(ds, PropagationConfig((1.0, 0.0, 0.0)), split)
        assert val == 1.0 and test == 1.0

    def test_consistent_swap_stays_learnable(self):
        # one hop replaces every feature row with its partner's, but the
        # class prototypes are learned from equally swapped training rows,
        # so accuracy is unharmed
        ds = cross_pair_dataset()
        split = make_kshot_split(ds.labels, 2, seed=0)
        val, test = run_config(ds, PropagationConfig((0.0, 1.0, 0.0)), split)
        assert val == 1.0 and test == 1.0

    def test_collapsed_propagation_loses_the_signal(self):
        ds = singleton_graph_dataset()
        split = make_kshot_split(ds.labels, 2, seed=0)
        val, test = run_config(ds, PropagationConfig((0.0, 0.5, 0.5)), split)
        assert val == 0.5 and test == 0.5

    def test_ablation_keeps_self_loops(self):
        # plain normalization averages each node with its partner, collapsing
        # every row to the same mixture, while the diagonal-free route keeps
        # the (learnable) swap
        ds = cross_pair_dataset()
        split = make_kshot_split(ds.labels, 2, seed=0)
        cfg = PropagationConfig((0.0, 1.0, 0.0))
        assert run_config(ds, cfg, split) == (1.0, 1.0)
        assert run_config(ds, cfg, split, variant="no_rap") == (0.5, 0.5)

    def test_descent_variant_matches_on_easy_data(self):
        ds = cross_pair_dataset()
        split = make_kshot_split(ds.labels, 2, seed=0)
        cfg = PropagationConfig((1.0, 0.0, 0.0))
        val, test = run_config(ds, cfg, split, variant="no_tcs")
        assert val == 1.0 and test == 1.0

    def test_fixed_propagation_variant_ignores_alphas(self):
        ds = noisy_dataset()
        split = make_kshot_split(ds.labels, 2, seed=1)
        a = run_config(ds, PropagationConfig((1.0, 0.0, 0.0)), split, variant="linearized_hgnn")
        b = run_config(ds, PropagationConfig((0.0, 0.0, 1.0)), split, variant="linearized_hgnn")
        assert a == b
        assert a == run_config(ds, PropagationConfig((0.0, 0.0, 1.0)), split, variant="no_both")

    def test_unknown_variant_rejected(self):
        ds = noisy_dataset()
        split = make_kshot_split(ds.labels, 2, seed=1)
        with pytest.raises(ConfigError, match="variant"):
            run_config(ds, PropagationConfig((1.0, 0.0, 0.0)), split, variant="fancy")

    def test_split_of_another_size_rejected(self):
        ds = cross_pair_dataset()
        for n in (11, 13):
            split = Split(np.arange(n) < 2, np.arange(n) == 6, np.arange(n) > 6)
            with pytest.raises(SplitError, match=f"split has {n} nodes, the dataset 12"):
                run_config(ds, PropagationConfig((1.0, 0.0, 0.0)), split)

    # class 2 in validation only, then in neither training nor validation
    @pytest.mark.parametrize("val", [[2, 3, 6, 8], [2, 3, 6, 7]])
    def test_class_with_no_training_node_rejected(self, val):
        labels = np.repeat(np.arange(3), 4)
        ds = Dataset("three", Hypergraph(12, ((0, 4, 8), (1, 5, 9))),
                     one_hot_features(labels, 3), LabelSet(labels, 3))
        nodes = np.arange(12)
        split = Split(np.isin(nodes, [0, 1, 4, 5]), np.isin(nodes, val),
                      ~np.isin(nodes, [0, 1, 4, 5, *val]))
        with pytest.raises(SplitError, match=r"classes with no training node: \[2\]"):
            run_config(ds, PropagationConfig((1.0, 0.0, 0.0)), split)


class TestGridSearch:
    # one class: each test row has a single score, whose size to zero is the
    # gap its rounding bound is weighed against
    @pytest.mark.parametrize("variant", ["full", "no_tcs"])
    def test_one_class_dataset_scores_every_test_row(self, variant):
        rng = np.random.default_rng(1)
        ds = Dataset("one", Hypergraph(10, ((0, 1, 2), (2, 3), (4, 5, 6, 7))),
                     rng.random((10, 4)) + 0.1, LabelSet(np.zeros(10, dtype=np.int64), 1))
        result = grid_search(ds, simplex_grid(2), k=2, seeds=[0, 1], variant=variant,
                             training=descent_only(variant, TrainingParams(epochs=20)))
        assert result.mean_test == 1.0

    def test_dominating_config_wins_with_earliest_tie_break(self):
        ds = singleton_graph_dataset()
        result = grid_search(ds, simplex_grid(9), k=2, seeds=[0])
        # every grid point with any identity weight scores 1.0 on validation
        # and the rest score 0.5; the earliest perfect point in enumeration
        # order is (1/9, 0, 8/9)
        assert result.per_seed[0].selected_alphas == (1 / 9, 0.0, 8 / 9)
        assert result.per_seed[0].val_acc == 1.0
        assert result.per_seed[0].test_acc == 1.0

    def test_single_point_grid(self):
        ds = noisy_dataset()
        grid = simplex_grid(1)
        from zen.harness import SimplexGrid
        only = SimplexGrid(alphas=(grid.alphas[1],), denominator=1)
        result = grid_search(ds, only, k=2, seeds=[3])
        assert result.per_seed[0].selected_alphas == grid.alphas[1]

    def test_selection_is_reproducible_bit_for_bit(self):
        ds = noisy_dataset()
        result = grid_search(ds, simplex_grid(4), k=2, seeds=[0, 1, 2])
        for r in result.per_seed:
            split = make_kshot_split(ds.labels, 2, r.seed)
            val, test = run_config(ds, PropagationConfig(r.selected_alphas), split)
            assert val == r.val_acc
            assert test == r.test_acc

    def test_std_conventions(self):
        ds = cross_pair_dataset()
        single = grid_search(ds, simplex_grid(2), k=2, seeds=[5])
        assert single.std_test == 0.0
        multi = grid_search(ds, simplex_grid(2), k=2, seeds=[5, 6, 7])
        tests = [r.test_acc for r in multi.per_seed]
        assert multi.mean_test == pytest.approx(np.mean(tests))
        assert multi.std_test == pytest.approx(np.std(tests, ddof=1))

    def test_timing_is_recorded(self):
        ds = cross_pair_dataset()
        result = grid_search(ds, simplex_grid(1), k=2, seeds=[0])
        assert set(result.timing_ms) == {"propagation_ms", "search_ms", "test_ms"}
        assert all(v >= 0 for v in result.timing_ms.values())

    def test_phases_add_up_to_the_wall_time(self):
        # the phases are timed back to back; only the argument checks and
        # the aggregation after the last seed fall outside them
        ds = noisy_dataset()
        t0 = time.perf_counter()
        result = grid_search(ds, simplex_grid(9), k=2, seeds=range(6))
        wall = (time.perf_counter() - t0) * 1e3
        assert 0.5 * wall <= sum(result.timing_ms.values()) <= wall

    def test_empty_seeds_rejected(self):
        ds = cross_pair_dataset()
        with pytest.raises(ConfigError, match="nonempty"):
            grid_search(ds, simplex_grid(2), k=2, seeds=[])

    @pytest.mark.parametrize("k, seeds", [(2, (0, 1, -1)), (2, (0, 2**128)), (0, (0,)),
                                          (2, (0, 0.9)), (2, (True,))],
                             ids=["negative-seed", "seed-2**128", "k-0", "seed-0.9",
                                  "seed-True"])
    def test_split_arguments_are_checked_before_propagation(self, monkeypatch, k, seeds):
        calls = []
        monkeypatch.setattr(harness._Run, "prepare", lambda *a: calls.append(a))
        with pytest.raises(ConfigError, match="seed" if k else "k must"):
            grid_search(cross_pair_dataset(), simplex_grid(2), k=k, seeds=seeds)
        assert calls == []

    def test_gd_variants_accept_training_params(self):
        ds = cross_pair_dataset()
        result = grid_search(
            ds, simplex_grid(1), k=2, seeds=[0], variant="no_both",
            training=TrainingParams(epochs=50),
        )
        assert 0.0 <= result.mean_test <= 1.0

    @pytest.mark.parametrize("variant", ["full", "no_rap"])
    @pytest.mark.parametrize("entry", ["grid_search", "run_config"])
    def test_closed_form_variants_refuse_training_params(self, entry, variant):
        # descent parameters for closed-form weights are refused, not dropped
        ds, training = cross_pair_dataset(), TrainingParams(lr=0.1)
        with pytest.raises(ConfigError, match=f"{variant} has closed-form weights"):
            if entry == "grid_search":
                grid_search(ds, simplex_grid(1), k=2, seeds=[0], variant=variant,
                            training=training)
            else:
                run_config(ds, PropagationConfig((1.0, 0.0, 0.0)),
                           make_kshot_split(ds.labels, 2, 0), variant, training)

    def test_single_block_variant_is_evaluated_once_per_seed(self, monkeypatch):
        # linearized_hgnn is pinned at (0, 0, 1), the grid's first point, and
        # a single configuration is scored once, with no Gram screen, mixing
        # only its one block with a nonzero alpha
        calls = []
        real = harness._eval_config

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(harness, "_eval_config", counting)
        ds = noisy_dataset()
        grid = simplex_grid(9)
        training = TrainingParams(epochs=20)
        result = grid_search(ds, grid, k=2, seeds=[0, 1, 2],
                             variant="linearized_hgnn", training=training)
        assert calls == [(1.0,)] * 3
        for r in result.per_seed:
            assert r.selected_alphas == grid.alphas[0]
            split = make_kshot_split(ds.labels, 2, r.seed)
            assert (r.val_acc, r.test_acc) == run_config(
                ds, PropagationConfig(grid.alphas[0]), split,
                variant="linearized_hgnn", training=training)

    @pytest.mark.parametrize("variant", ["full", "linearized_hgnn"])
    def test_every_seed_is_selected_before_any_winner_is_scored(self, monkeypatch, variant):
        # the search runs in phases over all seeds, which batching the
        # seeds' screens relies on; each seed's result is the one that
        # selecting and scoring it alone gives
        ds, grid, seeds = noisy_dataset(), simplex_grid(4), (0, 1, 2, 3)
        # a pinned variant searches its one configuration, on the same blocks
        run = _Run.prepare(ds, variant, NormalizationKind.SYMMETRIC, grid.alphas)
        expected = []
        for seed in seeds:
            split = make_kshot_split(ds.labels, 2, seed)
            idx, val_acc, W = _select_config(run, split)
            test_acc = _test_accuracy(run, run.alphas[idx], W, split)
            expected.append(SeedResult(seed, run.alphas[idx], val_acc, test_acc))
        events = []

        def selecting(*args):
            winner = _select_config(*args)
            events.append("selected")
            return winner

        def scoring(*args):
            events.append("scoring")
            return _test_accuracy(*args)

        monkeypatch.setattr(harness, "_select_config", selecting)
        monkeypatch.setattr(harness, "_test_accuracy", scoring)
        result = grid_search(ds, grid, k=2, seeds=seeds, variant=variant)
        assert events == ["selected"] * 4 + ["scoring"] * 4
        assert result.per_seed == tuple(expected)

    def test_zero_row_warning_at_most_once_per_seed(self, caplog):
        # one record per seed, carrying the count of zero rows the
        # whole-matrix mix has among the test rows: the structurally zero
        # ones and those the row route scores, summed over its row blocks
        ds = zero_rows_dataset()
        with rows_per_block(ds, 5), caplog.at_level("WARNING", logger="zen.classifier"):
            result = grid_search(ds, simplex_grid(9), k=2, seeds=[0, 1, 2])
        counts = [r.args[0] for r in caplog.records if r.name == "zen.classifier"]
        basis = _Run.prepare(ds, "full", NormalizationKind.SYMMETRIC, simplex_grid(9).alphas).rows()
        expected = []
        for r in result.per_seed:
            rows = np.flatnonzero(make_kshot_split(ds.labels, 2, r.seed).test_mask)
            Z = _mixed_embedding(basis, r.selected_alphas)[rows]
            expected.append(int(np.count_nonzero(~Z.any(axis=1))))
        assert all(expected)
        assert counts == expected


def full_matrix_search(ds, run, k, seeds, variant, training):
    """Reference selection that mixes, normalizes and scores all n rows of
    ``run``'s blocks per alpha triple of the run."""
    basis = run.rows()
    picks = []
    for seed in seeds:
        split = make_kshot_split(ds.labels, k, seed)
        best = (-1, -np.inf, 0.0)
        for idx, (a0, a1, a2) in enumerate(run.alphas):
            Z = normalize_rows(a0 * basis[0] + a1 * basis[1] + a2 * basis[2])
            if harness._VARIANTS[variant].descent:
                W = train_weights_gd(Z, split, ds.labels, training)
            else:
                W = tcs_weights(Z, split, ds.labels)
            hard = np.argmax(Z @ W, axis=1)
            val = masked_accuracy(hard, split.val_mask, ds.labels)
            if val > best[1]:
                best = (idx, val, masked_accuracy(hard, split.test_mask, ds.labels))
        picks.append(best)
    return picks


@st.composite
def degenerate_datasets(draw):
    """Small instances with isolated nodes, duplicate and singleton edges, and
    small-integer features, so zero rows and tied validation scores are common."""
    c = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(5, 8), min_size=c, max_size=c))
    n = sum(sizes)
    labels = np.array(draw(st.permutations(np.repeat(np.arange(c), sizes).tolist())))
    isolated = draw(st.integers(1, 4))
    member = st.integers(0, n - isolated - 1)
    edges = draw(st.lists(st.lists(member, min_size=1, max_size=5), min_size=1, max_size=n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    d = draw(st.integers(1, 4))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n * d, max_size=n * d))
    return Dataset(name="drawn", hypergraph=Hypergraph(n, tuple(map(tuple, edges))),
                   features=np.array(values).reshape(n, d),
                   labels=LabelSet(labels=labels, num_classes=c))


class TestLabeledRowSearch:
    @pytest.mark.parametrize("variant", ["full", "no_rap", "linearized_hgnn"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ds=degenerate_datasets(), denominator=st.integers(1, 4))
    def test_matches_full_matrix_scoring(self, variant, ds, denominator):
        grid = simplex_grid(denominator)
        training = descent_only(variant, TrainingParams(epochs=20))
        result = grid_search(ds, grid, k=2, seeds=[0, 1], variant=variant,
                             training=training)
        # a pinned variant searches its one configuration, at sym
        run = _Run.prepare(ds, variant, NormalizationKind.SYMMETRIC, grid.alphas)
        reference = full_matrix_search(ds, run, 2, [0, 1], variant, training)
        for r, (idx, val, test) in zip(result.per_seed, reference):
            assert r.selected_alphas == run.alphas[idx]
            assert r.val_acc == val
            assert r.test_acc == test

    def test_sparse_labeled_rows_allocate_little(self, cora_shaped):
        # X is 31 MB and 1.3% nonzero, so it takes the sparse route: A X stays
        # CSR and every removed diagonal is subtracted from a CSR product.
        # One split's labeled rows peak at about 0.11-0.13 x X; stacking
        # -diag(rsi_1) columns and a copy of V into each hop took 0.15-0.18
        ds = cora_shaped
        run = _Run.prepare(ds, "full", NormalizationKind.SYMMETRIC, simplex_grid(9).alphas)
        assert sp.issparse(run.features)
        for seed in range(4):
            split = make_kshot_split(ds.labels, 5, seed)
            labeled = np.concatenate([np.flatnonzero(split.train_mask),
                                      np.flatnonzero(split.val_mask)])
            _, peak = peak_bytes(run.rows, labeled)
            assert peak <= 0.14 * ds.features.nbytes, seed


def selection_instance(labels, roles, X, edges):
    """A dataset and a split given node by node: role t, v or x is train,
    validation or test."""
    labels, roles = np.asarray(labels), np.asarray(list(roles))
    X = np.asarray(X, dtype=np.float64).reshape(labels.size, -1)
    ds = Dataset(name="drawn", hypergraph=Hypergraph(labels.size, tuple(map(tuple, edges))),
                 features=X, labels=LabelSet(labels=labels, num_classes=int(labels.max()) + 1))
    return ds, Split(roles == "t", roles == "v", roles == "x")


@st.composite
def selection_instances(draw):
    """Small instances for the Gram-screen differential test.

    The first validation node of class 0 is isolated, so every mixture with
    alpha_0 = 0 embeds it at the origin. Features are small signed integers,
    so mixed rows and class sums can cancel; d may be 1; one draw in five
    has all-zero features. With ``twins`` the only training nodes of classes
    0 and 1 are isolated with equal features, so the two classes get equal
    weights and every validation score ties exactly between them.
    """
    c = draw(st.integers(2, 3))
    twins = draw(st.booleans())
    train = [1 if twins and cls < 2 else draw(st.integers(1, 3)) for cls in range(c)]
    labels, roles = [], ""
    for cls in range(c):
        val = draw(st.integers(1, 3))
        labels += [cls] * (train[cls] + val)
        roles += "t" * train[cls] + "v" * val
    tests = draw(st.lists(st.integers(0, c - 1), max_size=3))
    labels += tests
    roles += "x" * len(tests)
    order = draw(st.permutations(range(len(labels))))
    labels = np.array(labels)[order]
    roles = np.array(list(roles))[order]
    n, d = labels.size, draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0]),
                               min_size=n * d, max_size=n * d))).reshape(n, d)
    if draw(st.integers(0, 4)) == 0:
        X[:] = 0.0
    isolated = [np.flatnonzero((labels == 0) & (roles == "v"))[0]]
    if twins:
        isolated += [np.flatnonzero((labels == cls) & (roles == "t"))[0] for cls in (0, 1)]
        X[isolated[2]] = X[isolated[1]]
    member = st.sampled_from(np.setdiff1d(np.arange(n), isolated).tolist())
    edges = draw(st.lists(st.lists(member, min_size=1, max_size=5), min_size=1, max_size=n))
    return selection_instance(labels, roles, X, edges)


def configs_per_chunk(split, configs):
    """Patch the slice budget so the Gram screen takes ``configs`` grid points
    at a time; ``None`` leaves it alone."""
    if configs is None:
        return contextlib.nullcontext()
    L = int(split.train_mask.sum() + split.val_mask.sum())
    return mock.patch.object(sparsetools, "_BLOCK_BYTES", 8 * L * L * configs)


# d = 1; the only training nodes of the two classes are isolated with equal
# features, and one validation node is isolated
TWINS_D1 = selection_instance([0, 1, 0, 0, 1, 1, 0], "ttvvvvx",
                              [1, 1, 2, 1, 2, 0, 1], [(3, 4), (4, 5, 6), (3, 5)])
# all-zero features: every embedding row is zero and every config ties
ZERO_FEATURES = selection_instance([0, 1, 0, 1, 0, 1], "ttvvvx", np.zeros((6, 2)),
                                   [(0, 1, 2), (3, 4), (1, 5)])
# a single class: every row predicts it, with no second score to tie
ONE_CLASS = selection_instance([0, 0, 0, 0], "tvvx", [[1.0, 2.0], [0.0, 1.0], [2.0, 0.0],
                                                      [1.0, 1.0]], [(0, 1), (1, 2, 3)])


class TestGramSelection:
    @pytest.mark.parametrize("kind", list(NormalizationKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("variant", ["full", "no_rap", "no_tcs", "no_both"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=selection_instances(), denominator=st.integers(1, 9),
           chunk=st.sampled_from([None, 1, 2, 5]), epochs=st.integers(1, 30))
    @example(inst=TWINS_D1, denominator=9, chunk=None, epochs=20)
    @example(inst=TWINS_D1, denominator=3, chunk=2, epochs=5)
    @example(inst=ZERO_FEATURES, denominator=9, chunk=4, epochs=20)
    @example(inst=ONE_CLASS, denominator=4, chunk=3, epochs=10)
    def test_matches_the_per_config_loop(self, variant, kind, inst, denominator, chunk,
                                         epochs):
        ds, split = inst
        grid = simplex_grid(denominator)
        training = descent_only(variant, TrainingParams(epochs=epochs))
        run = _Run.prepare(ds, variant, kind, grid.alphas, training)
        ref_idx, ref_val, ref_W = select_reference(run, split)
        with configs_per_chunk(split, chunk):
            idx, val_acc, W = _select_config(run, split)
        assert (idx, val_acc) == (ref_idx, ref_val)
        npt.assert_array_equal(W.view(np.int64), ref_W.view(np.int64))

    def test_near_tie_is_rescored(self, monkeypatch):
        # Two training rows, e0 (class 0) and e1 (class 1), in every block, so
        # W = I for every config. Validation row v0 (class 0) mixes to
        # (a0 + a1, a0 + a2): an exact tie, which the row route gives class 0,
        # wherever a1 == a2. Row v2 (class 1) mixes to (a1, a0 + a2). Both
        # are right only at (1/9, 4/9, 4/9), one of the tied configs.
        e0, e1, ones = [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]
        labels = LabelSet(labels=np.array([0, 1, 0, 1, 1]), num_classes=2)
        grid = simplex_grid(9)
        run = StoredBlocks((np.array([e0, e1, ones, e1, e1]),
                            np.array([e0, e1, e0, e1, e0]),
                            np.array([e0, e1, e1, e1, e1])), labels, grid.alphas)
        split = Split(np.array([1, 1, 0, 0, 0], bool), np.array([0, 0, 1, 1, 1], bool),
                      np.zeros(5, bool))
        expected = select_reference(run, split)
        calls = []
        real = harness._eval_config

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(harness, "_eval_config", counting)
        idx, val_acc, W = _select_config(run, split)
        tied = [a for a in grid.alphas if a[1] == a[2]]
        assert len(tied) == 5
        assert calls == tied
        assert grid.alphas[idx] == (1 / 9, 4 / 9, 4 / 9)
        assert (idx, val_acc) == expected[:2] and val_acc == 1.0
        npt.assert_array_equal(W.view(np.int64), expected[2].view(np.int64))

    def test_divergence_error_is_the_per_config_loops(self):
        ds = noisy_dataset()
        training = TrainingParams(lr=50.0)
        run = _Run.prepare(ds, "no_tcs", NormalizationKind.SYMMETRIC, simplex_grid(9).alphas,
                           training)
        split = make_kshot_split(ds.labels, 2, 0)
        with pytest.raises(DivergenceError) as expected:
            select_reference(run, split)
        with pytest.raises(DivergenceError) as raised:
            grid_search(ds, simplex_grid(9), k=2, seeds=[0], variant="no_tcs",
                        training=training)
        assert str(raised.value) == str(expected.value)

    def test_divergence_is_raised_before_a_later_winner(self):
        # Training rows e0..e3 in block 0 and nearly parallel rows, one per
        # class, in block 2: the training Gram's top eigenvalue runs from 1
        # at (1, 0, 0) to nearly 4 at (0, 0, 1), so at lr = 0.5 the configs
        # heavy in a2 diverge, the first grid point among them, while the
        # winner converges. The validation rows of block 2 are swapped, so
        # the diverging configs' scores neither tie nor win: only the freeze
        # flags them.
        eye, u0, u1 = np.eye(4), [1.0, 1.0, 1.0, 0.5], [1.0, 1.0, 0.5, 1.0]
        labels = LabelSet(labels=np.array([0, 0, 1, 1, 0, 1]), num_classes=2)
        run = StoredBlocks((np.vstack([eye, eye[0] + eye[1], eye[2] + eye[3]]),
                            np.zeros((6, 4)), np.array([u0, u0, u1, u1, u1, u0])),
                           labels, simplex_grid(9).alphas, TrainingParams(lr=0.5))
        split = Split(np.arange(6) < 4, np.arange(6) >= 4, np.zeros(6, bool))
        with pytest.raises(DivergenceError) as expected:
            select_reference(run, split)
        assert "epoch" in str(expected.value)
        with pytest.raises(DivergenceError) as raised:
            _select_config(run, split)
        assert str(raised.value) == str(expected.value)
        converging = replace(run, alphas=simplex_grid(1).alphas[2:])
        assert _select_config(converging, split)[:2] == (0, 1.0)

    def test_peak_is_the_gram_plus_a_few_slices(self):
        # L = 800 labeled rows: the Gram of the three blocks is (3L)^2 doubles,
        # 46 MB, and one config's K (5.1 MB) is a chunk of its own
        rng = np.random.default_rng(800)
        c, k, d = 4, 100, 8
        labels = LabelSet(labels=np.arange(2 * k * c + 40) % c, num_classes=c)
        run = StoredBlocks(tuple(rng.random((labels.num_nodes, d)) for _ in range(3)), labels,
                           simplex_grid(9).alphas)
        split = make_kshot_split(labels, k, 0)
        L = 2 * k * c
        _, peak = peak_bytes(_select_config, run, split)
        assert peak <= (3 * L) ** 2 * 8 + 3 * sparsetools._BLOCK_BYTES


class TestBlockedTestScoring:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ds=degenerate_datasets(), rows=st.integers(1, 3), seed=st.integers(0, 3))
    def test_matches_whole_matrix_predict(self, ds, rows, seed):
        run = _Run.prepare(ds, "full", NormalizationKind.SYMMETRIC, simplex_grid(2).alphas)
        split = make_kshot_split(ds.labels, 2, seed)
        rows = min(rows, int(split.test_mask.sum()) - 1)  # at least two blocks
        for alphas in run.alphas:
            Z = _mixed_embedding(run.rows(), alphas)
            W = tcs_weights(Z, split, ds.labels)
            whole = masked_accuracy(np.argmax(Z @ W, axis=1), split.test_mask, ds.labels)
            with rows_per_block(ds, rows):
                assert _test_accuracy(run, alphas, W, split) == whole

    def test_allocates_row_blocks_only(self, cora_shaped):
        # X is 31 MB; mixing and normalizing all 2638 test rows at once
        # peaks at about 1.95x X, row blocks of them at about 0.21x, and the
        # scores through X W, n x c blocks, at about 0.04x
        ds = cora_shaped
        grid = simplex_grid(9)
        run = _Run.prepare(ds, "full", NormalizationKind.SYMMETRIC, grid.alphas)
        split = make_kshot_split(ds.labels, 5, 0)
        idx, _, W = _select_config(run, split)
        _, peak = peak_bytes(_test_accuracy, run, grid.alphas[idx], W, split)
        assert peak <= 0.1 * ds.features.nbytes


# Nodes 0 and 1 share only two 2-member edges, so every two-hop walk from
# them returns; 10, 11 and 13 are isolated and 12 is in a singleton edge; 4
# and 11 have zero features. Every feature row is a permutation of
# (0.1, 0.2, 0.3), whose sums tie in exact arithmetic but not in floating
# point.
_TIES_HG = Hypergraph(14, ((0, 1), (0, 1), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 2), (3, 7),
                           (12,), (5, 9), (5, 9)))
_TIES_X = np.array([np.random.default_rng(0).permutation([0.1, 0.2, 0.3]) for _ in range(14)])
_TIES_X[[4, 11]] = 0.0
# class scores x0 + x1 against x2, equal columns (an exact tie on every row),
# two mixes of the same residues, and columns a few ulps apart, whose scores
# differ by about as much as either route's rounding
_TIES_W = (np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
           np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
           np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
           np.array([[0.3, 0.1], [0.0, 0.2], [0.1, 0.0]]),
           np.array([[0.7, 0.7000000000000001], [0.2, 0.19999999999999993],
                     [0.2, 0.19999999999999996]]),
           np.array([[0.7, 0.6999999999999996], [0.7, 0.7], [0.7, 0.7000000000000003]]))


class TestScoringThroughXW:
    # In 182 of the 1008 cases below the argmax of the X W scores alone
    # differs from the whole-matrix route's on some row, in 172 of them with
    # a nonzero gap; the unsure rows' row route must settle them all.
    @pytest.mark.parametrize("kind", list(NormalizationKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("variant", ["full", "no_rap", "linearized_hgnn"])
    def test_ties_and_rounding_residue_match_the_whole_matrix_route(self, variant, kind,
                                                                    caplog):
        labels = LabelSet(np.arange(14) % 2, 2)
        split = Split(np.zeros(14, bool), np.zeros(14, bool), np.ones(14, bool))
        run = _Run.prepare(Dataset("ties", _TIES_HG, _TIES_X, labels), variant, kind,
                           simplex_grid(6).alphas)
        blocks = run.rows()
        for W in _TIES_W:
            for alphas in simplex_grid(6):
                caplog.clear()
                with caplog.at_level("WARNING", logger="zen.classifier"):
                    acc = _test_accuracy(run, alphas, W, split)
                counts = [r.args[0] for r in caplog.records if r.name == "zen.classifier"]
                want, zeros = whole_matrix_test_scoring(blocks, alphas, W, split, labels)
                assert acc == want
                assert counts == ([zeros] if zeros else [])

    # The bound propagates |X| m, m each feature's largest |W| entry, where
    # the per-class bound propagated |X| |W_c| for every class c. Every term
    # of a row's bound is at least the matching term of every class's, in
    # the same order, so rounding keeps it at least each of them
    @settings(max_examples=100, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from(list(NormalizationKind)),
           variant=st.sampled_from(["full", "no_rap", "linearized_hgnn"]),
           sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bound_is_at_least_every_class_bound(self, hg, kind, variant, sparse, seed):
        rng = np.random.default_rng(seed)
        n, d = hg.num_nodes, 4
        X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.6)
        W = rng.normal(size=(d, 3))
        alphas = rng.dirichlet(np.ones(3))
        ds = Dataset("bound", hg, sp.csr_matrix(X) if sparse else X,
                     LabelSet(np.zeros(n, dtype=np.int64), 1))
        run = _Run.prepare(ds, variant, kind, (tuple(alphas),))
        _, bound, _ = run.scores(alphas, W)
        absolute = abs(run.features)
        for c in range(W.shape[1]):
            M = np.column_stack([np.abs(W[:, c]), np.ones(d)])
            blocks = run.propagation.absolute().basis(absolute @ M)
            per_class = sum(a * b for a, b in zip(alphas, blocks) if a)[:, 0]
            assert (bound >= per_class).all()

    @pytest.mark.parametrize("variant", ["full", "no_rap", "no_tcs", "linearized_hgnn"])
    def test_grid_search_allocates_no_basis(self, cora_shaped, variant):
        # X is 31 MB; the whole basis [X, A X, A_2 X] held two more blocks
        # of its size and peaked at 2.2 x X. Scoring through X W propagates
        # n x c blocks, and the labeled rows read a few hundred rows of A X.
        # The dense route (X + 0.5) holds those rows dense, about 0.34-0.40
        # x X; the sparse one (1.3%-nonzero X) keeps A X as CSR and makes
        # only the labeled rows dense, about 0.15-0.22 x X
        for X, bound in ((cora_shaped.features, 0.3), (cora_shaped.features + 0.5, 0.5)):
            ds = Dataset("cora", cora_shaped.hypergraph, X, cora_shaped.labels)
            _, peak = peak_bytes(grid_search, ds, simplex_grid(9), k=5, seeds=[0, 1],
                                 variant=variant)
            assert peak <= bound * X.nbytes


class TestRunResultJson:
    def test_schema_and_key_order(self):
        ds = cross_pair_dataset()
        result = grid_search(ds, simplex_grid(2), k=2, seeds=[0, 1])
        text = result.to_json()
        payload = json.loads(text)
        assert list(payload) == [
            "dataset", "k", "variant", "grid_denominator", "seeds",
            "per_seed", "mean_test", "std_test", "timing_ms",
        ]
        assert payload["timing_ms"] is None
        assert len(payload["per_seed"]) == 2
        assert list(payload["per_seed"][0]) == [
            "seed", "selected_alphas", "val_acc", "test_acc",
        ]
        assert text.endswith("\n")

    def test_timing_included_on_request(self):
        ds = cross_pair_dataset()
        result = grid_search(ds, simplex_grid(1), k=2, seeds=[0])
        payload = json.loads(result.to_json(include_timing=True))
        assert set(payload["timing_ms"]) == {"propagation_ms", "search_ms", "test_ms"}

    def test_identical_runs_serialize_identically(self):
        ds = noisy_dataset()
        a = grid_search(ds, simplex_grid(3), k=2, seeds=[0, 1]).to_json()
        b = grid_search(ds, simplex_grid(3), k=2, seeds=[0, 1]).to_json()
        assert a == b


class TestSelectedWeights:
    def test_matches_the_closed_form_route(self):
        ds = noisy_dataset()
        split = make_kshot_split(ds.labels, 2, seed=4)
        grid = simplex_grid(4)
        run = _Run.prepare(ds, "full", NormalizationKind.SYMMETRIC, grid.alphas)
        idx, val_acc, W = _select_config(run, split)
        Z = _mixed_embedding(run.rows(), grid.alphas[idx])
        npt.assert_array_equal(W, tcs_weights(Z, split, ds.labels))
        # the same winner grid_search reports for that seed
        seed_result = grid_search(ds, grid, k=2, seeds=[4]).per_seed[0]
        assert seed_result.selected_alphas == grid.alphas[idx]
        assert seed_result.val_acc == val_acc

    def test_weight_shape(self):
        ds = noisy_dataset()
        split = make_kshot_split(ds.labels, 2, seed=4)
        run = _Run.prepare(ds, "no_rap", NormalizationKind.SYMMETRIC, simplex_grid(2).alphas)
        _, _, W = _select_config(run, split)
        assert W.shape == (ds.num_features, ds.labels.num_classes)


class TestExplainWeights:
    def test_identity_ranks(self):
        report = explain_weights(np.eye(3))
        npt.assert_array_equal(np.diag(report.ranks), [1, 1, 1])
        assert report.feature_names == ("f0", "f1", "f2")
        assert report.class_names == ("c0", "c1", "c2")

    def test_rank_ties_prefer_lower_class(self):
        report = explain_weights(np.array([[1.0, 1.0, 0.5]]))
        npt.assert_array_equal(report.ranks, [[1, 2, 3]])

    @settings(max_examples=200, deadline=None)
    @given(W=hnp.arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 5)),
                        elements=st.integers(-2, 2).map(float)))
    def test_ranks_follow_each_rows_stable_order(self, W):
        ranks = np.zeros(W.shape, dtype=np.int64)
        for i, row in enumerate(W):
            for rank, j in enumerate(sorted(range(W.shape[1]), key=lambda j: (-row[j], j)), 1):
                ranks[i, j] = rank
        npt.assert_array_equal(explain_weights(W).ranks, ranks)

    def test_names_are_used(self):
        report = explain_weights(
            np.ones((2, 2)), feature_names=["deg", "age"], class_names=["yes", "no"]
        )
        assert report.feature_names == ("deg", "age")
        assert report.class_names == ("yes", "no")

    def test_name_length_checked(self):
        with pytest.raises(DatasetError, match="feature names"):
            explain_weights(np.ones((2, 2)), feature_names=["only"])
        with pytest.raises(DatasetError, match="class names"):
            explain_weights(np.ones((2, 2)), class_names=["only"])

    def test_csv_roundtrip(self):
        import csv

        W = np.array([[0.125, 0.5], [1.0 / 3.0, 0.25]])
        report = explain_weights(W, feature_names=["a", "b"], class_names=["x", "y"])
        rows = list(csv.reader(report.to_csv().splitlines()))
        assert rows[0] == ["feature", "x", "y"]
        back = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        npt.assert_array_equal(back, W)

    def test_json_fields(self):
        report = explain_weights(np.eye(2))
        payload = json.loads(report.to_json())
        assert set(payload) == {"features", "classes", "values", "ranks"}
        assert payload["ranks"] == [[1, 2], [2, 1]]

    def test_non_matrix_rejected(self):
        with pytest.raises(DatasetError, match="2-d"):
            explain_weights(np.ones(4))


@pytest.mark.skipif(
    not os.environ.get("ZEN_DATA_DIR"),
    reason="set ZEN_DATA_DIR to a directory with cora/ to run corpus checks",
)
class TestCorpus:
    def test_cora_few_shot_beats_chance(self):
        root = os.path.join(os.environ["ZEN_DATA_DIR"], "cora")
        ds = load_dataset(
            os.path.join(root, "edges.hg"),
            os.path.join(root, "features.csv"),
            os.path.join(root, "labels.csv"),
        )
        result = grid_search(ds, simplex_grid(3), k=5, seeds=[0, 1])
        assert result.mean_test > 1.5 / ds.labels.num_classes
