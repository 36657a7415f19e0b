"""Walk and probe estimators against exact diagonals.

Statistical assertions use fixed seeds and tolerances of at least three
standard errors, checked against the exact values before freezing.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zen import (
    ConfigError,
    GuardError,
    Hypergraph,
    IsolatedNodeError,
    NormalizationKind,
    degrees,
)
from zen.rsi_approx import (
    HutchinsonParams,
    WalkParams,
    dense_diag_oracle,
    hutchinson_diag,
    random_walk_return_prob,
)
from conftest import (
    adversarial_hypergraphs,
    plain_hop,
    random_hypergraph,
    two_hop_reference,
    walk_return_reference,
    walk_transition_matrix,
)

ROW = NormalizationKind.ROW


class TestTransitionMatrix:
    """The walk matrix W = D_v^{-1} H D_e^{-1} H^T as the package applies it:
    the plain row hop, through H."""

    def test_single_edge(self, single_edge_hg):
        W = plain_hop(single_edge_hg, ROW)
        npt.assert_allclose(W, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_path(self, path_hg):
        W = plain_hop(path_hg, ROW)
        npt.assert_allclose(
            W, [[0.5, 0.5, 0], [0.25, 0.5, 0.25], [0, 0.5, 0.5]], atol=1e-15
        )

    def test_rows_stochastic_unless_isolated(self, singleton_hg):
        W = plain_hop(singleton_hg, ROW)
        npt.assert_allclose(W, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_random_rows_sum_to_one(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            hg = random_hypergraph(rng)
            sums = plain_hop(hg, ROW).sum(axis=1)
            mask = degrees(hg).node_degrees > 0
            npt.assert_allclose(sums[mask], 1.0, atol=1e-12)

    def test_is_the_row_normalized_plain_adjacency(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            hg = random_hypergraph(rng)
            W = plain_hop(hg, ROW)
            A = walk_transition_matrix(hg).toarray()
            npt.assert_array_equal(W != 0, A != 0)
            npt.assert_allclose(W, A, rtol=0, atol=1e-15)


class TestWalkEstimator:
    def test_single_edge_half(self, single_edge_hg):
        p = random_walk_return_prob(single_edge_hg, 0, WalkParams(1, 20_000, 3))
        assert abs(p - 0.5) < 0.012

    def test_single_edge_two_steps(self, single_edge_hg):
        # the transition matrix is idempotent, so longer walks stay at 1/2
        p = random_walk_return_prob(single_edge_hg, 0, WalkParams(2, 20_000, 4))
        assert abs(p - 0.5) < 0.012

    def test_path_two_steps(self, path_hg):
        W = walk_transition_matrix(path_hg).toarray()
        exact = (W @ W)[0, 0]
        assert exact == 0.375
        p = random_walk_return_prob(path_hg, 0, WalkParams(2, 20_000, 11))
        assert abs(p - exact) < 0.012

    def test_three_steps_against_oracle(self, path_hg):
        exact = dense_diag_oracle(path_hg, l=3, family="walk")[1]
        p = random_walk_return_prob(path_hg, 1, WalkParams(3, 20_000, 12))
        assert abs(p - exact) < 0.015

    def test_deterministic_per_seed(self, triangle_hg):
        params = WalkParams(2, 500, 7)
        a = random_walk_return_prob(triangle_hg, 0, params)
        b = random_walk_return_prob(triangle_hg, 0, params)
        assert a == b
        c = random_walk_return_prob(triangle_hg, 0, WalkParams(2, 500, 8))
        assert a != c

    def test_single_trial_is_binary(self, triangle_hg):
        p = random_walk_return_prob(triangle_hg, 0, WalkParams(1, 1, 0))
        assert p in (0.0, 1.0)

    # the kernel's tables, buffers and scalar first step against the loop
    # that held every array anew: the same draws give the same bits
    @settings(max_examples=150, deadline=None)
    @given(hg=adversarial_hypergraphs(), pick=st.integers(0, 2**16),
           length=st.integers(1, 4), trials=st.integers(1, 3000),
           seed=st.integers(0, 2**64 - 1))
    @example(hg=Hypergraph(3, ((0,), (0, 1), (1, 2))), pick=0, length=3, trials=3000,
             seed=0)    # a start in a singleton edge
    @example(hg=Hypergraph(4, ((0, 1), (0, 2), (2, 3), (0, 1))), pick=0, length=4,
             trials=3000, seed=1)    # a start whose edges all have two members
    def test_matches_the_lockstep_reference_bit_for_bit(self, hg, pick, length, trials, seed):
        starts = np.flatnonzero(degrees(hg).node_degrees)
        assume(starts.size)
        node = int(starts[pick % starts.size])
        params = WalkParams(length, trials, seed)
        got = random_walk_return_prob(hg, node, params)
        assert got == walk_return_reference(hg, node, params)

    def test_isolated_start_rejected(self, singleton_hg):
        with pytest.raises(IsolatedNodeError):
            random_walk_return_prob(singleton_hg, 1, WalkParams(1, 10, 0))

    def test_node_out_of_range(self, path_hg):
        with pytest.raises(ConfigError):
            random_walk_return_prob(path_hg, 3, WalkParams(1, 10, 0))
        with pytest.raises(ConfigError):
            random_walk_return_prob(path_hg, -1, WalkParams(1, 10, 0))
        for bad in ("1", None):     # -1, 2.5 and True: test_package_rules
            with pytest.raises(ConfigError, match="node must be a nonnegative integer"):
                random_walk_return_prob(path_hg, bad, WalkParams(1, 10, 0))

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            WalkParams(0, 10)
        with pytest.raises(ConfigError):
            WalkParams(1, 0)
        with pytest.raises(ConfigError):
            WalkParams(1, 10, -1)
        with pytest.raises(ConfigError):
            WalkParams(1.5, 10)


class TestProbeEstimator:
    def test_identity_is_exact(self):
        est = hutchinson_diag(lambda z: z, 5, HutchinsonParams(1, 0))
        npt.assert_allclose(est, np.ones(5), atol=0)

    def test_diagonal_matrix_exact_with_one_probe(self):
        d = np.array([3.0, -1.0, 0.0, 7.5])
        est = hutchinson_diag(lambda z: d * z, 4, HutchinsonParams(1, 42))
        npt.assert_allclose(est, d, atol=0)

    def test_triangle_two_hop_diagonal(self, triangle_hg):
        A2 = two_hop_reference(triangle_hg, keep_diagonal=True)
        est = hutchinson_diag(lambda z: A2 @ z, 3, HutchinsonParams(2000, 5))
        npt.assert_allclose(est, np.ones(3), atol=0.05)

    def test_error_shrinks_with_probes(self, triangle_hg):
        A2 = two_hop_reference(triangle_hg, keep_diagonal=True)
        errs = []
        for m in (4, 1024):
            est = hutchinson_diag(lambda z: A2 @ z, 3, HutchinsonParams(m, 9))
            errs.append(np.abs(est - 1.0).max())
        assert errs[1] < errs[0]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(0)
        A = rng.random((6, 6))
        a = hutchinson_diag(lambda z: A @ z, 6, HutchinsonParams(10, 3))
        b = hutchinson_diag(lambda z: A @ z, 6, HutchinsonParams(10, 3))
        npt.assert_array_equal(a, b)

    def test_matvec_shape_checked(self):
        with pytest.raises(ConfigError, match="shape"):
            hutchinson_diag(lambda z: z[:2], 4, HutchinsonParams(1, 0))

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            HutchinsonParams(0)
        with pytest.raises(ConfigError):
            HutchinsonParams(4, -2)
        with pytest.raises(ConfigError):
            hutchinson_diag(lambda z: z, 0, HutchinsonParams(1, 0))


class TestDenseOracle:
    def test_one_hop_examples(self, path_hg, triangle_hg):
        npt.assert_allclose(dense_diag_oracle(path_hg, l=1), [1, 1, 1], atol=1e-15)
        npt.assert_allclose(dense_diag_oracle(triangle_hg, l=2), [1, 1, 1], atol=1e-15)

    def test_zero_hops_is_identity_diag(self, star_hg):
        npt.assert_allclose(dense_diag_oracle(star_hg, l=0), np.ones(4), atol=0)

    def test_row_kind(self, path_hg):
        got = dense_diag_oracle(path_hg, NormalizationKind.ROW, 2)
        npt.assert_allclose(got, [1, 0, 1], atol=1e-15)

    def test_walk_family_matches_sparse_power(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            hg = random_hypergraph(rng, max_nodes=20)
            W = walk_transition_matrix(hg).toarray()
            for l in (0, 1, 3, 5):
                expected = np.linalg.matrix_power(W, l).diagonal()
                got = dense_diag_oracle(hg, l=l, family="walk")
                npt.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("kind", ["bogus", "row", None])
    def test_bad_kind_rejected_for_the_rap_family(self, path_hg, kind):
        for l in (0, 1, 2):
            with pytest.raises(ConfigError, match="normalization kind"):
                dense_diag_oracle(path_hg, kind, l)

    def test_hop_model_limited_to_two(self, path_hg):
        with pytest.raises(ConfigError, match="two-hop"):
            dense_diag_oracle(path_hg, l=3, family="rap")

    def test_unknown_family(self, path_hg):
        with pytest.raises(ConfigError, match="family"):
            dense_diag_oracle(path_hg, family="exact")

    def test_guard_env_override(self, path_hg, monkeypatch):
        monkeypatch.setenv("ZEN_DENSE_GUARD", "2")
        with pytest.raises(GuardError):
            dense_diag_oracle(path_hg)
        monkeypatch.setenv("ZEN_DENSE_GUARD", "3")
        dense_diag_oracle(path_hg)
