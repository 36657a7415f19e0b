"""Hop adjacencies, self-information removal, mixing, and baseline recipes.

Frozen expectations were computed by hand from the degree formulas and are
cross-checked against the dense oracle, which shares no code with the sparse
builders.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from zen import (
    ConfigError,
    BaselineRecipe,
    Dataset,
    LabelSet,
    NormalizationKind,
    PropagationConfig,
    build_A1_hat,
    build_A1_star,
    build_baseline_adjacency,
    degrees,
    Hypergraph,
    incidence_matrix,
    plain_adjacency,
    propagated_basis,
    restart_coefficients,
    rsi_diag_1,
    rsi_diag_2,
)
from zen.harness import _variant_basis
from zen.rsi_approx import dense_diag_oracle
from zen.sparsetools import is_symmetric
from conftest import random_hypergraph, two_hop_reference

SYM = NormalizationKind.SYMMETRIC
ROW = NormalizationKind.ROW
S2 = 1.0 / np.sqrt(2.0)


def two_hop_operator(hg, kind=SYM):
    """A2* as a dense array: the two-hop block of the basis of X = I."""
    return propagated_basis(hg, np.eye(hg.num_nodes), kind)[2]


def two_hop_hat(hg, kind=SYM):
    """A1* diag(d/(d-1)) A1* with its diagonal, from the basis and rsi_2."""
    return two_hop_operator(hg, kind) + np.diag(rsi_diag_2(hg, kind))


def mixed_operator(hg, alphas, variant="full", kind=SYM):
    """alpha0*I + alpha1*A1 + alpha2*A2 as the harness propagates it, densely.

    ``full`` uses the redundancy-removed hops, ``no_rap`` the plain
    normalization with the two-hop term as its square.
    """
    n = hg.num_nodes
    ds = Dataset("op", hg, np.eye(n), LabelSet(np.zeros(n, dtype=np.int64), 1))
    basis = _variant_basis(ds, kind, variant)
    return sum(a * block for a, block in zip(alphas, basis))


@st.composite
def adversarial_hypergraphs(draw):
    """Small instances that mix singletons, duplicate edges, isolated and
    degree-1 nodes, and optionally one edge holding every covered node."""
    n = draw(st.integers(1, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    edges = [tuple(sorted(e)) for e in draw(st.lists(edge, max_size=10))]
    if edges and draw(st.booleans()):
        edges.append(edges[draw(st.integers(0, len(edges) - 1))])
    if draw(st.booleans()):
        edges.append(tuple(range(n)))
    isolated = draw(st.integers(0, 2))
    return Hypergraph(n + isolated, tuple(edges))


# every degenerate case at once: a singleton edge, a duplicated edge, a giant
# edge, degree-1 nodes (5, 6) and isolated nodes (7, 8)
_DEGENERATE = Hypergraph(9, ((0,), (1, 2), (1, 2), (0, 1, 2, 3, 4, 5, 6), (3, 4)))


class TestOneHop:
    def test_path_symmetric(self, path_hg):
        A = build_A1_hat(path_hg, SYM).toarray()
        npt.assert_allclose(A, [[1, S2, 0], [S2, 1, S2], [0, S2, 1]], atol=1e-15)

    def test_path_row(self, path_hg):
        A = build_A1_hat(path_hg, ROW).toarray()
        npt.assert_allclose(A, [[1, 1, 0], [0.5, 1, 0.5], [0, 1, 1]], atol=1e-15)

    def test_triangle_both_kinds_coincide(self, triangle_hg):
        # all degrees equal 2, so the two scalings agree entrywise
        A_sym = build_A1_hat(triangle_hg, SYM).toarray()
        A_row = build_A1_hat(triangle_hg, ROW).toarray()
        expected = 0.5 * np.ones((3, 3)) + 0.5 * np.eye(3)
        npt.assert_allclose(A_sym, expected, atol=1e-15)
        npt.assert_allclose(A_row, expected, atol=1e-15)

    def test_star_clamps_nothing_but_uses_exclusive_weight(self, star_hg):
        A = build_A1_hat(star_hg, SYM).toarray()
        npt.assert_allclose(A, np.full((4, 4), 1.0 / 3.0), atol=1e-15)

    def test_singleton_edge_contributes_nothing(self, singleton_hg):
        assert build_A1_hat(singleton_hg, SYM).nnz == 0

    def test_bad_kind_rejected(self, path_hg):
        with pytest.raises(ConfigError):
            build_A1_hat(path_hg, "sym")


class TestSelfInformation:
    def test_one_hop_examples(self, path_hg, triangle_hg, star_hg):
        npt.assert_allclose(rsi_diag_1(path_hg), [1, 1, 1])
        npt.assert_allclose(rsi_diag_1(triangle_hg), [1, 1, 1])
        npt.assert_allclose(rsi_diag_1(star_hg), [1 / 3] * 4)

    def test_one_hop_kind_independent(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            hg = random_hypergraph(rng)
            npt.assert_allclose(rsi_diag_1(hg, SYM), rsi_diag_1(hg, ROW), atol=1e-15)

    def test_two_hop_path(self, path_hg):
        # only walks through the middle node return: 0 -> 1 -> 0 carries
        # (1/sqrt2) * (2/1) * (1/sqrt2) = 1; the middle node has none
        npt.assert_allclose(rsi_diag_2(path_hg), [1, 0, 1], atol=1e-15)
        npt.assert_allclose(rsi_diag_2(path_hg, ROW), [1, 0, 1], atol=1e-15)

    def test_two_hop_counts_cross_edge_returns(self):
        # nodes 0,1 share two edges; two-hop returns can switch edges, which
        # a per-edge formula would miss: the true value is 1.125, not 0.625
        hg = Hypergraph(3, ((0, 1), (0, 1, 2)))
        npt.assert_allclose(rsi_diag_2(hg), [1.125, 1.125, 0.5], atol=1e-15)

    def test_two_hop_matches_per_edge_form_on_linear_hypergraphs(self):
        # when every node pair shares at most one edge, the two-hop value
        # decomposes per edge: d_i^{-1} sum_e (d_e-1)^{-2} sum_{k in e, k!=i} (d_k-1)^{-1}
        rng = np.random.default_rng(33)
        found = 0
        for _ in range(400):
            if found >= 10:
                break
            hg = random_hypergraph(rng, max_nodes=12)
            pair_counts = {}
            linear = True
            for e in hg.hyperedges:
                for a in range(len(e)):
                    for b in range(a + 1, len(e)):
                        key = (e[a], e[b])
                        pair_counts[key] = pair_counts.get(key, 0) + 1
                        if pair_counts[key] > 1:
                            linear = False
            if not linear:
                continue
            found += 1
            prof = degrees(hg)
            d = prof.node_degrees.astype(float)
            sz = prof.edge_sizes.astype(float)
            expected = np.zeros(hg.num_nodes)
            for j, e in enumerate(hg.hyperedges):
                if sz[j] < 2:
                    continue
                for i in e:
                    inner = sum(1.0 / (d[k] - 1.0) for k in e if k != i and d[k] >= 2)
                    expected[i] += (sz[j] - 1.0) ** -2 * inner
            expected *= np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
            npt.assert_allclose(rsi_diag_2(hg), expected, atol=1e-12)
        assert found >= 3

    def test_closed_forms_match_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            hg = random_hypergraph(rng)
            for kind in (SYM, ROW):
                npt.assert_allclose(
                    rsi_diag_1(hg, kind),
                    dense_diag_oracle(hg, kind, 1),
                    atol=1e-10,
                )
                npt.assert_allclose(
                    rsi_diag_2(hg, kind),
                    dense_diag_oracle(hg, kind, 2),
                    atol=1e-10,
                )


class TestStarredMatrices:
    def test_diagonals_are_structurally_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            hg = random_hypergraph(rng)
            for kind in (SYM, ROW):
                A1 = build_A1_star(hg, kind).tocoo()
                assert not np.any(A1.row == A1.col)
                # the two-hop block subtracts the closed-form diagonal, so
                # only roundoff of the two summation orders is left
                npt.assert_allclose(np.diag(two_hop_operator(hg, kind)), 0.0, atol=1e-12)

    def test_off_diagonal_untouched(self, triangle_hg):
        hat = build_A1_hat(triangle_hg, SYM).toarray()
        star = build_A1_star(triangle_hg, SYM).toarray()
        diff = hat - star
        assert np.allclose(diff, np.diag(np.diag(diff)))
        npt.assert_allclose(star, 0.5 * (np.ones((3, 3)) - np.eye(3)), atol=1e-15)

    def test_two_hop_path_links_endpoints(self, path_hg):
        A2 = two_hop_operator(path_hg)
        npt.assert_allclose(A2, [[0, 0, 1], [0, 0, 0], [1, 0, 0]], atol=1e-15)

    def test_two_hop_hat_examples(self, path_hg, triangle_hg, star_hg):
        npt.assert_allclose(
            two_hop_hat(path_hg), [[1, 0, 1], [0, 0, 0], [1, 0, 1]], atol=1e-15
        )
        npt.assert_allclose(
            two_hop_hat(triangle_hg), 0.5 * (np.ones((3, 3)) + np.eye(3)), atol=1e-15
        )
        # all nodes have degree 1, so the middle factor clamps to zero
        assert not two_hop_hat(star_hg).any()

    def test_hat_minus_star_is_diagonal(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            hg = random_hypergraph(rng, max_nodes=25)
            for kind in (SYM, ROW):
                d1 = (build_A1_hat(hg, kind) - build_A1_star(hg, kind)).tocoo()
                assert np.all(d1.row == d1.col)
                d2 = two_hop_reference(hg, kind, keep_diagonal=True).toarray() \
                    - two_hop_operator(hg, kind)
                npt.assert_allclose(d2 - np.diag(np.diag(d2)), 0.0, atol=1e-12)

    def test_sparse_two_hop_matches_dense_product(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            hg = random_hypergraph(rng, max_nodes=30)
            for kind in (SYM, ROW):
                A1 = build_A1_star(hg, kind).toarray()
                d = degrees(hg).node_degrees.astype(float)
                mid = np.where(d >= 2, d / np.where(d >= 2, d - 1.0, 1.0), 0.0)
                dense = A1 @ (mid[:, None] * A1)
                npt.assert_allclose(two_hop_hat(hg, kind), dense, atol=1e-10)
                npt.assert_allclose(
                    two_hop_reference(hg, kind, keep_diagonal=True).toarray(),
                    dense, atol=1e-10,
                )

    def test_symmetric_kind_yields_symmetric_matrices(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            hg = random_hypergraph(rng)
            assert is_symmetric(build_A1_star(hg, SYM))
            A2 = two_hop_operator(hg, SYM)
            npt.assert_allclose(A2, A2.T, atol=1e-12)


class TestPropagatedBasis:
    @settings(max_examples=150, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]),
           seed=st.integers(0, 2**32 - 1), width=st.integers(1, 5))
    @example(hg=_DEGENERATE, kind=SYM, seed=0, width=3)
    @example(hg=_DEGENERATE, kind=ROW, seed=1, width=3)
    def test_matches_materialized_two_hop_product(self, hg, kind, seed, width):
        X = np.random.default_rng(seed).standard_normal((hg.num_nodes, width))
        basis = propagated_basis(hg, X, kind)
        assert basis[0] is X
        npt.assert_allclose(basis[1], build_A1_star(hg, kind) @ X, rtol=0, atol=1e-12)
        npt.assert_allclose(basis[2], two_hop_reference(hg, kind) @ X, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]))
    @example(hg=_DEGENERATE, kind=SYM)
    @example(hg=_DEGENERATE, kind=ROW)
    def test_closed_form_diagonals_on_adversarial_instances(self, hg, kind):
        diag = build_A1_hat(hg, kind).diagonal()
        npt.assert_allclose(diag, rsi_diag_1(hg, kind), atol=1e-12)
        npt.assert_allclose(diag, dense_diag_oracle(hg, kind, 1), atol=1e-12)
        npt.assert_allclose(rsi_diag_2(hg, kind), dense_diag_oracle(hg, kind, 2), atol=1e-12)


class TestPropagationOperator:
    def test_identity_at_alpha0(self, triangle_hg):
        P = mixed_operator(triangle_hg, (1.0, 0.0, 0.0))
        npt.assert_allclose(P, np.eye(3), atol=1e-15)

    def test_triangle_uniform_mix_is_flat(self, triangle_hg):
        P = mixed_operator(triangle_hg, (1 / 3, 1 / 3, 1 / 3))
        npt.assert_allclose(P, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_symmetric_operator(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            hg = random_hypergraph(rng, max_nodes=25)
            P = mixed_operator(hg, (0.2, 0.5, 0.3))
            npt.assert_allclose(P, P.T, atol=1e-12)

    def test_ablation_keeps_plain_normalization(self, triangle_hg):
        P = mixed_operator(triangle_hg, (0.0, 1.0, 0.0), variant="no_rap")
        npt.assert_allclose(
            P,
            [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
            atol=1e-15,
        )
        full = mixed_operator(triangle_hg, (0.0, 1.0, 0.0))
        assert np.abs(P - full).max() > 0.1

    def test_ablation_two_hop_is_square(self, path_hg):
        base = plain_adjacency(path_hg, SYM).toarray()
        P = mixed_operator(path_hg, (0.0, 0.0, 1.0), variant="no_rap")
        npt.assert_allclose(P, base @ base, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            PropagationConfig((0.5, 0.5, 0.5))
        with pytest.raises(ConfigError, match="nonnegative"):
            PropagationConfig((-0.1, 0.6, 0.5))
        with pytest.raises(ConfigError, match="exactly 3"):
            PropagationConfig((1.0, 0.0))
        with pytest.raises(ConfigError, match="finite"):
            PropagationConfig((np.nan, 0.5, 0.5))
        with pytest.raises(ConfigError):
            PropagationConfig((1.0, 0.0, 0.0), normalization="sym")
        # slight float drift inside the tolerance is accepted
        PropagationConfig((0.1, 0.2, 0.7 + 5e-10))


class TestBaselineRecipes:
    def test_hgnn_triangle(self, triangle_hg):
        A = build_baseline_adjacency(triangle_hg, BaselineRecipe.HGNN, 1).toarray()
        npt.assert_allclose(
            A, [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], atol=1e-15
        )

    def test_power_zero_is_identity(self, triangle_hg):
        P = build_baseline_adjacency(triangle_hg, BaselineRecipe.HGNN, 0)
        npt.assert_allclose(P.toarray(), np.eye(3), atol=1e-15)

    def test_power_two_is_square(self, path_hg):
        A1 = build_baseline_adjacency(path_hg, BaselineRecipe.HGNN, 1).toarray()
        A2 = build_baseline_adjacency(path_hg, BaselineRecipe.HGNN, 2).toarray()
        npt.assert_allclose(A2, A1 @ A1, atol=1e-12)

    def test_alldeepset_rows_are_stochastic(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            hg = random_hypergraph(rng)
            A = build_baseline_adjacency(hg, BaselineRecipe.ALLDEEPSET, 1)
            row_sums = np.asarray(A.sum(axis=1)).ravel()
            non_isolated = degrees(hg).node_degrees > 0
            npt.assert_allclose(row_sums[non_isolated], 1.0, atol=1e-12)
            npt.assert_allclose(row_sums[~non_isolated], 0.0, atol=1e-15)

    def test_edhnn_is_alias(self):
        assert BaselineRecipe.EDHNN is BaselineRecipe.ALLDEEPSET

    def test_unigcnii_mean_degree_normalization(self):
        hg = Hypergraph(3, ((0, 1, 2), (0, 1)))
        A = build_baseline_adjacency(hg, BaselineRecipe.UNIGCNII, 1).toarray()
        npt.assert_allclose(
            A, [[0.55, 0.55, 0.3], [0.55, 0.55, 0.3], [0.6, 0.6, 0.6]], atol=1e-12
        )

    def test_hnhn_defaults_match_alldeepset(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            hg = random_hypergraph(rng, max_nodes=20)
            A = build_baseline_adjacency(hg, BaselineRecipe.HNHN, 1).toarray()
            B = build_baseline_adjacency(hg, BaselineRecipe.ALLDEEPSET, 1).toarray()
            npt.assert_allclose(A, B, atol=1e-12)

    def test_hnhn_exponents_against_dense(self):
        rng = np.random.default_rng(17)
        a_exp, b_exp = -1.5, -0.5
        for _ in range(10):
            hg = random_hypergraph(rng, max_nodes=15)
            Hd = incidence_matrix(hg).toarray()
            prof = degrees(hg)
            d = prof.node_degrees.astype(float)
            sz = prof.edge_sizes.astype(float)
            d_beta = np.where(d > 0, d, 1.0) ** b_exp * (d > 0)
            sz_alpha = sz ** a_exp
            dva = Hd @ sz_alpha
            deb = Hd.T @ d_beta
            inv = lambda v: np.where(v > 0, 1.0 / np.where(v > 0, v, 1.0), 0.0)
            expected = (
                np.diag(inv(dva)) @ Hd @ np.diag(sz_alpha * inv(deb)) @ Hd.T @ np.diag(d_beta)
            )
            got = build_baseline_adjacency(
                hg, BaselineRecipe.HNHN, 1, hnhn_alpha=a_exp, hnhn_beta=b_exp
            ).toarray()
            npt.assert_allclose(got, expected, atol=1e-12)

    def test_negative_power_rejected(self, path_hg):
        with pytest.raises(ConfigError):
            build_baseline_adjacency(path_hg, BaselineRecipe.HGNN, -1)


class TestRestartCoefficients:
    def test_values(self):
        npt.assert_allclose(restart_coefficients(0.1, 2), [0.1, 0.09, 0.81])
        npt.assert_allclose(restart_coefficients(0.5, 1), [0.5, 0.5])

    def test_extremes(self):
        npt.assert_allclose(restart_coefficients(0.0, 3), [0, 0, 0, 1])
        npt.assert_allclose(restart_coefficients(1.0, 3), [1, 0, 0, 0])

    def test_sum_to_one(self):
        for alpha in (0.05, 0.3, 0.77):
            for L in (1, 2, 5, 10):
                assert abs(restart_coefficients(alpha, L).sum() - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            restart_coefficients(1.5, 2)
        with pytest.raises(ConfigError):
            restart_coefficients(-0.1, 2)
        with pytest.raises(ConfigError):
            restart_coefficients(0.5, 0)
