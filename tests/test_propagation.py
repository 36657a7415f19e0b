"""Hop adjacencies, self-information removal, mixing, and baseline recipes.

Frozen expectations were computed by hand from the degree formulas and are
cross-checked against the dense oracle, which shares no code with the sparse
builders.
"""

import contextlib
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from zen import propagation, sparsetools

from zen import (
    ConfigError,
    Dataset,
    DatasetError,
    LabelSet,
    NormalizationKind,
    PropagationConfig,
    build_A1_star,
    degrees,
    Hypergraph,
    incidence_matrix,
    propagated_basis,
    rsi_diag_1,
    rsi_diag_2,
    simplex_grid,
)
from zen.harness import VARIANTS, _Run
from zen.rsi_approx import dense_diag_oracle
from conftest import (
    adversarial_hypergraphs,
    build_A1_hat,
    non_canonical_csr,
    peak_bytes,
    plain_adjacency,
    plain_hop,
    random_hypergraph,
    two_hop_diag,
    two_hop_reference,
    walk_transition_matrix,
)

SYM = NormalizationKind.SYMMETRIC
ROW = NormalizationKind.ROW
S2 = 1.0 / np.sqrt(2.0)


def sparse_enough(X):
    """Whether the density cut sends X, or the X its nonzero mask marks, to CSR."""
    return sparsetools._sparse_enough(*X.shape, int(np.count_nonzero(X)))


def two_hop_operator(hg, kind=SYM):
    """A2* as a dense array: the two-hop block of the basis of X = I."""
    return propagated_basis(hg, np.eye(hg.num_nodes), kind)[2]


def two_hop_hat(hg, kind=SYM):
    """A1* diag(d/(d-1)) A1* with its diagonal, from the basis and rsi_2."""
    return two_hop_operator(hg, kind) + np.diag(rsi_diag_2(hg))


def mixed_operator(hg, alphas, variant="full", kind=SYM):
    """alpha0*I + alpha1*A1 + alpha2*A2 as the harness propagates it, densely.

    ``full`` uses the redundancy-removed hops, ``no_rap`` the plain
    normalization with the two-hop term as its square.
    """
    n = hg.num_nodes
    ds = Dataset("op", hg, np.eye(n), LabelSet(np.zeros(n, dtype=np.int64), 1))
    basis = _Run.prepare(ds, variant, kind, (alphas,)).rows()
    return sum(a * block for a, block in zip(alphas, basis))


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
        # A1^ is a test reference; the package's hop builder and the plain
        # propagation do the checking
        with pytest.raises(ConfigError):
            build_A1_star(path_hg, "sym")
        with pytest.raises(ConfigError):
            propagated_basis(path_hg, np.eye(3), "sym", rap=False)


def branchwise_A1_hat(hg, kind):
    """A1^ built the way each normalization kind once had its own branch: safe
    inverses written out, then D H diag(1/(size-1)) H^T D."""
    H = incidence_matrix(hg)
    prof = degrees(hg)
    sz = prof.edge_sizes.astype(np.float64)
    w = np.zeros(sz.shape)
    np.divide(1.0, sz - 1.0, out=w, where=sz >= 2)
    d = prof.node_degrees
    B = (H @ sp.diags(w)) @ H.T
    if kind is SYM:
        s = np.zeros(d.shape)
        s[d > 0] = 1.0 / np.sqrt(d[d > 0].astype(np.float64))
        return canonical(sp.diags(s) @ B @ sp.diags(s))
    inv = np.zeros(d.shape)
    np.divide(1.0, d, out=inv, where=d > 0)
    return canonical(sp.diags(inv) @ B)


def coo_route_A1_star(hg, kind):
    """A1* by dropping the diagonal entries of A1^ through COO coordinates."""
    coo = branchwise_A1_hat(hg, kind).tocoo()
    keep = coo.row != coo.col
    return canonical(sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape))


def canonical(mat):
    out = sp.csr_matrix(mat)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def assert_same_csr_bits(got, want):
    assert got.shape == want.shape
    npt.assert_array_equal(got.indptr, want.indptr)
    npt.assert_array_equal(got.indices, want.indices)
    npt.assert_array_equal(got.data.view(np.int64), want.data.view(np.int64))


class TestHopBuilder:
    @settings(max_examples=200, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]))
    @example(hg=_DEGENERATE, kind=SYM)
    @example(hg=_DEGENERATE, kind=ROW)
    def test_bit_identical_to_the_branchwise_builders(self, hg, kind):
        assert_same_csr_bits(build_A1_hat(hg, kind), branchwise_A1_hat(hg, kind))
        assert_same_csr_bits(build_A1_star(hg, kind), coo_route_A1_star(hg, kind))

    @settings(max_examples=100, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]))
    @example(hg=_DEGENERATE, kind=SYM)
    @example(hg=_DEGENERATE, kind=ROW)
    def test_returned_matrices_are_canonical_csr(self, hg, kind):
        for mat in (build_A1_hat(hg, kind), build_A1_star(hg, kind)):
            assert isinstance(mat, sp.csr_matrix)
            assert mat.has_canonical_format and mat.has_sorted_indices
            # the flags are cached, so check the stored arrays themselves:
            # column indices strictly increase within each row, no zero is kept
            row = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
            assert np.all((np.diff(mat.indices) > 0) | (np.diff(row) > 0))
            assert np.all(mat.data != 0)


class TestSelfInformation:
    def test_one_hop_examples(self, path_hg, triangle_hg, star_hg):
        npt.assert_allclose(rsi_diag_1(path_hg), [1, 1, 1])
        npt.assert_allclose(rsi_diag_1(triangle_hg), [1, 1, 1])
        npt.assert_allclose(rsi_diag_1(star_hg), [1 / 3] * 4)

    def test_two_hop_path(self, path_hg):
        # only walks through the middle node return: 0 -> 1 -> 0 carries
        # (1/sqrt2) * (2/1) * (1/sqrt2) = 1; the middle node has none
        npt.assert_allclose(rsi_diag_2(path_hg), [1, 0, 1], atol=1e-15)

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
                    rsi_diag_1(hg),
                    dense_diag_oracle(hg, kind, 1),
                    atol=1e-10,
                )
                npt.assert_allclose(
                    rsi_diag_2(hg),
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
            A1 = build_A1_star(hg, SYM)
            assert abs(A1 - A1.T).max() <= 1e-12
            A2 = two_hop_operator(hg, SYM)
            npt.assert_allclose(A2, A2.T, atol=1e-12)


def whole_matrix_basis(hg, X, kind, rap=True):
    """[X, A X, A_2 X] as whole-matrix products through scaled copies of H, the
    form ``propagated_basis`` fills in column slices.

    L = diag(l) H diag(w) and R = H^T diag(r), and a hop is A V = L (R V),
    minus rsi_1 * V with rap. The second rap hop folds m = d/(d-1) into R and
    subtracts (rsi_1 m) * X1, then rsi_2 * X, and is zero on the rows where the
    materialized A2* has no entry; without rap the block is A X1.
    """
    H = incidence_matrix(hg)
    prof = degrees(hg)
    d, sz = prof.node_degrees.astype(np.float64), prof.edge_sizes.astype(np.float64)
    inv = lambda v: np.where(v > 0, 1.0 / np.where(v > 0, v, 1.0), 0.0)
    w = inv(sz - 1.0) if rap else inv(sz)
    if kind is SYM:
        l = r = inv(np.sqrt(d))
    else:
        l, r = inv(d), np.ones(hg.num_nodes)
    L = canonical(sp.diags(l) @ H @ sp.diags(w))
    R = canonical(H.T @ sp.diags(r))
    if not rap:
        X1 = L @ (R @ X)
        return [X, X1, L @ (R @ X1)]
    m = np.where(d >= 2, d / np.where(d >= 2, d - 1.0, 1.0), 0.0)
    r1, r2 = rsi_diag_1(hg), rsi_diag_2(hg)
    X1 = L @ (R @ X) - r1[:, None] * X
    Rm = canonical(H.T @ sp.diags(r * m))
    X2 = L @ (Rm @ X1) - (r1 * m)[:, None] * X1 - r2[:, None] * X
    X2[returning_rows(hg, kind)] = 0.0
    return [X, X1, X2]


def returning_rows(hg, kind):
    """Rows of the materialized A2* with no stored entry."""
    return np.diff(two_hop_reference(hg, kind).indptr) == 0


def assert_bit_identical(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        npt.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestPropagatedBasis:
    # ``cols`` columns per slice; width 1, below, equal to and not a multiple
    # of it, on the instance with a singleton edge and isolated nodes
    @settings(max_examples=200, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]),
           seed=st.integers(0, 2**32 - 1), cols=st.integers(1, 4), width=st.integers(1, 9),
           rap=st.booleans())
    @example(hg=_DEGENERATE, kind=SYM, seed=0, cols=3, width=1, rap=True)
    @example(hg=_DEGENERATE, kind=ROW, seed=1, cols=3, width=2, rap=True)
    @example(hg=_DEGENERATE, kind=SYM, seed=2, cols=3, width=3, rap=True)
    @example(hg=_DEGENERATE, kind=ROW, seed=3, cols=3, width=7, rap=True)
    @example(hg=_DEGENERATE, kind=ROW, seed=4, cols=1, width=4, rap=True)
    @example(hg=_DEGENERATE, kind=SYM, seed=5, cols=3, width=7, rap=False)
    def test_column_slices_are_bit_identical_to_the_whole_matrix_expression(
        self, hg, kind, seed, cols, width, rap
    ):
        X = np.random.default_rng(seed).standard_normal((hg.num_nodes, width))
        with mock.patch.object(sparsetools, "_BLOCK_BYTES", cols * 8 * hg.num_nodes):
            basis = propagated_basis(hg, X, kind, rap)
        assert_bit_identical(basis, whole_matrix_basis(hg, X, kind, rap))

    # widths up to 64 put small instances on both sides of the density cut;
    # ``forced`` takes the CSR branch whatever the density, so d = 1 and
    # dense X run it too. Zeros carry random signs, so X holds -0.0.
    @settings(max_examples=200, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]),
           seed=st.integers(0, 2**32 - 1), cols=st.integers(1, 4), width=st.integers(1, 64),
           density=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]), forced=st.booleans(),
           rap=st.booleans())
    @example(hg=_DEGENERATE, kind=SYM, seed=0, cols=3, width=1, density=0.3, forced=True,
             rap=True)
    @example(hg=_DEGENERATE, kind=ROW, seed=1, cols=3, width=7, density=1.0, forced=True,
             rap=True)
    @example(hg=_DEGENERATE, kind=SYM, seed=2, cols=2, width=64, density=0.0, forced=False,
             rap=True)
    @example(hg=_DEGENERATE, kind=ROW, seed=3, cols=5, width=64, density=0.01, forced=False,
             rap=True)
    @example(hg=_DEGENERATE, kind=ROW, seed=4, cols=1, width=40, density=0.05, forced=True,
             rap=True)
    @example(hg=_DEGENERATE, kind=SYM, seed=5, cols=1, width=40, density=0.3, forced=True,
             rap=False)
    def test_sparse_first_hop_is_bit_identical_to_the_dense_expression(
        self, hg, kind, seed, cols, width, density, forced, rap
    ):
        rng = np.random.default_rng(seed)
        n = hg.num_nodes
        values = rng.standard_normal((n, width))
        X = np.where(rng.random((n, width)) < density, values, np.copysign(0.0, values))
        X[rng.random(n) < 0.3] = -0.0
        force = mock.patch.object(sparsetools, "_sparse_enough", return_value=True)
        with mock.patch.object(sparsetools, "_BLOCK_BYTES", cols * 8 * n), \
                (force if forced else contextlib.nullcontext()):
            basis = propagated_basis(hg, X, kind, rap)
        assert basis[0] is X
        assert_bit_identical(basis, whole_matrix_basis(hg, X, kind, rap))

    # a sparse X of any density: stored entries at random places, -0.0 among
    # them, its dense twin +0.0 everywhere else; CSR or COO, whole or at rows
    @settings(max_examples=200, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]),
           seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40),
           density=st.sampled_from([0.0, 0.05, 0.3, 1.0]), rap=st.booleans(),
           coo=st.booleans(), picks=st.one_of(st.none(), st.lists(st.integers(0, 15))))
    @example(hg=_DEGENERATE, kind=SYM, seed=0, width=3, density=0.3, rap=True, coo=False,
             picks=None)
    @example(hg=_DEGENERATE, kind=ROW, seed=1, width=5, density=1.0, rap=False, coo=True,
             picks=[7, 0, 2])
    def test_sparse_x_gives_the_bits_of_its_dense_twin(
        self, hg, kind, seed, width, density, rap, coo, picks
    ):
        rng = np.random.default_rng(seed)
        n = hg.num_nodes
        values = rng.standard_normal((n, width))
        stored = rng.random((n, width)) < density
        twin = np.where(stored, np.where(rng.random((n, width)) < 0.2, -0.0, values), 0.0)
        at = np.nonzero(stored)
        X = sp.csr_matrix((twin[at], at), shape=twin.shape)
        rows = None if picks is None else np.array([i for i in picks if i < n], dtype=np.intp)
        got = propagated_basis(hg, X.tocoo() if coo else X, kind, rap, rows)
        want = whole_matrix_basis(hg, twin, kind, rap)
        assert_bit_identical(got, want if rows is None else [block[rows] for block in want])

    def test_non_canonical_csr_gives_the_bits_of_its_summed_twin(self):
        X, twin = non_canonical_csr(_DEGENERATE.num_nodes, 40, seed=9)
        kept = [a.copy() for a in (X.data, X.indices, X.indptr)]
        for kind in (SYM, ROW):
            for rap in (True, False):
                assert_bit_identical(propagated_basis(_DEGENERATE, X, kind, rap),
                                     whole_matrix_basis(_DEGENERATE, twin, kind, rap))
        for got, want in zip((X.data, X.indices, X.indptr), kept):
            npt.assert_array_equal(got, want)   # X itself is not canonicalized

    def test_rows_must_be_node_ids(self):
        # the row lookups would misplace a negative id instead of failing
        X = np.random.default_rng(0).standard_normal((_DEGENERATE.num_nodes, 3))
        for rows in ([-1, 3], [0, 9], np.ones(9, dtype=bool), [[1, 2]], [1.0]):
            with pytest.raises(ConfigError, match="node ids"):
                propagated_basis(_DEGENERATE, X, rows=rows)
        empty = propagated_basis(_DEGENERATE, X, rows=[])
        assert [block.shape for block in empty] == [(0, 3)] * 3

    # any rows, in any order, propagated alone, on both first-hop routes and
    # for every variant, where X holds -0.0 and the graphs hold singletons,
    # duplicate edges, isolated nodes and nodes whose two-hop walks all return
    @settings(max_examples=200, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]),
           variant=st.sampled_from(VARIANTS), seed=st.integers(0, 2**32 - 1),
           cols=st.integers(1, 4), width=st.integers(1, 40),
           density=st.sampled_from([0.0, 0.05, 0.3, 1.0]), csr=st.booleans(),
           picks=st.lists(st.integers(0, 15), unique=True))
    @example(hg=_DEGENERATE, kind=SYM, variant="full", seed=0, cols=2, width=5, density=0.3,
             csr=True, picks=[8, 0, 5, 3, 7])
    @example(hg=_DEGENERATE, kind=ROW, variant="no_tcs", seed=1, cols=1, width=3, density=1.0,
             csr=False, picks=[6, 2, 1])
    @example(hg=Hypergraph(5, ((0, 1), (0, 1), (2, 3), (3,))), kind=SYM, variant="full",
             seed=2, cols=3, width=4, density=1.0, csr=False, picks=[0, 4, 3, 2])
    @example(hg=Hypergraph(5, ((0, 1), (0, 1), (1, 2), (3,))), kind=ROW, variant="no_rap",
             seed=3, cols=1, width=4, density=0.3, csr=True, picks=[2, 0, 4])
    @example(hg=_DEGENERATE, kind=ROW, variant="linearized_hgnn", seed=4, cols=2, width=6,
             density=0.05, csr=True, picks=[])
    def test_restricted_rows_are_bit_identical_to_the_whole_blocks(
        self, hg, kind, variant, seed, cols, width, density, csr, picks
    ):
        rng = np.random.default_rng(seed)
        n = hg.num_nodes
        values = rng.standard_normal((n, width))
        X = np.where(rng.random((n, width)) < density, values, np.copysign(0.0, values))
        rows = np.array([i for i in picks if i < n], dtype=np.intp)
        rap = variant in ("full", "no_tcs")
        with mock.patch.object(sparsetools, "_BLOCK_BYTES", cols * 8 * n), \
                mock.patch.object(sparsetools, "_sparse_enough", return_value=csr):
            # the dataset picks X's stored form, so it is built under the patch
            ds = Dataset("rows", hg, X, LabelSet(np.zeros(n, dtype=np.int64), 1))
            whole = propagated_basis(hg, X, kind, rap)
            assert_bit_identical(propagated_basis(hg, X, kind, rap, rows),
                                 [block[rows] for block in whole])
            run = _Run.prepare(ds, variant, kind, simplex_grid(9).alphas)
            assert_bit_identical(run.rows(rows), [block[rows] for block in run.rows()])

    def test_density_cut(self, cora_shaped):
        # 32 (n + nnz) <= n d: with n = 100 and d = 64 the cut is nnz = 100
        nonzero = np.zeros((100, 64), dtype=bool)
        nonzero.flat[:100] = True
        assert sparse_enough(nonzero)
        nonzero.flat[100] = True
        assert not sparse_enough(nonzero)
        assert not sparse_enough(np.zeros((100, 31), dtype=bool))
        assert sparse_enough(np.zeros((100, 32), dtype=bool))
        X = cora_shaped.features  # 1.3% nonzero, the cut is at 3.1% for d = 1433
        assert sparse_enough(X != 0)
        assert not sparse_enough(X + 0.5 != 0)

    @pytest.mark.parametrize("kind", [SYM, ROW])
    def test_allocates_no_scratch_block(self, cora_shaped, kind):
        # X is 31 MB and the two kept blocks 62 MB; a whole-matrix two-hop
        # expression peaks at 3.0x X, the column slices at about 2.2x on
        # either branch: the 1.3%-nonzero X takes the CSR one, X + 0.5 the dense one
        hg = cora_shaped.hypergraph
        for X, csr in ((cora_shaped.features, True), (cora_shaped.features + 0.5, False)):
            assert sparse_enough(X != 0) is csr
            basis, peak = peak_bytes(propagated_basis, hg, X, kind)
            assert peak <= 2.5 * X.nbytes
            assert_bit_identical(basis, whole_matrix_basis(hg, X, kind))

    # the factored hops against products with the materialized matrices:
    # A1* and A2* with rap, the plain form and its square without
    @settings(max_examples=150, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]),
           seed=st.integers(0, 2**32 - 1), width=st.integers(1, 5), rap=st.booleans())
    @example(hg=_DEGENERATE, kind=SYM, seed=0, width=3, rap=True)
    @example(hg=_DEGENERATE, kind=ROW, seed=1, width=3, rap=True)
    @example(hg=_DEGENERATE, kind=SYM, seed=2, width=3, rap=False)
    @example(hg=_DEGENERATE, kind=ROW, seed=3, width=3, rap=False)
    def test_matches_materialized_two_hop_product(self, hg, kind, seed, width, rap):
        X = np.random.default_rng(seed).standard_normal((hg.num_nodes, width))
        basis = propagated_basis(hg, X, kind, rap)
        assert basis[0] is X
        A = build_A1_star(hg, kind) if rap else plain_adjacency(hg, kind)
        A2 = two_hop_reference(hg, kind) if rap else A @ A
        npt.assert_allclose(basis[1], A @ X, rtol=0, atol=1e-12)
        npt.assert_allclose(basis[2], A2 @ X, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]))
    @example(hg=_DEGENERATE, kind=SYM)
    @example(hg=_DEGENERATE, kind=ROW)
    def test_closed_form_diagonals_on_adversarial_instances(self, hg, kind):
        diag = build_A1_hat(hg, kind).diagonal()
        npt.assert_allclose(diag, rsi_diag_1(hg), atol=1e-12)
        npt.assert_allclose(diag, dense_diag_oracle(hg, kind, 1), atol=1e-12)
        npt.assert_allclose(rsi_diag_2(hg), dense_diag_oracle(hg, kind, 2), atol=1e-12)

    # ``block`` entries of B per node block, so blocks split the nodes anywhere
    # and one node's row may hold more entries than one block.
    @settings(max_examples=200, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]),
           block=st.integers(1, 40))
    @example(hg=_DEGENERATE, kind=SYM, block=1)
    @example(hg=_DEGENERATE, kind=ROW, block=7)
    @example(hg=Hypergraph(4, ((0, 1, 2, 3),)), kind=SYM, block=2)
    @example(hg=Hypergraph(7, ((0, 1, 2), (2, 3), (4, 5), (2, 3))), kind=ROW, block=3)
    def test_closed_form_rsi_2_matches_the_matrix_route(self, hg, kind, block):
        A1 = build_A1_star(hg, kind)
        with mock.patch.object(sparsetools, "_BLOCK_BYTES", block * propagation._ENTRY_BYTES):
            closed = rsi_diag_2(hg)
            given = rsi_diag_2(hg, a1_star=A1)  # shape-checked, then the same blocks
        npt.assert_array_equal(given.view(np.int64), closed.view(np.int64))
        m = propagation._middle_degree_factor(degrees(hg).node_degrees)
        matrix = two_hop_diag(A1, m)
        npt.assert_allclose(closed, matrix, rtol=0, atol=1e-12)
        npt.assert_allclose(closed, dense_diag_oracle(hg, kind, 2), rtol=0, atol=1e-12)
        zero = matrix == 0.0
        npt.assert_array_equal(closed[zero].view(np.int64), 0)  # +0.0, bit for bit

    def test_rsi_2_allocates_about_one_block_of_B(self):
        # one block of B rows at a time, beside O(n + nnz(H)) arrays: the
        # scaled copies of H and the per-node sums, also when A1* is given
        rng = np.random.default_rng(0)
        n = 2000
        hg = Hypergraph(n, tuple(tuple(rng.choice(n, size=10, replace=False))
                                 for _ in range(4000)))
        nnz = incidence_matrix(hg).nnz
        for a1_star in (None, build_A1_star(hg)):
            _, peak = peak_bytes(rsi_diag_2, hg, a1_star=a1_star)
            assert peak <= 2 * sparsetools._BLOCK_BYTES + 64 * (n + nnz)

    # where every two-hop walk comes back, the returning walks and rsi_2 * X
    # cancel in exact arithmetic only: two nodes joined by repeated
    # two-member edges, also with a singleton edge or a pendant beside them
    @settings(max_examples=200, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]),
           seed=st.integers(0, 2**32 - 1))
    @example(hg=Hypergraph(2, ((0, 1), (0, 1))), kind=SYM, seed=0)
    @example(hg=Hypergraph(2, ((0, 1), (0, 1), (0, 1))), kind=ROW, seed=1)
    @example(hg=Hypergraph(4, ((0, 1), (1,), (0, 1), (2, 3), (3,))), kind=SYM, seed=2)
    @example(hg=Hypergraph(4, ((0, 1), (0, 1), (1, 2), (3,))), kind=SYM, seed=3)
    @example(hg=_DEGENERATE, kind=ROW, seed=4)
    def test_rows_of_only_returning_walks_are_exactly_zero(self, hg, kind, seed):
        rows = returning_rows(hg, kind)
        npt.assert_array_equal(propagation._returning_rows(hg), rows)
        X = np.random.default_rng(seed).random((hg.num_nodes, 6)) + 0.5
        X2 = propagated_basis(hg, X, kind)[2]
        npt.assert_array_equal(X2[rows].view(np.int64), 0)  # +0.0, bit for bit

    @pytest.mark.parametrize("shape", [(9,), (8, 3), (10, 3)])
    def test_wrong_shaped_features_are_a_dataset_error(self, shape):
        with pytest.raises(DatasetError,
                           match=r"features have shape \(.*\), expected \(9, num_features\)"):
            propagated_basis(_DEGENERATE, np.ones(shape))

    def test_wrong_shaped_a1_star_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"shape \(8, 8\), expected \(9, 9\)"):
            rsi_diag_2(_DEGENERATE, a1_star=sp.eye(8, format="csr"))

    def test_huge_hyperedges_propagate_within_a_small_memory_budget(self):
        # 40 edges of 1000-2000 members among 20 000 nodes: A1* would hold
        # about 96 million entries, H holds about 60 000
        rng = np.random.default_rng(20000)
        n = 20_000
        edges = tuple(tuple(rng.choice(n, size=int(rng.integers(1000, 2001)), replace=False))
                      for _ in range(40))
        hg = Hypergraph(n, edges)
        X = rng.standard_normal((n, 8))
        X[:, 0] = 1.0
        covered = degrees(hg).node_degrees > 0
        for kind in (SYM, ROW):
            for rap in (True, False):
                basis, peak = peak_bytes(propagated_basis, hg, X, kind, rap)
                assert peak < 32 * 2**20
                if kind is ROW and not rap:
                    # the AllDeepSets hop is row-stochastic on covered nodes
                    npt.assert_allclose(basis[1][covered, 0], 1.0, rtol=0, atol=1e-12)
                    npt.assert_allclose(basis[2][covered, 0], 1.0, rtol=0, atol=1e-12)
                    assert not basis[1][~covered].any()


class TestAbsolute:
    # |c| is c itself for every value of a scaled copy of H, so the bound
    # propagation can share the copies instead of taking their magnitudes
    @settings(max_examples=150, deadline=None)
    @given(hg=adversarial_hypergraphs(), kind=st.sampled_from([SYM, ROW]), rap=st.booleans())
    @example(hg=_DEGENERATE, kind=SYM, rap=True)
    @example(hg=_DEGENERATE, kind=ROW, rap=False)
    def test_no_scaled_copy_has_a_sign_bit_set(self, hg, kind, rap):
        prop = propagation._Propagation.build(hg, kind, rap)
        for hop in (prop.hop, prop.hop2):
            for copy in (hop.left, hop.right):
                assert not np.signbit(copy.data).any()

    @pytest.mark.parametrize("rap", [True, False])
    def test_absolute_shares_the_copies_and_negates_the_diagonals(self, rap):
        prop = propagation._Propagation.build(_DEGENERATE, ROW, rap)
        bound = prop.absolute()
        for signed, magnitude in ((prop.hop, bound.hop), (prop.hop2, bound.hop2)):
            assert magnitude.left is signed.left and magnitude.right is signed.right
            for got, want in ((magnitude.diag, signed.diag), (bound.rsi_2, prop.rsi_2)):
                if rap:
                    npt.assert_array_equal(got.view(np.int64), (-want).view(np.int64))
                else:
                    assert got is None and want is None
        assert bound.returning is prop.returning


class TestPlainFirstHop:
    @pytest.mark.parametrize("kind", [SYM, ROW])
    def test_no_rap_basis_matches_dense_products(self, cora_shaped, kind):
        # cora_shaped X takes the CSR first hop; the reference multiplies dense X
        X = cora_shaped.features
        run = _Run.prepare(cora_shaped, "no_rap", kind, simplex_grid(9).alphas)
        assert_bit_identical(run.rows(),
                             whole_matrix_basis(cora_shaped.hypergraph, X, kind, rap=False))

    def test_linearized_hgnn_basis_matches_dense_products(self, cora_shaped):
        # linearized_hgnn mixes the plain three blocks at the symmetric hop,
        # whatever kind it is given
        X = cora_shaped.features
        run = _Run.prepare(cora_shaped, "linearized_hgnn", ROW, simplex_grid(9).alphas)
        assert_bit_identical(run.rows(),
                             whole_matrix_basis(cora_shaped.hypergraph, X, SYM, rap=False))

    @pytest.mark.parametrize("variant, kind", [("no_rap", SYM), ("no_rap", ROW),
                                               ("linearized_hgnn", SYM)])
    def test_dense_features_match_dense_products(self, cora_shaped, variant, kind):
        # X + 0.5 has no zeros, so it stays dense and both hops are taken in
        # column slices
        X = cora_shaped.features + 0.5
        assert not sparse_enough(X != 0)
        ds = Dataset("dense", cora_shaped.hypergraph, X, cora_shaped.labels)
        assert_bit_identical(_Run.prepare(ds, variant, kind, simplex_grid(9).alphas).rows(),
                             whole_matrix_basis(ds.hypergraph, X, kind, rap=False))


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
        base = plain_hop(path_hg, SYM)
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
        A = plain_hop(triangle_hg, SYM)
        npt.assert_allclose(
            A, [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], atol=1e-15
        )

    def test_alldeepset_rows_are_stochastic(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            hg = random_hypergraph(rng)
            row_sums = plain_hop(hg, ROW).sum(axis=1)
            non_isolated = degrees(hg).node_degrees > 0
            npt.assert_allclose(row_sums[non_isolated], 1.0, atol=1e-12)
            npt.assert_allclose(row_sums[~non_isolated], 0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", [SYM, ROW])
    def test_matches_dense_formula(self, kind):
        # HGNN: D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}; AllDeepSets: D_v^{-1} H D_e^{-1} H^T
        rng = np.random.default_rng(17)
        inv = lambda v: np.where(v > 0, 1.0 / np.where(v > 0, v, 1.0), 0.0)
        for _ in range(10):
            hg = random_hypergraph(rng, max_nodes=15)
            Hd = incidence_matrix(hg).toarray()
            d, sz = Hd.sum(axis=1), Hd.sum(axis=0)
            mean = Hd @ np.diag(inv(sz)) @ Hd.T
            if kind is SYM:
                expected = np.sqrt(inv(d))[:, None] * mean * np.sqrt(inv(d))[None, :]
            else:
                expected = inv(d)[:, None] * mean
            npt.assert_allclose(plain_hop(hg, kind), expected, atol=1e-12)

    # zen rsi's walk targets apply W = D_v^{-1} H D_e^{-1} H^T l times through
    # H, as the plain row hop
    @settings(max_examples=100, deadline=None)
    @given(hg=adversarial_hypergraphs(), l=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    @example(hg=_DEGENERATE, l=3, seed=0)
    def test_walk_matvec_through_H_matches_the_walk_matrix_power(self, hg, l, seed):
        walk, _ = propagation._factored_hops(hg, ROW, rap=False)
        z = np.random.default_rng(seed).choice([-1.0, 1.0], hg.num_nodes)
        v = z
        for _ in range(l):
            v = walk(v)
        W = walk_transition_matrix(hg).toarray()
        npt.assert_allclose(v, np.linalg.matrix_power(W, l) @ z, rtol=0, atol=1e-12)
