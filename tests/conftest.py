"""Shared fixtures: small frozen hypergraphs, a seeded random generator, the
adversarial-hypergraph strategy, the edge-file writer, a non-canonical CSR
X and its summed dense twin, the one-hop A1^, plain and walk matrices and
the materialized two-hop reference and diagonal, the lockstep walk
reference, a run over stored blocks, the per-config selection reference,
the primal gradient-descent reference, the allocation-peak probe, and a
Cora-shaped instance built in memory."""

import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from zen import (
    Dataset,
    DivergenceError,
    Hypergraph,
    LabelSet,
    NormalizationKind,
    TrainingParams,
    build_A1_star,
    degrees,
    incidence_matrix,
    propagated_basis,
)
from zen.classifier import DIVERGENCE_LIMIT, _descent_weights, _train_rows, normalize_rows
from zen.harness import _Run, _eval_config, _labeled_rows


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def src_env(**overrides) -> dict:
    """This environment with ``overrides`` and ``src`` first on PYTHONPATH,
    so a child Python imports zen from this checkout."""
    return dict(os.environ, **overrides,
                PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def peak_bytes(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak in bytes during the call).
    numpy reports its buffers to tracemalloc, so the peak counts arrays."""
    tracemalloc.start()
    try:
        value = fn(*args, **kwargs)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def path_hg():
    """Two size-2 edges sharing node 1: {0,1}, {1,2}."""
    return Hypergraph(3, ((0, 1), (1, 2)))


@pytest.fixture
def triangle_hg():
    """Three pairwise edges on three nodes."""
    return Hypergraph(3, ((0, 1), (1, 2), (0, 2)))


@pytest.fixture
def star_hg():
    """One size-4 edge: every node has degree 1."""
    return Hypergraph(4, ((0, 1, 2, 3),))


@pytest.fixture
def single_edge_hg():
    """One size-2 edge."""
    return Hypergraph(2, ((0, 1),))


@pytest.fixture
def singleton_hg():
    """A singleton edge plus an isolated node."""
    return Hypergraph(2, ((0,),))


def serialize_hypergraph(hg: Hypergraph) -> str:
    """Inverse of parse_hypergraph; always writes the %nodes header."""
    lines = [f"%nodes {hg.num_nodes}"]
    for e in hg.hyperedges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def random_hypergraph(rng: np.random.Generator, max_nodes: int = 50) -> Hypergraph:
    """Random instance with edge sizes 1..6; may contain duplicate edges,
    singletons, and isolated nodes."""
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, 2 * n))
    edges = []
    for _ in range(m):
        size = min(int(rng.integers(1, 7)), n)
        edges.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    return Hypergraph(n, tuple(edges))


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


def non_canonical_csr(n, d, seed):
    """An n x d CSR X with unsorted column indices, duplicate entries and
    stored ``-0.0`` values, and its summed dense twin. The values are small
    integers, so every sum is exact in any order, and a place sums to
    ``-0.0`` only when all its entries are ``-0.0``."""
    rng = np.random.default_rng(seed)
    places = rng.integers(0, n * d, size=3 * n)
    places = np.concatenate([places, places[: n]])          # duplicates
    values = rng.integers(-3, 4, size=places.size).astype(np.float64)
    values[rng.random(places.size) < 0.3] = -0.0
    twin = np.zeros(n * d)
    seen = np.zeros(n * d, dtype=bool)
    for at, v in zip(places.tolist(), values.tolist()):
        twin[at] = twin[at] + v if seen[at] else v
        seen[at] = True
    rows, cols = np.divmod(places, d)
    order = np.lexsort((-cols, rows))                      # columns descending in a row
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    X = sp.csr_matrix((values[order], cols[order], indptr), shape=(n, d))
    assert not X.has_canonical_format and np.signbit(twin[twin == 0]).any()
    return X, twin.reshape(n, d)


def _hop_reference(hg: Hypergraph, kind: NormalizationKind, w: np.ndarray) -> sp.csr_matrix:
    """D H diag(w) H^T D as canonical CSR, with the node scales of ``kind``:
    D_v^{-1/2} on both sides for symmetric, D_v^{-1} on the left for row."""
    H = incidence_matrix(hg)
    d = degrees(hg).node_degrees.astype(np.float64)
    B = (H @ sp.diags(w)) @ H.T
    if kind is NormalizationKind.SYMMETRIC:
        s = sp.diags(np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0))
        A = sp.csr_matrix(s @ B @ s)
    else:
        A = sp.csr_matrix(sp.diags(np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)) @ B)
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def build_A1_hat(
    hg: Hypergraph, kind: NormalizationKind = NormalizationKind.SYMMETRIC
) -> sp.csr_matrix:
    """One-hop adjacency with exclusive edge normalization, diagonal included.

    Symmetric: D_v^{-1/2} H (D_e - I)^{-1} H^T D_v^{-1/2};
    Row:       D_v^{-1}   H (D_e - I)^{-1} H^T.
    Singleton edges and isolated nodes contribute zero rows/columns. The
    package never forms this matrix: it propagates with A1^ minus its
    diagonal (``build_A1_star``) and gives the diagonal in closed form
    (``rsi_diag_1``). It is the reference both are checked against.
    """
    sz = degrees(hg).edge_sizes.astype(np.float64)
    return _hop_reference(hg, kind, np.where(sz >= 2, 1.0 / np.where(sz >= 2, sz - 1.0, 1.0), 0.0))


def plain_adjacency(hg: Hypergraph, kind: NormalizationKind) -> sp.csr_matrix:
    """The plain one-hop normalization, self-information kept.

    Symmetric is the HGNN form D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2} (Feng et
    al., arXiv:1809.09401); row is the AllDeepSets form D_v^{-1} H D_e^{-1} H^T.
    The package never forms this matrix: ``propagated_basis(rap=False)`` and
    ``zen rsi``'s walk targets apply it through H. It is the reference they
    are checked against.
    """
    sz = degrees(hg).edge_sizes.astype(np.float64)
    return _hop_reference(hg, kind, np.where(sz > 0, 1.0 / np.where(sz > 0, sz, 1.0), 0.0))


def walk_transition_matrix(hg: Hypergraph) -> sp.csr_matrix:
    """Row-stochastic walk matrix W = D_v^{-1} H D_e^{-1} H^T, the row form of
    ``plain_adjacency``.

    Row i is the single-step distribution of the edge-then-member walk from
    node i (self-transitions included). Rows of isolated nodes are zero.
    """
    return plain_adjacency(hg, NormalizationKind.ROW)


def plain_hop(hg: Hypergraph, kind: NormalizationKind) -> np.ndarray:
    """The plain one-hop matrix as the package applies it, through H: the A X
    block of the rap-free basis of X = I, checked against ``plain_adjacency``."""
    return propagated_basis(hg, np.eye(hg.num_nodes), kind, rap=False)[1]


def two_hop_reference(
    hg: Hypergraph,
    kind: NormalizationKind = NormalizationKind.SYMMETRIC,
    keep_diagonal: bool = False,
) -> sp.csr_matrix:
    """Materialized two-hop matrix A1* diag(d/(d-1)) A1*, by sparse products.

    With ``keep_diagonal=False`` its diagonal is dropped structurally, which
    gives A2*. The package never forms this matrix; it is the reference that
    ``propagated_basis`` and the closed-form diagonals are checked against,
    beside the dense oracle.
    """
    A1 = build_A1_star(hg, kind)
    d = degrees(hg).node_degrees.astype(np.float64)
    mid = np.where(d >= 2, d / np.where(d >= 2, d - 1.0, 1.0), 0.0)
    A2 = (A1 @ sp.diags(mid) @ A1).tocoo()
    if not keep_diagonal:
        keep = A2.row != A2.col
        A2 = sp.coo_matrix((A2.data[keep], (A2.row[keep], A2.col[keep])), shape=A2.shape)
    return A2.tocsr()


def two_hop_diag(a1_star: sp.csr_matrix, m: np.ndarray) -> np.ndarray:
    """diag(A1* diag(m) A1*) read off the matrix, as sum_k A1*[i, k] m_k
    A1*[k, i]: the matrix route the closed-form rsi_2 is checked against."""
    prod = a1_star.multiply(a1_star.T.tocsr())
    return np.asarray(prod @ m).ravel()


def walk_return_reference(hg: Hypergraph, node: int, params) -> float:
    """The lockstep return-probability walk in its plainest form: a fresh
    uniform array per draw, H's own index tables, int64 degrees and sizes,
    and every trial's position held from the first step.
    ``random_walk_return_prob`` must give its result bit for bit."""
    H = incidence_matrix(hg)
    Hc = H.tocsc()
    deg, sz = degrees(hg).node_degrees, degrees(hg).edge_sizes
    rng = np.random.Generator(np.random.Philox(key=params.rng_seed))
    cur = np.full(params.trials, node, dtype=np.int64)
    for _ in range(params.walk_length):
        u = rng.random(params.trials)
        e = H.indices[H.indptr[cur] + (u * deg[cur]).astype(np.int64)]
        u = rng.random(params.trials)
        cur = Hc.indices[Hc.indptr[e] + (u * sz[e]).astype(np.int64)].astype(np.int64)
    return float(np.count_nonzero(cur == node)) / params.trials


def edgeless_run(X: np.ndarray, labels: LabelSet):
    """The ``full`` run of features X on a hypergraph with no edges, at the
    one triple (1, 0, 0): both hop blocks are zero, so the mix scores X W."""
    ds = Dataset("edgeless", Hypergraph(X.shape[0], ()), X, labels)
    return _Run.prepare(ds, "full", NormalizationKind.SYMMETRIC, ((1.0, 0.0, 0.0),))


@dataclass(frozen=True)
class StoredBlocks:
    """Stored n-row blocks standing in for a ``harness._Run``'s propagation:
    ``rows`` gives their rows at a row set, every row when None. ``labels``,
    ``alphas`` and ``training`` (None: the closed form) are the run's."""

    blocks: tuple[np.ndarray, ...]
    labels: LabelSet
    alphas: tuple
    training: TrainingParams | None = None

    def rows(self, rows=None) -> list[np.ndarray]:
        return [block if rows is None else block[rows] for block in self.blocks]


def select_reference(run, split):
    """Index in ``run.alphas``, validation accuracy and weights of a split's
    winner, found by scoring every alpha triple through ``_eval_config`` in
    order.

    The per-config loop the Gram-form screen in ``harness._select_config``
    replaced: the highest validation accuracy wins, the earliest on ties. The
    functions are bound at import, so a test that patches
    ``harness._eval_config`` does not reach them.
    """
    labeled = _labeled_rows(run, split)
    best_idx, best_val, best_W = -1, -np.inf, None
    for idx, triple in enumerate(run.alphas):
        val_acc, W = _eval_config(labeled, triple, run.training)
        if val_acc > best_val:
            best_idx, best_val, best_W = idx, val_acc, W
    return best_idx, float(best_val), best_W


def whole_matrix_test_scoring(blocks, alphas, W, split, labels):
    """Test accuracy and zero-row count of the whole-matrix route: every row
    of the blocks mixed, normalized and multiplied by W, the argmax (an exact
    tie to the lower class id) read at the test rows."""
    Z = normalize_rows(sum(a * b for a, b in zip(alphas, blocks)))
    test = split.test_mask
    hard = np.argmax(Z @ W, axis=1)[test]
    return float(np.mean(hard == labels.labels[test])), int(np.count_nonzero(~Z[test].any(axis=1)))


def descent_weights(Z, split, labels, params=TrainingParams()):
    """The package's descent weights on the split's training rows of Z."""
    return _descent_weights(*_train_rows(Z, split, labels), params)


def gd_reference(Z, split, labels, params):
    """Primal full-batch gradient descent W <- W - 2 lr Z_t^T (Z_t W - Y_t) from
    zero on d x c weights, with ``descent_weights``' step size, epoch count
    and divergence rule and message.

    The package computes the same descent in closed form, from one
    eigendecomposition of Z_t Z_t^T; this is the loop it is checked against.
    """
    Zt, Yt = Z[split.train_mask], np.eye(labels.num_classes)[labels.labels[split.train_mask]]
    lr = params.lr if params.lr is not None else 0.5 / max(1, Zt.shape[0])
    W = np.zeros((Zt.shape[1], Yt.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(params.epochs):
            R = Zt @ W - Yt
            loss = float(np.sum(R * R))
            if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                raise DivergenceError(
                    f"training diverged at epoch {epoch} (loss {loss!r}); lower the step size"
                )
            W -= lr * (2.0 * Zt.T @ R)
    return W


@pytest.fixture(scope="session")
def cora_shaped():
    """Seeded 2708 x 1433 instance with 7 classes, Cora's shape: binary
    features about 1.3% dense, 1600 edges of 2-6 members, and isolated nodes
    (the last 8, and 253 in all).
    X alone is 31 MB, so the allocation bounds measured on it are far above
    tracemalloc's bookkeeping."""
    rng = np.random.default_rng(2708)
    n, d, c = 2708, 1433, 7
    labels = rng.permutation(np.arange(n, dtype=np.int64) % c)
    X = (rng.random((n, d)) < 18 / d).astype(np.float64)
    edges = tuple(
        tuple(sorted(rng.choice(n - 8, size=int(rng.integers(2, 7)), replace=False).tolist()))
        for _ in range(1600)
    )
    return Dataset(name="cora-shaped", hypergraph=Hypergraph(n, edges), features=X,
                   labels=LabelSet(labels=labels, num_classes=c))
