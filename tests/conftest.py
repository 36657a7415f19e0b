"""Shared fixtures: small frozen hypergraphs, a seeded random generator, the
materialized two-hop reference, and a Cora-shaped instance built in memory."""

import numpy as np
import pytest
import scipy.sparse as sp

from zen import Dataset, Hypergraph, LabelSet, NormalizationKind, build_A1_star, degrees


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
