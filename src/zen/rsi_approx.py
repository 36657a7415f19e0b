"""Stochastic and brute-force estimators for propagation diagonals.

Two estimators and one oracle:

* ``random_walk_return_prob`` simulates the edge-then-member chain (pick a
  uniform incident edge, then a uniform member of it, the current node
  included) and reports how often a walk of fixed length returns to its start.
  Its expectation is the corresponding diagonal entry of the l-th power of the
  row-stochastic walk matrix W = D_v^{-1} H D_e^{-1} H^T (rows of isolated
  nodes zero), the plain ``row`` hop of ``propagation``. ``zen rsi`` applies W
  through the incidence H, never as a matrix.
* ``hutchinson_diag`` estimates diag(A) for any linear operator given only
  matrix-vector products, using sign-flip probe vectors.
* ``dense_diag_oracle`` computes reference diagonals by explicit dense
  arithmetic, independent of the sparse code paths, guarded by size.

All randomness comes from a counter-based 64-bit generator keyed by the
caller's seed, so results are bit-reproducible for a given seed no matter how
trials are batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IsolatedNodeError, check_count
from .hypergraph import Hypergraph, degrees, incidence_matrix
from .propagation import NormalizationKind
from .sparsetools import check_guard


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class WalkParams:
    """Length, trial count, and seed for the return-probability estimator."""

    walk_length: int
    trials: int
    rng_seed: int = 0

    def __post_init__(self):
        check_count("walk_length", self.walk_length)
        check_count("trials", self.trials)
        check_count("rng_seed", self.rng_seed, minimum=0)


def random_walk_return_prob(hg: Hypergraph, node: int, params: WalkParams) -> float:
    """Fraction of simulated walks of length ``walk_length`` that end at their start.

    All trials advance in lockstep: each step draws one uniform per trial to
    pick an incident edge and one more to pick a member of that edge, into
    one reused buffer scaled by the stored degrees and sizes, and gathers
    from H's own CSR arrays and one CSC copy of H. Numpy casts an index
    array to intp at every gather, so each trial's edge and node, which
    index two gathers each, are cast once when drawn. Walks only visit
    nodes with an incident edge, so starting from an isolated node is an
    error.
    """
    check_count("node", node, minimum=0)
    if node >= hg.num_nodes:
        raise ConfigError(f"node {node} outside [0, {hg.num_nodes})")
    prof = degrees(hg)
    if prof.node_degrees[node] == 0:
        raise IsolatedNodeError(f"node {node} has no incident hyperedge")
    H = incidence_matrix(hg)
    Hc = H.tocsc()
    node_ptr, node_edges, edge_ptr, edge_members = H.indptr, H.indices, Hc.indptr, Hc.indices
    deg, sz = prof.node_degrees, prof.edge_sizes

    rng = _generator(params.rng_seed)
    u, at = np.empty(params.trials), np.empty(params.trials, dtype=np.int64)
    cur = node     # every trial starts here, so the first step reads scalars
    for _ in range(params.walk_length):
        np.multiply(rng.random(out=u), deg[cur], out=u)
        np.copyto(at, u, casting="unsafe")     # truncates, as astype does
        at += node_ptr[cur]
        del cur     # each del frees a trial-length array before the next is made
        e = node_edges[at].astype(np.intp, copy=False)
        np.multiply(rng.random(out=u), sz[e], out=u)
        np.copyto(at, u, casting="unsafe")
        at += edge_ptr[e]
        del e
        cur = edge_members[at].astype(np.intp, copy=False)
    return float(np.count_nonzero(cur == node)) / params.trials


@dataclass(frozen=True)
class HutchinsonParams:
    """Probe count and seed for the matrix-free diagonal estimator."""

    num_probes: int
    rng_seed: int = 0

    def __post_init__(self):
        check_count("num_probes", self.num_probes)
        check_count("rng_seed", self.rng_seed, minimum=0)


def hutchinson_diag(matvec, n: int, params: HutchinsonParams) -> np.ndarray:
    """Estimate diag(A) as the average of z * (A z) over sign-flip probes z.

    ``matvec`` must map a length-n vector to a length-n vector; A itself is
    never materialized. Probes are drawn probe-major (one full vector after
    another, one draw per entry), so a given seed always produces the same
    probe sequence. The estimate is unbiased, exact in every entry whose row
    has no off-diagonal mass, and its error shrinks as 1/sqrt(num_probes).
    """
    check_count("dimension", n)
    rng = _generator(params.rng_seed)
    acc = np.zeros(n, dtype=np.float64)
    for _ in range(params.num_probes):
        z = rng.integers(0, 2, size=n) * 2.0     # float64 0.0 or 2.0
        z -= 1.0
        az = np.asarray(matvec(z), dtype=np.float64).reshape(-1)
        if az.shape != (n,):
            raise ConfigError(f"matvec returned shape {az.shape}, expected ({n},)")
        acc += z * az
    return acc / params.num_probes


def dense_diag_oracle(
    hg: Hypergraph,
    kind: NormalizationKind = NormalizationKind.SYMMETRIC,
    l: int = 1,
    family: str = "rap",
) -> np.ndarray:
    """Reference diagonals by explicit dense arithmetic.

    family="rap" returns the diagonal of the hop matrices of the
    redundancy-removal model: l=0 the identity, l=1 the one-hop adjacency
    with exclusive edge normalization, l=2 the two-hop composition through the
    diagonal-free one-hop matrix. Only hops 0..2 exist in that model, and
    ``kind`` must be a NormalizationKind (a ConfigError otherwise).

    family="walk" returns the diagonal of the l-th power of the row-stochastic
    walk matrix for any l >= 0; it has no normalization and ignores ``kind``.

    Everything is computed with dense numpy arrays built straight from the
    hyperedge lists, deliberately sharing no code with the sparse builders, so
    this function can serve as an independent oracle. Guarded by node count
    (ZEN_DENSE_GUARD overrides the default limit). The lists are read off the
    stored incidence, which the tests check against raw edge lists.
    """
    check_guard(hg.num_nodes, "dense diagonal oracle")
    check_count("hop count", l, minimum=0)
    n, m = hg.num_nodes, hg.num_edges
    Hd = np.zeros((n, m), dtype=np.float64)
    for j, e in enumerate(hg.hyperedges):
        Hd[list(e), j] = 1.0
    d, sz = Hd.sum(axis=1), Hd.sum(axis=0)
    inv_d = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)

    if family == "walk":
        inv_sz = np.where(sz > 0, 1.0 / np.where(sz > 0, sz, 1.0), 0.0)
        W = inv_d[:, None] * ((Hd * inv_sz[None, :]) @ Hd.T)
        return np.linalg.matrix_power(W, int(l)).diagonal().copy()
    if family != "rap":
        raise ConfigError(f"unknown oracle family {family!r}; expected 'rap' or 'walk'")
    if not isinstance(kind, NormalizationKind):
        raise ConfigError(f"bad normalization kind {kind!r}")

    if l == 0:
        return np.ones(n, dtype=np.float64)
    if l > 2:
        raise ConfigError(
            "the closed-form hop model is two-hop; use family='walk' for longer horizons"
        )
    w = np.where(sz >= 2, 1.0 / np.where(sz >= 2, sz - 1.0, 1.0), 0.0)
    B = (Hd * w[None, :]) @ Hd.T
    if kind is NormalizationKind.SYMMETRIC:
        isq = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        A1h = isq[:, None] * B * isq[None, :]
    else:
        A1h = inv_d[:, None] * B
    if l == 1:
        return A1h.diagonal().copy()
    A1s = A1h - np.diag(A1h.diagonal())
    mid = np.where(d >= 2, d / np.where(d >= 2, d - 1.0, 1.0), 0.0)
    A2h = A1s @ (mid[:, None] * A1s)
    return A2h.diagonal().copy()
