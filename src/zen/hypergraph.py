"""Hypergraph container, text-format parsing, and incidence/degree construction.

File formats
------------
Hyperedges: plain text, one hyperedge per line as whitespace-separated 0-based
node ids. ``#`` starts a comment line, blank lines are ignored, and an optional
``%nodes <n>`` header (before any edge) pins the node count so trailing
isolated nodes survive a round trip. Node count otherwise defaults to
1 + the largest id seen.

Features: CSV with one row per node (row i = node i), optional header row of
feature names. Values must be finite.

Labels: CSV with ``node_id,label`` rows, optional header. Every node must be
labeled exactly once. Distinct label values are mapped to class ids 0..c-1 in
sorted order (numeric sort when every label parses as an integer, otherwise
lexicographic) and the original spellings are kept as class names.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DatasetError, HypergraphParseError


@dataclass(frozen=True)
class Hypergraph:
    """An undirected hypergraph on nodes 0..num_nodes-1.

    Hyperedges are stored as sorted, duplicate-free tuples of node ids. Edges
    of any size >= 1 are allowed, including singletons; nodes may be isolated.
    """

    num_nodes: int
    hyperedges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_nodes < 0:
            raise DatasetError(f"num_nodes must be nonnegative, got {self.num_nodes}")
        normalized = []
        for e in self.hyperedges:
            if len(e) == 0:
                raise DatasetError("empty hyperedge")
            t = tuple(sorted(set(int(v) for v in e)))
            if t[0] < 0 or t[-1] >= self.num_nodes:
                raise DatasetError(
                    f"hyperedge {t} references a node outside [0, {self.num_nodes})"
                )
            normalized.append(t)
        object.__setattr__(self, "hyperedges", tuple(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.hyperedges)

    @property
    def nnz(self) -> int:
        """Total number of (node, edge) memberships."""
        return sum(len(e) for e in self.hyperedges)

    def isolated_nodes(self) -> np.ndarray:
        return np.flatnonzero(degrees(self).node_degrees == 0)


@dataclass(frozen=True)
class DegreeProfile:
    """Node degrees (edges containing each node) and edge sizes (members per edge)."""

    node_degrees: np.ndarray
    edge_sizes: np.ndarray

    def __post_init__(self):
        # Membership is counted once per (node, edge) pair, so both views of
        # the incidence must sum to the same total.
        node_total, edge_total = int(self.node_degrees.sum()), int(self.edge_sizes.sum())
        if node_total != edge_total:
            raise DatasetError(
                f"node degrees sum to {node_total} but edge sizes sum to {edge_total}"
            )


def degrees(hg: Hypergraph) -> DegreeProfile:
    """Count node degrees and edge sizes in one pass over the memberships."""
    sizes = np.fromiter((len(e) for e in hg.hyperedges), dtype=np.int64, count=hg.num_edges)
    if hg.nnz:
        members = np.concatenate([np.asarray(e, dtype=np.int64) for e in hg.hyperedges])
        node_deg = np.bincount(members, minlength=hg.num_nodes).astype(np.int64)
    else:
        node_deg = np.zeros(hg.num_nodes, dtype=np.int64)
    return DegreeProfile(node_degrees=node_deg, edge_sizes=sizes)


def incidence_matrix(hg: Hypergraph) -> sp.csr_matrix:
    """Binary incidence matrix H (num_nodes x num_edges) in canonical CSR form.

    H[i, j] = 1 iff node i belongs to hyperedge j. Allocation is proportional
    to the membership count, not to num_nodes * num_edges.
    """
    nnz = hg.nnz
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    pos = 0
    for j, e in enumerate(hg.hyperedges):
        k = len(e)
        rows[pos:pos + k] = e
        cols[pos:pos + k] = j
        pos += k
    data = np.ones(nnz, dtype=np.float64)
    H = sp.csr_matrix((data, (rows, cols)), shape=(hg.num_nodes, hg.num_edges))
    H.sum_duplicates()
    H.sort_indices()
    return H


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the hyperedge text format. Raises HypergraphParseError with line numbers."""
    edges: list[tuple[int, ...]] = []
    edge_lines: list[int] = []
    declared: int | None = None
    dup_edges = 0
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("%"):
            parts = line.split()
            if parts[0] != "%nodes" or len(parts) != 2:
                raise HypergraphParseError(f"malformed header {raw!r}", line=lineno)
            if edges:
                raise HypergraphParseError("%nodes header must precede edges", line=lineno)
            if declared is not None:
                raise HypergraphParseError("duplicate %nodes header", line=lineno)
            try:
                declared = int(parts[1])
            except ValueError:
                raise HypergraphParseError(
                    f"node count is not an integer: {parts[1]!r}", line=lineno
                ) from None
            if declared < 0:
                raise HypergraphParseError(f"negative node count {declared}", line=lineno)
            continue
        ids = []
        for tok in line.split():
            try:
                v = int(tok)
            except ValueError:
                raise HypergraphParseError(
                    f"node id is not an integer: {tok!r}", line=lineno
                ) from None
            if v < 0:
                raise HypergraphParseError(f"negative node id {v}", line=lineno)
            ids.append(v)
        if not ids:
            raise HypergraphParseError("empty hyperedge", line=lineno)
        uniq = tuple(sorted(set(ids)))
        if len(uniq) < len(ids):
            dup_edges += 1
        edges.append(uniq)
        edge_lines.append(lineno)
        max_id = max(max_id, uniq[-1])
    if dup_edges:
        warnings.warn(
            f"{dup_edges} hyperedge(s) contained duplicate node ids; duplicates removed",
            stacklevel=2,
        )
    num_nodes = declared if declared is not None else max_id + 1
    if declared is not None and max_id >= declared:
        bad = next(i for i, e in enumerate(edges) if e[-1] >= declared)
        raise HypergraphParseError(
            f"node id {edges[bad][-1]} outside declared range [0, {declared})",
            line=edge_lines[bad],
        )
    return Hypergraph(num_nodes=num_nodes, hyperedges=tuple(edges))


def serialize_hypergraph(hg: Hypergraph) -> str:
    """Inverse of parse_hypergraph; always writes the %nodes header."""
    lines = [f"%nodes {hg.num_nodes}"]
    for e in hg.hyperedges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


@dataclass(frozen=True)
class LabelSet:
    """Integer class labels for every node, plus the printable class names."""

    labels: np.ndarray
    num_classes: int
    class_names: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if self.num_classes < 1:
            raise DatasetError(f"need at least one class, got {self.num_classes}")
        if labels.ndim != 1:
            raise DatasetError("labels must be a 1-d array")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DatasetError(
                f"label ids must lie in [0, {self.num_classes}); "
                f"saw range [{labels.min()}, {labels.max()}]"
            )
        present = np.unique(labels)
        if labels.size and present.size != self.num_classes:
            missing = sorted(set(range(self.num_classes)) - set(present.tolist()))
            raise DatasetError(f"classes with no labeled node: {missing}")
        if self.class_names is None:
            object.__setattr__(
                self, "class_names", tuple(str(c) for c in range(self.num_classes))
            )
        elif len(self.class_names) != self.num_classes:
            raise DatasetError(
                f"{len(self.class_names)} class names for {self.num_classes} classes"
            )

    @property
    def num_nodes(self) -> int:
        return self.labels.shape[0]

    def one_hot(self) -> np.ndarray:
        """(num_nodes, num_classes) indicator matrix, float64."""
        Y = np.zeros((self.labels.shape[0], self.num_classes), dtype=np.float64)
        Y[np.arange(self.labels.shape[0]), self.labels] = 1.0
        return Y

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


def _looks_numeric(row: list[str]) -> bool:
    for tok in row:
        try:
            float(tok)
        except ValueError:
            return False
    return True


def load_features(path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read a feature CSV. Returns (matrix, feature_names or None).

    Values are taken as-is: no scaling, centering, or binarization happens at
    ingestion. Row i belongs to node i.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(tok.strip() for tok in r)]
    if not rows:
        raise DatasetError(f"{path}: no feature rows")
    names = None
    if not _looks_numeric(rows[0]):
        names = tuple(tok.strip() for tok in rows[0])
        rows = rows[1:]
        if not rows:
            raise DatasetError(f"{path}: header but no feature rows")
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise DatasetError(f"{path}: row {i} has {len(r)} fields, expected {width}")
    try:
        X = np.array([[float(tok) for tok in r] for r in rows], dtype=np.float64)
    except ValueError as exc:
        raise DatasetError(f"{path}: non-numeric feature value ({exc})") from exc
    if not np.all(np.isfinite(X)):
        raise DatasetError(f"{path}: features contain NaN or infinity")
    if names is not None and len(names) != X.shape[1]:
        raise DatasetError(f"{path}: {len(names)} header names for {X.shape[1]} columns")
    return X, names


def load_labels(path, num_nodes: int) -> LabelSet:
    """Read a node_id,label CSV covering every node exactly once."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(tok.strip() for tok in r)]
    if rows and not _is_int(rows[0][0]):
        rows = rows[1:]  # header
    raw: dict[int, str] = {}
    for r in rows:
        if len(r) != 2:
            raise DatasetError(f"{path}: expected 'node_id,label' rows, got {r!r}")
        if not _is_int(r[0]):
            raise DatasetError(f"{path}: node id is not an integer: {r[0]!r}")
        node = int(r[0])
        if node < 0 or node >= num_nodes:
            raise DatasetError(f"{path}: node id {node} outside [0, {num_nodes})")
        if node in raw:
            raise DatasetError(f"{path}: node {node} labeled twice")
        raw[node] = r[1].strip()
    missing = [i for i in range(num_nodes) if i not in raw]
    if missing:
        raise DatasetError(f"{path}: {len(missing)} unlabeled node(s), first is {missing[0]}")
    values = [raw[i] for i in range(num_nodes)]
    distinct = sorted(set(values), key=int) if all(_is_int(v) for v in values) \
        else sorted(set(values))
    index = {v: i for i, v in enumerate(distinct)}
    labels = np.fromiter((index[v] for v in values), dtype=np.int64, count=num_nodes)
    return LabelSet(labels=labels, num_classes=len(distinct), class_names=tuple(distinct))


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True
