"""Hypergraph container, text-format parsing, and the CSV loaders.

Stored form
-----------
A ``Hypergraph`` keeps only its node count, its node-by-edge incidence matrix
H and the ``DegreeProfile`` read off H. H is canonical CSR: float64 0/1
values, column indices sorted within each row, no duplicate entries, and one
column per edge in input order, so verbatim duplicate edges stay distinct
columns. The constructor checks ids and empty edges; ``Hypergraph._store``,
which it shares with the edge file's byte route, is the one place that sorts
and de-duplicates edge members and writes H and the degrees, once, without
a per-edge Python loop. ``incidence_matrix`` and ``degrees`` return
those stored objects, whose arrays are read-only because every caller shares
them. ``Hypergraph.hyperedges`` derives the member tuples from H on access.

File formats
------------
Hyperedges: plain text, one hyperedge per line as whitespace-separated 0-based
node ids. ``#`` starts a comment line, blank lines are ignored, and an optional
``%nodes <n>`` header (before any edge) pins the node count so trailing
isolated nodes survive a round trip. Node count otherwise defaults to
1 + the largest id seen. The file's bytes pick one of two routes that give the
same hypergraph. A file of only digits, spaces and ``\\n`` after an optional
``%nodes N`` first line, with ids of at most 18 digits, none >= N and none
repeated inside a line, is parsed by numpy off the bytes, with no Python
object per id. Any other file (comments, tabs, CRLF, a byte-order mark,
signs, and every file that warns or fails) is decoded and read by
``parse_hypergraph``.

Features: CSV with one row per node (row i = node i), optional header row of
feature names; rows whose fields are all blank are skipped. Values are what
``numpy.loadtxt`` reads as float64 (``3``, ``-0.0``, ``.5``, ``1e-310``, with
optional surrounding spaces or double quotes) and must be finite. Python-only
spellings that ``float()`` takes, such as ``1_000``, are an error. The file's
bytes pick one of two routes that give the same X. When every row after the
optional header is d single ASCII digits ``0``-``9`` joined by ``,`` and ended
by ``\\n`` (a 0/1 bag-of-words grid, say), X is read off the bytes as
float64(byte - 48), a block of rows at a time, so no copy of the file is
held. Any other layout (signs, ``.``, multi-digit fields, spaces, quotes,
CRLF, blank or ragged rows, non-ASCII bytes in a data row, no final newline)
is read whole, decoded and parsed by ``numpy.loadtxt``. Either way X comes
in one stored form: CSR when that takes at most half the dense bytes
(``sparsetools._csr_smaller``), else a dense array. The grid route builds
that form straight from the bytes, so a grid stored as CSR is never held
dense.

Labels: CSV with ``node_id,label`` rows, optional header. Every node must be
labeled exactly once. Distinct label values are mapped to class ids 0..c-1 in
sorted order (numeric sort when every label parses as an integer, otherwise
lexicographic) and the original spellings are kept as class names. Two routes
give the same labels. A file of an optional header and ``<digits>,<digits>``
rows ended by ``\\n``, with every node once and labels spelled canonically
(no leading zero but ``0`` itself), is parsed by numpy off the bytes, with no
Python object per row. Any other file (string labels, spellings such as
``01`` or ``+1``, and every file that fails) is decoded and read by ``csv``.

All three loaders skip a leading UTF-8 byte-order mark, as ``utf-8-sig``
does, so the "CSV UTF-8" files spreadsheet programs write read as plain
UTF-8 ones. A file the text routes read that is not UTF-8 is a
``DatasetError`` naming the offset of its first bad byte.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import warnings
from dataclasses import dataclass, field
from itertools import chain
from operator import pos

import numpy as np
import scipy.sparse as sp

from .errors import DatasetError, GuardError, HypergraphParseError
from .sparsetools import _csr_rows, _csr_smaller, _row_nonzeros, _slice_len, _stored_features


class Hypergraph:
    """An undirected hypergraph on nodes 0..num_nodes-1, stored as its incidence.

    ``hyperedges`` is an iterable of node-id collections, one per edge, in any
    order and possibly with repeated ids. Edges of any size >= 1 are allowed,
    including singletons and verbatim duplicates; nodes may be isolated. An
    id is an integer or a whole float such as 2.0; anything else, NaN and
    infinity included, is a DatasetError.
    """

    __slots__ = ("num_nodes", "_incidence", "_degrees")

    def __init__(self, num_nodes: int, hyperedges):
        num_nodes = int(num_nodes)
        if num_nodes < 0:
            raise DatasetError(f"num_nodes must be nonnegative, got {num_nodes}")
        edges = tuple(hyperedges)
        lengths = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
        if lengths.size and lengths.min() == 0:
            raise DatasetError("empty hyperedge")
        try:
            members = np.fromiter(map(pos, chain.from_iterable(edges)), dtype=np.float64,
                                  count=int(lengths.sum()))    # +"2" raises; "2" parses
        except (TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(f"node ids must be numbers: {exc}") from None
        whole = np.isfinite(members) & (members == np.trunc(members))
        if not whole.all():
            bad = [*chain.from_iterable(edges)][whole.argmin()]
            raise DatasetError(f"node id {bad!r} is not an integer")
        ptr = np.concatenate(([0], np.cumsum(lengths)))
        outside = (members < 0) | (members >= num_nodes)
        if outside.any():
            edge = edges[np.searchsorted(ptr, outside.argmax(), side="right") - 1]
            bad = tuple(sorted(set(int(v) for v in edge)))
            raise DatasetError(
                f"hyperedge {bad} references a node outside [0, {num_nodes})"
            )
        self._store(num_nodes, members.astype(np.int64), ptr)

    def _store(self, num_nodes: int, members: np.ndarray, ptr: np.ndarray) -> None:
        """Write the node count, H and its degrees, once, from H's CSC arrays:
        ``members`` lists every edge's node ids in edge order (checked to lie
        in [0, num_nodes)) and edge j's are ``members[ptr[j]:ptr[j + 1]]``.
        H is made canonical CSR: sorted, a repeated id inside an edge one
        membership, values 1.0, arrays read-only. A node count whose index
        pointer numpy cannot allocate is a GuardError."""
        try:
            H = sp.csc_matrix((np.ones(members.size), members, ptr),
                              shape=(num_nodes, ptr.size - 1)).tocsr()
        except MemoryError:
            raise GuardError(f"{num_nodes} nodes do not fit in memory") from None
        H.sum_duplicates()
        H.data[:] = 1.0
        prof = DegreeProfile(
            node_degrees=np.diff(H.indptr).astype(np.int64),
            edge_sizes=np.bincount(H.indices, minlength=H.shape[1]),
        )
        for a in (H.data, H.indices, H.indptr, prof.node_degrees, prof.edge_sizes):
            a.setflags(write=False)
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "_incidence", H)
        object.__setattr__(self, "_degrees", prof)

    def __setattr__(self, name, value):
        raise AttributeError(f"Hypergraph is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        a, b = self._incidence, other._incidence
        return (self.num_nodes == other.num_nodes and a.shape == b.shape
                and np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices))

    def __repr__(self) -> str:
        return f"Hypergraph({self.num_nodes}, {self.hyperedges!r})"

    @property
    def hyperedges(self) -> tuple[tuple[int, ...], ...]:
        """Sorted, duplicate-free member tuples, one per edge, read off the incidence."""
        Hc = self._incidence.tocsc()
        members, ptr = Hc.indices.tolist(), Hc.indptr.tolist()
        return tuple(tuple(members[a:b]) for a, b in zip(ptr, ptr[1:]))

    @property
    def num_edges(self) -> int:
        return self._incidence.shape[1]

    @property
    def nnz(self) -> int:
        """Total number of (node, edge) memberships."""
        return self._incidence.nnz


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
    """The stored node degrees and edge sizes (read-only arrays)."""
    return hg._degrees


def incidence_matrix(hg: Hypergraph) -> sp.csr_matrix:
    """The stored binary incidence matrix H (num_nodes x num_edges).

    H[i, j] = 1 iff node i belongs to hyperedge j. It is canonical CSR
    (float64, sorted indices, no duplicates) with read-only arrays; its
    storage is proportional to the membership count.
    """
    return hg._incidence


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the hyperedge text format. Raises HypergraphParseError with line numbers."""
    edges: list[list[int]] = []
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
        if len(set(ids)) < len(ids):
            dup_edges += 1
        edges.append(ids)
        edge_lines.append(lineno)
        max_id = max(max_id, max(ids))
    if dup_edges:
        warnings.warn(
            f"{dup_edges} hyperedge(s) contained duplicate node ids; duplicates removed",
            stacklevel=2,
        )
    num_nodes = declared if declared is not None else max_id + 1
    if declared is not None and max_id >= declared:
        bad = next(i for i, e in enumerate(edges) if max(e) >= declared)
        raise HypergraphParseError(
            f"node id {max(edges[bad])} outside declared range [0, {declared})",
            line=edge_lines[bad],
        )
    return Hypergraph(num_nodes, edges)


def _digit_values(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers spelled by the runs of 1-18 ASCII digits
    ``buf[starts[i]:starts[i] + lengths[i]]``, as int64, one Horner step
    per digit position over the runs that long."""
    values = buf[starts].astype(np.int64) - 48
    for j in range(1, int(lengths.max(initial=0))):
        longer = np.flatnonzero(lengths > j)
        at = starts[longer]
        at += j
        values[longer] = values[longer] * 10 + (buf[at] - 48)
    return values


# which byte values each byte route reads
_EDGE_BYTES = np.isin(np.arange(256), list(b"0123456789 \n"))
_LABEL_BYTES = np.isin(np.arange(256), list(b"0123456789,\n"))


def _byte_hypergraph(raw: bytes) -> Hypergraph | None:
    """The hypergraph of the edge file ``raw`` in the layout
    ``load_hypergraph`` reads off the bytes, with no Python object per id;
    None for an empty file and any other, which the text route then reads.
    Ids are digit runs, a line without one is skipped and the last line may
    lack its ``\\n``."""
    declared, start = None, 0
    if raw.startswith(b"%nodes "):
        end = raw.find(b"\n")
        end = len(raw) if end < 0 else end
        count = raw[len(b"%nodes "):end]
        if not (count.isdigit() and len(count) <= 18):
            return None
        declared, start = int(count), end + 1
    buf = np.frombuffer(raw, dtype=np.uint8)[start:]
    if not raw or not _EDGE_BYTES[buf].all():   # an empty file, or another byte
        return None
    sep = np.ones(buf.size + 2, dtype=bool)      # a separator before and after the file
    np.less(buf, ord("0"), out=sep[1:-1])        # a space or a newline
    bounds = np.flatnonzero(sep[1:] != sep[:-1])
    del sep
    starts, lengths = bounds[0::2], bounds[1::2] - bounds[0::2]
    if lengths.size and lengths.max() > 18:
        return None
    # the ids before each newline are where the next line's ids begin; a
    # line without one repeats the value, which np.unique drops
    ptr = np.unique(np.concatenate(
        ([0], np.searchsorted(starts, np.flatnonzero(buf == ord("\n"))), [starts.size])))
    members = _digit_values(buf, starts, lengths)
    del bounds, starts, lengths
    top = int(members.max(initial=-1))
    if declared is not None and top >= declared:
        return None
    hg = Hypergraph.__new__(Hypergraph)
    hg._store(top + 1 if declared is None else declared, members, ptr)
    return hg if hg.nnz == members.size else None


def _decoded(raw: bytes, path, newline=None) -> io.TextIOWrapper:
    """The text the file ``path`` of bytes ``raw`` reads when opened in text
    mode with ``newline``: UTF-8, a leading byte-order mark skipped. Bytes
    that are not UTF-8 are a DatasetError naming the path and the offset of
    the first bad byte; the stream decodes lazily, so they are found first."""
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(
                f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=newline)


def load_hypergraph(path) -> Hypergraph:
    """Read an edge file: ``parse_hypergraph`` of its text.

    A file of only digits, spaces and ``\\n`` after an optional ``%nodes N``
    first line, with no id >= N and no id repeated inside one line, is read
    off its bytes with numpy, straight into H, with no Python object per
    id. Every other file (comments, tabs, CRLF, a byte-order mark, signs,
    ids of more than 18 digits, and every faulty file) is decoded and parsed
    by ``parse_hypergraph``, which gives the same hypergraph for the simple
    layout and raises or warns with line numbers for the rest.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    return _byte_hypergraph(raw) or parse_hypergraph(_decoded(raw, path).read())


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


def _parses(conv, tok: str) -> bool:
    """True when ``conv(tok)`` accepts the token (conv is float or int)."""
    try:
        conv(tok)
    except ValueError:
        return False
    return True


def _blank(line: str) -> bool:
    """True for a CSV row whose fields are all empty or whitespace."""
    head = line.lstrip(' \t,"')[:1]
    if head and not head.isspace():
        return False  # some field holds a visible character
    return not any(tok.strip() for tok in next(csv.reader([line])))


def _header(line: str) -> tuple[str, ...] | None:
    """Feature names: the stripped fields of a CSV row in which ``float()``
    refuses some field. None for a row of numbers."""
    first = next(csv.reader([line]))
    if all(_parses(float, tok) for tok in first):
        return None
    return tuple(tok.strip() for tok in first)


# A digit and the byte after it, read as one little-endian uint16, lie in
# [base, base + 9] exactly when the digit is 0-9 and the byte is the one in
# ``base``: a "," inside a line, a newline at its end.
_DIGIT_COMMA = ord("0") | ord(",") << 8
_DIGIT_NEWLINE = ord("0") | ord("\n") << 8


def _within(a: np.ndarray, base: int) -> bool:
    """Whether every entry of ``a`` lies in [base, base + 9]; by two
    reductions, so no mask is formed."""
    return a.size == 0 or bool(a.min() >= base and a.max() <= base + 9)


def _digit_rows(rows: np.ndarray) -> bool:
    """Whether ``rows`` (lines of the same width, one per row, each with its
    ``\\n``) are digit-grid lines: every even byte a digit, every other odd
    byte a ``,`` and the last byte of each line a ``\\n``."""
    pairs = rows.view("<u2")
    return _within(pairs[:, :-1], _DIGIT_COMMA) and _within(pairs[:, -1], _DIGIT_NEWLINE)


def _fill_digits(rows: np.ndarray, out: np.ndarray) -> None:
    """Write float64(byte - 48) of the even bytes of the digit-grid lines
    ``rows`` to ``out``: every value is an integer 0-9, so this is the value
    ``numpy.loadtxt`` would parse, and no ``-0.0`` can occur."""
    out[...] = rows[:, ::2]
    out -= 48.0


def _grid_features(fh) -> tuple[np.ndarray | sp.csr_matrix, tuple[str, ...] | None] | None:
    """(X, names) when the rows of the binary file ``fh`` after an optional
    header are rows of d single ASCII digits joined by ``,`` and each ended
    by ``\\n``; None for any other layout.

    A leading UTF-8 byte-order mark is skipped. The header is the first line
    when it is the row the text route would test (valid UTF-8, no carriage
    return, not blank) and ``_header`` finds names there. The first data row
    sets the width and the file's size the row count. The rows are then read
    a block at a time through one buffer of about ``_BLOCK_BYTES``, with the
    same byte checks on every block, and each block's nonzeros are counted.
    While the count so far leaves X small enough as CSR (``_csr_smaller``),
    each block's int32 column indices, per-row counts and values are kept,
    but a block too dense to be stored as CSR alone is read again only if
    X ends CSR. Once the count does not, what was kept is dropped and every
    block is read again into a dense X. So X comes in the form
    ``_csr_smaller`` picks for the whole file, a grid stored as CSR is never
    held as an n x d array, and a dense grid is never split into entries.
    A header of another width than the grid's, a size that is not a whole
    number of rows, or a block that fails a check returns None, so the text
    route reads the file and raises its own errors.
    """
    size = os.fstat(fh.fileno()).st_size
    first = fh.readline()
    if not first.endswith(b"\n"):
        return None
    start = len(codecs.BOM_UTF8) if first.startswith(codecs.BOM_UTF8) else 0
    try:
        line = first[start:-1].decode("utf-8")
    except UnicodeDecodeError:
        return None
    names = None if "\r" in line or _blank(line) else _header(line)
    if names is None:
        row = first[start:]
    else:
        row, start = fh.readline(), len(first)
    width = len(row)
    if (width < 2 or width % 2 or (size - start) % width
            or names is not None and len(names) != width // 2
            or not _digit_rows(np.frombuffer(row, dtype=np.uint8).reshape(1, width))):
        return None  # the first row turns most other layouts away
    n, d = (size - start) // width, width // 2
    zeros = np.full(d, _DIGIT_COMMA, dtype="<u2")   # a row of zeros, read as digit pairs
    zeros[-1] = _DIGIT_NEWLINE
    step = _slice_len(width)
    buf = np.empty(min(step, n) * width, dtype=np.uint8)

    def rows_at(a):
        """The rows of the block from row a, or None when they fail a check."""
        block = buf[:min(step, n - a) * width]
        fh.seek(start + a * width)
        rows = block.reshape(-1, width)
        return rows if fh.readinto(block) == block.size and _digit_rows(rows) else None

    def nonzeros(rows, nonzero):
        """A block's int32 columns, per-row counts and values."""
        at, cols, counts = _row_nonzeros(nonzero)
        return cols, counts, rows.reshape(-1)[2 * at] - 48.0   # entry j at byte 2 j

    nnz, found = 0, {}
    for a in range(0, n, step):
        rows = rows_at(a)
        if rows is None:
            return None
        nonzero = rows.view("<u2") != zeros     # checked rows: a pair differs only in its digit
        count = np.count_nonzero(nonzero)       # counted first: a dense block extracts nothing
        nnz += count
        if not _csr_smaller(n, d, nnz):
            del found, nonzero
            X = np.empty((n, d))
            for a in range(0, n, step):         # every block again, into X
                rows = rows_at(a)
                if rows is None:
                    return None
                _fill_digits(rows, X[a:a + step])
            return X, names
        if _csr_smaller(len(rows), d, count):   # else read again if X ends CSR
            found[a] = nonzeros(rows, nonzero)
    for a in range(0, n, step):
        if a not in found:
            rows = rows_at(a)
            if rows is None:
                return None
            found[a] = nonzeros(rows, rows.view("<u2") != zeros)
    return _csr_rows(n, d, [found[a] for a in range(0, n, step)]), names


def load_features(path) -> tuple[np.ndarray | sp.csr_matrix, tuple[str, ...] | None]:
    """Read a feature CSV. Returns (X, feature_names or None).

    X is the n x d float64 feature matrix in its stored form: a CSR matrix
    when that takes at most half the dense bytes
    (``sparsetools._csr_smaller`` of its nonzero count), else a dense
    array. Values are taken as-is: no scaling, centering, or binarization
    happens at ingestion. Row i belongs to node i. A leading UTF-8
    byte-order mark is skipped. When the rows after an optional header are
    a grid of single digits (``0``-``9`` joined by ``,``, every row ended by
    ``\\n``), X is read off the file's bytes in row blocks, straight into
    its stored form, so a grid stored as CSR is never held dense. Any other
    layout, or a file that cannot seek, is read whole,
    decoded as UTF-8 with universal newlines, blank rows are dropped,
    ``numpy.loadtxt`` parses the numbers and ``sparsetools._stored_features``
    checks them and picks the form, ``-0.0`` entries kept, its errors named
    with the path.
    """
    with open(path, "rb") as fh:
        if fh.seekable():
            grid = _grid_features(fh)
            if grid is not None:
                return grid
            fh.seek(0)
        raw = fh.read()
    lines = _decoded(raw, path).read().split("\n")
    del raw  # loadtxt then runs beside the lines alone, as when reading text
    lines = [ln for ln in lines if not _blank(ln)]
    if not lines:
        raise DatasetError(f"{path}: no feature rows")
    names = _header(lines[0])
    if names is not None:
        lines = lines[1:]
        if not lines:
            raise DatasetError(f"{path}: header but no feature rows")
    try:
        X = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                       ndmin=2, dtype=np.float64)
    except ValueError as exc:
        # loadtxt counts a ragged row from 1, so find it and name its 0-based index.
        widths = [len(r) for r in csv.reader(lines)]
        bad = [i for i, w in enumerate(widths) if w != widths[0]]
        why = (f"row {bad[0]} has {widths[bad[0]]} fields, expected {widths[0]}" if bad
               else f"non-numeric feature value ({exc})")
        raise DatasetError(f"{path}: {why}") from exc
    try:
        X = _stored_features(X, X.shape[0])
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    if names is not None and len(names) != X.shape[1]:
        raise DatasetError(f"{path}: {len(names)} header names for {X.shape[1]} columns")
    return X, names


def _byte_labels(raw: bytes, num_nodes: int) -> LabelSet | None:
    """The labels of the label file ``raw`` in the layout ``load_labels``
    reads off the bytes, with no Python object per row; None for any other
    file, which the csv route then reads. The header is a first line that
    the csv route skips: valid UTF-8 with no byte-order mark, quote or
    carriage return, not blank, its first field no integer. Canonical labels
    are integers with one spelling each, so their numeric order is the csv
    route's class order and their digits are its class names."""
    start = raw.find(b"\n") + 1
    if not start or raw.startswith(codecs.BOM_UTF8):
        return None
    try:
        line = raw[:start - 1].decode("utf-8")
    except UnicodeDecodeError:
        return None
    first = next(csv.reader([line]), [])
    if not any(tok.strip() for tok in first) or _parses(int, first[0]):
        start = 0       # a data row, or a blank one that the byte checks refuse
    elif '"' in line or "\r" in line:
        return None     # a quoted header field can span lines
    buf = np.frombuffer(raw, dtype=np.uint8)[start:]
    if not buf.size or not _LABEL_BYTES[buf].all():
        return None
    commas, ends = np.flatnonzero(buf == ord(",")), np.flatnonzero(buf == ord("\n"))
    if not num_nodes or commas.size != num_nodes or ends.size != num_nodes:
        return None
    begins = np.concatenate(([0], ends[:-1] + 1))
    node_len = commas - begins
    label_at = commas + 1
    label_len = ends - label_at
    del commas, ends
    if (node_len.min() < 1 or label_len.min() < 1 or max(node_len.max(), label_len.max()) > 18
            or not ((buf[label_at] != ord("0")) | (label_len == 1)).all()):
        return None     # one comma inside each line, both fields digits, canonical labels
    labels = _digit_values(buf, label_at, label_len)
    del label_at, label_len
    nodes = _digit_values(buf, begins, node_len)
    del begins, node_len
    if nodes.max() >= num_nodes:
        return None
    values = np.full(num_nodes, -1)
    values[nodes] = labels
    del nodes, labels
    if values.min() < 0:
        return None     # a node labeled twice, so another not at all
    distinct = np.unique(values)
    return LabelSet(labels=np.searchsorted(distinct, values), num_classes=distinct.size,
                    class_names=tuple(map(str, distinct.tolist())))


def load_labels(path, num_nodes: int) -> LabelSet:
    """Read a node_id,label CSV covering every node exactly once.

    A file of an optional header and ``<digits>,<digits>\\n`` rows, with
    canonical labels (no leading zero but ``0`` itself) and every node
    once, is read off its bytes with numpy, with no Python object per row.
    Every other file (string labels, spellings such as ``01`` or ``+1``,
    spaces, quotes, CRLF, a byte-order mark, blank rows, a last row without
    its newline, and every faulty file) is decoded and read by ``csv``,
    which gives the same labels for the simple layout and raises the
    ``DatasetError`` for the rest.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    ls = _byte_labels(raw, num_nodes)
    if ls is not None:
        return ls
    rows = [r for r in csv.reader(_decoded(raw, path, newline="")) if r and any(tok.strip() for tok in r)]
    if rows and not _parses(int, rows[0][0]):
        rows = rows[1:]  # header
    raw: dict[int, str] = {}
    for r in rows:
        if len(r) != 2:
            raise DatasetError(f"{path}: expected 'node_id,label' rows, got {r!r}")
        if not _parses(int, r[0]):
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
    # spellings of one integer ("01", "1", "+1") are ordered by their text,
    # not by set iteration, which changes with PYTHONHASHSEED
    distinct = sorted(set(values), key=lambda v: (int(v), v)) \
        if all(_parses(int, v) for v in values) else sorted(set(values))
    index = {v: i for i, v in enumerate(distinct)}
    labels = np.fromiter((index[v] for v in values), dtype=np.int64, count=num_nodes)
    return LabelSet(labels=labels, num_classes=len(distinct), class_names=tuple(distinct))

