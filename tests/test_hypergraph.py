"""Parsing, serialization, degrees, incidence, and the CSV loaders."""

import codecs
import csv
import io
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from zen import (
    DatasetError,
    Hypergraph,
    HypergraphParseError,
    LabelSet,
    degrees,
    incidence_matrix,
    load_features,
    load_hypergraph,
    load_labels,
)
from zen import hypergraph, sparsetools
from zen.hypergraph import DegreeProfile, parse_hypergraph
from conftest import peak_bytes, random_hypergraph, serialize_hypergraph, src_env


class TestParsing:
    def test_basic(self):
        hg = parse_hypergraph("0 1\n1 2\n")
        assert hg.num_nodes == 3
        assert hg.hyperedges == ((0, 1), (1, 2))

    def test_comments_and_blanks(self):
        text = "# a comment\n\n0 1 2\n   \n# another\n2 3\n"
        hg = parse_hypergraph(text)
        assert hg.num_nodes == 4
        assert hg.hyperedges == ((0, 1, 2), (2, 3))

    def test_header_preserves_trailing_isolated_nodes(self):
        hg = parse_hypergraph("%nodes 6\n0 1\n")
        assert hg.num_nodes == 6
        assert hg.isolated_nodes().tolist() == [2, 3, 4, 5]

    def test_nodes_default_to_max_id_plus_one(self):
        assert parse_hypergraph("4 7\n").num_nodes == 8

    def test_edge_ids_sorted_and_deduplicated(self):
        with pytest.warns(UserWarning, match="duplicate"):
            hg = parse_hypergraph("2 0 2 1\n")
        assert hg.hyperedges == ((0, 1, 2),)

    def test_negative_id_reports_line(self):
        with pytest.raises(HypergraphParseError, match="line 2"):
            parse_hypergraph("0 1\n3 -1\n")

    def test_non_integer_token_reports_line(self):
        with pytest.raises(HypergraphParseError, match="line 1.*'x'"):
            parse_hypergraph("0 x\n")

    def test_header_too_small(self):
        with pytest.raises(HypergraphParseError, match="line 3"):
            parse_hypergraph("%nodes 2\n0 1\n1 2\n")

    def test_header_after_edges(self):
        with pytest.raises(HypergraphParseError, match="precede"):
            parse_hypergraph("0 1\n%nodes 5\n")

    def test_malformed_header(self):
        with pytest.raises(HypergraphParseError):
            parse_hypergraph("%nodes\n0 1\n")
        with pytest.raises(HypergraphParseError):
            parse_hypergraph("%nodes two\n0 1\n")

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            hg = random_hypergraph(rng)
            assert parse_hypergraph(serialize_hypergraph(hg)) == hg

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "edges.hg"
        p.write_text("%nodes 3\n0 1 2\n")
        assert load_hypergraph(p).num_edges == 1


class TestHypergraphType:
    def test_rejects_out_of_range_ids(self):
        with pytest.raises(DatasetError):
            Hypergraph(2, ((0, 5),))

    def test_rejects_empty_edges(self):
        with pytest.raises(DatasetError):
            Hypergraph(2, ((),))

    def test_node_ids_are_whole_numbers(self):
        # truncating 1.5 or -0.5 to an id would build the wrong edge
        for bad in (1.5, -0.5, "a", "2", b"2", None, float("nan"), float("inf")):
            with pytest.raises(DatasetError):
                Hypergraph(3, ((0, bad),))
        assert Hypergraph(3, ((2, np.int64(2), 2.0, 0),)) == Hypergraph(3, ((0, 2),))

    def test_normalizes_edge_tuples(self):
        hg = Hypergraph(3, ((2, 0, 2),))
        assert hg.hyperedges == ((0, 2),)

    def test_nnz_counts_memberships(self, triangle_hg):
        assert triangle_hg.nnz == 6


class TestDegrees:
    def test_path(self, path_hg):
        prof = degrees(path_hg)
        assert prof.node_degrees.tolist() == [1, 2, 1]
        assert prof.edge_sizes.tolist() == [2, 2]

    def test_star(self, star_hg):
        prof = degrees(star_hg)
        assert prof.node_degrees.tolist() == [1, 1, 1, 1]
        assert prof.edge_sizes.tolist() == [4]

    def test_isolated_node_has_degree_zero(self, singleton_hg):
        assert degrees(singleton_hg).node_degrees.tolist() == [1, 0]

    def test_membership_total_matches_both_ways(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            hg = random_hypergraph(rng)
            prof = degrees(hg)
            assert prof.node_degrees.sum() == prof.edge_sizes.sum() == hg.nnz

    def test_inconsistent_profile_rejected(self):
        with pytest.raises(DatasetError, match="sum to 3 but edge sizes sum to 2"):
            DegreeProfile(node_degrees=np.array([1, 2]), edge_sizes=np.array([2]))


class TestIncidence:
    def test_path_matrix(self, path_hg):
        H = incidence_matrix(path_hg).toarray()
        npt.assert_array_equal(H, [[1, 0], [1, 1], [0, 1]])

    def test_row_sums_are_degrees(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            hg = random_hypergraph(rng)
            H = incidence_matrix(hg)
            prof = degrees(hg)
            npt.assert_allclose(np.asarray(H.sum(axis=1)).ravel(), prof.node_degrees)
            npt.assert_allclose(np.asarray(H.sum(axis=0)).ravel(), prof.edge_sizes)

    def test_allocation_scales_with_memberships(self):
        # 1e5 edges over 5e4 nodes: allocation must track the membership
        # count (~0.5M), not num_nodes * num_edges (~5e9 cells).
        rng = np.random.default_rng(7)
        n, m = 50_000, 100_000
        edges = tuple(
            tuple(sorted(rng.choice(n, size=5, replace=False).tolist()))
            for _ in range(m)
        )
        nnz = sum(map(len, edges))
        hg, peak = peak_bytes(Hypergraph, n, edges)  # H and the degrees are built here
        assert incidence_matrix(hg).nnz == nnz
        assert peak < 150 * nnz + 10_000_000

    def test_built_once_and_read_only(self, path_hg):
        H, prof = incidence_matrix(path_hg), degrees(path_hg)
        assert incidence_matrix(path_hg) is H
        assert degrees(path_hg) is prof
        for arr in (H.data, H.indices, H.indptr, prof.node_degrees, prof.edge_sizes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7


@st.composite
def raw_edge_lists(draw):
    """(num_nodes, edges) with repeated ids inside an edge, singletons,
    verbatim duplicate edges, and trailing isolated nodes."""
    core = draw(st.integers(1, 8))
    num_nodes = core + draw(st.integers(0, 3))
    edge = st.lists(st.integers(0, core - 1), min_size=1, max_size=6)
    edges = draw(st.lists(edge, max_size=10))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return num_nodes, draw(st.permutations(edges))


class TestStoredForm:
    @settings(max_examples=200, deadline=None)
    @given(raw=raw_edge_lists())
    def test_matches_raw_edge_lists(self, raw):
        num_nodes, edges = raw
        hg = Hypergraph(num_nodes, edges)
        assert parse_hypergraph(serialize_hypergraph(hg)) == hg
        dense = np.zeros((num_nodes, len(edges)))
        for j, e in enumerate(edges):
            for v in e:
                dense[v, j] = 1.0
        H = incidence_matrix(hg)
        assert H.dtype == np.float64 and H.has_canonical_format
        npt.assert_array_equal(H.toarray(), dense)
        prof = degrees(hg)
        npt.assert_array_equal(prof.node_degrees, dense.sum(axis=1))
        npt.assert_array_equal(prof.edge_sizes, dense.sum(axis=0))
        assert hg.hyperedges == tuple(tuple(sorted(set(e))) for e in edges)


class TestLabelSet:
    def test_one_hot(self):
        ls = LabelSet(np.array([0, 1, 1, 2]), 3)
        Y = ls.one_hot()
        npt.assert_array_equal(Y.sum(axis=1), np.ones(4))
        npt.assert_array_equal(np.argmax(Y, axis=1), ls.labels)

    def test_missing_class_rejected(self):
        with pytest.raises(DatasetError, match="no labeled node"):
            LabelSet(np.array([0, 0, 2]), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(DatasetError):
            LabelSet(np.array([0, 3]), 2)

    def test_default_class_names(self):
        assert LabelSet(np.array([0, 1]), 2).class_names == ("0", "1")


class TestLoaders:
    def test_features_with_header(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("alpha,beta\n1.0,2.0\n3.5,-1.0\n")
        X, names = load_features(p)
        assert names == ("alpha", "beta")
        npt.assert_allclose(X, [[1.0, 2.0], [3.5, -1.0]])

    def test_features_without_header(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,0\n0,1\n")
        X, names = load_features(p)
        assert names is None
        assert X.shape == (2, 2)

    def test_features_reject_nan(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1.0,nan\n")
        with pytest.raises(DatasetError, match="NaN"):
            load_features(p)

    def test_features_reject_ragged_rows(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DatasetError):
            load_features(p)

    @pytest.mark.parametrize("text, match", [
        ("1,2\n3,x\n", "non-numeric"),
        ("1,2,3\n4,,6\n", "non-numeric"),
        ("1,2\n3,4\n5\n", "row 2 has 1 fields, expected 2"),
        ("a,b\n\n1,2\n3\n", "row 1 has 1 fields, expected 2"),  # counts data rows
        ("a,b\n\n , \n", "header but no feature rows"),
        ("", "no feature rows"),
        ("\n,\n", "no feature rows"),
        ("a,b,c\n1,2\n", "3 header names for 2 columns"),
        ("1,inf\n", "NaN or infinity"),
        ("1e400\n", "NaN or infinity"),
        ("a,b\n1_000,2\n", "non-numeric.*1_000"),  # float() takes it, loadtxt does not
    ])
    def test_features_bad_file_raises_dataset_error(self, tmp_path, text, match):
        p = tmp_path / "f.csv"
        p.write_text(text)
        with pytest.raises(DatasetError, match=match):
            load_features(p)

    @pytest.mark.parametrize("zero, one", [("0", "1"), ("0.0", "1.0")])
    def test_features_allocation_is_a_small_multiple_of_the_matrix(self, tmp_path, zero, one):
        # X is 8 MB and the file 2 MB (0/1) or 4 MB (0.0/1.0). A csv.reader +
        # float() parse peaks at 49 MB on the 0/1 file (4.9x X + file). The
        # digit grid (0/1), read in row blocks, peaks at 10.1 MB (1.01x), one
        # loadtxt pass over the 0.0/1.0 file at 13.5 MB (1.13x).
        rng = np.random.default_rng(11)
        dense = (rng.random((2000, 500)) < 0.1).astype(np.int8)
        p = tmp_path / "f.csv"
        p.write_text("\n".join(",".join(one if v else zero for v in r)
                               for r in dense.tolist()) + "\n")
        file_bytes = p.stat().st_size
        (X, _), peak = peak_bytes(load_features, p)
        npt.assert_array_equal(X, dense)
        assert peak < 2 * (X.nbytes + file_bytes)

    def test_labels_map_strings_in_sorted_order(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("node_id,label\n0,wolf\n1,ant\n2,wolf\n")
        ls = load_labels(p, 3)
        assert ls.class_names == ("ant", "wolf")
        assert ls.labels.tolist() == [1, 0, 1]

    def test_labels_integer_values_sort_numerically(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("0,10\n1,2\n2,10\n")
        ls = load_labels(p, 3)
        assert ls.class_names == ("2", "10")
        assert ls.labels.tolist() == [1, 0, 1]

    def test_spellings_of_one_integer_keep_their_order_across_hash_seeds(self, tmp_path):
        # "01", "1" and "+1" all parse to 1; set iteration order of str
        # changes with PYTHONHASHSEED, so each seed runs in its own process
        p = tmp_path / "l.csv"
        p.write_text("0,1\n1,01\n2,+1\n3,0\n")
        script = ("import sys; from zen import load_labels; "
                  "ls = load_labels(sys.argv[1], 4); print(ls.class_names, ls.labels.tolist())")
        outputs = set()
        for seed in ("1", "2", "3", "4", "5", "6"):
            proc = subprocess.run([sys.executable, "-c", script, str(p)],
                                  env=src_env(PYTHONHASHSEED=seed),
                                  capture_output=True, text=True, check=True)
            outputs.add(proc.stdout)
        assert outputs == {"('0', '+1', '01', '1') [3, 2, 1, 0]\n"}

    def test_labels_missing_node_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("0,a\n2,b\n")
        with pytest.raises(DatasetError, match="unlabeled"):
            load_labels(p, 3)

    def test_labels_duplicate_node_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("0,a\n0,b\n1,b\n")
        with pytest.raises(DatasetError, match="twice"):
            load_labels(p, 2)

    def test_labels_out_of_range_node(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("0,a\n9,b\n")
        with pytest.raises(DatasetError, match="outside"):
            load_labels(p, 2)

    # "CSV UTF-8" files from spreadsheet programs begin with a byte-order mark
    @pytest.mark.parametrize("text", ["0,1,0\n1,0,1\n0,0,1\n", "a,b,c\n0,1,0\n1,0,1\n",
                                      "0.5,1,0\n1,0,1\n", "a,b,c\n1,2,3"])
    def test_features_skip_a_byte_order_mark(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        X, names = load_features(marked)
        X_ref, names_ref = load_features(plain)
        assert names == names_ref
        npt.assert_array_equal(X.view(np.int64), X_ref.view(np.int64))

    def test_labels_skip_a_byte_order_mark(self, tmp_path):
        for text in ("0,a\n1,b\n2,a\n", "node_id,label\n0,a\n1,b\n2,a\n"):
            p = tmp_path / "l.csv"
            p.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
            ls = load_labels(p, 3)
            assert ls.class_names == ("a", "b")
            assert ls.labels.tolist() == [0, 1, 0]

    def test_hypergraph_skips_a_byte_order_mark(self, tmp_path):
        for text in ("%nodes 4\n0 1\n1 2\n", "0 1\n1 2\n"):
            p = tmp_path / "e.hg"
            p.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
            assert load_hypergraph(p) == parse_hypergraph(text)


def reference_load_features(path):
    """The csv.reader + per-value float() parser that load_features replaced.

    A DatasetError names the fault in load_features' words, without the path
    and, for a bad value, without loadtxt's detail.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(tok.strip() for tok in r)]
    if not rows:
        raise DatasetError("no feature rows")
    names = None
    try:
        [float(tok) for tok in rows[0]]
    except ValueError:
        names = tuple(tok.strip() for tok in rows[0])
        rows = rows[1:]
        if not rows:
            raise DatasetError("header but no feature rows") from None
    for i, r in enumerate(rows):
        if len(r) != len(rows[0]):
            raise DatasetError(f"row {i} has {len(r)} fields, expected {len(rows[0])}")
    try:
        X = np.array([[float(tok) for tok in r] for r in rows], dtype=np.float64)
    except ValueError:
        raise DatasetError("non-numeric feature value") from None
    if not np.all(np.isfinite(X)):
        raise DatasetError("features contain NaN or infinity")
    if names is not None and len(names) != X.shape[1]:
        raise DatasetError(f"{len(names)} header names for {X.shape[1]} columns")
    return X, names


def _outcome(load, path):
    """``load(path)``, or the message of the DatasetError it raises."""
    try:
        return load(path)
    except DatasetError as exc:
        return str(exc)


def assert_loads_like_reference(path):
    """load_features gives the reference's names and X bit for bit, or fails
    with a message that begins with the path and the reference's message."""
    got, want = _outcome(load_features, path), _outcome(reference_load_features, path)
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(f"{path}: {want}"), (got, want)
        return
    assert not isinstance(got, str), got
    (X, names), (X_ref, names_ref) = got, want
    assert names == names_ref
    assert X.dtype == np.float64 and X.shape == X_ref.shape
    npt.assert_array_equal(X.view(np.int64), X_ref.view(np.int64))


def grid_block_rows(mp, rows):
    """Make the grid route read ``rows`` rows a block while ``mp`` is active."""
    mp.setattr(hypergraph, "_slice_len", lambda line_bytes: rows)


def loadtxt_calls(mp):
    """Record every np.loadtxt call zen.hypergraph makes while ``mp`` is active."""
    calls, real = [], np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    mp.setattr(hypergraph.np, "loadtxt", spy)
    return calls


_SPECIAL_VALUES = ["0", "1", "-0.0", "+2.5", ".5", "5.", "1e5", "1E-5", "-3e+02",
                   "5e-324", "1e-310", "2.2250738585072014e-308", "1.7976931348623157e308",
                   "-1e-300", "1e300", "007", "123456789012345678901234567890"]
_BLANK_ROWS = ["", "   ", ",", ",,,", " , ", "\t,\t", "\u00a0", '""', '"",""', '" ", ']


@st.composite
def feature_files(draw):
    """(file text, expected X) for feature CSVs mixing an optional header,
    blank and comma-only rows, CRLF endings, quoted and space-padded tokens,
    exponents, -0.0, subnormals, and repr of random float64 values."""
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES), finite)
    pad = st.sampled_from(["", " ", "  "])

    def token(tok):
        tok = draw(pad) + tok + draw(pad)
        return f'"{tok}"' if draw(st.booleans()) else tok

    lines = []
    if draw(st.booleans()):
        lines.append(",".join(token(f"feat {j}") for j in range(ncols)))
    for _ in range(nrows):
        lines.append(",".join(token(draw(value)) for _ in range(ncols)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_ROWS)))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


_HEADER_NAMES = ["w", "7", "naïve", " padded ", '"q,r"', "ß-0"]
_GRID_EDITS = ["two-digit field", "sign", "point", "space", "quote", "non-digit",
               "separator", "CRLF", "blank row", "ragged row", "joined rows"]


@st.composite
def digit_grid_lines(draw, min_rows=1):
    """The lines of a digit grid: an optional header of d names, then rows of
    d single digits joined by commas, for d = 1..5."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(min_rows, 6))
    digit = st.sampled_from("0123456789")
    lines = [[draw(digit) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        lines.insert(0, [draw(st.sampled_from(_HEADER_NAMES)) for _ in range(ncols)])
    return lines


@st.composite
def digit_grids(draw):
    """Digit-grid CSV bytes, with or without the final newline."""
    text = "\n".join(",".join(line) for line in draw(digit_grid_lines()))
    return (text + "\n" if draw(st.booleans()) else text).encode("utf-8")


@st.composite
def edited_digit_grids(draw):
    """(edit, CSV bytes): a digit grid with its final newline, edited once so
    that it is no longer one. Some edits keep the row width, so only the byte
    checks can catch them. A value edit goes to a data row below the first
    line, which would otherwise become the header of the rows under it. Three
    rows or more keep two joined rows from forming a grid of their own."""
    lines = draw(digit_grid_lines(min_rows=3))
    ends = ["\n"] * len(lines)
    edit = draw(st.sampled_from(_GRID_EDITS))
    at = draw(st.integers(1, len(lines) - 1))
    j = draw(st.integers(0, len(lines[at]) - 1))
    tok = lines[at][j]
    if edit == "two-digit field":
        lines[at][j] = tok + draw(st.sampled_from("0123456789"))
    elif edit == "sign":
        lines[at][j] = draw(st.sampled_from(["-", "+"])) + draw(st.sampled_from([tok, ""]))
    elif edit == "point":
        lines[at][j] = draw(st.sampled_from([tok + ".", "." + tok, "."]))
    elif edit == "space":
        lines[at][j] = draw(st.sampled_from([tok + " ", " " + tok, " "]))
    elif edit == "quote":
        lines[at][j] = draw(st.sampled_from([f'"{tok}"', tok + '"']))
    elif edit == "non-digit":  # the bytes on either side of 0-9, a letter, non-ASCII
        lines[at][j] = draw(st.sampled_from(["/", ":", "a", "é", tok + "é"]))
    elif edit == "separator":  # a comma becomes another byte
        row = lines[at] if len(lines[at]) > 1 else lines[at] + ["0"]
        k = draw(st.integers(0, len(row) - 2))
        lines[at] = row[:k] + [draw(st.sampled_from(";.: ")).join(row[k:k + 2])] + row[k + 2:]
    elif edit == "CRLF":
        ends[draw(st.integers(0, len(lines) - 1))] = "\r\n"
    elif edit == "blank row":
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, [])
        ends.insert(at, "\n")
    elif edit == "ragged row":  # one field fewer, or one more in a single column
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at][:-1] if len(lines[at]) > 1 else lines[at] + ["0"]
    else:  # joined rows: a newline becomes a comma, as wide as two rows
        lines[at - 1:at + 1] = [lines[at - 1] + lines[at]]
        del ends[at]
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    return edit, text.encode("utf-8")


@st.composite
def density_grids(draw):
    """(CSV bytes, header rows, n, d, nnz) of digit grids around the density
    cut ``_sparse_enough`` draws, 32 (n + nnz) <= n d: all-zero, at the cut,
    one past it and full, with the nonzeros first, last (a file sparse early
    and dense later, so the cut is crossed mid-file) or anywhere; d = 1 and
    d = 2 can never be sparse. An optional header and byte-order mark."""
    n = draw(st.integers(1, 12))
    d = draw(st.sampled_from([1, 2, 32, 33, 40, 64, 70]))
    cut = max(0, n * d // 32 - n)     # the most nonzeros a CSR X holds
    nnz = draw(st.one_of(st.sampled_from([0, cut, min(cut + 1, n * d), n * d]),
                         st.integers(0, n * d)))
    order = draw(st.sampled_from(["first", "last", "anywhere"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    at = {"first": np.arange(nnz), "last": np.arange(n * d - nnz, n * d),
          "anywhere": rng.choice(n * d, nnz, replace=False)}[order]
    digits = np.full(n * d, ord("0"), dtype=np.uint8)
    digits[at] = rng.integers(ord("1"), ord("9") + 1, nnz)
    lines = [b",".join(bytes([c]) for c in row) for row in digits.reshape(n, d)]
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(f"f{j}" for j in range(d)).encode())
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + b"\n".join(lines) + b"\n", int(header), n, d, nnz


@pytest.fixture(scope="module")
def feature_path(tmp_path_factory):
    return tmp_path_factory.mktemp("features") / "f.csv"


class TestFeatureParser:
    @settings(max_examples=300, deadline=None)
    @given(text=feature_files())
    def test_matches_per_value_float_parser(self, feature_path, text):
        feature_path.write_bytes(text.encode("utf-8"))
        assert_loads_like_reference(feature_path)

    # blocks of 1-3 rows put a later block's rows, and an edit, past the first
    @settings(max_examples=300, deadline=None)
    @given(raw=digit_grids(), block_rows=st.integers(1, 3))
    def test_digit_grids_skip_loadtxt(self, feature_path, raw, block_rows):
        feature_path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as mp:
            calls = loadtxt_calls(mp)
            grid_block_rows(mp, block_rows)
            assert_loads_like_reference(feature_path)
        # a grid whose last row lacks its newline is not a grid; the text route reads it
        assert bool(calls) != raw.endswith(b"\n")

    @settings(max_examples=500, deadline=None)
    @given(case=edited_digit_grids(), block_rows=st.integers(1, 3))
    def test_edited_digit_grids_fall_back_to_loadtxt(self, feature_path, case, block_rows):
        edit, raw = case
        feature_path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as mp:
            calls = loadtxt_calls(mp)
            grid_block_rows(mp, block_rows)
            assert_loads_like_reference(feature_path)
        assert calls, edit

    # a grid of five rows read two rows a block: the last block holds one row
    @pytest.mark.parametrize("raw", [
        b"0,1\n1,0\n0,0\n1,1\n0,1x",      # a bad last byte
        b"0,1\n1,0\n0,0\n1,1\n0,1\r",     # a carriage return for the last newline
        b"0,1\n1,0\n0,0\n1,1\n0,",        # a truncated last row
        b"0,1\n1,0\n0,0\n1,1\n0,1",       # no final newline
        b"a,b\n0,1\n1,0\n0,0\n1,1\n0,:\n",  # a bad digit in the last block
    ], ids=["bad-last-byte", "carriage-return", "truncated", "no-final-newline",
            "bad-digit"])
    def test_a_fault_in_the_last_block_falls_back_to_loadtxt(self, feature_path, raw):
        feature_path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as mp:
            calls = loadtxt_calls(mp)
            grid_block_rows(mp, 2)
            assert_loads_like_reference(feature_path)
        assert calls

    # four rows in blocks of three (two blocks), four (exactly one) and five
    # (one block, the buffer cut to the rows there are)
    @pytest.mark.parametrize("block_rows", [3, 4, 5])
    def test_grid_read_in_blocks_of_any_size(self, feature_path, block_rows):
        feature_path.write_bytes(b"a,b,c\n0,1,2\n3,4,5\n6,7,8\n9,0,1\n")
        with pytest.MonkeyPatch.context() as mp:
            calls = loadtxt_calls(mp)
            grid_block_rows(mp, block_rows)
            X, names = load_features(feature_path)
        assert not calls
        assert names == ("a", "b", "c")
        npt.assert_array_equal(X, np.arange(12).reshape(4, 3) % 10)

    def test_cora_shaped_grid_peaks_within_two_blocks_of_the_matrix(self, tmp_path):
        # 2708 x 1433, about 1.3% ones: X dense would be 31 MB and the file is
        # 7.8 MB. Read whole, with digit and mask arrays beside it, the grid
        # peaked about 11 MB above the dense X; in row blocks into a dense X,
        # one buffer of about 2 MB above it. Kept sparse from the bytes, X is
        # CSR and the peak is the buffer, a block's mask and the kept
        # nonzeros: about 5 MB
        rng = np.random.default_rng(1433)
        n, d = 2708, 1433
        dense = rng.random((n, d)) < 18 / d
        grid = np.full((n, 2 * d), ord(","), dtype=np.uint8)
        grid[:, ::2] = ord("0") + dense
        grid[:, -1] = ord("\n")
        p = tmp_path / "f.csv"
        grid.tofile(p)
        (X, names), peak = peak_bytes(load_features, p)
        assert names is None
        assert isinstance(X, sp.csr_matrix)
        npt.assert_array_equal(X.toarray().view(np.int64),
                               dense.astype(np.float64).view(np.int64))
        assert peak <= 0.25 * dense.size * 8

    # blocks of 1-5 rows put the crossing of the density cut at any row of a
    # block, and the first nonzeros in any block
    @settings(max_examples=300, deadline=None)
    @given(case=density_grids(), block_rows=st.integers(1, 5))
    def test_grid_comes_in_the_form_its_density_picks(self, feature_path, case, block_rows):
        raw, skip, n, d, nnz = case
        feature_path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as mp:
            calls = loadtxt_calls(mp)
            mp.setattr(sparsetools, "_BLOCK_BYTES", block_rows * 2 * d)
            X, names = load_features(feature_path)
        assert not calls
        assert (names is None) == (skip == 0)
        want = np.loadtxt(io.StringIO(raw.decode("utf-8-sig")), delimiter=",",
                          skiprows=skip, ndmin=2, dtype=np.float64)
        assert sp.issparse(X) == sparsetools._sparse_enough(n, d, nnz)
        if sp.issparse(X):
            assert isinstance(X, sp.csr_matrix) and X.has_canonical_format
            assert X.nnz == nnz
            X = X.toarray()
        assert X.dtype == np.float64
        npt.assert_array_equal(X.view(np.int64), want.view(np.int64))

    def test_the_bytes_pick_the_route(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("loadtxt called")

        monkeypatch.setattr(hypergraph.np, "loadtxt", refuse)
        grid = tmp_path / "grid.csv"
        grid.write_bytes(b"a,b\n0,1\n1,0\n")
        X, names = load_features(grid)
        assert names == ("a", "b")
        npt.assert_array_equal(X, [[0.0, 1.0], [1.0, 0.0]])
        text = tmp_path / "text.csv"
        text.write_bytes(b"0.0,1.0\n")
        with pytest.raises(AssertionError, match="loadtxt called"):
            load_features(text)


BENCH = Path(__file__).resolve().parents[1] / "bench"


@st.composite
def simple_edge_files(draw):
    """The text of a random hypergraph, whose edges include singletons and
    repeats, in the layout the byte route reads: with its ``%nodes`` header
    or without, ids parted by runs of spaces, lines padded with spaces,
    blank and space-only lines, and with or without the final newline."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    header, *lines = serialize_hypergraph(random_hypergraph(rng, max_nodes=30)).splitlines()
    pad = st.sampled_from(["", " ", "   "])
    lines = [draw(pad) + line.replace(" ", draw(st.sampled_from([" ", "  "]))) + draw(pad)
             for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(pad))
    if draw(st.booleans()):
        lines.insert(0, header)
    text = "\n".join(lines)
    return text + "\n" if draw(st.booleans()) else text


@st.composite
def integer_label_files(draw):
    """(text, n): every node of n labeled once with an integer spelled
    canonically, rows in shuffled order, after one of several headers or none."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice([0, 1, 2, 7, 10, 99, 12345, 10**17], size=draw(st.integers(1, 4)))
    values = rng.choice(pool, size=n)
    header = draw(st.sampled_from(["", "node_id,label\n", "id,class,extra\n", "naïve,\n"]))
    return header + "".join(f"{i},{values[i]}\n" for i in rng.permutation(n)), n


def text_route_labels(path, num_nodes):
    """``load_labels`` through its csv route alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "_byte_labels", lambda raw, n: None)
        return load_labels(path, num_nodes)


def assert_same_labels(got: LabelSet, want: LabelSet):
    npt.assert_array_equal(got.labels, want.labels)
    assert got.labels.dtype == want.labels.dtype
    assert (got.num_classes, got.class_names) == (want.num_classes, want.class_names)


def outcome(fn, *args):
    """(result, warning messages), or (exception type, message, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
        except (DatasetError, HypergraphParseError) as exc:
            value = (type(exc), str(exc))
    return value, [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def route_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("routes")


class TestByteRoutes:
    @settings(max_examples=300, deadline=None)
    @given(text=simple_edge_files())
    def test_simple_edge_files_read_as_the_text_route_does(self, route_dir, text):
        p = route_dir / "edges.hg"
        p.write_bytes(text.encode())
        assert hypergraph._byte_hypergraph(text.encode()) is not None
        hg, want = load_hypergraph(p), parse_hypergraph(text)
        assert hg == want and hg.num_edges == want.num_edges
        for got, ref in zip((hg._incidence, hg._degrees.node_degrees, hg._degrees.edge_sizes),
                            (want._incidence, want._degrees.node_degrees,
                             want._degrees.edge_sizes)):
            arrays = (got.indptr, got.indices, got.data) if sp.issparse(got) else (got,)
            refs = (ref.indptr, ref.indices, ref.data) if sp.issparse(ref) else (ref,)
            for a, b in zip(arrays, refs):
                assert a.dtype == b.dtype and not a.flags.writeable
                npt.assert_array_equal(a, b)

    @settings(max_examples=300, deadline=None)
    @given(case=integer_label_files())
    def test_integer_label_files_read_as_the_csv_route_does(self, route_dir, case):
        text, n = case
        p = route_dir / "labels.csv"
        p.write_bytes(text.encode())
        assert hypergraph._byte_labels(text.encode(), n) is not None
        assert_same_labels(load_labels(p, n), text_route_labels(p, n))

    # each file is one the byte route refuses; the text route's result,
    # warning or error is what load_hypergraph gives
    @pytest.mark.parametrize("text, want", [
        ("\ufeff%nodes 3\n0 1\n", Hypergraph(3, ((0, 1),))),                   # BOM
        ("0 1\r\n1 2\r\n", Hypergraph(3, ((0, 1), (1, 2)))),                     # \r
        ("0\t1\n", Hypergraph(2, ((0, 1),))),                                    # tab
        ("# comment\n0 1\n", Hypergraph(2, ((0, 1),))),                          # #
        ("%nodes 3\n%nodes 3\n0 1\n",
         (HypergraphParseError, "line 2: duplicate %nodes header")),            # another %
        ("0 1\n%nodes 5\n", (HypergraphParseError, "line 2: %nodes header must precede edges")),
        ("%edges 2\n0 1\n", (HypergraphParseError, "line 1: malformed header '%edges 2'")),
        ("%nodes x\n0 1\n", (HypergraphParseError, "line 1: node count is not an integer: 'x'")),
        ("0 1\n1 -2\n", (HypergraphParseError, "line 2: negative node id -2")),  # signs
        ("+1 2\n", Hypergraph(3, ((1, 2),))),
        ("%nodes 2\n0 1\n1 2\n",
         (HypergraphParseError, "line 3: node id 2 outside declared range [0, 2)")),  # id >= N
        ("%nodes 3\n0000000000000000000002 1\n", Hypergraph(3, ((1, 2),))),     # 22 digits
        ("", Hypergraph(0, ())),                                                 # empty
    ])
    def test_edge_fallbacks_give_the_text_route(self, tmp_path, text, want):
        p = tmp_path / "edges.hg"
        p.write_bytes(text.encode())
        assert hypergraph._byte_hypergraph(text.encode()) is None
        assert outcome(load_hypergraph, p) == (want, [])

    def test_an_id_repeated_in_a_line_warns_through_the_text_route(self, tmp_path):
        p = tmp_path / "edges.hg"
        p.write_bytes(b"2 0 2\n1 0\n")
        assert hypergraph._byte_hypergraph(p.read_bytes()) is None
        message = "1 hyperedge(s) contained duplicate node ids; duplicates removed"
        assert outcome(load_hypergraph, p) == (Hypergraph(3, ((0, 2), (0, 1))), [message])

    @pytest.mark.parametrize("text, n, want", [
        ("node_id,label\n0,wolf\n1,ant\n", 2, ((1, 0), ("ant", "wolf"))),      # strings
        ("0,1\n1,01\n2,+1\n3,0\n", 4, ((3, 2, 1, 0), ("0", "+1", "01", "1"))),  # spellings
        ('"node,id",label\n0,1\n1,0\n', 2, ((1, 0), ("0", "1"))),              # quoted header
        ("\ufeffnode_id,label\n0,1\n1,0\n", 2, ((1, 0), ("0", "1"))),          # BOM
        ("0,1\r\n1,0\r\n", 2, ((1, 0), ("0", "1"))),                             # CRLF
        ("0, 1\n1,0\n", 2, ((1, 0), ("0", "1"))),                                # space
        ("0,1\n\n1,0\n", 2, ((1, 0), ("0", "1"))),                               # blank row
        ("0,1\n1,0", 2, ((1, 0), ("0", "1"))),                                   # no newline
        ("0,7\n1,12345678901234567890\n", 2, ((0, 1), ("7", "12345678901234567890"))),
        ("0,1\n0,1\n", 2, "node 0 labeled twice"),
        ("0,1\n5,0\n", 2, "node id 5 outside [0, 2)"),
        ("0,1\n", 2, "1 unlabeled node(s), first is 1"),
        ("0,1\nx,0\n", 2, "node id is not an integer: 'x'"),
        ("0,1,2\n", 1, "expected 'node_id,label' rows, got ['0', '1', '2']"),
        ("", 0, "need at least one class, got 0"),
    ])
    def test_label_fallbacks_give_the_csv_route(self, tmp_path, text, n, want):
        p = tmp_path / "labels.csv"
        p.write_bytes(text.encode())
        assert hypergraph._byte_labels(text.encode(), n) is None
        if isinstance(want, str):
            with pytest.raises(DatasetError) as raised:
                load_labels(p, n)
            assert str(raised.value) in (f"{p}: {want}", want)
        else:
            ls = load_labels(p, n)
            assert (tuple(ls.labels.tolist()), ls.class_names) == want

    def test_wide_edge_files_load_in_little_memory(self, tmp_path, monkeypatch):
        # bench/gen.py's wide-edges files (10 000 nodes, 33 671 memberships).
        # The text routes' Python objects peak at about 108 B per membership
        # and 230 B per label row; the byte routes at about 69 and 79
        monkeypatch.syspath_prepend(str(BENCH))
        import gen
        import workloads

        gen.write(gen.generate(workloads.WIDE, seed=0), str(tmp_path))
        hg, peak = peak_bytes(load_hypergraph, tmp_path / "edges.hg")
        assert peak < 90 * hg.nnz
        ls, peak = peak_bytes(load_labels, tmp_path / "labels.csv", hg.num_nodes)
        assert ls.num_nodes == hg.num_nodes and peak < 120 * hg.num_nodes
