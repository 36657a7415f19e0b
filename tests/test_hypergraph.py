"""Parsing, serialization, degrees, incidence, and the CSV loaders."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from zen import (
    DatasetError,
    DegreeProfile,
    Hypergraph,
    HypergraphParseError,
    LabelSet,
    degrees,
    incidence_matrix,
    load_features,
    load_hypergraph,
    load_labels,
    parse_hypergraph,
    serialize_hypergraph,
)
from conftest import random_hypergraph


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
        hg = Hypergraph(n, edges)
        nnz = hg.nnz
        tracemalloc.start()
        H = incidence_matrix(hg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert H.nnz == nnz
        assert peak < 150 * nnz + 10_000_000


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
