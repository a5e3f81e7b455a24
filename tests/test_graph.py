"""Graph loading, key packing, and induced-subgraph behavior."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprof import (ParseError, UndirectedGraph, UsageError, graph, induced_subgraph,
                     load_edge_list, profiles)


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n"))
        assert g.vertex_count == 3
        assert g.edge_count == 3

    def test_self_loop_and_reverse_duplicate(self):
        g = load_edge_list(io.StringIO("a b\nb a\na a\n"))
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.label_of(0) == "a"
        assert g.label_of(1) == "b"

    def test_comment_and_duplicate(self):
        g = load_edge_list(io.StringIO("# c\n0 1\n0 1\n"))
        assert g.edge_count == 1

    def test_empty_input(self):
        g = load_edge_list(io.StringIO(""))
        assert g.vertex_count == 0
        assert g.edge_count == 0

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(io.StringIO("0 1\n0 1 2\n"))

    def test_first_appearance_order(self):
        g = load_edge_list(io.StringIO("z y\nx z\n"))
        assert [g.label_of(i) for i in range(3)] == ["z", "y", "x"]

    def test_vertex_count_override(self):
        g = load_edge_list(io.StringIO("0 1\n"), vertex_count=5)
        assert g.vertex_count == 5
        assert g.degree(4) == 0

    def test_override_below_seen_rejected(self):
        with pytest.raises(UsageError):
            load_edge_list(io.StringIO("0 1\n1 2\n"), vertex_count=2)

    def test_from_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.edge_count == 2

    def test_non_utf8_bytes_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2: not UTF-8"):
            load_edge_list([b"0 1\n", b"1 \xff\n", b"1 2\n"])

    def test_non_utf8_file_reports_number(self, tmp_path):
        # the text layer decodes ahead in blocks, so the bad line lies far past
        # the last line the loop has seen when the error surfaces
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n" * 3000 + b"0 \xe9\n" + b"1 2\n" * 3000)
        with pytest.raises(ParseError, match="line 3001: not UTF-8"):
            load_edge_list(path)


class TestKeyPackingLimit:
    LIMIT = 3_037_000_499

    def test_limit_is_the_largest_packable_count(self):
        # the largest key over n vertices is (n - 1) * n + (n - 1) = n**2 - 1
        assert self.LIMIT ** 2 - 1 <= np.iinfo(np.int64).max < (self.LIMIT + 1) ** 2 - 1
        graph.check_key_packing(self.LIMIT)
        with pytest.raises(UsageError, match="int64"):
            graph.check_key_packing(self.LIMIT + 1)

    @pytest.mark.parametrize("build", [
        lambda n: UndirectedGraph.from_edges([(0, 1)], vertex_count=n),
        lambda n: load_edge_list(io.StringIO("0 1\n"), vertex_count=n),
    ], ids=["from_edges", "load_edge_list"])
    def test_refused_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="int64"):
                build(self.LIMIT + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_key_users_check_the_limit(self, k4, monkeypatch):
        monkeypatch.setattr(graph, "MAX_PACKABLE_VERTICES", 3)
        with pytest.raises(UsageError, match="int64"):
            k4.edge_index(0, 1)
        with pytest.raises(UsageError, match="int64"):
            k4.pos_to_edge
        with pytest.raises(UsageError, match="int64"):
            profiles.edge_triangle_counts(k4)


class TestStructure:
    def test_adjacency_symmetric_and_sorted(self, c5):
        for v in range(c5.vertex_count):
            nb = c5.neighbors(v)
            assert list(nb) == sorted(set(int(x) for x in nb))
            for w in nb:
                assert v in c5.neighbors(int(w))

    def test_degree_sum_is_twice_edges(self, k4, c5, star3):
        for g in (k4, c5, star3):
            assert int(g.degrees.sum()) == 2 * g.edge_count

    def test_edge_refs_canonical(self, k4):
        for i in range(k4.edge_count):
            ref = k4.edge_ref(i)
            assert ref.u < ref.w
            assert ref.index == i
            assert k4.edge_index(ref.w, ref.u) == i

    def test_round_trip(self):
        g = load_edge_list(io.StringIO("b a\nc b\na c\nd a\n"))
        buf = io.StringIO()
        g.write_edge_list(buf)
        again = load_edge_list(io.StringIO(buf.getvalue()))
        assert again == g

    def test_pos_to_edge_covers_both_directions(self, c5):
        counts = np.bincount(c5.pos_to_edge, minlength=c5.edge_count)
        assert np.all(counts == 2)


class TestInducedSubgraph:
    def test_k4_neighborhood_is_triangle(self, k4):
        sub = induced_subgraph(k4, k4.neighbors(0))
        assert sub.vertex_count == 3
        assert sub.edge_count == 3

    def test_c5_neighborhood_has_no_edges(self, c5):
        sub = induced_subgraph(c5, c5.neighbors(0))
        assert sub.vertex_count == 2
        assert sub.edge_count == 0

    def test_empty_set(self, k4):
        sub = induced_subgraph(k4, [])
        assert sub.vertex_count == 0
        assert sub.edge_count == 0

    def test_out_of_range_rejected(self, k4):
        with pytest.raises(UsageError):
            induced_subgraph(k4, [0, 9])

    def test_labels_retained(self):
        g = load_edge_list(io.StringIO("a b\nb c\nc a\n"))
        sub = induced_subgraph(g, [0, 2])
        assert sorted(sub.label_of(v) for v in range(2)) == ["a", "c"]
        assert sub.edge_count == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60))
def test_from_edges_normalizes(pairs):
    g = UndirectedGraph.from_edges(pairs) if pairs else UndirectedGraph.from_edges([])
    expect = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    got = set(zip(map(int, g.edge_u), map(int, g.edge_w)))
    assert got == expect
    assert int(g.degrees.sum()) == 2 * g.edge_count
