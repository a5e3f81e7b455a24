"""Ego profiles: serial/parallel equivalence and the pivot arithmetic."""

import io
import math

import numpy as np
import pytest

from triprof import (IntegrityError, UndirectedGraph, UsageError, ego_parallel, ego_serial,
                     load_edge_list, profiles)
from triprof.oracle import brute_force_ego, brute_force_four_cliques

from conftest import complete_graph, er_graph, star_graph

K4_TAIL = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]


class TestSmallGraphs:
    def test_k4_center(self, k4):
        for run in (ego_serial, ego_parallel):
            assert run(k4, [0])[0].as_tuple() == (0, 0, 0, 1)

    def test_c5_center_has_too_few_neighbors(self, c5):
        for run in (ego_serial, ego_parallel):
            assert run(c5, [0])[0].as_tuple() == (0, 0, 0, 0)

    def test_star_center_and_leaf(self):
        star = star_graph(3)
        for run in (ego_serial, ego_parallel):
            out = run(star, [0, 1])
            assert out[0].as_tuple() == (1, 0, 0, 0)
            assert out[1].as_tuple() == (0, 0, 0, 0)

    @pytest.mark.parametrize("center, expected", [(3, (0, 3, 0, 1)), (0, (0, 0, 0, 1))],
                             ids=["top-ranked", "lowest-ranked"])
    def test_k4_with_tail_one_center(self, center, expected):
        # K4 on 0..3 plus the tail 3-4: 3 (degree 4) is the clique's
        # highest-ranked vertex. With 3 the only center, the clique is found
        # from the triangle 0 1 2, which has no center, through the out-list of
        # 2 restricted to center heads; with 0, from a center triangle.
        g = UndirectedGraph.from_edges(K4_TAIL)
        assert profiles.orient(g).rank.tolist() == [1, 2, 3, 4, 0]
        for run in (ego_serial, ego_parallel):
            got = run(g, [center])[center]
            assert got == brute_force_ego(g, center)
            assert got.as_tuple() == expected

    def test_k5_center(self):
        k5 = complete_graph(5)
        assert ego_parallel(k5, [2])[2].as_tuple() == (0, 0, 0, 4)

    def test_duplicate_centers_reported_once(self, k4):
        out = ego_parallel(k4, [1, 1, 1, 0])
        assert list(out) == [1, 0]

    def test_table_arrays_are_read_only(self, k4):
        for run in (ego_serial, ego_parallel):
            out = run(k4, [1, 0])
            assert out[0].as_tuple() == (0, 0, 0, 1)
            for arr in (out.centers, out.counts):
                with pytest.raises(ValueError):
                    arr[0] = 3

    def test_unknown_center_rejected(self, k4):
        with pytest.raises(UsageError):
            ego_parallel(k4, [7])

    @pytest.mark.parametrize("center", [-1, 2 ** 70])
    def test_center_out_of_range_is_usage_error(self, k4, center):
        for run in (ego_serial, ego_parallel):
            with pytest.raises(UsageError, match="center out of range"):
                run(k4, [0, center])


class TestPivotTrace:
    def test_k4_pivot_values(self, k4):
        from triprof.ego import _solve_pivots

        # per incident edge of any K4 vertex: own-side wedges 0, triangles 2
        counts = _solve_pivots(k4, np.array([0]), np.array([[0, 3, 0]]), np.array([1]))
        assert counts.tolist() == [[0, 0, 0, 1]]

    def test_star_pivot_values(self):
        from triprof.ego import _solve_pivots

        star = star_graph(3)
        counts = _solve_pivots(star, np.array([0]), np.array([[3, 0, 0]]), np.array([0]))
        assert counts.tolist() == [[1, 0, 0, 0]]


class TestIntegrityChecks:
    """Each pivot check names the first failing center in selection order."""

    @pytest.mark.parametrize("bad, message", [
        ([0, 0, 1], "odd wedge-triangle pivot"),      # p3 odd
        ([1, 0, 0], "indivisible endpoint pivot"),   # p1 - f1 not a multiple of 3
        ([0, 3, 0], "negative neighborhood count"),  # f2 = 3, f1 = -3
    ])
    def test_first_failing_center_named(self, bad, message):
        from triprof.ego import _solve_pivots

        g = load_edge_list(io.StringIO("a b\nb c\nc d\nd e\n"))
        ids = np.array([4, 3, 2, 0])
        sums = np.zeros((4, 3), dtype=np.int64)
        sums[[1, 3]] = bad  # centers d and a fail; d is selected first
        with pytest.raises(IntegrityError, match=f"^{message} at center d \\(id 3\\)$"):
            _solve_pivots(g, ids, sums, np.zeros(4, dtype=np.int64))

    def test_earlier_center_wins_over_earlier_check(self):
        from triprof.ego import _solve_pivots

        g = star_graph(3)
        sums = np.array([[0, 3, 0], [0, 0, 1]])  # center 2 negative, center 1 odd
        with pytest.raises(IntegrityError, match=r"^negative neighborhood count at center 2 "):
            _solve_pivots(g, np.array([2, 1]), sums, np.zeros(2, dtype=np.int64))

    def test_ego_parallel_reports_first_center_with_bad_cliques(self, monkeypatch):
        from triprof import ego

        g = load_edge_list(io.StringIO("x y\ny z\nz x\nz w\n"))  # triangle x y z, tail z w
        real = ego._triangles_and_four_cliques

        def too_many(graph, centers, engine):
            tri, f3 = real(graph, centers, engine)
            return tri, f3 + np.array([1, 0, 1])  # 4-cliques at w and y

        monkeypatch.setattr(ego, "_triangles_and_four_cliques", too_many)
        with pytest.raises(IntegrityError, match=r"^negative neighborhood count at center w "):
            ego_parallel(g, [3, 0, 1])


class TestInvariants:
    def test_sum_rule_and_neighborhood_edges(self):
        rng = np.random.default_rng(31)
        g = er_graph(40, 0.3, rng)
        out = ego_parallel(g, range(g.vertex_count))
        for v, prof in out.items():
            assert prof.total() == math.comb(g.degree(v), 3)
        # each neighborhood edge lies in deg-2 of the neighbor triples
        for v, prof in out.items():
            nb = list(map(int, g.neighbors(v)))
            cn = sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if g.has_edge(a, b))
            assert prof.f1 + 2 * prof.f2 + 3 * prof.f3 == cn * max(g.degree(v) - 2, 0)

    def test_methods_agree_on_random_graphs(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            g = er_graph(int(rng.integers(6, 40)), float(rng.choice([0.2, 0.5])), rng)
            centers = list(range(g.vertex_count))
            par = ego_parallel(g, centers)
            ser = ego_serial(g, centers)
            for v in centers:
                bf = brute_force_ego(g, v)
                assert par[v] == ser[v] == bf

    def test_four_clique_handshake(self):
        rng = np.random.default_rng(33)
        g = er_graph(35, 0.4, rng)
        out = ego_parallel(g, range(g.vertex_count))
        f3_total = sum(p.f3 for p in out.values())
        assert f3_total == 4 * brute_force_four_cliques(g)

    def test_subset_of_centers_matches_all(self):
        rng = np.random.default_rng(34)
        g = er_graph(30, 0.3, rng)
        full = ego_parallel(g, range(g.vertex_count))
        subset = ego_parallel(g, [3, 17, 8])
        assert {v: subset[v] for v in subset} == {v: full[v] for v in (3, 17, 8)}
