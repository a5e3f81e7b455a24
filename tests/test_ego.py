"""Ego profiles: serial/parallel equivalence and the pivot arithmetic."""

import math

import numpy as np
import pytest

from triprof import UsageError, ego_parallel, ego_serial
from triprof.oracle import brute_force_ego, brute_force_four_cliques

from conftest import complete_graph, er_graph, star_graph


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

    def test_k5_center(self):
        k5 = complete_graph(5)
        assert ego_parallel(k5, [2])[2].as_tuple() == (0, 0, 0, 4)

    def test_duplicate_centers_reported_once(self, k4):
        out = ego_parallel(k4, [1, 1, 1, 0])
        assert list(out) == [1, 0]

    def test_unknown_center_rejected(self, k4):
        with pytest.raises(UsageError):
            ego_parallel(k4, [7])


class TestPivotTrace:
    def test_k4_pivot_values(self, k4):
        from triprof.ego import PivotSums, _solve_pivots

        # per incident edge of any K4 vertex: own-side wedges 0, triangles 2
        prof = _solve_pivots(k4, 0, PivotSums(p1=0, p2=3, p3=0), f3=1)
        assert prof.as_tuple() == (0, 0, 0, 1)

    def test_star_pivot_values(self):
        from triprof.ego import PivotSums, _solve_pivots

        star = star_graph(3)
        prof = _solve_pivots(star, 0, PivotSums(p1=3, p2=0, p3=0), f3=0)
        assert prof.as_tuple() == (1, 0, 0, 0)


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
