"""Local-profile scatter/gather against hand values and the brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprof import (Engine, IntegrityError, UndirectedGraph, compute_profile,
                     count_triangles_only, gather_local_profiles,
                     global_profile_from_local, scatter_edge_scalars)
from triprof.oracle import brute_force_local, brute_force_profile

from conftest import chung_lu, er_graph, hub_joined_cliques, star_graph


def brute_edge_census(g, e):
    """Independent per-edge census: (triangles, wedges at u, wedges at w, isolated)."""
    u, w = int(g.edge_u[e]), int(g.edge_w[e])
    nu = set(map(int, g.neighbors(u)))
    nw = set(map(int, g.neighbors(w)))
    tri = len(nu & nw)
    wedge_u = len(nu - nw - {w})
    wedge_w = len(nw - nu - {u})
    iso = g.vertex_count - len(nu | nw)
    return tri, wedge_u, wedge_w, iso


class TestScatter:
    def test_k4(self, k4):
        tri = scatter_edge_scalars(k4)
        for e in range(k4.edge_count):
            assert tri[e] == 2 == brute_edge_census(k4, e)[0]

    def test_c5(self, c5):
        tri = scatter_edge_scalars(c5)
        for e in range(c5.edge_count):
            assert tri[e] == 0 == brute_edge_census(c5, e)[0]

    def test_star(self):
        star = star_graph(3)
        tri = scatter_edge_scalars(star)
        for e in range(star.edge_count):
            assert tri[e] == 0 == brute_edge_census(star, e)[0]

    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = er_graph(int(rng.integers(5, 40)), float(rng.choice([0.1, 0.4, 0.7])), rng)
            tri = scatter_edge_scalars(g)
            assert tri.dtype == np.int64
            for e in range(g.edge_count):
                assert tri[e] == brute_edge_census(g, e)[0]

    def test_wedge_degree_relation(self):
        # the closed forms the gather and edge_extremes rely on: every other
        # per-edge count follows from the edge's triangles and endpoint degrees
        rng = np.random.default_rng(8)
        g = er_graph(30, 0.3, rng)
        tri = scatter_edge_scalars(g)
        du, dw = g.degrees[g.edge_u], g.degrees[g.edge_w]
        for e in range(g.edge_count):
            assert brute_edge_census(g, e) == (
                tri[e], du[e] - 1 - tri[e], dw[e] - 1 - tri[e],
                g.vertex_count - du[e] - dw[e] + tri[e])


class TestGather:
    def test_c5_every_vertex(self, c5):
        _, locals_ = compute_profile(c5)
        for v in range(5):
            assert locals_.row(v) == (0, 2, 1, 2, 1, 0)
            assert sum(locals_.row(v)) == math.comb(4, 2)

    def test_star_center_and_leaf(self):
        star = star_graph(3)
        _, locals_ = compute_profile(star)
        assert locals_.row(0) == (0, 0, 0, 0, 3, 0)
        assert locals_.row(1) == (1, 0, 0, 2, 0, 0)

    def test_k4_every_vertex(self, k4):
        _, locals_ = compute_profile(k4)
        for v in range(4):
            assert locals_.row(v) == (0, 0, 0, 0, 0, 3)

    def test_corrupted_scalars_raise_integrity_error(self, c5):
        tri = scatter_edge_scalars(c5).copy()
        tri[0] += 1  # odd triangle sum at both endpoints of edge 0
        with pytest.raises(IntegrityError, match="triangle"):
            gather_local_profiles(c5, tri)

    @pytest.mark.parametrize("build", [
        lambda: star_graph(9), lambda: hub_joined_cliques([3, 5, 8]),
        lambda: chung_lu(200, 1500, 1.6, seed=4),
        lambda: UndirectedGraph.from_edges([(0, 1)], vertex_count=3)],
        ids=["star", "hub-cliques", "skewed", "one-edge"])
    def test_packed_and_separate_endpoint_sums_agree(self, build, monkeypatch):
        """The triangle and neighbor-degree sums come from one packed endpoint
        sum where it is exact and from two sums where it might not be; both
        routes give the same local profiles."""
        from triprof import profiles

        g = build()
        tri = scatter_edge_scalars(g)
        calls = []
        real = profiles.endpoint_sums
        monkeypatch.setattr(profiles, "endpoint_sums",
                            lambda *args: calls.append(len(args)) or real(*args))
        packed = gather_local_profiles(g, tri)
        assert calls == [3]
        monkeypatch.setattr(profiles, "BINCOUNT_EXACT_LIMIT", 2 * g.edge_count)
        calls.clear()
        separate = gather_local_profiles(g, tri)
        assert calls == [2, 3]
        brute = brute_force_local(g)
        for name, values in vars(packed).items():
            assert np.array_equal(values, getattr(separate, name)), name
            assert np.array_equal(values, getattr(brute, name)), name

    def test_negative_scalar_raises_integrity_error(self, c5):
        tri = scatter_edge_scalars(c5).copy()
        tri[2] = -2
        with pytest.raises(IntegrityError, match="negative value -2 on edge 2"):
            gather_local_profiles(c5, tri)

    def test_isolated_vertex_counts(self):
        g = UndirectedGraph.from_edges([(0, 1)], vertex_count=4)
        _, locals_ = compute_profile(g)
        # of vertex 3's three triples, only {3,0,1} holds an edge, detached from 3
        assert locals_.row(3) == (2, 0, 1, 0, 0, 0)


class TestGlobal:
    def test_k4(self, k4):
        prof, _ = compute_profile(k4)
        assert prof.as_tuple() == (0, 0, 0, 4)

    def test_c5(self, c5):
        prof, _ = compute_profile(c5)
        assert prof.as_tuple() == (0, 5, 5, 0)

    def test_empty_graph_on_three_vertices(self):
        g = UndirectedGraph.from_edges([], vertex_count=3)
        prof, _ = compute_profile(g)
        assert prof.as_tuple() == (1, 0, 0, 0)

    def test_tiny_graphs_are_zero(self):
        for n in (0, 1, 2):
            g = UndirectedGraph.from_edges([(0, 1)] if n == 2 else [], vertex_count=n)
            prof, _ = compute_profile(g)
            assert prof.total() == 0

    def test_total_is_binomial(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            g = er_graph(int(rng.integers(3, 50)), 0.25, rng)
            prof, locals_ = compute_profile(g)
            assert prof.total() == math.comb(g.vertex_count, 3)
            per_vertex = (locals_.n0 + locals_.n1_e + locals_.n1_d
                          + locals_.n2_e + locals_.n2_c + locals_.n3)
            assert np.all(per_vertex == math.comb(g.vertex_count - 1, 2))

    def test_handshake_sums(self):
        rng = np.random.default_rng(10)
        g = er_graph(40, 0.3, rng)
        prof, locals_ = compute_profile(g)
        assert int(locals_.n3.sum()) == 3 * prof.n3
        assert int(locals_.n2_c.sum()) == prof.n2  # one center per wedge

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["star", "hub-cliques", "random"]),
           size=st.lists(st.integers(1, 7), min_size=1, max_size=4),
           pad=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_locals_match_oracle_on_hubs_and_padding(self, shape, size, pad, seed):
        if shape == "star":
            g = star_graph(sum(size))
        elif shape == "hub-cliques":
            g = hub_joined_cliques(size)
        else:
            g = er_graph(sum(size) + 1, 0.4, np.random.default_rng(seed))
        g = UndirectedGraph.from_edges(np.stack([g.edge_u, g.edge_w], axis=1),
                                       vertex_count=g.vertex_count + pad)
        prof, locals_ = compute_profile(g)
        bf = brute_force_local(g)
        for field in ("n0", "n1_e", "n1_d", "n2_e", "n2_c", "n3"):
            assert np.array_equal(getattr(locals_, field), getattr(bf, field)), field
        assert prof == brute_force_profile(g)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            g = er_graph(int(rng.integers(4, 45)), float(rng.choice([0.1, 0.5])), rng)
            prof, locals_ = compute_profile(g)
            assert prof.as_tuple() == brute_force_profile(g).as_tuple()
            bf = brute_force_local(g)
            for field in ("n0", "n1_e", "n1_d", "n2_e", "n2_c", "n3"):
                assert np.array_equal(getattr(locals_, field), getattr(bf, field))


class TestTrianglesOnly:
    def test_k4(self, k4):
        per_vertex, total = count_triangles_only(k4)
        assert list(per_vertex) == [3, 3, 3, 3]
        assert total == 4

    def test_c5_is_zero(self, c5):
        per_vertex, total = count_triangles_only(c5)
        assert not per_vertex.any()
        assert total == 0

    def test_agrees_with_full_pipeline(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            g = er_graph(int(rng.integers(5, 50)), 0.35, rng)
            per_vertex, total = count_triangles_only(g)
            prof, locals_ = compute_profile(g)
            assert total == prof.n3
            assert np.array_equal(per_vertex, locals_.n3)


def test_phase_byte_accounting(c5):
    engine = Engine(workers=2)
    compute_profile(c5, engine)
    by_name = {s["name"]: s for s in engine.phases}
    m = c5.edge_count
    assert by_name["scatter:edge-scalars"]["bytes_scattered"] == m * 4 * 8
    assert by_name["gather:local-profiles"]["bytes_gathered"] == 2 * m * 4 * 8
