"""Ego profiles: serial/parallel equivalence, the pivot arithmetic, both
orientations of the pass and the sibling pairs it checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprof import (IntegrityError, UndirectedGraph, UsageError, ego, ego_parallel,
                     load_edge_list, profiles)
from triprof.cli import main
from triprof.oracle import brute_force_ego, brute_force_four_cliques, ego_serial

from conftest import (chung_lu, community_graph, complete_graph, er_graph, load_text,
                      star_graph)

# Sibling pairs of TestWorkCounters' two passes. The degree order checks
# 25 636 on the first graph.
PINNED_SUBSET_PAIRS = 5907
PINNED_HUB_PAIRS = 2506

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

        g = load_text("a b\nb c\nc d\nd e\n")
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

        g = load_text("x y\ny z\nz x\nz w\n")  # triangle x y z, tail z w
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
            cn = sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b in g.neighbors(a))
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


def traced_ego(g, centers):
    """ego_parallel's table, the tail ranks its pass enumerated (None for the
    degree order, which enumerates every out-list) and the sibling pairs the
    pass checked."""
    tail_ranks, pairs = [], []
    real_steps, real_closing = ego._triangle_steps, profiles._closing_edges

    def steps(*args, **kwargs):
        tail_ranks.append(kwargs.get("tail_ranks"))
        return real_steps(*args, **kwargs)

    def closing(o, qbits, p0, i, j):
        pairs.append(len(i))
        return real_closing(o, qbits, p0, i, j)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ego, "_triangle_steps", steps)
        mp.setattr(profiles, "_closing_edges", closing)
        table = ego_parallel(g, centers)
    assert len(tail_ranks) == 1
    return table, tail_ranks[0], sum(pairs)


def degree_order_pairs(g):
    """Sum of C(d+, 2) over every vertex, out-degrees under the degree order."""
    d = np.diff(profiles.orient(g).out_ptr)
    return int((d * (d - 1) // 2).sum())


def center_first_pairs(g, centers):
    """Sum of C(d+, 2) over the centers, vertices ranked by (not a center,
    degree, id), counted from the edge list alone."""
    is_center = np.zeros(g.vertex_count, dtype=bool)
    is_center[centers] = True
    key = [(not is_center[v], g.degree(v), v) for v in range(g.vertex_count)]
    out = np.zeros(g.vertex_count, dtype=np.int64)
    for u, w in zip(g.edge_u.tolist(), g.edge_w.tolist()):
        out[min(u, w, key=key.__getitem__)] += 1
    d = out[is_center]
    return int((d * (d - 1) // 2).sum())


def grown(g, clique=(), isolated=0):
    """g with every edge among the ``clique`` vertices and ``isolated`` more
    vertices added."""
    pairs = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    return UndirectedGraph.from_edges(
        np.concatenate([np.stack([g.edge_u, g.edge_w], axis=1), np.reshape(pairs, (-1, 2))]),
        vertex_count=g.vertex_count + isolated)


def hubs(g, k):
    return np.argsort(-g.degrees, kind="stable")[:k]


class TestCenterFirst:
    """ego ranks the centers first when their sibling pairs cannot outnumber
    any orientation's, and ranks every vertex by degree otherwise; both
    orders give the oracle's table."""

    @pytest.mark.parametrize("build, pick, first", [
        (lambda: community_graph(300, 1200, seed=5), lambda g: np.argsort(g.degrees, kind="stable")[:12],
         True),
        (lambda: chung_lu(400, 1600, 1.6, seed=6), lambda g: hubs(g, 5), False),
        (lambda: er_graph(30, 0.3, np.random.default_rng(7)), lambda g: np.arange(1, 30), False),
        (lambda: star_graph(9), lambda g: np.arange(1, 10), True),
        (lambda: grown(community_graph(200, 800, seed=8), isolated=3),
         lambda g: np.array([201, 5, 201, 202, 5, 17, 200, 17]), True),
        (lambda: grown(community_graph(300, 1200, seed=9), clique=[3, 40, 77, 150, 201, 299]),
         lambda g: np.array([3, 40, 77, 150, 201, 299]), True),
    ], ids=["sparse-low-degree", "chung-lu-hubs", "all-but-one", "all-but-the-hub",
            "isolated-and-duplicate", "clique-of-centers"])
    def test_each_order_matches_the_oracle(self, build, pick, first):
        g = build()
        centers = pick(g)
        table, tail_ranks, _ = traced_ego(g, centers)
        distinct = list(dict.fromkeys(centers.tolist()))
        assert (tail_ranks == len(distinct)) if first else tail_ranks is None
        assert list(table) == distinct
        assert table == ego_serial(g, centers) == {v: brute_force_ego(g, v) for v in distinct}

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["er", "chung-lu", "community"]), seed=st.integers(0, 2 ** 16),
           share=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    def test_random_center_subsets(self, kind, seed, share):
        """Either order matches the oracle, and the pass never checks more
        sibling pairs than the degree order's sum of C(d+, 2)."""
        rng = np.random.default_rng(seed)
        g = {"er": lambda: er_graph(int(rng.integers(5, 40)), 0.25, rng),
             "chung-lu": lambda: chung_lu(80, 300, 1.7, seed),
             "community": lambda: community_graph(120, 400, seed)}[kind]()
        centers = np.flatnonzero(rng.random(g.vertex_count) < share)
        table, tail_ranks, pairs = traced_ego(g, centers)
        assert table == ego_serial(g, centers)
        assert pairs <= degree_order_pairs(g)
        if tail_ranks is not None:
            assert pairs == center_first_pairs(g, centers)


class TestWorkCounters:
    """The sibling pairs ego's pass checks, pinned as exact integers."""

    def test_center_subset_checks_only_the_centers_pairs(self):
        g = community_graph(3000, 12000, seed=7)
        centers = np.random.default_rng(1).choice(g.vertex_count, 200, replace=False)
        _, tail_ranks, pairs = traced_ego(g, centers)
        assert tail_ranks == 200
        assert pairs == center_first_pairs(g, centers) == PINNED_SUBSET_PAIRS

    def test_every_center_ranks_first_without_a_view(self, tmp_path):
        """Under ``ego --all`` ranking the centers first is the degree order:
        the pass enumerates every out-list, checks the degree order's pairs
        and builds no view of the edges into centers."""
        g = chung_lu(3000, 12000, 1.6, seed=11)
        path = tmp_path / "g.txt"
        g.write_edge_list(path)
        g = load_edge_list(path)
        tail_ranks, views, real_steps, real_view = [], [], ego._triangle_steps, ego._view

        def steps(*args, **kwargs):
            tail_ranks.append(kwargs.get("tail_ranks"))
            return real_steps(*args, **kwargs)

        def view(*args):
            views.append(args)
            return real_view(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ego, "_triangle_steps", steps)
            mp.setattr(ego, "_view", view)
            assert main(["ego", str(path), "--all", "--no-timing",
                         "--out", str(tmp_path / "r.json")]) == 0
        assert tail_ranks == [g.vertex_count]
        assert views == []
        assert traced_ego(g, np.arange(g.vertex_count))[2] == degree_order_pairs(g)

    def test_hub_centers_check_the_degree_orders_pairs(self):
        g = chung_lu(3000, 12000, 1.6, seed=11)
        _, tail_ranks, pairs = traced_ego(g, hubs(g, 20))
        assert tail_ranks is None
        assert pairs == degree_order_pairs(g) == PINNED_HUB_PAIRS
