"""The compact-forward triangle kernel against brute-force common-neighbor counts.

Every case also runs with the kernel's pair budget at 1 and at a small prime,
so that step boundaries fall everywhere, inside one vertex's out-list too
(in K7 the lowest-ranked vertex alone has 15 sibling pairs).
"""

import io

import numpy as np
import pytest

from triprof import UndirectedGraph, load_edge_list, profiles

from conftest import complete_graph, star_graph


def brute_edge_triangles(g):
    nbrs = [set(map(int, g.neighbors(v))) for v in range(g.vertex_count)]
    return np.array([len(nbrs[int(u)] & nbrs[int(w)]) for u, w in zip(g.edge_u, g.edge_w)],
                    dtype=np.int64)


def hub_joined_cliques(sizes):
    """Cliques of the given sizes, every vertex also joined to hub vertex 0."""
    pairs, start = [], 1
    for s in sizes:
        members = range(start, start + s)
        pairs += [(a, b) for a in members for b in members if a < b]
        pairs += [(0, a) for a in members]
        start += s
    return UndirectedGraph.from_edges(pairs)


def chung_lu(n, draws, exponent, seed):
    """Small skewed graph: endpoints drawn in proportion to power-law weights."""
    rng = np.random.default_rng(seed)
    weights = (np.arange(1, n + 1) / n) ** (-1 / (exponent - 1))
    ends = rng.choice(n, size=(draws, 2), p=weights / weights.sum())
    return UndirectedGraph.from_edges(ends, vertex_count=n)


CASES = {
    "empty": UndirectedGraph.from_edges([]),
    "isolated-only": UndirectedGraph.from_edges([], vertex_count=4),
    "one-edge": UndirectedGraph.from_edges([(0, 1)]),
    "one-edge-padded": UndirectedGraph.from_edges([(2, 5)], vertex_count=9),
    "star-1": star_graph(1),
    "star-12": star_graph(12),
    "k7": complete_graph(7),
    "hub-cliques": hub_joined_cliques([3, 4, 6, 9]),
    "hub-cliques-padded": UndirectedGraph.from_edges(
        [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(0, 9), (9, 1)],
        vertex_count=14),
    "duplicates-reversed": UndirectedGraph.from_edges(
        [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (0, 2), (2, 3), (3, 3), (3, 0)]),
    "vertex-count-padding": load_edge_list(
        io.StringIO("a b\nb c\nc a\nc d\nd a\nb a\n"), vertex_count=10),
    "skewed-a": chung_lu(60, 400, 1.6, seed=1),
    "skewed-b": chung_lu(200, 900, 1.8, seed=2),
    "skewed-c": chung_lu(40, 600, 1.5, seed=3),
}


@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_brute_force(name, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(profiles, "PAIR_BUDGET", budget)
    g = CASES[name]
    tri = profiles.edge_triangle_counts(g)
    assert tri.dtype == np.int64
    assert tri.shape == (g.edge_count,)
    assert np.array_equal(tri, brute_edge_triangles(g))

