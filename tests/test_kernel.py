"""The shared triangle enumeration and its consumers against brute force:
per-edge triangle counts, ego profiles, the polynomial census and the
polynomial values, and the masked sampled profile against a rebuilt subgraph.

Every case also runs with the step budgets (pairs per step, and triangle
extensions per step of the 4-clique pass) at 1 and at a small prime, so that
step boundaries fall everywhere, inside one vertex's out-list too (in K7 the
lowest-ranked vertex alone has 15 sibling pairs). Ego also runs on random
center subsets, so that 4-cliques are found both from a center triangle and
through the out-lists restricted to center heads.
"""

import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprof import (Engine, PolynomialValues, UndirectedGraph, UsageError, census_terms,
                     compute_profile, ego, ego_parallel, engine, evaluate_polynomials,
                     profiles, subgraph_from_mask, theory)
from triprof.oracle import brute_force_ego, ego_serial

from conftest import (chung_lu, community_graph, complete_graph, hub_joined_cliques, load_text,
                      star_graph)


def brute_edge_triangles(g):
    nbrs = [set(map(int, g.neighbors(v))) for v in range(g.vertex_count)]
    return np.array([len(nbrs[int(u)] & nbrs[int(w)]) for u, w in zip(g.edge_u, g.edge_w)],
                    dtype=np.int64)


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
    "vertex-count-padding": load_text("a b\nb c\nc a\nc d\nd a\nb a\n", vertex_count=10),
    "skewed-a": chung_lu(60, 400, 1.6, seed=1),
    "skewed-b": chung_lu(200, 900, 1.8, seed=2),
    "skewed-c": chung_lu(40, 600, 1.5, seed=3),
}


@cache
def brute_terms(name):
    """Sorted triangle edge-id triples, sorted open-wedge edge-id pairs,
    per-edge lone-edge weights and the empty-triple count."""
    g = CASES[name]
    n = g.vertex_count
    nbrs = [set(map(int, g.neighbors(v))) for v in range(n)]
    eid = {(int(u), int(w)): i for i, (u, w) in enumerate(zip(g.edge_u, g.edge_w))}

    def edge(x, y):
        return eid[(min(x, y), max(x, y))]

    tris = sorted(tuple(sorted((edge(u, w), edge(u, x), edge(w, x))))
                  for (u, w) in eid for x in nbrs[u] & nbrs[w] if x > w)
    wedges = sorted(tuple(sorted((edge(c, x), edge(c, y))))
                    for c in range(n) for x in nbrs[c] for y in nbrs[c]
                    if x < y and y not in nbrs[x])
    iso = [n - len(nbrs[u] | nbrs[w]) for (u, w) in eid]
    n0 = math.comb(n, 3) - sum(iso) - len(wedges) - len(tris)
    return tris, wedges, iso, n0


@cache
def brute_egos(name):
    g = CASES[name]
    return {v: brute_force_ego(g, v) for v in range(g.vertex_count)}


def set_budget(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(profiles, "PAIR_BUDGET", budget)
        monkeypatch.setattr(ego, "EXTENSION_BUDGET", budget)


@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_brute_force(name, budget, monkeypatch):
    set_budget(budget, monkeypatch)
    g = CASES[name]
    tri = profiles.edge_triangle_counts(g)
    assert tri.dtype == np.int64
    assert tri.shape == (g.edge_count,)
    assert np.array_equal(tri, brute_edge_triangles(g))


@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_brute_force_with_coarsened_sort(name, budget, monkeypatch):
    # 62 query bits leave one bit for the index, so every step with two or
    # more pairs sorts its queries shifted right
    set_budget(budget, monkeypatch)
    real = profiles._packed_order
    monkeypatch.setattr(profiles, "_packed_order", lambda query, qbits: real(query, 62))
    g = CASES[name]
    assert np.array_equal(profiles.edge_triangle_counts(g), brute_edge_triangles(g))


@pytest.mark.parametrize("qbits", [8, 60, 63])
def test_packed_order_sorts_by_the_kept_query_bits(qbits):
    query = np.random.default_rng(qbits).integers(0, 2 ** qbits, size=1000)
    s = profiles._packed_order(query, qbits)
    assert sorted(s.tolist()) == list(range(1000))
    shift = max(qbits + 10 - 63, 0)  # 1000 has 10 bits
    kept = query[s] >> shift
    assert np.all((kept[1:] > kept[:-1]) | ((kept[1:] == kept[:-1]) & (s[1:] > s[:-1])))
    if not shift:
        assert np.array_equal(query[s], np.sort(query))


@pytest.mark.parametrize("name", sorted(CASES))
def test_orientation_same_on_both_sides_of_the_packing_check(name, monkeypatch):
    """orient ranks the vertices and orders the keys with one value sort of
    (value << ibits) | index where that fits in PACKED_BITS, else with a
    stable argsort; both sides give the same Orientation."""
    g = CASES[name]
    real, packed = profiles._value_sort, []

    def spy(values, vbits):
        packed.append(vbits + len(values).bit_length() <= profiles.PACKED_BITS)
        return real(values, vbits)

    monkeypatch.setattr(profiles, "_value_sort", spy)
    by_value = profiles.orient(g)
    monkeypatch.setattr(profiles, "PACKED_BITS", -1)  # nothing fits, even no bits
    by_argsort = profiles.orient(g)
    assert packed == [True, True, False, False]
    for field, a, b in zip(profiles.Orientation._fields, by_value, by_argsort):
        assert np.array_equal(a, b), field
    n = g.vertex_count
    assert np.array_equal(by_value.rank[np.lexsort((np.arange(n), g.degrees))], np.arange(n))


@pytest.mark.parametrize("name", sorted(CASES))
def test_orientation_is_its_sorted_keys(name, monkeypatch):
    """The orientation keeps the ranks, the edge ids, the sorted keys and
    their out-list pointers, 8(2|E| + 2|V| + 1) bytes, and no tail or head
    array; a masked run's view holds only the kept keys and their pointers."""
    g = CASES[name]
    n, m = g.vertex_count, g.edge_count
    o = profiles.orient(g)
    assert profiles.Orientation._fields == ("n", "rank", "order", "keys", "out_ptr")
    assert sum(a.nbytes for a in o[1:]) == 8 * (2 * m + 2 * n + 1)
    views, real = [], profiles._triangle_steps

    def spy(view, *args):
        views.append(view)
        return real(view, *args)

    monkeypatch.setattr(profiles, "_triangle_steps", spy)
    mask = np.arange(m) % 3 != 1
    profiles.masked_profile(o, mask)
    view, = views
    kept = o.keys[mask[o.order]]
    assert view.order is None and view.rank is o.rank and view.n == n
    assert np.array_equal(view.keys, kept)
    assert np.array_equal(view.out_ptr, np.searchsorted(kept, np.arange(n + 1) * n))
    assert view.keys.nbytes + view.out_ptr.nbytes == 8 * (len(kept) + n + 1)


def test_kernel_memory_does_not_grow_with_vertices():
    """On 12 edges padded to a million vertices, a count on a built
    orientation holds per-edge and per-step arrays only: one |V|-length
    array, such as tails taken from the out-list pointers, is 8 MiB."""
    small = CASES["hub-cliques-padded"]
    g = UndirectedGraph.from_edges(np.stack([small.edge_u, small.edge_w], axis=1),
                                   vertex_count=10 ** 6)
    o = profiles.orient(g)
    tracemalloc.start()
    try:
        tri = profiles.edge_triangle_counts(g, orientation=o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(tri, brute_edge_triangles(small))
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_ego_matches_brute_force(name, budget, monkeypatch):
    set_budget(budget, monkeypatch)
    g = CASES[name]
    assert ego_parallel(g, range(g.vertex_count)) == brute_egos(name)


@settings(max_examples=15, deadline=None)
@given(subset=st.sampled_from(["none", "one", "some", "all"]), seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_ego_on_center_subsets_matches_serial_and_brute_force(name, budget, subset, seed):
    g = CASES[name]
    n = g.vertex_count
    rng = np.random.default_rng(seed)
    size = {"none": 0, "one": min(n, 1), "some": int(rng.integers(0, n + 1)), "all": n}[subset]
    centers = rng.permutation(n)[:size]
    with pytest.MonkeyPatch.context() as mp:
        set_budget(budget, mp)
        par = ego_parallel(g, centers)
        ser = ego_serial(g, centers)
    assert list(par) == list(ser) == centers.tolist()
    assert par == ser == {v: brute_egos(name)[v] for v in centers.tolist()}


@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_census_terms_match_brute_force(name, budget, monkeypatch):
    set_budget(budget, monkeypatch)
    g = CASES[name]
    terms = census_terms(g)
    tris, wedges, iso, n0 = brute_terms(name)
    assert terms.wedge_count == len(wedges)
    assert terms.triangle_count == len(tris)
    assert terms.profile.n0 == n0


def test_census_memory_does_not_grow_with_triangles(monkeypatch):
    """K150 has 551 300 triangles, 12.6 MiB as edge-id triples; the census of
    two masks holds per-edge and per-vertex arrays and one small step. A
    triangle table peaked at 25.6 MiB here."""
    set_budget(4096, monkeypatch)
    g = complete_graph(150)
    rng = np.random.default_rng(5)
    masks = [rng.random(g.edge_count) < 0.5 for _ in range(2)]
    tracemalloc.start()
    try:
        terms = census_terms(g, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms.triangle_count == math.comb(150, 3)
    assert [v.y3 for v in terms.values] == [
        evaluate_polynomials(g, t).y3 for t in masks]
    assert peak < 4 << 20, peak


def brute_polynomials(name, t):
    """The nine polynomial values on mask ``t``, each lone-edge triple, open
    wedge and triangle of ``brute_terms`` classified by its kept edges."""
    tris, wedges, iso, n0 = brute_terms(name)
    y = [n0, 0, 0, 0]
    s1 = d1 = d2 = t1 = t2 = 0
    for e, weight in enumerate(iso):
        y[int(t[e])] += weight
        s1 += weight * int(t[e])
    for arms in wedges:
        k = sum(int(t[e]) for e in arms)
        y[k] += 1
        d1 += k
        d2 += k == 2
    for sides in tris:
        k = sum(int(t[e]) for e in sides)
        y[k] += 1
        t1 += k
        t2 += math.comb(k, 2)
    return PolynomialValues(*y, s1, d1, d2, t1, t2)


@pytest.mark.parametrize("p", [0.0, 1e-9, 0.5, 1.0])
@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_polynomials_match_brute_force(name, budget, p, monkeypatch):
    set_budget(budget, monkeypatch)
    g = CASES[name]
    terms = census_terms(g)
    rng = np.random.default_rng(17)
    for _ in range(3):
        mask = rng.random(g.edge_count) < p
        got = evaluate_polynomials(g, mask, terms)
        assert got == brute_polynomials(name, mask)
        assert all(type(x) is int for x in got.as_json().values())


@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_census_of_many_masks_matches_brute_force(name, budget, monkeypatch):
    """Eleven masks, so the packed masks span two bytes per edge."""
    set_budget(budget, monkeypatch)
    g = CASES[name]
    rng = np.random.default_rng(11)
    masks = [rng.random(g.edge_count) < p for p in np.linspace(0, 1, 11)]
    terms = census_terms(g, iter(masks))
    assert terms == census_terms(g, masks)
    assert list(terms.values) == [brute_polynomials(name, t) for t in masks]


@pytest.mark.parametrize("name", ["k7", "hub-cliques-padded", "skewed-b"])
def test_census_of_twenty_masks_is_one_pass(name, monkeypatch):
    """Twenty masks (three mask bytes) share one orientation and one pass of
    the enumeration, and each mask's values are its brute-force values."""
    calls = []

    def counted(real):
        def spy(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(theory, "orient", counted(theory.orient))
    monkeypatch.setattr(theory, "_triangle_steps", counted(theory._triangle_steps))
    g = CASES[name]
    rng = np.random.default_rng(20)
    masks = [rng.random(g.edge_count) < p for p in np.linspace(0, 1, 20)]
    terms = census_terms(g, masks)
    assert sorted(calls) == ["_triangle_steps", "orient"]
    assert list(terms.values) == [brute_polynomials(name, t) for t in masks]


def rebuilt_profile(g, mask):
    return compute_profile(subgraph_from_mask(g, mask))[0]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       p=st.sampled_from([0.0, 1e-9, 0.1, 0.5, 0.9, 1 - 1e-9, 1.0]) | st.floats(0, 1))
@pytest.mark.parametrize("budget", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_masked_profile_matches_rebuilt_subgraph(name, budget, seed, p):
    g = CASES[name]
    mask = np.random.default_rng(seed).random(g.edge_count) < p
    with pytest.MonkeyPatch.context() as mp:
        set_budget(budget, mp)
        got = profiles.masked_profile(profiles.orient(g), mask)
    assert got == rebuilt_profile(g, mask)
    assert all(type(x) is int for x in got.as_tuple())


@pytest.mark.parametrize("name", sorted(CASES))
def test_masked_profile_keeps_all_or_nothing(name):
    g = CASES[name]
    o = profiles.orient(g)
    assert profiles.masked_profile(o, np.ones(g.edge_count, dtype=bool)) == compute_profile(g)[0]
    empty = profiles.masked_profile(o, np.zeros(g.edge_count, dtype=bool))
    assert empty.as_tuple() == (math.comb(g.vertex_count, 3), 0, 0, 0)


@pytest.mark.parametrize("length", [0, 5, 7])
def test_mask_of_wrong_length_is_usage_error(length):
    g = CASES["hub-cliques-padded"]  # 12 edges
    mask = np.ones(length, dtype=bool)
    with pytest.raises(UsageError):
        profiles.masked_profile(profiles.orient(g), mask)
    with pytest.raises(UsageError):
        subgraph_from_mask(g, mask)


@pytest.mark.parametrize("build", [lambda: community_graph(600, 2400, seed=8),
                                   lambda: chung_lu(300, 2500, 1.6, seed=9)],
                         ids=["clustered", "skewed"])
def test_every_consumer_same_for_every_worker_count(build, monkeypatch):
    """With steps of a few pairs and extensions, a hub's out-list spans many
    steps and every worker takes several; the four consumers of the shared
    enumeration give the same integers for one, two and three workers."""
    g = build()
    rng = np.random.default_rng(3)
    masks = [rng.random(g.edge_count) < p for p in (0.2, 0.5, 0.9) * 4]  # two mask bytes
    centers = rng.choice(g.vertex_count, g.vertex_count // 3, replace=False)
    o = profiles.orient(g)
    monkeypatch.setattr(engine, "usable_cpus", lambda: 3)  # three workers run on any machine
    monkeypatch.setattr(profiles, "PAIR_BUDGET", 5)
    monkeypatch.setattr(ego, "EXTENSION_BUDGET", 3)
    results = []
    for workers in (1, 2, 3):
        e = Engine(workers)
        results.append((profiles.edge_triangle_counts(g, e).tolist(),
                        [profiles.masked_profile(o, t, e) for t in masks[:3]],
                        ego_parallel(g, centers, e).counts.tolist(),
                        ego_parallel(g, range(g.vertex_count), e).counts.tolist(),
                        census_terms(g, masks, e)))
    assert results[0] == results[1] == results[2]
    monkeypatch.undo()
    assert results[0] == (profiles.edge_triangle_counts(g).tolist(),
                          [profiles.masked_profile(o, t) for t in masks[:3]],
                          ego_parallel(g, centers).counts.tolist(),
                          ego_parallel(g, range(g.vertex_count)).counts.tolist(),
                          census_terms(g, masks))
    assert sum(results[0][0]) > 0 and results[0][2]
