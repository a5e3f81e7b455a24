"""The brute-force references themselves, on hand-checkable graphs."""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triprof import UndirectedGraph, UsageError, ego_parallel, oracle
from triprof.oracle import (brute_force_ego, brute_force_four_cliques,
                            brute_force_local, brute_force_profile)

from conftest import chung_lu, community_graph, complete_graph, er_graph, star_graph


class TestProfile:
    def test_k4(self, k4):
        assert brute_force_profile(k4).as_tuple() == (0, 0, 0, 4)

    def test_c5(self, c5):
        assert brute_force_profile(c5).as_tuple() == (0, 5, 5, 0)

    def test_edge_plus_isolated_vertex(self):
        g = UndirectedGraph.from_edges([(0, 1)], vertex_count=3)
        assert brute_force_profile(g).as_tuple() == (0, 1, 0, 0)

    def test_total_is_binomial(self):
        rng = np.random.default_rng(51)
        g = er_graph(25, 0.3, rng)
        assert brute_force_profile(g).total() == math.comb(25, 3)

    def test_cap_enforced(self):
        g = UndirectedGraph.from_edges([], vertex_count=300)
        with pytest.raises(UsageError):
            brute_force_profile(g)


class TestLocal:
    def test_c5_vertex(self, c5):
        locals_ = brute_force_local(c5)
        for v in range(5):
            assert locals_.row(v) == (0, 2, 1, 2, 1, 0)

    def test_star_leaf(self):
        locals_ = brute_force_local(star_graph(3))
        assert locals_.row(1) == (1, 0, 0, 2, 0, 0)

    def test_per_vertex_sums(self):
        rng = np.random.default_rng(52)
        g = er_graph(20, 0.4, rng)
        locals_ = brute_force_local(g)
        totals = (locals_.n0 + locals_.n1_e + locals_.n1_d
                  + locals_.n2_e + locals_.n2_c + locals_.n3)
        assert np.all(totals == math.comb(19, 2))

    def test_aggregates_to_global_oracle(self):
        rng = np.random.default_rng(53)
        g = er_graph(22, 0.3, rng)
        locals_ = brute_force_local(g)
        prof = brute_force_profile(g)
        assert int(locals_.n0.sum()) == 3 * prof.n0
        assert int((locals_.n1_e + locals_.n1_d).sum()) == 3 * prof.n1
        assert int((locals_.n2_e + locals_.n2_c).sum()) == 3 * prof.n2
        assert int(locals_.n3.sum()) == 3 * prof.n3


class TestEgo:
    def test_k4_center(self, k4):
        assert brute_force_ego(k4, 0).as_tuple() == (0, 0, 0, 1)

    def test_low_degree_center_is_zero(self, c5):
        assert brute_force_ego(c5, 0).as_tuple() == (0, 0, 0, 0)

    def test_star_center(self):
        assert brute_force_ego(star_graph(3), 0).as_tuple() == (1, 0, 0, 0)

    def test_ego_total(self):
        rng = np.random.default_rng(54)
        g = er_graph(20, 0.5, rng)
        for v in range(g.vertex_count):
            assert brute_force_ego(g, v).total() == math.comb(g.degree(v), 3)

    def test_memory_follows_the_degree(self):
        """One center of an 8000-vertex degree-4 circulant: a 4 x 4 matrix,
        not an 8000 x 8000 one (61 MiB)."""
        n = 8000
        ring = np.arange(n)
        g = UndirectedGraph.from_edges(np.concatenate(
            [np.stack([ring, (ring + k) % n], axis=1) for k in (1, 2)]))
        g.neighbors(0)  # builds the adjacency the call reads
        tracemalloc.start()
        try:
            got = brute_force_ego(g, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert got.as_tuple() == tuple(ego_parallel(g, [5]).counts[0]) == (0, 2, 2, 0)

    @pytest.mark.parametrize("build", [lambda: community_graph(600, 2400, seed=8),
                                       lambda: chung_lu(200, 900, 1.8, seed=2)],
                             ids=["clustered", "skewed"])
    def test_reads_only_the_neighborhood(self, build, monkeypatch):
        """Each call reads the CSR rows of the center's neighbors and no
        canonical edge array: with ``edge_u`` and ``edge_w`` raising once the
        CSR is built, every center still equals ``ego_parallel``."""
        g = build()
        want = ego_parallel(g, range(g.vertex_count)).counts
        g.indptr  # builds the CSR, which reads the canonical edges

        def unreadable(graph):
            raise AssertionError("brute_force_ego read a canonical edge array")

        monkeypatch.setattr(UndirectedGraph, "edge_u", property(unreadable))
        monkeypatch.setattr(UndirectedGraph, "edge_w", property(unreadable))
        got = [brute_force_ego(g, v).as_tuple() for v in range(g.vertex_count)]
        assert g.degrees.max() > 10
        assert np.array_equal(np.array(got, dtype=np.int64), want)


class TestFourCliques:
    def test_k4_and_k5(self):
        assert brute_force_four_cliques(complete_graph(4)) == 1
        assert brute_force_four_cliques(complete_graph(5)) == 5

    def test_c5(self, c5):
        assert brute_force_four_cliques(c5) == 0

    def test_matches_combination_enumeration(self):
        import itertools

        rng = np.random.default_rng(55)
        g = er_graph(14, 0.5, rng)
        count = 0
        for quad in itertools.combinations(range(14), 4):
            if all(b in g.neighbors(a) for a, b in itertools.combinations(quad, 2)):
                count += 1
        assert brute_force_four_cliques(g) == count


@st.composite
def small_graphs(draw):
    """Any simple graph on 0 to 9 vertices."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return UndirectedGraph.from_edges([pair for pair, k in zip(pairs, keep) if k],
                                      vertex_count=n)


# LocalProfile field of a triple member, by the triple's edge count and the
# member's degree within the triple
ROLE_BY_DEGREE = {(0, 0): "n0", (1, 1): "n1_e", (1, 0): "n1_d",
                  (2, 1): "n2_e", (2, 2): "n2_c", (3, 2): "n3"}


@settings(max_examples=80, deadline=None)
@given(small_graphs())
@example(complete_graph(9))
@example(star_graph(8))
@example(UndirectedGraph.from_edges([], vertex_count=9))
def test_oracles_follow_the_definition(g):
    """The three triple oracles against the literal definition: every vertex
    triple from ``itertools``, counted by its edges, each member in the field
    its degree within the triple gives, and every center's triples of
    neighbors counted by the edges among them."""
    n = g.vertex_count
    adj = [set(g.neighbors(v).tolist()) for v in range(n)]
    profile = [0, 0, 0, 0]
    local = {field: [0] * n for field in ROLE_BY_DEGREE.values()}
    for triple in itertools.combinations(range(n), 3):
        degree = {v: len(adj[v].intersection(triple)) for v in triple}
        k = sum(degree.values()) // 2
        profile[k] += 1
        for v in triple:
            local[ROLE_BY_DEGREE[k, degree[v]]][v] += 1
    assert brute_force_profile(g).as_tuple() == tuple(profile)
    got = brute_force_local(g)
    assert {field: getattr(got, field).tolist() for field in local} == local
    for v in range(n):
        ego = [0, 0, 0, 0]
        for triple in itertools.combinations(sorted(adj[v]), 3):
            ego[sum(b in adj[a] for a, b in itertools.combinations(triple, 2))] += 1
        assert brute_force_ego(g, v).as_tuple() == tuple(ego)


def test_brute_force_shares_no_pipeline_code():
    """The brute-force counts, and every ``oracle.py`` definition they reach,
    use no name from ``profiles``, ``ego``, ``theory``, ``sampling`` or
    ``engine`` but the result types, so an oracle cannot inherit a pipeline
    fault. ``ego_serial`` and ``induced_subgraph``, the materializing
    references, are exempt unless a brute-force count reaches them."""
    pipeline = {"profiles", "ego", "theory", "sampling", "engine"}
    results = {"ProfileVector", "LocalProfile", "EgoProfile"}
    tree = ast.parse(Path(oracle.__file__).read_text())

    def pipeline_names(node):
        """Names bound by the imports under ``node`` that come from the pipeline."""
        bound = set()
        for imp in ast.walk(node):
            if isinstance(imp, ast.ImportFrom):
                source = (imp.module or "").split(".")[-1]
                bound |= {a.asname or a.name for a in imp.names
                          if source in pipeline or a.name in pipeline}
            elif isinstance(imp, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in imp.names
                          if pipeline.intersection(a.name.split("."))}
        return bound

    definitions = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            definitions.update({t.id: node for t in targets if isinstance(t, ast.Name)})
    forbidden = pipeline_names(tree) - results
    roots = sorted(name for name in definitions if name.startswith("brute_force_"))
    assert roots == ["brute_force_ego", "brute_force_four_cliques", "brute_force_local",
                     "brute_force_profile"]
    seen, todo, found = set(), list(roots), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        node = definitions[name]
        found += [(name, f"imports {bad}") for bad in sorted(pipeline_names(node))]
        for ref in ast.walk(node):
            if isinstance(ref, ast.Name) and ref.id in forbidden:
                found.append((name, ref.id))
            elif isinstance(ref, ast.Name) and ref.id in definitions:
                todo.append(ref.id)
    assert {"_dense_adjacency", "_classify_triples", "_triple_counts"} <= seen
    assert found == []
