"""Shared fixtures and graph generators for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import triprof
from triprof import UndirectedGraph

ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


@pytest.fixture(autouse=True, scope="session")
def children_import_this_triprof():
    """Interpreters a test starts (``python -m triprof``) import the triprof
    under test, also when it is on the path only through pytest's config."""
    parts = [str(Path(triprof.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, parts)))
        yield


def log_acceptance(criterion: str, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((criterion, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, detail in ACCEPTANCE_RESULTS:
        line = f"PASS  {criterion}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


def complete_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph.from_edges(
        [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph.from_edges([(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> UndirectedGraph:
    return UndirectedGraph.from_edges([(0, i) for i in range(1, leaves + 1)])


def hub_joined_cliques(sizes):
    """Cliques of the given sizes, every vertex also joined to hub vertex 0."""
    pairs, start = [], 1
    for s in sizes:
        members = range(start, start + s)
        pairs += [(a, b) for a in members for b in members if a < b]
        pairs += [(0, a) for a in members]
        start += s
    return UndirectedGraph.from_edges(pairs)


def er_graph(n: int, density: float, rng: np.random.Generator) -> UndirectedGraph:
    """Erdos-Renyi G(n, density) with the full vertex set kept."""
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < density
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    return UndirectedGraph.from_edges(pairs, vertex_count=n)


def er_corpus(count: int, seed: int, sizes=(4, 64),
              densities=(0.05, 0.1, 0.3, 0.6)) -> list[UndirectedGraph]:
    """Seeded corpus of random graphs cycling through the density grid."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(sizes[0], sizes[1] + 1))
        graphs.append(er_graph(n, densities[i % len(densities)], rng))
    return graphs


def chung_lu(n: int, draws: int, exponent: float, seed: int) -> UndirectedGraph:
    """Small skewed graph: endpoints drawn in proportion to power-law weights."""
    rng = np.random.default_rng(seed)
    weights = (np.arange(1, n + 1) / n) ** (-1 / (exponent - 1))
    ends = rng.choice(n, size=(draws, 2), p=weights / weights.sum())
    return UndirectedGraph.from_edges(ends, vertex_count=n)


def community_graph(n_vertices: int, target_edges: int, seed: int) -> UndirectedGraph:
    """Clustered graph (many small cliques plus random edges), triangle-rich
    like citation networks, with at least target_edges edges."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_vertices)
    sizes = rng.integers(5, 10, size=n_vertices // 5)
    sizes = sizes[np.cumsum(sizes) <= n_vertices]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    chunks = []
    for s in np.unique(sizes):
        groups = offsets[sizes == s]
        members = np.stack([perm[groups + i] for i in range(s)], axis=1)
        iu, ju = np.triu_indices(s, 1)
        chunks.append(np.stack([members[:, iu].ravel(), members[:, ju].ravel()], axis=1))
    clique_edges = np.concatenate(chunks)
    extra = max(0, target_edges - len(clique_edges))
    random_edges = rng.integers(0, n_vertices, size=(int(extra * 1.15) + 16, 2))
    return UndirectedGraph.from_edges(
        np.concatenate([clique_edges, random_edges]), vertex_count=n_vertices)


@pytest.fixture
def k4() -> UndirectedGraph:
    return complete_graph(4)


@pytest.fixture
def c5() -> UndirectedGraph:
    return cycle_graph(5)


@pytest.fixture
def star3() -> UndirectedGraph:
    return star_graph(3)
