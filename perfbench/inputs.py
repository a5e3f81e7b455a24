"""Seeded, offline graph inputs for the benchmark.

Each recipe builds an edge list (pairs of base vertex ids, in file order) from
its own seed. The base pairs are cached under a key made of the recipe, so a
checkout generates each graph once. The benchmark seed then only relabels the
vertices (a seeded permutation of the label strings); line order and endpoint
order stay as the recipe made them. Relabeling keeps every count the CLI
reports, and it keeps the CLI's first-appearance vertex ids, so the pinned
profiles and digests in ``workloads.py`` hold for every benchmark seed while
each seed still hands the CLI a different file.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def community_pairs(n_vertices: int, target_edges: int, seed: int) -> np.ndarray:
    """Raw (u, w) pairs of ``tests/conftest.py::community_graph``.

    A copy of that generator up to the ``from_edges`` call, so the benchmark
    runs where the tests directory is absent; ``canonical_edges`` of these
    pairs equals ``edge_u``/``edge_w`` of the graph the test helper builds.
    """
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
    return np.concatenate([clique_edges, random_edges]).astype(np.int64)


def chung_lu_pairs(n_vertices: int, draws: int, exponent: float, seed: int) -> np.ndarray:
    """Chung-Lu pairs with weights i**(-1/exponent), ids permuted at the end.

    Self-loops and repeated pairs are kept in the file; the CLI drops them.
    """
    rng = np.random.default_rng(seed)
    w = np.arange(1, n_vertices + 1, dtype=np.float64) ** (-1.0 / exponent)
    p = w / w.sum()
    u = rng.choice(n_vertices, draws, p=p)
    v = rng.choice(n_vertices, draws, p=p)
    perm = rng.permutation(n_vertices)
    return np.stack([perm[u], perm[v]], axis=1).astype(np.int64)


def canonical_edges(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (u < w) edge arrays with loops and duplicates dropped."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    n = np.int64(int(pairs.max()) + 1 if pairs.size else 1)
    keys = np.unique(lo[keep] * n + hi[keep])
    return keys // n, keys % n


def edge_digest(pairs: np.ndarray) -> str:
    u, w = canonical_edges(pairs)
    h = hashlib.sha256(np.ascontiguousarray(u).tobytes())
    h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()


def graph_stats(pairs: np.ndarray) -> dict:
    """Lines, labelled vertices, edges, max degree and sum of squared degrees."""
    u, w = canonical_edges(pairs)
    deg = np.bincount(np.concatenate([u, w]))
    return {"lines": int(len(pairs)),
            "vertices": int(np.unique(pairs).size),
            "edges": int(len(u)),
            "max_degree": int(deg.max()),
            "sum_deg_sq": int((deg.astype(np.int64) ** 2).sum())}


@dataclass(frozen=True)
class Recipe:
    """One generator call; ``key`` names its cache file."""

    kind: str  # "community" or "chung_lu"
    n_vertices: int
    size: int  # target edges (community) or draws (chung_lu)
    seed: int
    exponent: float = 0.0

    @property
    def key(self) -> str:
        tail = f"-a{self.exponent}" if self.kind == "chung_lu" else ""
        return f"{self.kind}-n{self.n_vertices}-m{self.size}{tail}-s{self.seed}"

    def pairs(self) -> np.ndarray:
        if self.kind == "community":
            # written as the built graph's edge list, so file order (and with it
            # the CLI's vertex ids and sampling masks) is that of community_graph
            raw = community_pairs(self.n_vertices, self.size, self.seed)
            return np.stack(canonical_edges(raw), axis=1)
        if self.kind == "chung_lu":
            return chung_lu_pairs(self.n_vertices, self.size, self.exponent, self.seed)
        raise ValueError(f"unknown recipe kind {self.kind!r}")


def cached_pairs(recipe: Recipe, cache_dir: Path, expected_stats: dict) -> np.ndarray:
    """The recipe's pairs, generated on first use and then read from the cache.

    A fresh graph must have ``expected_stats`` (see ``graph_stats``) before it
    is cached.
    """
    path = cache_dir / f"{recipe.key}.npy"
    if path.exists():
        return np.load(path)
    pairs = recipe.pairs()
    stats = graph_stats(pairs)
    if stats != expected_stats:
        raise ValueError(f"{recipe.key} generated {stats}, expected {expected_stats}")
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, pairs)
    os.replace(tmp, path)
    return pairs


def relabeling(pairs: np.ndarray, seed: int) -> np.ndarray:
    """Seeded permutation mapping each base id to its label in the written file."""
    return np.random.default_rng(seed).permutation(int(pairs.max()) + 1)


def edge_list_text(pairs: np.ndarray, labels: np.ndarray) -> str:
    """One 'label label' line per pair, in the recipe's order."""
    names = [str(x) for x in labels.tolist()]
    return "".join([f"{names[a]} {names[b]}\n"
                    for a, b in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())])
