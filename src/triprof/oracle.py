"""Reference routes: counts made the ways the pipeline avoids, which tests
and the benchmark check the pipeline against. Of the commands, only
``oracle`` runs any of them, and only the brute-force counts.

- The brute-force counts classify every vertex triple (or quadruple) on a
  dense adjacency matrix and share no code with the scatter/gather
  pipeline; independence is the point. They are capped at desk scale, where
  O(|V|^3) enumeration is still instant.
- ``ego_serial`` is the materializing ego route: it builds each center's
  neighborhood subgraph with ``induced_subgraph`` and runs
  ``compute_profile`` on it, the per-center work that ``ego.ego_parallel``
  avoids by edge pivoting.
- ``transition_matrix`` and ``expected_sampled_profile`` are the sampling
  process's forward model, which ``sampling.unbiased_estimate`` inverts.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from .ego import EgoProfile, EgoTable, _dedup_centers
from .engine import Engine
from .errors import UsageError
from .graph import UndirectedGraph
from .profiles import LocalProfile, ProfileVector, compute_profile

PROFILE_CAP = 256
FOUR_CLIQUE_CAP = 128
EGO_DEGREE_CAP = 256


def _dense_adjacency(g: UndirectedGraph, cap: int, what: str) -> np.ndarray:
    n = g.vertex_count
    if n > cap:
        raise UsageError(f"{what} is capped at {cap} vertices, got {n}")
    mat = np.zeros((n, n), dtype=bool)
    mat[g.edge_u, g.edge_w] = True
    mat[g.edge_w, g.edge_u] = True
    return mat


def _classify_triples(mat: np.ndarray):
    """Yield (a, b, edge_flags_to_c, e_ab) for every pair a < b, c ranging over b+1..n."""
    n = len(mat)
    for a in range(n - 2):
        row_a = mat[a]
        for b in range(a + 1, n - 1):
            yield a, b, row_a[b + 1:], mat[b, b + 1:], bool(row_a[b])


def brute_force_profile(g: UndirectedGraph, cap: int = PROFILE_CAP) -> ProfileVector:
    """Exact profile by classifying every vertex triple by its edge count."""
    mat = _dense_adjacency(g, cap, "brute-force profile")
    counts = [0, 0, 0, 0]
    for a, b, ca, cb, e_ab in _classify_triples(mat):
        k = ca.astype(np.int64) + cb + int(e_ab)
        hist = np.bincount(k, minlength=4)
        for i in range(4):
            counts[i] += int(hist[i])
    return ProfileVector(*counts)


def brute_force_local(g: UndirectedGraph, cap: int = PROFILE_CAP) -> LocalProfile:
    """Per-vertex census: classify each triple by the member's degree within it."""
    mat = _dense_adjacency(g, cap, "brute-force local profile")
    n = g.vertex_count
    n0 = np.zeros(n, dtype=np.int64)
    n1_e = np.zeros(n, dtype=np.int64)
    n1_d = np.zeros(n, dtype=np.int64)
    n2_e = np.zeros(n, dtype=np.int64)
    n2_c = np.zeros(n, dtype=np.int64)
    n3 = np.zeros(n, dtype=np.int64)

    for a, b, ca, cb, e_ab in _classify_triples(mat):
        cs = np.arange(b + 1, n)
        ia, ib = ca.astype(np.int64), cb.astype(np.int64)
        k = ia + ib + int(e_ab)

        mask = k == 0
        cnt = int(mask.sum())
        if cnt:
            n0[a] += cnt
            n0[b] += cnt
            n0[cs[mask]] += 1

        mask = k == 3
        cnt = int(mask.sum())
        if cnt:
            n3[a] += cnt
            n3[b] += cnt
            n3[cs[mask]] += 1

        # one edge: its endpoints are attached, the third vertex is detached
        m_ab = (k == 1) & e_ab
        m_ac = (k == 1) & (ia == 1)
        m_bc = (k == 1) & (ib == 1)
        if e_ab:
            cnt = int(m_ab.sum())
            if cnt:
                n1_e[a] += cnt
                n1_e[b] += cnt
                n1_d[cs[m_ab]] += 1
        cnt = int(m_ac.sum())
        if cnt:
            n1_e[a] += cnt
            n1_d[b] += cnt
            n1_e[cs[m_ac]] += 1
        cnt = int(m_bc.sum())
        if cnt:
            n1_d[a] += cnt
            n1_e[b] += cnt
            n1_e[cs[m_bc]] += 1

        # two edges: the shared vertex is the center, the others are endpoints
        k2 = k == 2
        m_center_a = k2 & e_ab & (ia == 1)          # edges ab and ac
        m_center_b = k2 & e_ab & (ib == 1)          # edges ab and bc
        m_center_c = k2 & (ia == 1) & (ib == 1)     # edges ac and bc
        cnt = int(m_center_a.sum())
        if cnt:
            n2_c[a] += cnt
            n2_e[b] += cnt
            n2_e[cs[m_center_a]] += 1
        cnt = int(m_center_b.sum())
        if cnt:
            n2_e[a] += cnt
            n2_c[b] += cnt
            n2_e[cs[m_center_b]] += 1
        cnt = int(m_center_c.sum())
        if cnt:
            n2_e[a] += cnt
            n2_e[b] += cnt
            n2_c[cs[m_center_c]] += 1

    return LocalProfile(n0, n1_e, n1_d, n2_e, n2_c, n3)


def brute_force_ego(g: UndirectedGraph, v: int,
                    degree_cap: int = EGO_DEGREE_CAP) -> EgoProfile:
    """Classify the triples among v's neighbors by edges among them."""
    if not 0 <= v < g.vertex_count:
        raise UsageError(f"center out of range: {v}")
    nb = g.neighbors(v)
    if len(nb) > degree_cap:
        raise UsageError(
            f"brute-force ego is capped at degree {degree_cap}, got {len(nb)}")
    mat = np.zeros((g.vertex_count, g.vertex_count), dtype=bool)
    mat[g.edge_u, g.edge_w] = True
    mat[g.edge_w, g.edge_u] = True
    sub = mat[np.ix_(nb, nb)]
    counts = [0, 0, 0, 0]
    d = len(nb)
    for i in range(d - 2):
        for j in range(i + 1, d - 1):
            k = sub[i, j + 1:].astype(np.int64) + sub[j, j + 1:] + int(sub[i, j])
            hist = np.bincount(k, minlength=4)
            for t in range(4):
                counts[t] += int(hist[t])
    return EgoProfile(*counts)


def brute_force_four_cliques(g: UndirectedGraph, cap: int = FOUR_CLIQUE_CAP) -> int:
    """Count complete 4-vertex subgraphs by ordered extension of triangles."""
    mat = _dense_adjacency(g, cap, "brute-force 4-clique count")
    n = g.vertex_count
    count = 0
    for a in range(n - 3):
        for b in np.flatnonzero(mat[a, a + 1:]) + a + 1:
            common_ab = mat[a] & mat[int(b)]
            for c in np.flatnonzero(common_ab[b + 1:]) + b + 1:
                common_abc = common_ab & mat[int(c)]
                count += int(np.count_nonzero(common_abc[c + 1:]))
    return count


def induced_subgraph(g: UndirectedGraph, vertices) -> UndirectedGraph:
    """Subgraph on the given vertex set, ids re-densified in sorted order.

    The returned graph's labels are the source labels of the kept vertices,
    so the mapping back to ``g`` is retained.
    """
    keep = np.unique(np.asarray(
        vertices if isinstance(vertices, np.ndarray) else list(vertices), dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= g.vertex_count):
        bad = keep[0] if keep[0] < 0 else keep[-1]
        raise UsageError(f"vertex out of range: {int(bad)}")
    mask = np.zeros(g.vertex_count, dtype=bool)
    mask[keep] = True
    sel = mask[g.edge_u] & mask[g.edge_w]
    remap = np.full(g.vertex_count, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    pairs = np.stack([remap[g.edge_u[sel]], remap[g.edge_w[sel]]], axis=1)
    labels = list(map(g.label_of, keep.tolist()))
    return UndirectedGraph.from_edges(pairs, vertex_count=keep.size, labels=labels)


def ego_serial(g: UndirectedGraph, centers, engine: Engine | None = None) -> EgoTable:
    """One center at a time: induce the neighborhood subgraph and profile it."""
    engine = engine or Engine()
    start = time.perf_counter()
    ids = _dedup_centers(g, centers)
    counts = np.zeros((len(ids), 4), dtype=np.int64)
    for row, v in enumerate(ids.tolist()):
        prof, _ = compute_profile(induced_subgraph(g, g.neighbors(v)), Engine(workers=1))
        counts[row] = prof.as_tuple()
    engine.record("ego-serial", time.perf_counter() - start)
    return EgoTable(ids, counts)


def _transition_rows(p: Fraction) -> list[list[Fraction]]:
    q = 1 - p
    return [
        [Fraction(1), q, q * q, q ** 3],
        [Fraction(0), p, 2 * p * q, 3 * p * q * q],
        [Fraction(0), Fraction(0), p * p, 3 * p * p * q],
        [Fraction(0), Fraction(0), Fraction(0), p ** 3],
    ]


def transition_matrix(p: float) -> np.ndarray:
    """4x4 upper-triangular matrix mapping a true profile to the expected sampled one."""
    if not 0 < p <= 1:
        raise UsageError(f"sampling probability must be in (0, 1], got {p}")
    rows = _transition_rows(Fraction(p))
    return np.array([[float(x) for x in row] for row in rows], dtype=np.float64)


def expected_sampled_profile(n: ProfileVector, p: float) -> ProfileVector:
    """Expected profile of the sampled graph: the transition matrix applied to n."""
    if not 0 < p <= 1:
        raise UsageError(f"sampling probability must be in (0, 1], got {p}")
    rows = _transition_rows(Fraction(p))
    vec = [Fraction(x) for x in n.as_tuple()]
    return ProfileVector(*(sum(row[j] * vec[j] for j in range(4)) for row in rows))
