"""Ego 3-profiles: the triple census of each center's neighborhood-induced subgraph.

``ego_parallel`` never builds a neighborhood subgraph; the route that does,
``oracle.ego_serial``, is the reference it is checked against. One oriented
triangle enumeration gives the triangle count of each edge at a center and
each center's 4-clique count. Triangles are extended into 4-cliques only as
far as a center can read the result; and where the centers are every
vertex, or few and of low degree, they rank first, so that only their
out-lists are enumerated. Either way the work follows the centers.
Three pivot sums per center follow from the triangle counts on the center's
edges and the center's degree; the 4-clique count supplies the one entry the
pivots cannot separate, and the remaining entries follow by exact
arithmetic, for all centers at once on arrays.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .engine import Engine, endpoint_sums
from .errors import IntegrityError, UsageError
from .graph import UndirectedGraph, _ends, _table_ids
from .profiles import (Orientation, _exact_sum, _lookup, _ragged_steps, _triangle_steps, _view,
                       orient)

# Triangle extensions the 4-clique pass checks per step. Each step holds a few
# int64 arrays of this length.
EXTENSION_BUDGET = 2 ** 16


@dataclass(frozen=True)
class EgoProfile:
    """Counts of a center's neighbor triples with 0, 1, 2, 3 edges among them."""

    f0: int
    f1: int
    f2: int
    f3: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.f0, self.f1, self.f2, self.f3)

    def total(self) -> int:
        return self.f0 + self.f1 + self.f2 + self.f3


class EgoTable(Mapping):
    """Ego profiles of distinct centers in selection order, as two arrays:
    ``centers`` (int64, k) and ``counts`` (int64, k x 4, columns f0..f3).

    It reads as a mapping from center id to EgoProfile; profiles are made
    when asked for, so writers that walk the arrays never build them.
    """

    def __init__(self, centers: np.ndarray, counts: np.ndarray):
        self.centers = centers
        self.counts = counts
        centers.setflags(write=False)
        counts.setflags(write=False)
        self._row: dict[int, int] | None = None

    def __getitem__(self, v) -> EgoProfile:
        if self._row is None:
            self._row = {c: i for i, c in enumerate(self.centers.tolist())}
        return EgoProfile(*self.counts[self._row[v]].tolist())

    def __iter__(self):
        return iter(self.centers.tolist())

    def __len__(self) -> int:
        return len(self.centers)


def _dedup_centers(g: UndirectedGraph, centers) -> np.ndarray:
    """Distinct center ids in order of first appearance; UsageError on the
    first id out of range."""
    try:
        ids = np.asarray(centers if isinstance(centers, np.ndarray) else list(centers),
                         dtype=np.int64)
    except OverflowError:
        raise UsageError("center out of range: beyond int64") from None
    bad = np.flatnonzero((ids < 0) | (ids >= g.vertex_count))
    if bad.size:
        raise UsageError(f"center out of range: {ids[bad[0]]}")
    return ids[_table_ids(ids)[1]]


def _triangles_and_four_cliques(g: UndirectedGraph, centers: np.ndarray,
                                engine: Engine) -> tuple[np.ndarray, np.ndarray]:
    """Triangles on each edge (by edge id), exact on every edge with a center
    endpoint (the only edges the pivots read), and the 4-cliques at each of
    the ``centers`` (vertex ids), from one orientation and one triangle
    enumeration on ``engine``'s workers.

    Each step's triangles are counted on their three edges, as in
    edge_triangle_counts. A triangle a < b < c (in rank order) is extended by
    each d in an out-list of c whose edges a -> d and b -> d exist (Chiba &
    Nishizeki), so each 4-clique is found once, from its three lowest-ranked
    vertices. Only cliques with a center need counting:

    - a triangle with a center among a, b, c is extended over c's full
      out-list, and each clique found counts at a, b, c and d;
    - any other triangle only over c's out-list in the view of the edges
      into centers, and each clique found counts at d, its one center.

    Vertices rank by degree, unless ``_center_first`` holds: then the centers
    rank below every other vertex, so a triangle or 4-clique with a center
    has a center lowest. Only the centers' out-lists are enumerated, every
    triangle found holds a center, and the view is never built. With every
    vertex a center, as under ``ego --all``, that order is the degree order.
    """
    n, m = g.vertex_count, g.edge_count
    deg = g.degrees
    first = _center_first(deg[centers], n, m)
    rank_by = deg + (int(deg.max(initial=0)) + 1)  # (not a center, degree, id)
    rank_by[centers] = deg[centers]
    o = orient(g, rank_by if first else None)
    is_center = np.zeros(n, dtype=bool)
    is_center[o.rank[centers]] = True
    to_centers = None if first else _view(o, np.flatnonzero(is_center[_ends(o.keys, n)[1]]))

    def extend(acc, i, j, k):
        hits, count = acc
        hits += np.bincount(np.concatenate([i, j, k]), minlength=m)
        (a, b), c = _ends(o.keys[i], n), _ends(o.keys[j], n)[1]
        del i, j, k
        touched = is_center[a] | is_center[b] | is_center[c]
        for t, d in _extensions(o, a, b, c, touched):
            count += np.bincount(np.concatenate([a[t], b[t], c[t], d]), minlength=n)
        if to_centers is not None:
            np.logical_not(touched, out=touched)
            for _, d in _extensions(to_centers, a, b, c, touched):
                count += np.bincount(d, minlength=n)

    hits, count = _triangle_steps(o, engine, [m, n], extend, tail_ranks=len(centers) if first else None)
    tri = np.empty(m, dtype=np.int64)
    tri[o.order] = hits
    return tri, count[o.rank[centers]]


def _center_first(d: np.ndarray, n: int, m: int) -> bool:
    """Whether the centers, of degrees ``d``, rank first: every vertex is a
    center, so that ranking them first is the degree order, or no center's
    degree exceeds sqrt(2m) and their sum of C(d, 2), which bounds the
    sibling pairs they check, is at most the least sum of C(d+, 2) that m
    edges on n vertices can have, with out-degrees as even as can be."""
    q, r = divmod(m, max(n, 1))
    return (len(d) == n or int(d.max(initial=0)) ** 2 <= 2 * m
            and _exact_sum(d * (d - 1) // 2) <= r * (q + 1) * q // 2 + (n - r) * q * (q - 1) // 2)


def _extensions(o: Orientation, a: np.ndarray, b: np.ndarray, c: np.ndarray, use: np.ndarray):
    """Yield (t, d) arrays: each triangle t = (a[t], b[t], c[t]) with use[t]
    and each head d of c's out-list in ``o`` that closes a 4-clique with it,
    at most EXTENSION_BUDGET candidates checked per step. ``o`` is the full
    orientation or its view of the edges into centers, which holds the edges
    a -> d and b -> d as well.

    The other triangles get empty out-lists rather than being copied out, so
    a step holds no second set of triangle arrays.
    """
    n, ptr = np.int64(o.n), o.out_ptr
    for t, offset in _ragged_steps(np.where(use, ptr[c + 1] - ptr[c], 0), EXTENSION_BUDGET):
        d = _ends(o.keys[ptr[c[t]] + offset], n)[1]
        del offset
        # b -> d first: the triangles are sorted by b -> c, so these queries
        # sweep the keys forward
        found = _lookup(o.keys, b[t] * n + d)[1]
        t, d = t[found], d[found]
        found = _lookup(o.keys, a[t] * n + d)[1]
        yield t[found], d[found]


def ego_parallel(g: UndirectedGraph, centers, engine: Engine | None = None) -> EgoTable:
    """All centers in two array phases; identical results to oracle.ego_serial.

    The scatter phase counts each edge's triangles and each center's
    4-cliques in one pass. A center's f3 (triangles among its neighbors) is
    its 4-clique count. The gather phase sums three pivots over each center's
    edges, where an edge with t triangles has own = d(center) - 1 - t wedges
    centered at the center:

    p1 = sum of C(own, 2)   = 3*f0 + f1
    p2 = sum of C(t, 2)     = f2 + 3*f3
    p3 = sum of own * t     = 2*f1 + 2*f2

    and the other three entries follow by exact arithmetic. With D = d - 1
    constant over a center's edges, the pivots are polynomials in the two
    endpoint sums s = sum of t and q = sum of t**2 at the center:
    p1 = d*C(D, 2) - D*s + (q + s)/2, p2 = (q - s)/2 and p3 = D*s - q
    (t**2 and t have the same parity, so the halves are exact).
    """
    engine = engine or Engine()
    ids = _dedup_centers(g, centers)

    with engine.phase("ego:scatter-triangles-cliques",
                      bytes_scattered=8 * g.edge_count + 8 * g.vertex_count):
        tri, f3 = _triangles_and_four_cliques(g, ids, engine)

    d = g.degrees[ids]
    with engine.phase("ego:gather-pivots", bytes_gathered=8 * 3 * int(d.sum()) + 8 * len(ids)):
        s = endpoint_sums(g, tri)[ids]
        np.multiply(tri, tri, out=tri)
        q = endpoint_sums(g, tri)[ids]
        del tri
        d1 = d - 1  # D above
        sums = np.stack([d * (d1 * (d1 - 1) // 2) - d1 * s + (q + s) // 2,
                         (q - s) // 2,
                         d1 * s - q], axis=1)
        counts = _solve_pivots(g, ids, sums, f3)
    return EgoTable(ids, counts)


def _solve_pivots(g: UndirectedGraph, ids: np.ndarray, sums: np.ndarray,
                  f3: np.ndarray) -> np.ndarray:
    """(k, 4) counts f0..f3 from the centers' (k, 3) pivot sums p1..p3 and
    their f3. IntegrityError names the first center, in the order of ids,
    whose pivots fail a check, and the first check it fails."""
    p1, p2, p3 = sums.T
    f2 = p2 - 3 * f3
    f1 = p3 // 2 - f2
    rem = p1 - f1
    counts = np.stack([rem // 3, f1, f2, f3], axis=1)
    odd, indivisible = p3 % 2 != 0, rem % 3 != 0
    bad = np.flatnonzero(odd | indivisible | (counts < 0).any(axis=1))
    if bad.size:
        i, v = int(bad[0]), int(ids[bad[0]])
        what = ("odd wedge-triangle pivot" if odd[i] else
                "indivisible endpoint pivot" if indivisible[i] else
                "negative neighborhood count")
        raise IntegrityError(f"{what} at center {g.label_of(v)} (id {v})")
    return counts
