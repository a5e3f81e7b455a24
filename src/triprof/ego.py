"""Ego 3-profiles: the triple census of each center's neighborhood-induced subgraph.

Two routes produce identical results. The serial route materializes each
neighborhood subgraph and runs the profile pipeline on it. The parallel route
never builds the subgraphs: shared per-edge scalars feed three pivot sums per
center, a per-vertex 4-clique count taken from the shared triangle enumeration
supplies the one count the pivots cannot separate, and the remaining entries
follow by exact arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .engine import Engine, segment_sums
from .errors import IntegrityError, UsageError
from .graph import UndirectedGraph, induced_subgraph
from .profiles import (_lookup, _ragged_steps, _triangle_steps, compute_profile, orient,
                       scatter_edge_scalars)

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


@dataclass(frozen=True)
class PivotSums:
    """Per-center pivot accumulators over incident edges.

    p1 = sum of C(own-side wedge count, 2)  -> 3*f0 + f1
    p2 = sum of C(triangle count, 2)        -> f2 + 3*f3
    p3 = sum of own-side wedge * triangle   -> 2*f1 + 2*f2
    """

    p1: int
    p2: int
    p3: int


def _dedup_centers(g: UndirectedGraph, centers) -> list[int]:
    seen: dict[int, None] = {}
    for c in centers:
        c = int(c)
        if not 0 <= c < g.vertex_count:
            raise UsageError(f"center out of range: {c}")
        seen.setdefault(c, None)
    return list(seen)


def ego_serial(g: UndirectedGraph, centers, engine: Engine | None = None) -> dict[int, EgoProfile]:
    """One center at a time: induce the neighborhood subgraph and profile it."""
    engine = engine or Engine()
    start = time.perf_counter()
    out: dict[int, EgoProfile] = {}
    for v in _dedup_centers(g, centers):
        sub = induced_subgraph(g, g.neighbors(v))
        prof, _ = compute_profile(sub, Engine(workers=1))
        out[v] = EgoProfile(prof.n0, prof.n1, prof.n2, prof.n3)
    engine.record("ego-serial", time.perf_counter() - start)
    return out


def _four_cliques_per_vertex(g: UndirectedGraph) -> np.ndarray:
    """4-cliques containing each vertex, by extending every triangle.

    Each triangle a < b < c of the oriented enumeration is extended by every
    d in c's out-list whose edges a -> d and b -> d exist (Chiba & Nishizeki),
    so each 4-clique is found once, from its three lowest-ranked vertices.
    At most EXTENSION_BUDGET extensions are checked per step.
    """
    n = g.vertex_count
    o = orient(g)
    count = np.zeros(n, dtype=np.int64)
    for i, j, _ in _triangle_steps(o):
        a, b, c = o.src[i], o.dst[i], o.dst[j]
        for t, offset in _ragged_steps(o.out_ptr[c + 1] - o.out_ptr[c], EXTENSION_BUDGET):
            d = o.dst[o.out_ptr[c[t]] + offset]
            found = _lookup(o.keys, a[t] * np.int64(n) + d)[1]
            t, d = t[found], d[found]
            found = _lookup(o.keys, b[t] * np.int64(n) + d)[1]
            t, d = t[found], d[found]
            count += np.bincount(np.concatenate([a[t], b[t], c[t], d]), minlength=n)
    return count[o.rank]


def ego_parallel(g: UndirectedGraph, centers,
                 engine: Engine | None = None) -> dict[int, EgoProfile]:
    """All centers in shared phases; identical results to ego_serial.

    A center's triangles-in-neighborhood count f3 is the number of 4-cliques
    containing it. The 4-clique pass runs, and frees its orientation, before
    the edge scalars are scattered, so the two passes never hold their
    temporaries at once.
    """
    engine = engine or Engine()
    order = _dedup_centers(g, centers)

    start = time.perf_counter()
    cliques = _four_cliques_per_vertex(g)
    engine.record("ego:scatter-clique-counts", time.perf_counter() - start,
                  bytes_scattered=8 * g.vertex_count)
    scalars = scatter_edge_scalars(g, engine)

    # Gather: exact pivot sums over each center's incident edges.
    start = time.perf_counter()
    ids = np.asarray(order, dtype=np.int64)
    deg = g.degrees[ids]
    bounds = np.concatenate([[0], np.cumsum(deg)])
    pos = np.repeat(g.indptr[ids] - bounds[:-1], deg) + np.arange(bounds[-1])
    eids = g.edges_at(pos)
    own = np.where(g.indices[pos] > g.position_rows[pos],
                   scalars.wedge_at_u[eids], scalars.wedge_at_w[eids])
    tri = scalars.tri[eids]
    sums = segment_sums(np.stack([own * (own - 1) // 2, tri * (tri - 1) // 2, own * tri],
                                 axis=1), bounds)
    out = {v: _solve_pivots(g, v, PivotSums(p1, p2, p3), int(cliques[v]))
           for v, (p1, p2, p3) in zip(order, sums.tolist())}
    engine.record("ego:gather-pivots", time.perf_counter() - start,
                  bytes_gathered=8 * 3 * int(bounds[-1]) + 8 * len(order))
    return out


def _solve_pivots(g: UndirectedGraph, v: int, piv: PivotSums, f3: int) -> EgoProfile:
    name = f"center {g.label_of(v)} (id {v})"
    f2 = piv.p2 - 3 * f3
    if piv.p3 % 2:
        raise IntegrityError(f"odd wedge-triangle pivot at {name}")
    f1 = piv.p3 // 2 - f2
    rem = piv.p1 - f1
    if rem % 3:
        raise IntegrityError(f"indivisible endpoint pivot at {name}")
    f0 = rem // 3
    if min(f0, f1, f2, f3) < 0:
        raise IntegrityError(f"negative neighborhood count at {name}")
    return EgoProfile(f0, f1, f2, f3)
