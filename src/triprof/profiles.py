"""Exact per-vertex and global 3-profiles via per-edge scatter and vertex gather.

The scatter computes one scalar per edge {u, w}: the number of triangles on
it. The gather turns those counts and the degrees into each vertex's six-way
triple census, and the global profile is one third of the vertex sums. All
arithmetic is exact integer arithmetic, so results are independent of
reduction order.

A sampled graph's global profile needs no scatter: masked_profile counts its
triangles on a masked view of the full graph's orientation and takes the
other entries from the kept degrees.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .engine import Engine, endpoint_sums
from .errors import IntegrityError, UsageError
from .graph import UndirectedGraph, check_key_packing

# Sibling pairs checked per step of the triangle enumeration. Each step holds
# a few int64 arrays of this length, whatever the largest degree is.
PAIR_BUDGET = 2 ** 20

# Value bits of an int64. A value sort packs a value and its index into one
# int64 where both fit in these bits.
PACKED_BITS = 63


@dataclass(frozen=True)
class ProfileVector:
    """Counts of 3-vertex configurations: empty, one edge, wedge, triangle.

    Exact profiles carry ints; estimates carry reals (possibly negative).
    """

    n0: object
    n1: object
    n2: object
    n3: object

    def as_tuple(self) -> tuple:
        return (self.n0, self.n1, self.n2, self.n3)

    def as_floats(self) -> tuple[float, float, float, float]:
        return tuple(float(x) for x in self.as_tuple())

    def total(self):
        return self.n0 + self.n1 + self.n2 + self.n3

    def as_json(self) -> dict:
        def num(x):
            return int(x) if isinstance(x, int) else float(x)
        return {"n0": num(self.n0), "n1": num(self.n1),
                "n2": num(self.n2), "n3": num(self.n3)}


@dataclass(frozen=True)
class LocalProfile:
    """Per-vertex triple census split by the vertex's role, arrays of length |V|.

    n0    triples at v with no edges
    n1_e  v is an endpoint of the lone edge
    n1_d  v is disconnected from the lone edge
    n2_e  v is a wedge endpoint
    n2_c  v is a wedge center
    n3    triangles at v
    """

    n0: np.ndarray
    n1_e: np.ndarray
    n1_d: np.ndarray
    n2_e: np.ndarray
    n2_c: np.ndarray
    n3: np.ndarray

    def row(self, v: int) -> tuple[int, int, int, int, int, int]:
        return (int(self.n0[v]), int(self.n1_e[v]), int(self.n1_d[v]),
                int(self.n2_e[v]), int(self.n2_c[v]), int(self.n3[v]))


def _exact_sum(arr: np.ndarray) -> int:
    """Sum an integer array without silent 64-bit overflow."""
    if arr.size == 0:
        return 0
    hi = int(np.abs(arr).max())
    if hi and arr.size > (2 ** 62) // hi:
        return int(arr.sum(dtype=object))
    return int(arr.sum(dtype=np.int64))


class Orientation(NamedTuple):
    """Edges pointed from the lower- to the higher-ranked endpoint, vertices
    ranked by (degree, id), packed as int64 keys src*n + dst and sorted once."""

    n: int
    rank: np.ndarray     # vertex id -> rank
    order: np.ndarray    # sorted position -> edge id
    keys: np.ndarray
    src: np.ndarray      # rank of each sorted position's tail
    dst: np.ndarray      # rank of its head
    out_ptr: np.ndarray  # rank r's out-list holds positions out_ptr[r]:out_ptr[r + 1]


def orient(g: UndirectedGraph) -> Orientation:
    """The orientation every triangle enumeration starts from. Build it once
    and pass it along when one command enumerates the same graph again."""
    n = g.vertex_count
    check_key_packing(n)
    deg = g.degrees
    _, by_degree = _value_sort(deg, int(deg.max(initial=0)).bit_length())
    rank = np.empty(n, dtype=np.int64)
    rank[by_degree] = np.arange(n, dtype=np.int64)
    del by_degree
    ru, rw = rank[g.edge_u], rank[g.edge_w]
    keys = np.minimum(ru, rw) * np.int64(n) + np.maximum(ru, rw)
    del ru, rw
    keys, order = _value_sort(keys, max(n * n - 1, 0).bit_length())
    src, dst = np.divmod(keys, n)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=out_ptr[1:])
    return Orientation(n, rank, order, keys, src, dst, out_ptr)


def _value_sort(values: np.ndarray, vbits: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-negative int64 ``values`` (below 2**vbits) sorted, and the
    stable permutation that sorts them.

    Where vbits and the bit length of the value count fit in PACKED_BITS,
    one value sort of (value << ibits) | index gives both; otherwise a
    stable argsort does.
    """
    ibits = len(values).bit_length()
    if vbits + ibits > PACKED_BITS:
        order = np.argsort(values, kind="stable")
        return values[order], order
    packed = values << ibits
    packed |= np.arange(len(values))
    packed.sort()
    order = packed & ((1 << ibits) - 1)
    packed >>= ibits
    return packed, order


def _lookup(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each query in the sorted keys, and whether it is there."""
    k = np.searchsorted(keys, query)
    np.minimum(k, len(keys) - 1, out=k)
    return k, keys[k] == query


def _ragged_steps(lengths: np.ndarray, budget: int):
    """Iterate over (item, offset) arrays that cover 0 <= offset < lengths[item]
    for every item in order, at most ``budget`` entries per step.

    A step may begin or end inside one item's range, so the temporaries stay
    bounded however long a single range is. Only the prefix sums of the
    lengths are kept, and no step is held once it is handed out.
    """
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    total = int(bounds[-1])
    return (_ragged_step(bounds, lo, min(lo + budget, total)) for lo in range(0, total, budget))


def _ragged_step(bounds: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(item, offset) of the entries lo <= e < hi, item i holding the entries
    bounds[i] <= e < bounds[i + 1]."""
    p0 = int(np.searchsorted(bounds, lo, side="right")) - 1
    p1 = int(np.searchsorted(bounds, hi, side="left"))
    span = np.minimum(bounds[p0 + 1:p1 + 1], hi) - np.maximum(bounds[p0:p1], lo)
    item = np.repeat(np.arange(p0, p1), span)
    return item, np.arange(lo, hi) - bounds[item]


def _sibling_pairs(ptr: np.ndarray, owner: np.ndarray):
    """Iterate over (p, q) position arrays for every p < q that share a
    segment ptr[r]:ptr[r + 1], where owner[p] is p's segment, PAIR_BUDGET
    pairs a step."""
    later = ptr[owner + 1] - np.arange(1, len(owner) + 1)
    return map(_pair_positions, _ragged_steps(later, PAIR_BUDGET))


def _pair_positions(step: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    p, q = step
    q += p  # offsets become positions in place: a step holds two arrays, not three
    q += 1
    return p, q


def _packed_order(query: np.ndarray, qbits: int) -> np.ndarray:
    """A permutation that sorts ``query`` (values below 2**qbits), from one
    value sort of the packed int64 values (query << ibits) | index, where
    ibits is the bit length of the query count.

    When qbits + ibits exceed PACKED_BITS, each query is shifted right
    first, so the order is by the query's high bits and then by index. The
    callers look up each query itself, so only their sweep's locality
    depends on the order.
    """
    ibits = len(query).bit_length()
    packed = query >> max(qbits + ibits - PACKED_BITS, 0)
    packed <<= ibits
    packed |= np.arange(len(query))
    packed.sort()
    packed &= (1 << ibits) - 1
    return packed


def _triangle_steps(o: Orientation):
    """Iterate over the sorted positions (i, j, k) of the edges a->b, a->c and
    b->c of every triangle with ranks a < b < c, one array triple per step.

    This is compact-forward enumeration: a triangle is found exactly once, as
    the sibling pair (b, c) in a's out-list closed by the edge b -> c. Each
    step's closing-edge queries are sorted first, so that the binary searches
    sweep the keys forward instead of probing them at random.

    The steps are mapped rather than generated: a generator's frame would
    hold the step's sibling pairs while the consumer works on its triangles.
    """
    qbits = (o.n * o.n - 1).bit_length()  # of the largest key, n**2 - 1
    return map(partial(_closing_edges, o, qbits), _sibling_pairs(o.out_ptr, o.src))


def _closing_edges(o: Orientation, qbits: int,
                   pairs: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """The (i, j, k) triangles among one step's sibling pairs (i, j), ordered
    by their closing-edge keys (by the keys' high bits when _packed_order
    coarsens them)."""
    i, j = pairs
    query = o.dst[i] * np.int64(o.n) + o.dst[j]
    s = _packed_order(query, qbits)
    query = query[s]  # each rebinding frees an array as soon as its copy is made
    k, found = _lookup(o.keys, query)
    del query
    k = k[found]
    s = s[found]
    return i[s], j[s], k


def edge_triangle_counts(g: UndirectedGraph, engine: Engine | None = None,
                         orientation: Orientation | None = None) -> np.ndarray:
    """Triangles containing each edge, i.e. the common-neighbor count of its endpoints.

    Every triangle of the compact-forward enumeration is counted on its three
    edges. The work is the number of sibling pairs, the sum of C(d+(v), 2)
    over out-degrees d+(v) <= sqrt(2|E|). Pairs are checked at most
    PAIR_BUDGET at a time, so a hub's out-list is split across steps and the
    temporaries stay bounded. The kernel is serial; ``engine`` is not used.
    ``orientation`` is ``orient(g)``, built here when not given.
    """
    m = g.edge_count
    o = orient(g) if orientation is None else orientation
    hits = np.zeros(m, dtype=np.int64)
    for i, j, k in _triangle_steps(o):
        hits += np.bincount(np.concatenate([i, j, k]), minlength=m)
        del i, j, k  # not held while the next step is found
    tri = np.empty(m, dtype=np.int64)
    tri[o.order] = hits
    return tri


def masked_profile(o: Orientation, mask: np.ndarray) -> ProfileVector:
    """Exact global profile of the graph that keeps the edges in ``mask`` (one
    entry per edge id) on all o.n vertices, counted on a masked view of the
    full graph's orientation ``o`` without building that graph.

    The kept positions of the sorted keys stay sorted, so only the out-list
    pointers are rebuilt. Triangles are enumerated on that view as in
    edge_triangle_counts and only counted; every other entry follows from the
    kept degrees and the kept edge count (``_profile_from_degrees``). The
    work is the kept sibling pairs, about p**2 of the full graph's when each
    edge is kept with probability p.
    """
    n, m = o.n, len(o.keys)
    if len(mask) != m:
        raise UsageError(f"mask has {len(mask)} entries for {m} edges")
    kept = np.flatnonzero(np.asarray(mask)[o.order])
    src, dst = o.src[kept], o.dst[kept]
    out_deg = np.bincount(src, minlength=n)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_deg, out=out_ptr[1:])
    view = Orientation(n, o.rank, o.order[kept], o.keys[kept], src, dst, out_ptr)
    n3 = 0
    for i, j, k in _triangle_steps(view):
        n3 += len(k)
        del i, j, k  # not held while the next step is found
    return _profile_from_degrees(out_deg + np.bincount(dst, minlength=n), len(kept), n3)


def _profile_from_degrees(deg: np.ndarray, m: int, n3: int) -> ProfileVector:
    """Exact profile of n = len(deg) vertices, m edges and n3 triangles:
    n2 = sum C(d, 2) - 3*n3 and n1 = m*(n - 2) - 2*n2 - 3*n3."""
    n = len(deg)
    n2 = _exact_sum(deg * (deg - 1) // 2) - 3 * n3
    n1 = m * (n - 2) - 2 * n2 - 3 * n3
    n0 = math.comb(n, 3) - n1 - n2 - n3
    if min(n0, n1, n2, n3) < 0:
        raise IntegrityError(f"negative profile entry: {(n0, n1, n2, n3)}")
    return ProfileVector(n0, n1, n2, n3)


def scatter_edge_scalars(g: UndirectedGraph, engine: Engine | None = None,
                         orientation: Orientation | None = None) -> np.ndarray:
    """The scatter phase: each edge's triangle count, the one per-edge scalar
    the gather needs besides the degrees.

    Its bytes are accounted as the paper's vertex program scatters them, four
    8-byte values per edge: the triangles, the wedges centered at each
    endpoint and the vertices isolated from both.
    """
    engine = engine or Engine()
    start = time.perf_counter()
    tri = edge_triangle_counts(g, engine, orientation)
    engine.record("scatter:edge-scalars", time.perf_counter() - start,
                  bytes_scattered=g.edge_count * 4 * 8)
    return tri


def _halved(sums: np.ndarray, what: str, g: UndirectedGraph) -> np.ndarray:
    odd = np.flatnonzero(sums % 2)
    if odd.size:
        v = int(odd[0])
        raise IntegrityError(
            f"odd {what} sum at vertex {g.label_of(v)} (id {v}): {int(sums[v])}")
    return sums // 2


def gather_local_profiles(g: UndirectedGraph, tri: np.ndarray,
                          engine: Engine | None = None) -> LocalProfile:
    """Turn the per-edge triangle counts ``tri`` and the degrees into the six
    local counts.

    One endpoint sum gives n3, halved because each triangle at v is seen from
    both of its edges at v. A second gives nd, the sum of v's neighbors'
    degrees: each edge adds deg[edge_w] at edge_u and deg[edge_u] at edge_w.
    The rest is closed form in d = d(v): each edge
    {v, w} has d(w) - 1 - tri wedges with v as an endpoint, so
    n2_e = nd - d - 2*n3; n2_c = C(d, 2) - n3 (each centered wedge is seen
    from both of its edges) and n1_e = d*(n - 1 - d) - n2_e.
    """
    engine = engine or Engine()
    start = time.perf_counter()
    n, m = g.vertex_count, g.edge_count
    deg = g.degrees
    n3 = _halved(endpoint_sums(g, tri), "triangle", g)
    n2_e = endpoint_sums(g, deg[g.edge_w], deg[g.edge_u]) - deg - 2 * n3
    n2_c = deg * (deg - 1) // 2 - n3
    n1_e = deg * (n - 1 - deg) - n2_e
    n1_d = m - deg - n3 - n2_e
    bad = np.flatnonzero(n1_d < 0)
    if bad.size:
        v = int(bad[0])
        raise IntegrityError(
            f"negative detached-edge count at vertex {g.label_of(v)} (id {v})")
    triples_per_vertex = math.comb(n - 1, 2) if n >= 1 else 0
    n0 = triples_per_vertex - n1_e - n1_d - n2_e - n2_c - n3
    bad = np.flatnonzero(n0 < 0)
    if bad.size:
        v = int(bad[0])
        raise IntegrityError(
            f"negative empty-triple count at vertex {g.label_of(v)} (id {v})")
    engine.record("gather:local-profiles", time.perf_counter() - start,
                  bytes_gathered=2 * m * 4 * 8)
    return LocalProfile(n0, n1_e, n1_d, n2_e, n2_c, n3)


def global_profile_from_local(locals_: LocalProfile) -> ProfileVector:
    """Global profile as one third of the vertex sums (each triple has 3 vertices)."""
    sums = [
        _exact_sum(locals_.n0),
        _exact_sum(locals_.n1_e) + _exact_sum(locals_.n1_d),
        _exact_sum(locals_.n2_e) + _exact_sum(locals_.n2_c),
        _exact_sum(locals_.n3),
    ]
    out = []
    for i, s in enumerate(sums):
        if s % 3:
            raise IntegrityError(f"vertex sum for profile entry {i} not divisible by 3: {s}")
        out.append(s // 3)
    return ProfileVector(*out)


def compute_profile(g: UndirectedGraph, engine: Engine | None = None,
                    orientation: Orientation | None = None) -> tuple[ProfileVector, LocalProfile]:
    """Full pipeline: scatter, gather, aggregate. ``orientation`` is
    ``orient(g)``, built here when not given."""
    engine = engine or Engine()
    tri = scatter_edge_scalars(g, engine, orientation)
    locals_ = gather_local_profiles(g, tri, engine)
    return global_profile_from_local(locals_), locals_


def count_triangles_only(g: UndirectedGraph,
                         engine: Engine | None = None) -> tuple[np.ndarray, int]:
    """Per-vertex and global triangle counts, skipping every other local count.

    Baseline for the runtime-overhead comparison; its n3 values always match
    the full pipeline's.
    """
    engine = engine or Engine()
    start = time.perf_counter()
    tri = edge_triangle_counts(g, engine)
    n, m = g.vertex_count, g.edge_count
    per_vertex = _halved(endpoint_sums(g, tri), "triangle", g)
    total = _exact_sum(tri)
    if total % 3:
        raise IntegrityError(f"edge triangle sum not divisible by 3: {total}")
    engine.record("triangles-only", time.perf_counter() - start,
                  bytes_scattered=m * 8, bytes_gathered=2 * m * 8)
    return per_vertex, total // 3
