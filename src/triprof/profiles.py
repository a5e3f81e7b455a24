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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import BINCOUNT_EXACT_LIMIT, Engine, endpoint_sums
from .errors import IntegrityError, UsageError
from .graph import UndirectedGraph, _ends, check_key_packing

# Sibling pairs checked per step of the triangle enumeration. Every step but
# the last holds exactly this many, so the engine's workers get equal steps,
# and each holds a few int64 arrays of this length whatever the largest degree
# is. 2**18 pairs is 2 MiB per array: the clustered benchmark graph's 2.3M
# pairs make 9 steps, the skewed one's 2.66M make 11.
PAIR_BUDGET = 2 ** 18

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
    ranked as ``orient`` says, packed as int64 keys and sorted once."""

    n: int
    rank: np.ndarray     # vertex id -> rank
    order: np.ndarray | None  # sorted position -> edge id; None on a view
    keys: np.ndarray     # tail*n + head, split by _ends where a step reads them
    out_ptr: np.ndarray  # rank r's out-list holds positions out_ptr[r]:out_ptr[r + 1]


def orient(g: UndirectedGraph, rank_by: np.ndarray | None = None) -> Orientation:
    """The orientation every triangle enumeration starts from, 8(2|E| + 2|V| + 1)
    bytes. Build it once and pass it along when a command enumerates again.
    Vertices rank by (rank_by, id), non-negative values per vertex, the
    degrees when None; the degree order keeps each out-degree within sqrt(2|E|)."""
    n = g.vertex_count
    check_key_packing(n)
    rank_by = g.degrees if rank_by is None else rank_by
    _, by_value = _value_sort(rank_by, int(rank_by.max(initial=0)).bit_length())
    rank = np.empty(n, dtype=np.int64)
    rank[by_value] = np.arange(n, dtype=np.int64)
    del by_value
    ru, rw = rank[g.edge_u], rank[g.edge_w]
    keys = np.minimum(ru, rw) * np.int64(n) + np.maximum(ru, rw)
    del ru, rw
    keys, order = _value_sort(keys, max(n * n - 1, 0).bit_length())
    return Orientation(n, rank, order, keys, _bounds(np.bincount(keys // n, minlength=n)))


def _view(o: Orientation, positions: np.ndarray) -> Orientation:
    """``o`` on the sorted ``positions`` only: the kept keys and rebuilt pointers."""
    n, keys = o.n, o.keys[positions]
    return Orientation(n, o.rank, None, keys, _bounds(np.bincount(keys // n, minlength=n)))


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
    bounds = _bounds(lengths)
    total = int(bounds[-1])
    return (_ragged_step(bounds, lo, min(lo + budget, total)) for lo in range(0, total, budget))


def _bounds(lengths: np.ndarray) -> np.ndarray:
    """Prefix sums of the lengths, from 0: item i holds the entries
    bounds[i] <= e < bounds[i + 1]."""
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return bounds


def _ragged_step(bounds: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(item, offset) of the entries lo <= e < hi, item i holding the entries
    bounds[i] <= e < bounds[i + 1]."""
    p0 = int(np.searchsorted(bounds, lo, side="right")) - 1
    p1 = int(np.searchsorted(bounds, hi, side="left"))
    span = np.minimum(bounds[p0 + 1:p1 + 1], hi) - np.maximum(bounds[p0:p1], lo)
    item = np.repeat(np.arange(p0, p1), span)
    return item, np.arange(lo, hi) - bounds[item]


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


def _triangle_steps(o: Orientation, engine: Engine, shapes, consume,
                    tail_ranks: int | None = None) -> list[np.ndarray]:
    """The int64 sums, over every step, of what ``consume(acc, i, j, k)``
    adds into ``acc`` (zero arrays of the given ``shapes``) for the step's
    triangles, given as the sorted positions i, j, k of their edges a->b,
    a->c and b->c, ranks a < b < c. With ``tail_ranks`` given, only the
    out-lists of the ranks below it are enumerated, so only the triangles
    with a below it are found.

    This is compact-forward enumeration: a triangle is found exactly once, as
    the sibling pair (b, c) in a's out-list closed by the edge b -> c. The
    sibling pairs are numbered in position order and cut into steps of
    PAIR_BUDGET pairs, the last step excepted; ``engine.sum_steps`` shares
    them among its workers. Each step builds its own pairs and sorts their
    closing-edge queries, so that the binary searches sweep the keys forward
    instead of probing them at random; its pairs are freed before
    ``consume`` works on its triangles.
    """
    stop = len(o.keys) if tail_ranks is None else int(o.out_ptr[tail_ranks])
    bounds = o.keys[:stop] // o.n + 1  # tails + 1 cost |E|, where a diff of out_ptr costs |V|
    np.take(o.out_ptr, bounds, out=bounds, mode="clip")  # in place: one |E| array fewer
    bounds -= np.arange(1, stop + 1)  # each position's later siblings
    bounds = _bounds(bounds)  # rebinding frees them
    total, budget = int(bounds[-1]), PAIR_BUDGET
    qbits = (o.n * o.n - 1).bit_length()  # of the largest key, n**2 - 1

    def add_step(acc: list[np.ndarray], s: int) -> None:
        lo = s * budget
        p0 = int(np.searchsorted(bounds, lo, side="right")) - 1
        # positions from p0 on, so a step splits only the keys of its window
        i, j = _ragged_step(bounds[p0:], lo, min(lo + budget, total))
        j += i  # offsets become positions in place: a step holds two arrays, not three
        j += 1
        consume(acc, *_closing_edges(o, qbits, p0, i, j))

    return engine.sum_steps(-(-total // budget), shapes, add_step)


def _closing_edges(o: Orientation, qbits: int, p0: int, i: np.ndarray,
                   j: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (i, j, k) triangles among one step's sibling pairs (p0 + i, p0 + j),
    ordered by their closing-edge keys (by the keys' high bits when
    _packed_order coarsens them)."""
    query = _ends(o.keys[p0:p0 + int(j.max()) + 1], o.n)[1]  # the heads the step reads
    query = query[i] * o.n + query[j]
    s = _packed_order(query, qbits)
    query = query[s]  # each rebinding frees an array as soon as its copy is made
    k, found = _lookup(o.keys, query)
    del query
    k = k[found]
    s = s[found]
    return i[s] + p0, j[s] + p0, k


def edge_triangle_counts(g: UndirectedGraph, engine: Engine | None = None,
                         orientation: Orientation | None = None) -> np.ndarray:
    """Triangles containing each edge, i.e. the common-neighbor count of its endpoints.

    Every triangle of the compact-forward enumeration is counted on its three
    edges. The work is the number of sibling pairs, the sum of C(d+(v), 2)
    over out-degrees d+(v) <= sqrt(2|E|). Pairs are checked PAIR_BUDGET at a
    time, so a hub's out-list is split across steps and the temporaries stay
    bounded; the steps run on ``engine``'s workers. ``orientation`` is
    ``orient(g)``, built here when not given.
    """
    m = g.edge_count
    o = orient(g) if orientation is None else orientation

    def count(acc, i, j, k):
        acc[0] += np.bincount(np.concatenate([i, j, k]), minlength=m)

    hits, = _triangle_steps(o, engine or Engine(), [m], count)
    tri = np.empty(m, dtype=np.int64)
    tri[o.order] = hits
    return tri


def masked_profile(o: Orientation, mask: np.ndarray,
                   engine: Engine | None = None) -> ProfileVector:
    """Exact global profile of the graph that keeps the edges in ``mask`` (one
    entry per edge id) on all o.n vertices, counted on a masked view of the
    full graph's orientation ``o`` without building that graph.

    The view (``_view``) gathers only the kept keys and their out-list
    pointers. Triangles are enumerated on it as in edge_triangle_counts and
    only counted; every other entry follows from the kept degrees and the
    kept edge count (``_profile_from_degrees``). The work is the kept sibling
    pairs, about p**2 of the full graph's when each edge is kept with
    probability p.
    """
    n, m = o.n, len(o.keys)
    if len(mask) != m:
        raise UsageError(f"mask has {len(mask)} entries for {m} edges")
    view = _view(o, np.flatnonzero(np.asarray(mask)[o.order]))
    deg = np.diff(view.out_ptr) + np.bincount(_ends(view.keys, n)[1], minlength=n)  # out + in

    def count(acc, i, j, k):
        acc[0] += len(k)

    n3, = _triangle_steps(view, engine or Engine(), [()], count)
    return _profile_from_degrees(deg, len(view.keys), int(n3))


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
    with engine.phase("scatter:edge-scalars", bytes_scattered=g.edge_count * 4 * 8):
        return edge_triangle_counts(g, engine, orientation)


def _halved(sums: np.ndarray, what: str, g: UndirectedGraph) -> np.ndarray:
    """Half of each of the non-negative ``sums``; IntegrityError on an odd one."""
    odd = np.flatnonzero(sums & 1)
    if odd.size:
        v = int(odd[0])
        raise IntegrityError(
            f"odd {what} sum at vertex {g.label_of(v)} (id {v}): {int(sums[v])}")
    return sums >> 1


def _triangle_and_degree_sums(g: UndirectedGraph,
                              tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex v, the sum of ``tri`` over v's edges and nd, the sum of
    v's neighbors' degrees (each edge adds deg[edge_w] at edge_u and
    deg[edge_u] at edge_w).

    Both come from one endpoint sum where they fit: each edge adds its far
    end's degree shifted left by b bits, plus its triangles. A triangle sum
    is at most d_max * max(tri) < 2**b and nd at most 2|E|, so when
    (2|E| + 1) << b stays within exact float64 sums, the low b bits of each
    sum are the triangle sum and the rest is nd. Otherwise, or with a
    negative triangle count, two endpoint sums are taken.
    """
    deg = g.degrees
    b = (int(deg.max(initial=0)) * int(tri.max(initial=0))).bit_length()
    if tri.min(initial=0) >= 0 and (2 * g.edge_count + 1) << b <= BINCOUNT_EXACT_LIMIT:
        far = deg << b
        sums = endpoint_sums(g, far[g.edge_w] + tri, far[g.edge_u] + tri)
        return sums & ((1 << b) - 1), sums >> b
    return endpoint_sums(g, tri), endpoint_sums(g, deg[g.edge_w], deg[g.edge_u])


def gather_local_profiles(g: UndirectedGraph, tri: np.ndarray,
                          engine: Engine | None = None) -> LocalProfile:
    """Turn the per-edge triangle counts ``tri`` and the degrees into the six
    local counts.

    The endpoint sum of the triangle counts gives n3, halved because each
    triangle at v is seen from both of its edges at v; nd, the sum of v's
    neighbors' degrees, comes from the same sums (``_triangle_and_degree_sums``).
    The rest is closed form in d = d(v): each edge
    {v, w} has d(w) - 1 - tri wedges with v as an endpoint, so
    n2_e = nd - d - 2*n3; n2_c = C(d, 2) - n3 (each centered wedge is seen
    from both of its edges) and n1_e = d*(n - 1 - d) - n2_e.
    """
    engine = engine or Engine()
    n, m = g.vertex_count, g.edge_count
    with engine.phase("gather:local-profiles", bytes_gathered=2 * m * 4 * 8):
        deg = g.degrees
        twice_n3, nd = _triangle_and_degree_sums(g, tri)
        n3 = _halved(twice_n3, "triangle", g)
        n2_e = nd - deg - twice_n3
        n2_c = (deg * (deg - 1) >> 1) - n3
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
    m = g.edge_count
    with engine.phase("triangles-only", bytes_scattered=m * 8, bytes_gathered=2 * m * 8):
        tri = edge_triangle_counts(g, engine)
        per_vertex = _halved(endpoint_sums(g, tri), "triangle", g)
        total = _exact_sum(tri)
        if total % 3:
            raise IntegrityError(f"edge triangle sum not divisible by 3: {total}")
        return per_vertex, total // 3
