"""Immutable undirected graph in CSR form with sorted neighbor lists.

Vertices are dense integers in [0, vertex_count). Graphs loaded from edge-list
text keep the original labels so per-vertex output can be written back in the
source vocabulary. Each edge also has a canonical orientation (u < w) and a
stable index in [0, edge_count), which every per-edge phase keys on.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

from .errors import ParseError, UsageError

# Largest vertex count whose packed edge keys u*n + w (u, w < n) fit in int64.
MAX_PACKABLE_VERTICES = 3_037_000_499


def check_key_packing(n: int) -> None:
    """Raise UsageError when u*n + w keys over n vertices would overflow int64."""
    if n > MAX_PACKABLE_VERTICES:
        raise UsageError(
            f"{n} vertices exceed the {MAX_PACKABLE_VERTICES} that int64 edge keys can pack")


class EdgeRef(NamedTuple):
    """Canonical edge: endpoints with u < w and a stable ordinal."""

    u: int
    w: int
    index: int


class UndirectedGraph:
    """Simple undirected graph: symmetric sorted adjacency, no loops, no duplicates.

    Instances are immutable after construction and safe to share across
    parallel readers. Construct via :meth:`from_edges` or :func:`load_edge_list`.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 labels: list[str] | None = None):
        self._indptr = indptr
        self._indices = indices
        self._labels = labels
        n = len(indptr) - 1
        self._degrees = np.diff(indptr)
        # Canonical edge list: CSR positions with col > row, which are already
        # ordered lexicographically by (row, col).
        rows = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        upper = indices > rows
        self._edge_u = rows[upper]
        self._edge_w = indices[upper]
        self._position_rows = rows
        self._edge_pos_u = np.flatnonzero(upper)
        self._pos_to_edge = None
        self._csr = None
        for arr in (self._indptr, self._indices, self._degrees,
                    self._edge_u, self._edge_w, self._position_rows,
                    self._edge_pos_u):
            arr.setflags(write=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, pairs, vertex_count: int | None = None,
                   labels: list[str] | None = None) -> "UndirectedGraph":
        """Build from (u, w) integer pairs; drops self-loops and duplicate/reversed edges."""
        a = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                       dtype=np.int64).reshape(-1, 2)
        if a.size and a.min() < 0:
            raise UsageError("vertex ids must be non-negative")
        seen = int(a.max()) + 1 if a.size else 0
        if vertex_count is None:
            n = seen
        else:
            if vertex_count < seen:
                raise UsageError(
                    f"vertex_count {vertex_count} is below the largest id seen ({seen - 1})")
            n = int(vertex_count)
        check_key_packing(n)
        if labels is not None and len(labels) != n:
            raise UsageError("labels length must equal vertex_count")

        lo = np.minimum(a[:, 0], a[:, 1])
        hi = np.maximum(a[:, 0], a[:, 1])
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        if lo.size:
            keys = np.unique(lo * np.int64(n) + hi)
            edge_u, edge_w = keys // n, keys % n
        else:
            edge_u = edge_w = np.empty(0, dtype=np.int64)

        rows = np.concatenate([edge_u, edge_w])
        cols = np.concatenate([edge_w, edge_u])
        order = np.lexsort((cols, rows))
        indices = cols[order]
        counts = np.bincount(rows, minlength=n) if rows.size else np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, indices, labels)

    # -- basic accessors ----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self._edge_u)

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def edge_u(self) -> np.ndarray:
        return self._edge_u

    @property
    def edge_w(self) -> np.ndarray:
        return self._edge_w

    @property
    def labels(self) -> list[str] | None:
        return self._labels

    def label_of(self, v: int) -> str:
        return self._labels[v] if self._labels is not None else str(v)

    def id_of_label(self, label: str) -> int:
        """Dense id for a source label; labels default to decimal ids."""
        if self._labels is None:
            try:
                v = int(label)
            except ValueError:
                raise UsageError(f"unknown vertex label {label!r}") from None
            if not 0 <= v < self.vertex_count:
                raise UsageError(f"unknown vertex label {label!r}")
            return v
        if not hasattr(self, "_label_index"):
            self._label_index = {lab: i for i, lab in enumerate(self._labels)}
        try:
            return self._label_index[label]
        except KeyError:
            raise UsageError(f"unknown vertex label {label!r}") from None

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (read-only view)."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def has_edge(self, u: int, w: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, w)
        return i < len(nb) and nb[i] == w

    def edge_ref(self, index: int) -> EdgeRef:
        return EdgeRef(int(self._edge_u[index]), int(self._edge_w[index]), int(index))

    def edge_index(self, u: int, w: int) -> int:
        """Stable ordinal of edge {u, w}; raises UsageError when absent."""
        check_key_packing(self.vertex_count)
        if u > w:
            u, w = w, u
        key = np.int64(u) * self.vertex_count + w
        keys = self._edge_u * np.int64(self.vertex_count) + self._edge_w
        i = int(np.searchsorted(keys, key))
        if i < len(keys) and keys[i] == key:
            return i
        raise UsageError(f"no edge between {u} and {w}")

    # -- derived structures (lazy, cached) -----------------------------------

    @property
    def position_rows(self) -> np.ndarray:
        """Row (vertex) owning each CSR position."""
        return self._position_rows

    @property
    def edge_pos_u(self) -> np.ndarray:
        """CSR position of each edge as seen from its smaller endpoint."""
        return self._edge_pos_u

    @property
    def pos_to_edge(self) -> np.ndarray:
        """Edge ordinal for every CSR position (both directions of each edge)."""
        if self._pos_to_edge is None:
            check_key_packing(self.vertex_count)
            n = np.int64(self.vertex_count)
            out = np.empty(len(self._indices), dtype=np.int64)
            out[self._edge_pos_u] = np.arange(self.edge_count, dtype=np.int64)
            lower = np.flatnonzero(self._indices < self._position_rows)
            keys = self._edge_u * n + self._edge_w
            lower_keys = self._indices[lower] * n + self._position_rows[lower]
            out[lower] = np.searchsorted(keys, lower_keys)
            out.setflags(write=False)
            self._pos_to_edge = out
        return self._pos_to_edge

    def sparse_adjacency(self):
        """Boolean adjacency as a scipy CSR matrix with int32 data (cached).

        No triprof computation uses it; ``perfbench/tracing.py`` still calls it.
        """
        if self._csr is None:
            import scipy.sparse as sp

            n = self.vertex_count
            self._csr = sp.csr_matrix(
                (np.ones(len(self._indices), dtype=np.int32),
                 self._indices.astype(np.int32), self._indptr.astype(np.int64)),
                shape=(n, n))
        return self._csr

    # -- output and comparison ----------------------------------------------

    def canonical_edge_lines(self) -> list[str]:
        """One 'u w' pair per edge over original labels, pairs and lines sorted."""
        pairs = []
        for u, w in zip(self._edge_u, self._edge_w):
            a, b = self.label_of(int(u)), self.label_of(int(w))
            if b < a:
                a, b = b, a
            pairs.append((a, b))
        pairs.sort()
        return [f"{a} {b}" for a, b in pairs]

    def write_edge_list(self, target: str | Path | IO[str]) -> None:
        text = "\n".join(self.canonical_edge_lines())
        if text:
            text += "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            Path(target).write_text(text)

    def _label_edge_set(self) -> frozenset:
        return frozenset(
            frozenset((self.label_of(int(u)), self.label_of(int(w))))
            for u, w in zip(self._edge_u, self._edge_w))

    def __eq__(self, other) -> bool:
        """Same vertex labels and same labeled edge set (dense ids may differ)."""
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        if self.vertex_count != other.vertex_count:
            return False
        mine = {self.label_of(v) for v in range(self.vertex_count)}
        theirs = {other.label_of(v) for v in range(other.vertex_count)}
        return mine == theirs and self._label_edge_set() == other._label_edge_set()

    __hash__ = None

    def __repr__(self) -> str:
        return f"UndirectedGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


def load_edge_list(source: str | Path | IO | Iterable[str],
                   vertex_count: int | None = None) -> UndirectedGraph:
    """Parse a whitespace edge list into a graph.

    Lines beginning '#' are comments, blank lines are skipped, and every data
    line must hold exactly two labels. Labels map to dense ids in
    first-appearance order. Self-loops are dropped; duplicate and reversed
    duplicate edges are merged. ``vertex_count`` may exceed the number of
    labels seen, adding unlabeled isolated vertices.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_edge_list(handle, vertex_count)

    ids: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    lineno = 0
    try:
        for lineno, raw in enumerate(source, start=1):
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(
                    f"line {lineno}: expected two vertex labels, got {len(tokens)}")
            pair = []
            for tok in tokens:
                if tok not in ids:
                    ids[tok] = len(ids)
                pair.append(ids[tok])
            pairs.append((pair[0], pair[1]))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"line {_undecodable_line(source, lineno)}: not UTF-8 text ({exc.reason})"
        ) from None

    seen = len(ids)
    if vertex_count is not None and vertex_count < seen:
        raise UsageError(
            f"--vertex-count {vertex_count} is below the {seen} labels in the input")
    n = seen if vertex_count is None else int(vertex_count)
    check_key_packing(n)
    labels = [None] * n
    for lab, i in ids.items():
        labels[i] = lab
    for i in range(seen, n):
        labels[i] = str(i)
    return UndirectedGraph.from_edges(pairs, vertex_count=n, labels=labels)


def _undecodable_line(source, lineno: int) -> int:
    """Line holding the first byte that is not UTF-8.

    A text handle decodes ahead of the line it yields, so its error can
    surface while an earlier line is current; rescan its raw bytes. A bytes
    line fails its own decode, so ``lineno`` is already the offending line.
    """
    buffer = getattr(source, "buffer", None)
    if buffer is None or not buffer.seekable():
        return lineno
    buffer.seek(0)
    for i, line in enumerate(buffer.read().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return i
    return lineno


def induced_subgraph(g: UndirectedGraph, vertices) -> UndirectedGraph:
    """Subgraph on the given vertex set, ids re-densified in sorted order.

    The returned graph's labels are the source labels of the kept vertices,
    so the mapping back to ``g`` is retained.
    """
    keep = np.unique(np.asarray(list(vertices), dtype=np.int64)) \
        if not isinstance(vertices, np.ndarray) else np.unique(vertices.astype(np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= g.vertex_count):
        bad = keep[0] if keep[0] < 0 else keep[-1]
        raise UsageError(f"vertex out of range: {int(bad)}")
    mask = np.zeros(g.vertex_count, dtype=bool)
    mask[keep] = True
    sel = mask[g.edge_u] & mask[g.edge_w]
    remap = np.full(g.vertex_count, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    pairs = np.stack([remap[g.edge_u[sel]], remap[g.edge_w[sel]]], axis=1)
    labels = [g.label_of(int(v)) for v in keep]
    return UndirectedGraph.from_edges(pairs, vertex_count=keep.size, labels=labels)
