"""Deterministic parallel executor for per-edge scatter and per-vertex gather phases.

Workers operate on disjoint index ranges and partial results are merged in
index order, so outputs are identical for every worker count. Communication
volume is accounted arithmetically (records times record width), never
measured from a transport, which keeps the counters reproducible.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UsageError
from .graph import EdgeRef, UndirectedGraph

SCALAR_BYTES = 8  # all fixed-width records are 64-bit

ENV_THREADS = "TRIPROF_THREADS"


@dataclass
class PhaseStats:
    """Accounting for one scatter or gather phase."""

    phase_name: str
    elapsed: float
    bytes_scattered: int
    bytes_gathered: int
    worker_count: int

    def as_json(self, mask_timing: bool = False) -> dict:
        return {
            "name": self.phase_name,
            "seconds": None if mask_timing else self.elapsed,
            "bytes_scattered": self.bytes_scattered,
            "bytes_gathered": self.bytes_gathered,
            "workers": None if mask_timing else self.worker_count,
        }


def default_worker_count() -> int:
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise UsageError(f"{ENV_THREADS} must be an integer, got {env!r}") from None
        if workers < 1:
            raise UsageError(f"{ENV_THREADS} must be at least 1, got {workers}")
        return workers
    return max(1, os.cpu_count() or 1)


class Engine:
    """Worker pool plus a log of PhaseStats for every phase it runs."""

    def __init__(self, workers: int | None = None):
        self.workers = default_worker_count() if workers is None else int(workers)
        if self.workers < 1:
            raise UsageError(f"worker count (--threads) must be at least 1, got {workers}")
        self.phases: list[PhaseStats] = []

    def record(self, phase_name: str, elapsed: float,
               bytes_scattered: int = 0, bytes_gathered: int = 0) -> PhaseStats:
        stats = PhaseStats(phase_name, elapsed, int(bytes_scattered),
                           int(bytes_gathered), self.workers)
        self.phases.append(stats)
        return stats

    def run_chunks(self, bounds: Sequence[int], task: Callable[[int, int], None]) -> None:
        """Run task(lo, hi) over consecutive [bounds[i], bounds[i+1]) ranges.

        Tasks must write only to disjoint output regions determined by their
        range; that is what makes the result independent of scheduling.
        """
        spans = [(int(bounds[i]), int(bounds[i + 1]))
                 for i in range(len(bounds) - 1)
                 if bounds[i] < bounds[i + 1]]
        if not spans:
            return
        if self.workers == 1 or len(spans) == 1:
            for lo, hi in spans:
                task(lo, hi)
            return
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(task, lo, hi) for lo, hi in spans]
            for fut in futures:
                fut.result()


def parallel_edge_map(g: UndirectedGraph, f: Callable[[EdgeRef], object], *,
                      engine: Engine | None = None, phase: str = "edge-map",
                      record_bytes: int = SCALAR_BYTES) -> list:
    """Apply a pure function to every edge; result[i] == f(edge i).

    The output is independent of worker count and scheduling because each
    worker fills a disjoint slice of the result.
    """
    engine = engine or Engine()
    m = g.edge_count
    out: list = [None] * m
    start = time.perf_counter()

    def run(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i] = f(g.edge_ref(i))

    chunk = max(1, m // (engine.workers * 4) + 1)
    bounds = list(range(0, m, chunk)) + [m]
    engine.run_chunks(bounds, run)
    engine.record(phase, time.perf_counter() - start,
                  bytes_scattered=m * record_bytes)
    return out


def segment_sums_by_vertex(g: UndirectedGraph, vals: np.ndarray) -> np.ndarray:
    """Exact per-vertex sums of position-ordered values (one value per CSR position).

    Positions are contiguous per vertex, so this reduces each vertex's segment
    with a single vectorized pass; empty rows stay zero.
    """
    n = g.vertex_count
    shape = (n,) if vals.ndim == 1 else (n, vals.shape[1])
    out = np.zeros(shape, dtype=vals.dtype)
    nonempty = np.flatnonzero(g.degrees > 0)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(vals, g.indptr[nonempty], axis=0)
    return out


def endpoint_sums(g: UndirectedGraph, u_side: np.ndarray,
                  w_side: np.ndarray) -> np.ndarray:
    """Per-vertex sums of directed edge values: u_side lands on the smaller
    endpoint, w_side on the larger.

    Integer-weight bincount accumulation is exact while every partial sum
    stays below 2**53; beyond that, fall back to position-segment reduction.
    """
    n = g.vertex_count
    if n * n <= 2 ** 53:
        out = np.bincount(g.edge_u, weights=u_side, minlength=n)
        out += np.bincount(g.edge_w, weights=w_side, minlength=n)
        return out.astype(np.int64)
    e = g.pos_to_edge
    is_u = g.position_rows < g.indices
    return segment_sums_by_vertex(g, np.where(is_u, u_side[e], w_side[e]))


def _record_width(per_edge) -> int:
    if isinstance(per_edge, np.ndarray):
        cols = per_edge.shape[1] if per_edge.ndim == 2 else 1
        return cols * per_edge.dtype.itemsize
    if len(per_edge) == 0:
        return SCALAR_BYTES
    first = per_edge[0]
    if isinstance(first, (tuple, list)):
        return SCALAR_BYTES * len(first)
    return SCALAR_BYTES


def parallel_vertex_reduce(g: UndirectedGraph, per_edge, *,
                           combine: Callable | None = None,
                           engine: Engine | None = None,
                           phase: str = "vertex-reduce"):
    """Fold each vertex's incident edge records with a commutative, associative combine.

    Every edge record is consumed by both endpoints, so a gather of k
    fixed-width scalars per edge moves 2*|E|*k*8 bytes. With the default
    integer-sum combine the reduction is vectorized; a custom combine folds
    records in canonical incidence order.
    """
    engine = engine or Engine()
    m = g.edge_count
    if len(per_edge) != m:
        raise UsageError(f"record array has {len(per_edge)} entries for {m} edges")
    n = g.vertex_count
    width = _record_width(per_edge)
    start = time.perf_counter()

    if combine is None and isinstance(per_edge, np.ndarray):
        acc = segment_sums_by_vertex(g, per_edge[g.pos_to_edge])
        engine.record(phase, time.perf_counter() - start,
                      bytes_gathered=2 * m * width)
        return acc

    if combine is None:
        def combine(a, b):
            if isinstance(a, (tuple, list)):
                return tuple(x + y for x, y in zip(a, b))
            return a + b

    out: list = [None] * n
    indptr, pos_to_edge = g.indptr, g.pos_to_edge

    def run(lo: int, hi: int) -> None:
        for v in range(lo, hi):
            acc = None
            for p in range(indptr[v], indptr[v + 1]):
                rec = per_edge[pos_to_edge[p]]
                acc = rec if acc is None else combine(acc, rec)
            out[v] = acc

    chunk = max(1, n // (engine.workers * 4) + 1)
    bounds = list(range(0, n, chunk)) + [n]
    engine.run_chunks(bounds, run)

    zero = None
    for v in range(n):
        if out[v] is not None:
            first = out[v]
            zero = tuple(0 for _ in first) if isinstance(first, (tuple, list)) else 0
            break
    if zero is None:
        zero = 0
    for v in range(n):
        if out[v] is None:
            out[v] = zero
    engine.record(phase, time.perf_counter() - start, bytes_gathered=2 * m * width)
    return out
