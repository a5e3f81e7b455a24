"""Phase accounting shared by every pipeline stage, plus exact per-vertex sums
of per-edge values.

``endpoint_sums`` accumulates in float64 bincounts over the canonical edges
and checks on its result that every sum stayed exact.

Every computation is serial and vectorized. The worker count (``--threads``,
``TRIPROF_THREADS``) is validated when the engine is built, which the CLI does
before it reads the graph; the CLI records it once per report, and it splits
no work. Communication volume is accounted arithmetically (records times record
width), never measured from a transport, which keeps the counters reproducible
and identical for every worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, UsageError
from .graph import UndirectedGraph

ENV_THREADS = "TRIPROF_THREADS"

# float64 holds every integer up to 2**53 exactly, so endpoint_sums'
# weighted bincounts are exact while every sum stays below it.
BINCOUNT_EXACT_LIMIT = 2 ** 53


@dataclass
class PhaseStats:
    """Accounting for one scatter or gather phase."""

    phase_name: str
    elapsed: float
    bytes_scattered: int
    bytes_gathered: int

    def as_json(self, mask_timing: bool = False) -> dict:
        return {
            "name": self.phase_name,
            "seconds": None if mask_timing else self.elapsed,
            "bytes_scattered": self.bytes_scattered,
            "bytes_gathered": self.bytes_gathered,
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
    """Worker count plus a log of PhaseStats for every phase recorded."""

    def __init__(self, workers: int | None = None):
        self.workers = default_worker_count() if workers is None else int(workers)
        if self.workers < 1:
            raise UsageError(f"worker count (--threads) must be at least 1, got {workers}")
        self.phases: list[PhaseStats] = []

    def record(self, phase_name: str, elapsed: float,
               bytes_scattered: int = 0, bytes_gathered: int = 0) -> PhaseStats:
        stats = PhaseStats(phase_name, elapsed, int(bytes_scattered), int(bytes_gathered))
        self.phases.append(stats)
        return stats


def segment_sums(vals: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exact sums of the segments vals[bounds[i]:bounds[i + 1]], along axis 0.

    Each segment is reduced in one vectorized pass; empty segments stay zero.
    """
    shape = (len(bounds) - 1,) + vals.shape[1:]
    out = np.zeros(shape, dtype=vals.dtype)
    nonempty = np.flatnonzero(np.diff(bounds) > 0)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(vals, bounds[nonempty], axis=0)
    return out


def endpoint_sums(g: UndirectedGraph, values: np.ndarray) -> np.ndarray:
    """Per-vertex int64 sums of a non-negative per-edge array, each edge's
    value landing on both of its endpoints.

    Two weighted bincounts accumulate in float64. No partial sum of
    non-negative addends exceeds its final sum, so a largest sum below
    BINCOUNT_EXACT_LIMIT proves every sum exact; IntegrityError is raised
    when it is not, and on a negative value.
    """
    if values.size and values.min() < 0:
        e = int(np.argmax(values < 0))
        raise IntegrityError(f"negative value {values[e]} on edge {e} in an endpoint sum")
    n = g.vertex_count
    out = np.bincount(g.edge_u, weights=values, minlength=n)
    out += np.bincount(g.edge_w, weights=values, minlength=n)
    if out.size and out.max() >= BINCOUNT_EXACT_LIMIT:
        v = int(np.argmax(out))
        raise IntegrityError(f"endpoint sum at vertex {g.label_of(v)} (id {v}) reaches "
                             f"{BINCOUNT_EXACT_LIMIT}, beyond exact float64 accumulation")
    return out.astype(np.int64)
