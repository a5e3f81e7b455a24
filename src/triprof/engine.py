"""Phase accounting shared by every pipeline stage, the worker pool that runs
the triangle enumeration's steps, and exact per-vertex sums of per-edge values.

``Engine.sum_steps`` runs a pass of numbered steps on the engine's workers.
Worker w of W takes steps w, w + W, w + 2W, ... in order and adds them into
int64 accumulators of its own; the main thread adds the W partials. Integer
sums do not depend on their order, so every result is the same for every
worker count. W is the worker count (``--threads``, ``TRIPROF_THREADS``,
else the CPUs this process may use), capped by the step count and the usable
CPUs. Worker 0 is the calling thread, so with one worker the steps run in a
plain loop and no thread is started. The triangle enumeration cuts its
sibling pairs into steps of ``profiles.PAIR_BUDGET`` (2**18) pairs; the
sorts, searches, gathers and bincounts of a step release the GIL, so the
workers' steps overlap. On a 2-core VM two workers took ``ego --random
20000`` on a 1.18M-edge clustered graph from 1.16 to 0.96 s and ``profile``
on a 1.25M-edge skewed graph from 0.97 to 0.85 s (medians of 10 alternating
CLI calls).

``endpoint_sums`` accumulates per-edge values at the edges' endpoints, one
value array per endpoint side, in float64 bincounts over the canonical edges,
and checks on its result that every sum stayed exact.

Communication volume is accounted arithmetically (records times record
width), never measured from a transport, which keeps the counters reproducible
and identical for every worker count.
"""

from __future__ import annotations

import os
import threading
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
    return usable_cpus()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


class Engine:
    """Worker count plus a log of PhaseStats for every phase recorded."""

    def __init__(self, workers: int | None = None):
        self.workers = default_worker_count() if workers is None else int(workers)
        if self.workers < 1:
            raise UsageError(f"worker count (--threads) must be at least 1, got {workers}")
        self.phases: list[PhaseStats] = []

    def record(self, phase_name: str, elapsed: float,
               bytes_scattered: int = 0, bytes_gathered: int = 0) -> None:
        self.phases.append(
            PhaseStats(phase_name, elapsed, int(bytes_scattered), int(bytes_gathered)))

    def sum_steps(self, steps: int, shapes, add_step) -> list[np.ndarray]:
        """The sums over the steps 0 <= s < ``steps`` of what ``add_step(acc, s)``
        adds into ``acc``, a list of int64 zero arrays of the given ``shapes``.

        W = min(workers, steps, usable CPUs) workers share the steps, worker
        w taking steps w, w + W, w + 2W, ... into accumulators it allocates
        once. Worker 0 is the calling thread and every other worker a thread
        started here: a thread's allocations come from a malloc arena of its
        own, and one arena fewer keeps the peak RSS lower. An exception in
        any step is raised here once every worker has stopped.
        """
        count = max(1, min(self.workers, steps, usable_cpus()))
        partials: list = [None] * count
        errors: list = [None] * count

        def work(w: int) -> None:
            try:
                acc = [np.zeros(shape, dtype=np.int64) for shape in shapes]
                for s in range(w, steps, count):
                    add_step(acc, s)
                partials[w] = acc
            except BaseException as exc:  # raised on the calling thread below
                errors[w] = exc

        threads = [threading.Thread(target=work, args=(w,), name=f"triprof-worker-{w}",
                                    daemon=True) for w in range(1, count)]
        for t in threads:
            t.start()
        work(0)
        for t in threads:
            t.join()
        for exc in errors:
            if exc is not None:
                raise exc
        total = partials[0]
        for acc in partials[1:]:
            for into, part in zip(total, acc):
                into += part
        return total


def endpoint_sums(g: UndirectedGraph, at_u: np.ndarray,
                  at_w: np.ndarray | None = None) -> np.ndarray:
    """Per-vertex int64 sums of non-negative per-edge values: edge e adds
    at_u[e] at its endpoint edge_u[e] and at_w[e] at edge_w[e]; without
    ``at_w``, at_u lands on both endpoints.

    Two weighted bincounts accumulate in float64. No partial sum of
    non-negative addends exceeds its final sum, so a largest sum below
    BINCOUNT_EXACT_LIMIT proves every sum exact; IntegrityError is raised
    when it is not, and on a negative value.
    """
    at_w = at_u if at_w is None else at_w
    if at_u.size and min(at_u.min(), at_w.min()) < 0:
        e = int(np.argmax((at_u < 0) | (at_w < 0)))
        value = at_u[e] if at_u[e] < 0 else at_w[e]
        raise IntegrityError(f"negative value {value} on edge {e} in an endpoint sum")
    n = g.vertex_count
    out = np.bincount(g.edge_u, weights=at_u, minlength=n)
    out += np.bincount(g.edge_w, weights=at_w, minlength=n)
    if out.size and out.max() >= BINCOUNT_EXACT_LIMIT:
        v = int(np.argmax(out))
        raise IntegrityError(f"endpoint sum at vertex {g.label_of(v)} (id {v}) reaches "
                             f"{BINCOUNT_EXACT_LIMIT}, beyond exact float64 accumulation")
    return out.astype(np.int64)
