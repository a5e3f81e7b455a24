"""Phase recording for every pipeline stage, the worker pool that runs the
triangle enumeration's steps, and exact per-vertex sums of per-edge values.

``Engine.phase`` is the one phase clock: each scatter or gather phase is one
``with`` block, logged to ``Engine.phases`` as the dict the report writes.

``Engine.sum_steps`` runs a pass of numbered steps on the engine's workers.
Worker w of W takes steps w, w + W, w + 2W, ... in order and adds them into
int64 accumulators of its own; the main thread adds the W partials. Integer
sums do not depend on their order, so every result is the same for every
worker count. W is the engine's worker count, capped by the step count and
the usable CPUs. ``Engine(workers)`` (the CLI's ``--threads``) is the one
source of that count; ``Engine()`` takes the CPUs this process may use, and
no environment variable is read. Worker 0 is the calling thread, so with one
worker the steps run in a plain loop and no thread is started. The triangle
enumeration cuts its sibling pairs into steps of ``profiles.PAIR_BUDGET``
(2**18) pairs; the sorts, searches, gathers and bincounts of a step release
the GIL, so the workers' steps overlap. A second worker pays off only when
the host gives the VM a second CPU's worth of time, and on a 2-vCPU VM that
came and went: in one state two workers took ``ego --random 20000`` on a
1.18M-edge clustered graph from 0.68 to 0.62 s and ``profile`` on a
1.25M-edge skewed graph from 0.64 to 0.54 s; in another, one worker beat two
on both in 9 of 10 alternating pairs (ego 0.82 against 0.83 s, ``profile``
0.69 against 0.73 s), although the in-process kernel still went from 0.23 to 0.17-0.20 s
(medians of 10 alternating CLI calls; in-process figures best of 5).

The sampled runs of ``profile --p`` are steps too, one run each: a run at
p = 0.3 keeps so few sibling pairs that its enumeration is one step, which
no worker count splits. Each run counts on an ``Engine`` of its own with
min(workers, usable CPUs) // runs workers (at least one), so nested passes
start no more workers than CPUs and a single run still splits its count.

So are the pieces of an edge-list file (a file of at most
``graph.PIECE_BYTES`` is one step, on the calling thread): each step
tokenizes and keys one piece into a slot of its own, with ``shapes`` empty,
and ``graph._table_ids`` numbers the labels once afterwards.

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
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from .errors import IntegrityError, UsageError

if TYPE_CHECKING:  # graph.py imports this module to load in pieces
    from .graph import UndirectedGraph

# float64 holds every integer up to 2**53 exactly, so endpoint_sums'
# weighted bincounts are exact while every sum stays below it.
BINCOUNT_EXACT_LIMIT = 2 ** 53


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


class Engine:
    """Worker count plus ``phases``, the log of every phase that ended: one
    dict ``{name, seconds, bytes_scattered, bytes_gathered}`` each, in the
    order the phases' blocks ended."""

    def __init__(self, workers: int | None = None):
        self.workers = usable_cpus() if workers is None else int(workers)
        if self.workers < 1:
            raise UsageError(f"worker count (--threads) must be at least 1, got {workers}")
        self.phases: list[dict] = []

    @contextmanager
    def phase(self, name: str, bytes_scattered: int = 0, bytes_gathered: int = 0):
        """Time the block as the phase ``name`` and log its entry to ``phases``
        when the block ends; a block that raises logs nothing. The block
        receives the entry and may set byte counts it learns as it runs."""
        entry = {"name": name, "seconds": None,
                 "bytes_scattered": bytes_scattered, "bytes_gathered": bytes_gathered}
        start = time.perf_counter()
        yield entry
        entry["seconds"] = time.perf_counter() - start
        self.phases.append(entry)

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
