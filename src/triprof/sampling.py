"""Bernoulli edge sparsifier and the estimator that inverts the sampling process.

Keeping each edge independently with probability p maps every 3-vertex
configuration to a smaller-or-equal one with known transition probabilities.
The estimator applies the inverse of that transition matrix to the sampled
graph's exact profile, which makes it unbiased. Estimates are computed in
exact rational arithmetic so the configuration total is preserved exactly.
The forward model, ``oracle.transition_matrix`` and
``oracle.expected_sampled_profile``, is the reference the estimator is
checked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import Engine
from .errors import UsageError
from .graph import UndirectedGraph
from .profiles import Orientation, ProfileVector, masked_profile, orient

# splitmix64 mixing constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class SampleParams:
    """Edge-keep probability in (0, 1] and a 64-bit seed."""

    p: float
    seed: int

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise UsageError(f"sampling probability must be in (0, 1], got {self.p}")
        if not 0 <= self.seed < 2 ** 64:
            raise UsageError("seed must fit in 64 bits")


def _uniform01(seed: int, count: int) -> np.ndarray:
    """Uniform [0,1) value per index 0..count-1, a pure function of (seed, index).

    The mixing runs in place on one uint64 array, so a mask over every edge
    holds few edge-length temporaries beside the graph and its orientation.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= _GAMMA
        z += np.uint64(seed)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 1.0 / (1 << 53)
    return out


def sample_mask(g: UndirectedGraph, params: SampleParams) -> np.ndarray:
    """Per-edge keep decisions; replaying the same seed is bit-identical."""
    return _uniform01(params.seed, g.edge_count) < params.p


def subgraph_from_mask(g: UndirectedGraph, mask: np.ndarray) -> UndirectedGraph:
    """Graph with the masked-in edges only, same vertex set and labels."""
    if len(mask) != g.edge_count:
        raise UsageError(f"mask has {len(mask)} entries for {g.edge_count} edges")
    pairs = np.stack([g.edge_u[mask], g.edge_w[mask]], axis=1)
    return UndirectedGraph.from_edges(pairs, vertex_count=g.vertex_count,
                                      labels=g._labels)


def unbiased_estimate(y: ProfileVector, p: float) -> ProfileVector:
    """Invert the sampling process on a sampled graph's exact profile.

    Exact rational arithmetic keeps the estimate total equal to the input
    total; entries may be negative under sampling noise and are reported
    unclamped, since clamping would bias the estimator.
    """
    if not 0 < p <= 1:
        raise UsageError(f"sampling probability must be in (0, 1], got {p}")
    pf = Fraction(p)
    q = 1 - pf
    y0, y1, y2, y3 = (Fraction(v) for v in y.as_tuple())
    x0 = y0 - (q / pf) * y1 + (q * q / pf ** 2) * y2 - (q ** 3 / pf ** 3) * y3
    x1 = y1 / pf - (2 * q / pf ** 2) * y2 + (3 * q * q / pf ** 3) * y3
    x2 = y2 / pf ** 2 - (3 * q / pf ** 3) * y3
    x3 = y3 / pf ** 3
    return ProfileVector(x0, x1, x2, x3)


def estimate_profile(g: UndirectedGraph, params: SampleParams, engine: Engine | None = None,
                     orientation: Orientation | None = None) -> tuple[ProfileVector, ProfileVector]:
    """One sampled run: returns (estimate, sampled-graph profile).

    The sampled graph is never built: its profile is counted on a masked view
    of ``orientation``, which is ``orient(g)`` (built here when not given, so
    pass it when several runs share one graph). The run is recorded as one
    phase, ``sampled-run:<seed>``, whose byte counters are those of the kept
    edges: one key each scattered, two endpoint degrees each gathered.
    """
    engine = engine or Engine()
    start = time.perf_counter()
    mask = sample_mask(g, params)
    sampled = masked_profile(orient(g) if orientation is None else orientation, mask,
                             engine)
    estimate = unbiased_estimate(sampled, params.p)
    kept = int(np.count_nonzero(mask))
    engine.record(f"sampled-run:{params.seed}", time.perf_counter() - start,
                  bytes_scattered=8 * kept, bytes_gathered=2 * 8 * kept)
    return estimate, sampled
