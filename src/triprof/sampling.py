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

import math
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
_MASK_BLOCK = 2 ** 16  # edges mixed at a time


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


def sample_mask(g: UndirectedGraph, params: SampleParams) -> np.ndarray:
    """Per-edge keep decisions; replaying the same seed is bit-identical.

    Edge e is kept when the top 53 bits of splitmix64(seed + (e + 1) * gamma)
    are below ceil(p * 2**53), the same decision as their value scaled by
    2**-53 being below p, since the scaling and the integer compare are both
    exact. The mixing runs in place on blocks of _MASK_BLOCK edges, so no
    edge-length uint64 array is held beside the mask.
    """
    m = g.edge_count
    below = np.uint64(math.ceil(params.p * 2 ** 53))
    mask = np.empty(m, dtype=bool)
    for lo in range(0, m, _MASK_BLOCK):
        hi = min(lo + _MASK_BLOCK, m)
        z = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z *= _GAMMA
            z += np.uint64(params.seed)
            z ^= z >> np.uint64(30)
            z *= _MIX1
            z ^= z >> np.uint64(27)
            z *= _MIX2
            z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        np.less(z, below, out=mask[lo:hi])
    return mask


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
    with engine.phase(f"sampled-run:{params.seed}") as phase:
        mask = sample_mask(g, params)
        sampled = masked_profile(orient(g) if orientation is None else orientation, mask,
                                 engine)
        kept = int(np.count_nonzero(mask))
        phase.update(bytes_scattered=8 * kept, bytes_gathered=2 * 8 * kept)
        return unbiased_estimate(sampled, params.p), sampled
