"""Executable sparsifier analysis: per-edge extremes, feasibility conditions, and
the indicator polynomials whose concentration drives the sampling guarantee.

The polynomials of a batch of sample masks are counted in one pass over the
shared oriented triangle enumeration: each triangle is classified, per mask,
by how many of its edges the mask keeps. Every other term follows in closed
form from those counts, the degrees and each mask's kept degrees, so no
triangle or wedge is stored and the census keeps no per-edge array. Everything
here is pure integer or float arithmetic over an immutable graph plus masks.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .engine import Engine
from .errors import IntegrityError, UsageError
from .graph import UndirectedGraph
from .profiles import (ProfileVector, _exact_sum, _profile_from_degrees, _triangle_steps,
                       edge_triangle_counts, orient)

A1 = 8.0
A2 = 8.0 ** 2 * math.sqrt(2.0)
A3 = 8.0 ** 3 * math.sqrt(6.0)


def _edge_weights(g: UndirectedGraph, tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per edge {u, w} with tri triangles: the vertices adjacent to neither
    endpoint, n - du - dw + tri, and the open wedges with the edge as an arm,
    du + dw - 2 - 2*tri."""
    du, dw = g.degrees[g.edge_u], g.degrees[g.edge_w]
    alpha = g.vertex_count - du - dw + tri
    beta = du + dw - 2 - 2 * tri
    if (alpha < 0).any() or (beta < 0).any():
        raise IntegrityError("negative lone-edge or open-wedge weight on an edge")
    return alpha, beta


@dataclass(frozen=True)
class EdgeExtremes:
    """Largest number of lone-edge triples, wedges, and triangles on any one edge."""

    alpha: int
    beta: int
    delta: int


def edge_extremes(g: UndirectedGraph, tri: np.ndarray | None = None) -> EdgeExtremes:
    """Maxima over all edges of the two ``_edge_weights`` and of the triangle
    count. ``tri`` holds the per-edge triangle counts, computed here when not
    given."""
    if g.edge_count == 0:
        raise UsageError("edge extremes are undefined for an empty edge set")
    if tri is None:
        tri = edge_triangle_counts(g)
    alpha, beta = _edge_weights(g, tri)
    return EdgeExtremes(alpha=int(alpha.max()), beta=int(beta.max()), delta=int(tri.max()))


@dataclass(frozen=True)
class PolynomialValues:
    """Exact values of the indicator polynomials on one mask."""

    y0: int
    y1: int
    y2: int
    y3: int
    s1: int
    d1: int
    d2: int
    t1: int
    t2: int

    def identity_residuals(self) -> tuple[int, int]:
        """Residuals of the two decomposition identities; zero when exact."""
        r1 = self.y1 - (self.s1 + self.d1 - 2 * self.d2 + self.t1 - 2 * self.t2 + 3 * self.y3)
        r2 = self.y2 - (self.d2 + self.t2 - 3 * self.y3)
        return r1, r2

    def as_json(self) -> dict:
        return {k: int(getattr(self, k))
                for k in ("y0", "y1", "y2", "y3", "s1", "d1", "d2", "t1", "t2")}


@dataclass(frozen=True)
class TermTables:
    """A graph's exact profile and each mask's polynomials, from one enumeration."""

    profile: ProfileVector
    values: tuple[PolynomialValues, ...]

    @property
    def wedge_count(self) -> int:
        return self.profile.n2

    @property
    def triangle_count(self) -> int:
        return self.profile.n3


_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")


def census_terms(g: UndirectedGraph, masks: Iterable[np.ndarray] = (),
                 engine: Engine | None = None) -> TermTables:
    """The graph's profile and the polynomials of every mask, from one pass
    over the shared oriented triangle enumeration that stores no triangle.

    Bit r of byte b of an edge holds mask 8*b + r. Each step bincounts its
    triangles on their edges, for the check of ``_edge_weights``, and, per
    byte, the byte values that mark the masks keeping at least one, two and
    three of a triangle's edges, read out per bit through ``_BITS``. The
    steps run on ``engine``'s workers. Memory is O(|V| + |E| * masks / 8)
    plus, per worker, one PAIR_BUDGET step and its own triangle and
    histogram counts.
    """
    m = g.edge_count
    o = orient(g)  # built before the masks are drawn: a lower peak RSS, as measured
    packed, slots = [], []  # (byte, bit) of each mask
    for t in masks:
        if len(t) != m:
            raise UsageError(f"mask has {len(t)} entries for {m} edges")
        b, bit = divmod(len(slots), 8)
        packed += [np.zeros(m, dtype=np.uint8)] if bit == 0 else []
        packed[b] |= np.asarray(t, dtype=bool).view(np.uint8) << bit
        slots.append((b, bit))

    def classify(acc, i, j, k):
        hits, hist = acc
        for x in (i, j, k):
            np.take(o.order, x, out=x)  # sorted positions become edge ids in place
            hits += np.bincount(x, minlength=m)
        for h, row in zip(hist, packed):
            a, b, c = row[i], row[j], row[k]
            h[0] += np.bincount(a | b | c, minlength=256)
            h[1] += np.bincount((a & b) | (c & (a | b)), minlength=256)
            h[2] += np.bincount(a & b & c, minlength=256)

    hits, hist = _triangle_steps(o, engine or Engine(), [m, (len(packed), 3, 256)], classify)
    _edge_weights(g, hits)  # raises IntegrityError on a negative weight
    profile = _profile_from_degrees(g.degrees, m, _exact_sum(hits) // 3)
    at_least = hist @ _BITS  # [byte, at least 1/2/3 kept edges, bit]
    return TermTables(profile, tuple(
        _mask_values(g, profile, ((packed[b] >> bit) & 1).view(bool),
                     *at_least[b, :, bit].tolist()) for b, bit in slots))


def _mask_values(g: UndirectedGraph, profile: ProfileVector, t: np.ndarray,
                 g1: int, g2: int, g3: int) -> PolynomialValues:
    """The polynomials on mask ``t``, of whose triangles g1, g2 and g3 keep
    at least one, two and three edges.

    S1 and D1 sum the ``_edge_weights`` over the kept edges: their triangle
    parts sum to T1, their degree parts to sum d*d' over the kept degrees d'.
    Each pair of kept edges at a vertex, sum C(d', 2), is an open wedge with
    both arms kept or two kept sides of a triangle: D2 = sum C(d', 2) - T2.
    Of the n2 open wedges, D1 - 2*D2 keep one arm and n2 - D1 + D2 none.
    """
    n = g.vertex_count
    h0, h1, h2, h3 = profile.n3 - g1, g1 - g2, g2 - g3, g3
    edges = np.flatnonzero(t)  # a gather by index beats a boolean index at p of 0.3-0.8
    kept_deg = (np.bincount(g.edge_u[edges], minlength=n)
                + np.bincount(g.edge_w[edges], minlength=n))
    kept, ends = len(edges), _exact_sum(g.degrees * kept_deg)
    t1, t2 = h1 + 2 * h2 + 3 * h3, h2 + 3 * h3
    s1, d1 = kept * n - ends + t1, ends - 2 * kept - 2 * t1
    d2 = _exact_sum(kept_deg * (kept_deg - 1) // 2) - t2
    y0 = profile.n0 + profile.n1 - s1 + profile.n2 - d1 + d2 + h0
    return PolynomialValues(y0, s1 + d1 - 2 * d2 + h1, d2 + h2, h3, s1, d1, d2, t1, t2)


def evaluate_polynomials(g: UndirectedGraph, mask: np.ndarray,
                         terms: TermTables | None = None) -> PolynomialValues:
    """Evaluate every polynomial on one sample mask against the original graph,
    as ``census_terms`` on a batch of one. ``terms``, when given, must hold
    the census of ``g``; UsageError is raised when it does not."""
    found = census_terms(g, [mask])
    if terms is not None and terms.profile != found.profile:
        raise UsageError("the given terms do not match this graph's census")
    return found.values[0]


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    lhs: float | None
    rhs: float
    satisfied: bool
    note: str | None = None

    def as_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "satisfied": self.satisfied, "note": self.note}


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the four sampling-feasibility inequalities."""

    conditions: tuple[ConditionCheck, ...]
    feasible: bool
    p: float
    epsilon: float
    gamma: float
    log_base: float
    error_bound: float
    confidence: float

    def as_json(self) -> dict:
        return {
            "conditions": [c.as_json() for c in self.conditions],
            "feasible": self.feasible,
            "p": self.p,
            "epsilon": self.epsilon,
            "gamma": self.gamma,
            "log_base": self.log_base,
            "error_bound": self.error_bound,
            "confidence": self.confidence,
            "constants": {"a1": A1, "a2": A2, "a3": A3},
        }


def _ratio_condition(name: str, numerator: float, denom_terms: list[tuple[float, int]],
                     rhs: float) -> ConditionCheck:
    """Condition of form numerator / max(denominator terms) >= rhs.

    A denominator term with a zero count is unsatisfiable as written, so the
    condition is reported vacuous-infeasible instead of dividing by zero.
    """
    for term, count in denom_terms:
        if count == 0:
            return ConditionCheck(name, None, rhs, False,
                                  note="vacuous: a required count is zero")
    denom = max(term for term, _ in denom_terms)
    if denom == 0:
        return ConditionCheck(name, None, rhs, True,
                              note="denominator zero: no extreme shares the edge")
    return ConditionCheck(name, numerator / denom, rhs, numerator / denom >= rhs)


def check_theorem_conditions(profile: ProfileVector, extremes: EdgeExtremes,
                             m: int, p: float, epsilon: float, gamma: float, *,
                             log_base: float = math.e,
                             form: str = "final") -> TheoremReport:
    """Evaluate the four sampling-feasibility inequalities for (p, epsilon, gamma).

    ``form="final"`` is the simplified system; ``form="prefinal"`` keeps the
    redundant max-terms that the simplification drops.
    """
    if not 0 < p <= 1:
        raise UsageError(f"sampling probability must be in (0, 1], got {p}")
    if epsilon <= 0 or gamma <= 0:
        raise UsageError("epsilon and gamma must be positive")
    if m < 1:
        raise UsageError("the condition system needs at least one edge")
    if form not in ("final", "prefinal"):
        raise UsageError(f"unknown condition form {form!r}")

    n0, n1, n2, n3 = (int(x) for x in profile.as_tuple())
    alpha, beta, delta = extremes.alpha, extremes.beta, extremes.delta
    logm = math.log(m) / math.log(log_base)
    try:
        rhs1 = A3 ** 2 * ((2 + gamma) * logm) ** 6 / epsilon ** 2
        rhs3 = A1 ** 2 * (gamma * logm) ** 2 / epsilon ** 2
        rhs4 = A2 ** 2 * ((1 + gamma) * logm) ** 4 / epsilon ** 2
    except (OverflowError, ZeroDivisionError):
        rhs1 = rhs3 = rhs4 = math.inf
    if not all(math.isfinite(x) for x in (rhs1, rhs3, rhs4)):
        raise UsageError(f"epsilon {epsilon} and gamma {gamma} put a condition bound "
                         "beyond float range")
    rhs2 = rhs1

    worst = max(alpha, beta, delta)
    if worst == 0:
        cond1 = ConditionCheck("empty-count-vs-extremes", None, rhs1, False,
                               note="vacuous: no edge carries any subgraph")
    else:
        cond1 = ConditionCheck("empty-count-vs-extremes", n0 / (3 * worst), rhs1,
                               n0 / (3 * worst) >= rhs1)

    cond2 = _ratio_condition(
        "triangle-sampling-rate", p,
        [(n3 ** (-1 / 3) if n3 else 0.0, n3),
         (delta / n3 if n3 else 0.0, n3)],
        rhs2)

    if form == "final":
        cond3 = _ratio_condition(
            "lone-edge-sampling-rate", p,
            [(alpha / n1 if n1 else 0.0, n1)],
            rhs3)
        cond4 = _ratio_condition(
            "wedge-sampling-rate", p,
            [(beta / n2 if n2 else 0.0, n2),
             (n2 ** (-1 / 2) if n2 else 0.0, n2)],
            rhs4)
    else:
        cond3 = _ratio_condition(
            "lone-edge-sampling-rate", p,
            [(alpha / n1 if n1 else 0.0, n1),
             (beta / (2 * n2) if n2 else 0.0, n2),
             (delta / (3 * n3) if n3 else 0.0, n3)],
            rhs3)
        cond4 = _ratio_condition(
            "wedge-sampling-rate", p,
            [(beta / n2 if n2 else 0.0, n2),
             (2 * delta / (3 * n3) if n3 else 0.0, n3),
             (n2 ** (-1 / 2) if n2 else 0.0, n2),
             (n3 ** (-1 / 2) if n3 else 0.0, n3)],
            rhs4)

    conditions = (cond1, cond2, cond3, cond4)
    total = profile.total()
    return TheoremReport(
        conditions=conditions,
        feasible=all(c.satisfied for c in conditions),
        p=p, epsilon=epsilon, gamma=gamma, log_base=log_base,
        error_bound=12.0 * epsilon * float(total),
        confidence=1.0 - m ** (-gamma),
    )
