"""Executable sparsifier analysis: per-edge extremes, feasibility conditions, and
the indicator polynomials whose concentration drives the sampling guarantee.

The polynomial evaluator works from the original graph's per-edge lone-edge
and open-wedge weights, which follow from the per-edge triangle counts and the
degrees, and from its triangle table, enumerated once. No wedge is enumerated:
the wedge terms of a mask follow from the weights of its kept edges and from
its kept degrees. Everything here is pure integer or float arithmetic over an
immutable graph plus a sample mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, UsageError
from .graph import UndirectedGraph
from .profiles import (ProfileVector, _exact_sum, _triangle_steps,
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
class TermTables:
    """Per-edge weights and the triangle table of a graph, for reuse across masks."""

    n0: int
    n2: int                   # open wedges
    iso_weight: np.ndarray    # per edge: lone-edge triples whose edge it is
    wedge_weight: np.ndarray  # per edge: open wedges with the edge as an arm
    tri_e1: np.ndarray
    tri_e2: np.ndarray
    tri_e3: np.ndarray

    @property
    def wedge_count(self) -> int:
        return self.n2

    @property
    def triangle_count(self) -> int:
        return len(self.tri_e1)


def census_terms(g: UndirectedGraph) -> TermTables:
    """Collect the indicator-term structure of a graph once, for reuse across masks.

    Triangles come from the shared oriented enumeration, as edge-id triples;
    the per-edge weights follow from their per-edge counts and the degrees.
    Each open wedge has two arms, so n2 is half the sum of the wedge weights.
    """
    n, m = g.vertex_count, g.edge_count
    o = orient(g)
    tri = [np.zeros((0, 3), dtype=np.int64)]
    for step in _triangle_steps(o):
        tri.append(o.order[np.stack(step, axis=1)])
        del step  # not held while the next step is found
    tri = np.concatenate(tri)
    iso_weight, wedge_weight = _edge_weights(g, np.bincount(tri.ravel(), minlength=m))
    n1, n2 = _exact_sum(iso_weight), _exact_sum(wedge_weight) // 2
    return TermTables(
        n0=math.comb(n, 3) - n1 - n2 - len(tri),
        n2=n2,
        iso_weight=iso_weight,
        wedge_weight=wedge_weight,
        tri_e1=tri[:, 0],
        tri_e2=tri[:, 1],
        tri_e3=tri[:, 2],
    )


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


def evaluate_polynomials(g: UndirectedGraph, mask: np.ndarray,
                         terms: TermTables | None = None) -> PolynomialValues:
    """Evaluate every polynomial on one sample mask against the original graph.

    Triangle terms count kept/dropped patterns over the triangle table, on
    boolean arrays with count_nonzero. No wedge is enumerated. D1 is the sum of
    the kept edges' wedge weights. Every pair of kept edges that share a vertex,
    sum C(d', 2) over the kept degrees d', is either an open wedge with both
    arms kept or two kept sides of a triangle, which T2 counts, so
    D2 = sum C(d', 2) - T2. Of the n2 open wedges, D1 - 2*D2 keep exactly one
    arm and n2 - D1 + D2 keep none.
    """
    if len(mask) != g.edge_count:
        raise UsageError(f"mask has {len(mask)} entries for {g.edge_count} edges")
    if terms is None:
        terms = census_terms(g)
    t = np.asarray(mask, dtype=bool)

    def cnt(x: np.ndarray) -> int:
        return int(np.count_nonzero(x))

    ta, tb, tc = t[terms.tri_e1], t[terms.tri_e2], t[terms.tri_e3]
    ab, bc, ca = ta & tb, tb & tc, tc & ta
    kept3 = ab & tc
    t1 = cnt(ta) + cnt(tb) + cnt(tc)
    t2 = cnt(ab) + cnt(bc) + cnt(ca)
    y3 = cnt(kept3)

    n = g.vertex_count
    kept_deg = (np.bincount(g.edge_u[t], minlength=n)
                + np.bincount(g.edge_w[t], minlength=n))
    s1 = int(terms.iso_weight[t].sum())
    d1 = _exact_sum(terms.wedge_weight[t])
    d2 = _exact_sum(kept_deg * (kept_deg - 1) // 2) - t2

    y0 = (terms.n0 + int(terms.iso_weight[~t].sum()) + terms.n2 - d1 + d2
          + cnt(~(ta | tb | tc)))
    y1 = s1 + d1 - 2 * d2 + cnt((ta ^ tb ^ tc) & ~kept3)  # exactly one edge kept
    y2 = d2 + cnt((ab | bc | ca) & ~kept3)  # exactly two edges kept

    return PolynomialValues(y0, y1, y2, y3, s1, d1, d2, t1, t2)


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
    a1: float = A1
    a2: float = A2
    a3: float = A3

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
            "constants": {"a1": self.a1, "a2": self.a2, "a3": self.a3},
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
