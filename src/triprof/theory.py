"""Executable sparsifier analysis: per-edge extremes, feasibility conditions, and
the indicator polynomials whose concentration drives the sampling guarantee.

The polynomial evaluator works from tables of the original graph's lone-edge
weights, open wedges and triangles, enumerated once in vectorized steps. The
wedge table grows with the sum of C(d, 2), so callers can cap the wedge count;
the cap is checked before any wedge is enumerated. Everything here is pure
integer or float arithmetic over an immutable graph plus a sample mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, UsageError
from .graph import UndirectedGraph
from .profiles import (ProfileVector, _exact_sum, _lookup, _sibling_pairs,
                       _triangle_steps, edge_triangle_counts, orient)

A1 = 8.0
A2 = 8.0 ** 2 * math.sqrt(2.0)
A3 = 8.0 ** 3 * math.sqrt(6.0)


@dataclass(frozen=True)
class EdgeExtremes:
    """Largest number of lone-edge triples, wedges, and triangles on any one edge."""

    alpha: int
    beta: int
    delta: int


def edge_extremes(g: UndirectedGraph, tri: np.ndarray | None = None) -> EdgeExtremes:
    """Maxima over all edges {u, w} of the vertices adjacent to neither
    endpoint, n - du - dw + tri; of the wedges through the edge,
    du + dw - 2 - 2*tri; and of its triangles, tri. ``tri`` holds the
    per-edge triangle counts, computed here when not given."""
    if g.edge_count == 0:
        raise UsageError("edge extremes are undefined for an empty edge set")
    if tri is None:
        tri = edge_triangle_counts(g)
    du, dw = g.degrees[g.edge_u], g.degrees[g.edge_w]
    return EdgeExtremes(
        alpha=int((g.vertex_count - du - dw + tri).max()),
        beta=int((du + dw - 2 - 2 * tri).max()),
        delta=int(tri.max()),
    )


@dataclass(frozen=True)
class TermTables:
    """Edge-id tables for every lone-edge triple, wedge, and triangle of a graph."""

    n0: int
    iso_weight: np.ndarray   # per edge: lone-edge triples whose edge it is
    wedge_e1: np.ndarray
    wedge_e2: np.ndarray
    tri_e1: np.ndarray
    tri_e2: np.ndarray
    tri_e3: np.ndarray

    @property
    def wedge_count(self) -> int:
        return len(self.wedge_e1)

    @property
    def triangle_count(self) -> int:
        return len(self.tri_e1)


def census_terms(g: UndirectedGraph, max_wedges: int | None = None) -> TermTables:
    """Enumerate the indicator-term structure of a graph once, for reuse across masks.

    Triangles come from the shared oriented enumeration. Open wedges are the
    pairs of a center's neighbors with no edge between them; the open-wedge
    count, the sum of C(d, 2) less three per triangle, is checked against
    ``max_wedges`` before any wedge is enumerated.
    """
    n, m = g.vertex_count, g.edge_count
    o = orient(g)
    tri = [np.zeros((0, 3), dtype=np.int64)]
    for step in _triangle_steps(o):
        tri.append(o.order[np.stack(step, axis=1)])
        del step  # not held while the next step is found
    tri = np.concatenate(tri)
    deg = g.degrees
    n2 = _exact_sum(deg * (deg - 1) // 2) - 3 * len(tri)
    if max_wedges is not None and n2 > max_wedges:
        raise UsageError(
            f"{n2} open wedges exceed the configured budget of {max_wedges}")

    keys = g.edge_u * np.int64(n) + g.edge_w  # canonical edges are sorted by (u, w)
    wedge_e1, wedge_e2 = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    for p, q in _sibling_pairs(g.indptr, owner):
        _, closed = _lookup(keys, g.indices[p] * np.int64(n) + g.indices[q])
        wedge_e1.append(g.pos_to_edge[p[~closed]])
        wedge_e2.append(g.pos_to_edge[q[~closed]])
    wedge_e1, wedge_e2 = np.concatenate(wedge_e1), np.concatenate(wedge_e2)
    if len(wedge_e1) != n2:
        raise IntegrityError(f"{len(wedge_e1)} open wedges enumerated, {n2} expected")

    tri_per_edge = np.bincount(tri.ravel(), minlength=m)
    iso_weight = (n - (deg[g.edge_u] + deg[g.edge_w] - tri_per_edge)).astype(np.int64)
    n1 = _exact_sum(iso_weight)
    return TermTables(
        n0=math.comb(n, 3) - n1 - n2 - len(tri),
        iso_weight=iso_weight,
        wedge_e1=wedge_e1,
        wedge_e2=wedge_e2,
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

    Each term is a count of kept/dropped patterns over the wedge or triangle
    table, taken on boolean arrays with count_nonzero.
    """
    if len(mask) != g.edge_count:
        raise UsageError(f"mask has {len(mask)} entries for {g.edge_count} edges")
    if terms is None:
        terms = census_terms(g)
    t = np.asarray(mask, dtype=bool)

    def cnt(x: np.ndarray) -> int:
        return int(np.count_nonzero(x))

    s1 = int(terms.iso_weight[t].sum())
    y0 = terms.n0 + int(terms.iso_weight[~t].sum())
    y1 = s1

    a, b = t[terms.wedge_e1], t[terms.wedge_e2]
    d1 = cnt(a) + cnt(b)
    d2 = cnt(a & b)
    y0 += cnt(~(a | b))
    y1 += cnt(a ^ b)
    y2 = d2

    ta, tb, tc = t[terms.tri_e1], t[terms.tri_e2], t[terms.tri_e3]
    ab, bc, ca = ta & tb, tb & tc, tc & ta
    kept3 = ab & tc
    t1 = cnt(ta) + cnt(tb) + cnt(tc)
    t2 = cnt(ab) + cnt(bc) + cnt(ca)
    y3 = cnt(kept3)
    y0 += cnt(~(ta | tb | tc))
    y1 += cnt((ta ^ tb ^ tc) & ~kept3)  # exactly one edge kept
    y2 += cnt((ab | bc | ca) & ~kept3)  # exactly two edges kept

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
