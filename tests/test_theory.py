"""Edge extremes, feasibility conditions, and the indicator polynomials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprof import (IntegrityError, SampleParams, UndirectedGraph, UsageError,
                     check_theorem_conditions, census_terms, compute_profile,
                     edge_extremes, evaluate_polynomials, sample_mask, subgraph_from_mask)
from triprof.profiles import edge_triangle_counts
from triprof.theory import EdgeExtremes

from conftest import er_graph, hub_joined_cliques, star_graph


class TestEdgeExtremes:
    def test_k4(self, k4):
        assert edge_extremes(k4) == EdgeExtremes(alpha=0, beta=0, delta=2)

    def test_c5(self, c5):
        assert edge_extremes(c5) == EdgeExtremes(alpha=1, beta=2, delta=0)

    def test_star(self):
        assert edge_extremes(star_graph(3)) == EdgeExtremes(alpha=0, beta=2, delta=0)

    def test_empty_edge_set_rejected(self):
        with pytest.raises(UsageError):
            edge_extremes(UndirectedGraph.from_edges([], vertex_count=4))

    @pytest.mark.parametrize("tri", [0, 5])
    def test_negative_weight_rejected(self, k4, tri):
        # K4 edges have 2 triangles: 0 gives n - du - dw + tri = -2, 5 gives
        # du + dw - 2 - 2*tri = -6
        with pytest.raises(IntegrityError, match="negative"):
            edge_extremes(k4, np.full(k4.edge_count, tri, dtype=np.int64))

    def test_matches_per_edge_brute_force(self):
        rng = np.random.default_rng(41)
        hubs = hub_joined_cliques([2, 3, 5])
        padded = UndirectedGraph.from_edges(np.stack([hubs.edge_u, hubs.edge_w], axis=1),
                                            vertex_count=hubs.vertex_count + 4)
        for g in (er_graph(40, 0.3, rng), padded):
            alpha = beta = delta = 0
            for e in range(g.edge_count):
                u, w = int(g.edge_u[e]), int(g.edge_w[e])
                nu = set(map(int, g.neighbors(u)))
                nw = set(map(int, g.neighbors(w)))
                tri = len(nu & nw)
                wedges = len(nu - nw - {w}) + len(nw - nu - {u})
                iso = g.vertex_count - len(nu | nw)
                alpha, beta, delta = max(alpha, iso), max(beta, wedges), max(delta, tri)
            expected = EdgeExtremes(alpha, beta, delta)
            assert edge_extremes(g) == expected
            assert edge_extremes(g, edge_triangle_counts(g)) == expected


class TestTheoremConditions:
    def test_c5_is_infeasible(self, c5):
        prof, _ = compute_profile(c5)
        report = check_theorem_conditions(prof, edge_extremes(c5),
                                          c5.edge_count, 0.5, 0.1, 1.0)
        assert not report.feasible
        assert len(report.conditions) == 4
        for cond in report.conditions:
            assert not cond.satisfied
            assert cond.rhs > 0

    def test_zero_counts_become_diagnostics(self, c5):
        prof, _ = compute_profile(c5)  # n3 == 0
        report = check_theorem_conditions(prof, edge_extremes(c5),
                                          c5.edge_count, 0.5, 0.1, 1.0)
        tri_cond = report.conditions[1]
        assert tri_cond.lhs is None
        assert "vacuous" in tri_cond.note

    def test_epsilon_doubling_quarters_rhs(self, c5):
        prof, _ = compute_profile(c5)
        ex = edge_extremes(c5)
        r1 = check_theorem_conditions(prof, ex, c5.edge_count, 0.5, 0.1, 1.0)
        r2 = check_theorem_conditions(prof, ex, c5.edge_count, 0.5, 0.2, 1.0)
        for c1, c2 in zip(r1.conditions, r2.conditions):
            assert c2.rhs == c1.rhs / 4

    def test_report_fields(self, k4):
        prof, _ = compute_profile(k4)
        report = check_theorem_conditions(prof, edge_extremes(k4),
                                          k4.edge_count, 0.5, 0.1, 1.0)
        assert report.error_bound == 12 * 0.1 * math.comb(4, 3)
        assert report.confidence == 1 - 1 / 6
        constants = report.as_json()["constants"]
        assert constants["a1"] == 8
        assert constants["a2"] == pytest.approx(64 * math.sqrt(2))
        assert constants["a3"] == pytest.approx(512 * math.sqrt(6))

    def test_log_base_two_loosens_thresholds(self, c5):
        prof, _ = compute_profile(c5)
        ex = edge_extremes(c5)
        nat = check_theorem_conditions(prof, ex, c5.edge_count, 0.5, 0.1, 1.0)
        two = check_theorem_conditions(prof, ex, c5.edge_count, 0.5, 0.1, 1.0,
                                       log_base=2.0)
        assert two.conditions[0].rhs > nat.conditions[0].rhs

    def test_prefinal_form_is_at_least_as_strict(self):
        rng = np.random.default_rng(42)
        g = er_graph(40, 0.4, rng)
        prof, _ = compute_profile(g)
        ex = edge_extremes(g)
        fin = check_theorem_conditions(prof, ex, g.edge_count, 0.9, 5.0, 0.1)
        pre = check_theorem_conditions(prof, ex, g.edge_count, 0.9, 5.0, 0.1,
                                       form="prefinal")
        for cf, cp in zip(fin.conditions, pre.conditions):
            if cf.lhs is not None and cp.lhs is not None:
                assert cp.lhs <= cf.lhs

    def test_invalid_inputs_rejected(self, k4):
        prof, _ = compute_profile(k4)
        ex = edge_extremes(k4)
        for bad in ((0.0, 0.1, 1.0), (0.5, -1.0, 1.0), (0.5, 0.1, 0.0)):
            with pytest.raises(UsageError):
                check_theorem_conditions(prof, ex, k4.edge_count, *bad)


class TestPolynomials:
    def test_all_true_mask_recovers_profile(self, c5):
        vals = evaluate_polynomials(c5, np.ones(c5.edge_count, dtype=bool))
        prof, _ = compute_profile(c5)
        assert (vals.y0, vals.y1, vals.y2, vals.y3) == prof.as_tuple()
        assert vals.s1 == prof.n1
        assert vals.d1 == 2 * prof.n2
        assert vals.d2 == prof.n2
        assert vals.t1 == 3 * prof.n3
        assert vals.t2 == 3 * prof.n3

    def test_all_true_on_triangle_rich_graph(self, k4):
        vals = evaluate_polynomials(k4, np.ones(k4.edge_count, dtype=bool))
        assert (vals.y0, vals.y1, vals.y2, vals.y3) == (0, 0, 0, 4)
        assert vals.t1 == 12
        assert vals.t2 == 12

    def test_all_false_mask(self, c5):
        vals = evaluate_polynomials(c5, np.zeros(c5.edge_count, dtype=bool))
        assert vals.y0 == math.comb(5, 3)
        assert (vals.y1, vals.y2, vals.y3) == (0, 0, 0)
        assert (vals.s1, vals.d1, vals.d2, vals.t1, vals.t2) == (0, 0, 0, 0, 0)

    def test_mask_length_mismatch_rejected(self, c5):
        with pytest.raises(UsageError):
            evaluate_polynomials(c5, np.ones(3, dtype=bool))

    def test_terms_of_another_graph_rejected(self, c5, k4):
        mask = np.ones(c5.edge_count, dtype=bool)
        assert evaluate_polynomials(c5, mask, census_terms(c5)) == \
            evaluate_polynomials(c5, mask)
        with pytest.raises(UsageError, match="do not match"):
            evaluate_polynomials(c5, mask, census_terms(k4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(4, 24), st.floats(0.1, 0.9))
    def test_identities_hold_for_random_masks(self, seed, n, density):
        rng = np.random.default_rng(seed)
        g = er_graph(n, density, rng)
        mask = sample_mask(g, SampleParams(0.5, seed)) if g.edge_count else \
            np.zeros(0, dtype=bool)
        vals = evaluate_polynomials(g, mask)
        assert vals.identity_residuals() == (0, 0)
        assert vals.y0 + vals.y1 + vals.y2 + vals.y3 == math.comb(n, 3)

    def test_matches_pipeline_on_masked_subgraph(self):
        rng = np.random.default_rng(43)
        for trial in range(10):
            g = er_graph(int(rng.integers(5, 30)), 0.4, rng)
            mask = sample_mask(g, SampleParams(0.6, trial))
            vals = evaluate_polynomials(g, mask)
            prof, _ = compute_profile(subgraph_from_mask(g, mask))
            assert (vals.y0, vals.y1, vals.y2, vals.y3) == prof.as_tuple()

    def test_monte_carlo_expectations_on_c5(self, c5):
        # appendix-style expectations: S1 ~ p n1, D1 ~ 2p n2, D2 ~ p^2 n2,
        # T1 ~ 3p n3, T2 ~ 3p^2 n3
        p = 0.5
        runs = 2000
        terms = census_terms(c5)
        samples = np.array([
            (lambda v: (v.s1, v.d1, v.d2, v.t1, v.t2))(
                evaluate_polynomials(c5, sample_mask(c5, SampleParams(p, s)), terms))
            for s in range(runs)
        ], dtype=float)
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(runs)
        expected = np.array([p * 5, 2 * p * 5, p * p * 5, 0.0, 0.0])
        assert np.all(np.abs(mean - expected) <= 4 * np.maximum(se, 1e-12))
