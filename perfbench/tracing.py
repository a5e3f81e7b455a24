"""Traced CLI call of one workload, for the per-layer metrics.

Run as ``python3 tracing.py WORKLOAD GRAPH OUTDIR`` in a fresh interpreter.
It imports ``triprof.cli``, wraps triprof's layer functions in spans, and
calls ``triprof.cli.main`` in process with the workload's arguments, so the
spans time the program's own calls in the program's own order. The report
(and ego table) go to OUTDIR. It prints ``done`` when ``main`` returns; the
parent's traced total ends there. It then times three diagnostics on the
loaded graph that are not on the CLI's path, and writes every span to
OUTDIR/trace.json. Spans stay in memory until then.

A wrapper replaces a function under every name a triprof module binds it to
(``cli`` imports ``compute_profile`` by name, ``sampling`` resolves
``sample_mask`` as a global), so the calls are caught wherever they are made.
``UndirectedGraph.from_edges`` and the first access to ``pos_to_edge`` on each
graph are wrapped on the class. triprof's files are unchanged.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent, counters) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None,
               "counters": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counters"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sum_deg_sq(g) -> int:
    deg = g.degrees.astype("int64")
    return int(deg @ deg)


def _kernel_counters(c, args, tri) -> None:
    g = args[0]
    c["triangles"] = int(tri.sum()) // 3
    c["kernel_work"] = _sum_deg_sq(g)
    c["rss_mb"] = _rss_mb()


def _ego_counters(c, args, egos) -> None:
    import numpy as np

    g, centers = args[0], args[1]
    mask = np.zeros(g.vertex_count, dtype=bool)
    mask[list(centers)] = True
    c.update(centers=len(egos), relevant_edges=int((mask[g.edge_u] | mask[g.edge_w]).sum()),
             f3_sum=sum(e.f3 for e in egos.values()))


def _census_counters(c, args, terms) -> None:
    deg = args[0].degrees.astype("int64")
    c.update(wedges=terms.wedge_count, triangles=terms.triangle_count,
             pairs_checked=int((deg * (deg - 1) // 2).sum()))


def _mask_counters(c, args, mask) -> None:
    c["edges_kept"] = int(mask.sum())


WRAPPED = (
    ("graph", "load_edge_list"),
    ("profiles", "compute_profile"),
    ("profiles", "scatter_edge_scalars"),
    ("profiles", "edge_triangle_counts"),
    ("profiles", "gather_local_profiles"),
    ("profiles", "count_triangles_only"),
    ("sampling", "estimate_profile"),
    ("sampling", "sample_mask"),
    ("sampling", "subgraph_from_mask"),
    ("sampling", "unbiased_estimate"),
    ("ego", "ego_parallel"),
    ("theory", "census_terms"),
    ("theory", "evaluate_polynomials"),
)

# counters taken from a call's (args, result) after its span closes
COUNTERS = {"edge_triangle_counts": _kernel_counters, "sample_mask": _mask_counters,
            "ego_parallel": _ego_counters, "census_terms": _census_counters}


def install(tr: Tracer) -> list:
    """Wrap triprof's layer functions in spans. Returns a list that receives
    (counters, graph) as each ``load_edge_list`` call ends."""
    import importlib

    import triprof.cli  # noqa: F401  (binds every name the CLI uses)
    from triprof.graph import UndirectedGraph

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "triprof" or name.startswith("triprof."))]

    def wrap(span_name, fn, counters):
        @wraps(fn)
        def traced(*args, **kwargs):
            with tr.span(span_name) as c:
                out = fn(*args, **kwargs)
            if counters is not None:
                counters(c, args, out)
            return out
        return traced

    loaded = []
    counters_of = dict(COUNTERS, load_edge_list=lambda c, args, g: loaded.append((c, g)))
    for module, name in WRAPPED:
        fn = getattr(importlib.import_module(f"triprof.{module}"), name)
        traced = wrap(f"{module}.{name}", fn, counters_of.get(name))
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, traced)

    build = UndirectedGraph.__dict__["from_edges"].__func__
    first_access = UndirectedGraph.pos_to_edge.fget

    def traced_build(cls, *args, **kwargs):
        with tr.span("graph.from_edges"):
            return build(cls, *args, **kwargs)

    def traced_pos_to_edge(self):
        if self._pos_to_edge is not None:
            return self._pos_to_edge
        with tr.span("graph.pos_to_edge"):
            return first_access(self)

    UndirectedGraph.from_edges = classmethod(traced_build)
    UndirectedGraph.pos_to_edge = property(traced_pos_to_edge)
    return loaded


def diagnostics(tr: Tracer, g) -> None:
    """Criterion 9's ratio and the one-worker kernel, on the loaded graph."""
    import triprof as tp
    from triprof import profiles

    g.sparse_adjacency()  # a cache both measurements below would otherwise pay once
    profiles.count_triangles_only(g, tp.Engine())
    profiles.compute_profile(g, tp.Engine())
    with tr.span("engine.kernel_t1"):
        profiles.edge_triangle_counts(g, tp.Engine(1))


def graph_counters(graph_path: str, g) -> dict:
    with open(graph_path, "rb") as fh:
        lines = fh.read().count(b"\n")
    return {"lines": lines, "vertices": g.vertex_count, "edges": g.edge_count,
            "max_degree": int(g.degrees.max()) if g.vertex_count else 0,
            "sum_deg_sq": _sum_deg_sq(g)}


def main() -> int:
    tr = Tracer()
    with tr.span("cli.import"):
        import triprof.cli
    import triprof as tp
    import workloads as W

    workload, graph_path, outdir = W.WORKLOADS[sys.argv[1]], sys.argv[2], Path(sys.argv[3])

    loaded = install(tr)
    with tr.span("cli.main") as c:
        c["workers"] = tp.Engine().workers
        code = triprof.cli.main(W.cli_args(workload, graph_path, outdir / "report.json",
                                           outdir / "ego.tsv"))
    sys.stdout.write("done\n")
    sys.stdout.flush()
    if code != 0:
        return code
    counters, g = loaded[-1]  # the CLI's outermost load_edge_list call ends last
    counters.update(graph_counters(graph_path, g))
    with tr.span("diagnostics"):
        diagnostics(tr, g)
    (outdir / "trace.json").write_text(json.dumps(tr.spans))
    return 0


# -- aggregation (run by the parent) ----------------------------------------

LAYER_METRICS = {
    "cli.import_s": "s", "trace.overhead_s": "s",
    "graph.load_edge_list_s": "s", "graph.from_edges_s": "s", "graph.parse_s": "s",
    "graph.pos_to_edge_s": "s", "graph.lines": "count", "graph.vertices": "count",
    "graph.edges": "count", "graph.max_degree": "count", "graph.sum_deg_sq": "count",
    "profiles.edge_triangle_counts_s": "s", "profiles.scatter_self_s": "s",
    "profiles.gather_local_profiles_s": "s", "profiles.full_over_tri": "ratio",
    "profiles.kernel_rss_mb": "MB", "profiles.triangles": "count",
    "profiles.kernel_work": "count", "profiles.kernel_yield": "ratio",
    "engine.workers": "count", "engine.kernel_t1_s": "s", "engine.pool_speedup": "ratio",
    "sampling.sample_mask_s": "s", "sampling.subgraph_from_mask_s": "s",
    "sampling.sampled_profile_s": "s", "sampling.unbiased_estimate_s": "s",
    "sampling.edges_kept": "count", "sampling.max_rel_err": "ratio",
    "ego.ego_parallel_s": "s", "ego.self_s": "s", "ego.centers": "count",
    "ego.relevant_edges": "count", "ego.f3_sum": "count",
    "theory.census_terms_s": "s", "theory.evaluate_polynomials_s": "s",
    "theory.wedges": "count", "theory.triangles": "count", "theory.pairs_checked": "count",
    "machine.ref_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer values from the spans; a layer the call never entered reads 0.

    Returns every name in LAYER_METRICS except those the parent measures
    (trace.overhead_s, sampling.max_rel_err, machine.ref_s).
    """
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["name"]

    def dur(s):
        return s["end"] - s["start"]

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    def pick(name, under="cli.main", parent=None):
        # a recursive call (load_edge_list opens a path, then calls itself on
        # the file) is part of its outer span, not a second call
        return [s for s in spans if s["name"] == name and root(s) == under
                and parent_name(s) != name and (parent is None or parent_name(s) == parent)]

    def total(name, **kw):
        return sum(dur(s) for s in pick(name, **kw))

    def self_time(name):
        return sum(dur(s) - sum(dur(k) for k in spans if k["parent"] == s["id"])
                   for s in pick(name))

    def count(name, key, **kw):
        return sum(s["counters"].get(key, 0) for s in pick(name, **kw))

    def ratio(a, b):
        return a / b if b else 0.0

    load = total("graph.load_edge_list")
    build = sum(dur(s) for s in spans if s["name"] == "graph.from_edges"
                and root(s) == "cli.main" and parent_name(s) == "graph.load_edge_list")
    kernel = "profiles.edge_triangle_counts"
    scatter = "profiles.scatter_edge_scalars"
    tri, work = count(kernel, "triangles"), count(kernel, "kernel_work")
    t1 = total(kernel, under="diagnostics", parent="engine.kernel_t1")
    t_default = total(kernel, under="diagnostics", parent="profiles.count_triangles_only")
    evals = [dur(s) for s in pick("theory.evaluate_polynomials")]
    out = {
        "cli.import_s": total("cli.import", under="cli.import"),
        "graph.load_edge_list_s": load,
        "graph.from_edges_s": build,
        "graph.parse_s": load - build,
        "graph.pos_to_edge_s": total("graph.pos_to_edge"),
        "profiles.edge_triangle_counts_s": total(kernel),
        "profiles.scatter_self_s": total(scatter) - total(kernel, parent=scatter),
        "profiles.gather_local_profiles_s": total("profiles.gather_local_profiles"),
        "profiles.full_over_tri": ratio(
            total("profiles.compute_profile", under="diagnostics"),
            total("profiles.count_triangles_only", under="diagnostics")),
        "profiles.kernel_rss_mb": max([s["counters"]["rss_mb"] for s in pick(kernel)],
                                      default=0.0),
        "profiles.triangles": tri,
        "profiles.kernel_work": work,
        "profiles.kernel_yield": ratio(3 * tri, work),
        "engine.workers": count("cli.main", "workers"),
        "engine.kernel_t1_s": t1,
        "engine.pool_speedup": ratio(t1, t_default),
        "sampling.sample_mask_s": total("sampling.sample_mask"),
        "sampling.subgraph_from_mask_s": total("sampling.subgraph_from_mask"),
        "sampling.sampled_profile_s": total("profiles.compute_profile",
                                            parent="sampling.estimate_profile"),
        "sampling.unbiased_estimate_s": total("sampling.unbiased_estimate"),
        "sampling.edges_kept": count("sampling.sample_mask", "edges_kept"),
        "ego.ego_parallel_s": total("ego.ego_parallel"),
        "ego.self_s": self_time("ego.ego_parallel"),
        "theory.census_terms_s": total("theory.census_terms"),
        "theory.evaluate_polynomials_s": statistics.median(evals) if evals else 0.0,
    }
    for key in ("lines", "vertices", "edges", "max_degree", "sum_deg_sq"):
        out[f"graph.{key}"] = count("graph.load_edge_list", key)
    for key in ("centers", "relevant_edges", "f3_sum"):
        out[f"ego.{key}"] = count("ego.ego_parallel", key)
    for key in ("wedges", "triangles", "pairs_checked"):
        out[f"theory.{key}"] = count("theory.census_terms", key)
    return out


if __name__ == "__main__":
    sys.exit(main())
