"""Command-line entry point: run pipelines and emit machine-readable JSON reports.

``main`` is the one run skeleton: it checks the worker count, loads the
graph (the ``load`` phase, first in every report), lets the command add its
keys to the report, then records the worker count once and the phases.
Every report is fully determined by (input file, flags, seed); pass
--no-timing to mask the wall-clock fields and the worker count so reports
can be compared byte for byte across worker counts.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import ego as ego_mod
from . import engine as engine_mod
from . import oracle as oracle_mod
from . import sampling, theory
from .engine import Engine
from .errors import IntegrityError, ParseError, UsageError
from .graph import UndirectedGraph, _utf8_error, load_edge_list
from .profiles import (ProfileVector, compute_profile, gather_local_profiles,
                       global_profile_from_local, orient, scatter_edge_scalars)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parsed(kind, name: str):
    """argparse type: ``kind(text)``, a usage error naming ``name`` if that fails."""
    def convert(text: str):
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {name}, got {text!r}") from None
    return convert


def _checked(base, rule: str, ok):
    """argparse type: ``base``, then a usage error "must be <rule>" unless
    ``ok`` holds for the value."""
    def convert(text: str):
        value = base(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return convert


_finite = _checked(_parsed(float, "a number"), "finite", math.isfinite)
_positive = _checked(_finite, "above 0", lambda v: v > 0)
_probability = _checked(_finite, "in (0, 1]", lambda v: 0 < v <= 1)
_non_negative = _checked(_parsed(int, "an integer"), "non-negative", lambda v: v >= 0)
_at_least_one = _checked(_non_negative, "at least 1", lambda v: v >= 1)
_seed = _checked(_non_negative, "below 2**64", lambda v: v < 2 ** 64)


def accuracy_ratio(exact: ProfileVector, estimate: ProfileVector):
    """Componentwise exact/estimate; a zero estimate yields null plus a warning."""
    ratios: list[float | None] = []
    warnings: list[str] = []
    names = ("n0", "n1", "n2", "n3")
    for name, ex, est in zip(names, exact.as_tuple(), estimate.as_tuple()):
        if float(est) == 0.0:
            ratios.append(None)
            warnings.append(f"estimate for {name} is zero; ratio undefined")
        else:
            ratios.append(float(ex) / float(est))
    return ratios, warnings


def _build_parser() -> _Parser:
    parser = _Parser(prog="triprof",
                     description="3-profiles of undirected graphs: exact, sampled, and ego")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("graph", help="edge-list file ('#' comments, two labels per line)")
        p.add_argument("--vertex-count", type=_non_negative, default=None,
                       help="declare |V| larger than the labels seen (isolated vertices)")
        p.add_argument("--threads", type=int, default=None,
                       help="engine workers that share the load's pieces, the "
                            "triangle enumeration's steps and the sampled runs, "
                            "recorded once per report "
                            "(default: the CPUs this process may use)")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--no-timing", action="store_true",
                       help="mask wall-clock fields and the worker count for byte-stable reports")

    p = sub.add_parser("profile", help="global and per-vertex 3-profile, exact or sampled")
    add_common(p)
    p.add_argument("--p", type=_probability, default=1.0, help="edge sampling probability")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--runs", type=_at_least_one, default=1,
                   help="sampled repetitions with seeds seed, seed+1, ...")
    p.add_argument("--compare-exact", action="store_true",
                   help="also run exactly and report accuracy ratios")
    p.add_argument("--local-tsv", default=None,
                   help="write the exact per-vertex table here")

    p = sub.add_parser("ego", help="ego 3-profiles for a set of centers")
    add_common(p)
    p.add_argument("--centers", default=None, help="file with one center label per line")
    p.add_argument("--random", type=_non_negative, default=None, metavar="K",
                   help="pick K random centers")
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--all", action="store_true", help="every vertex is a center")
    p.add_argument("--tsv", default=None, help="write 'center f0 f1 f2 f3' rows here")

    p = sub.add_parser("oracle", help="brute-force reference counts for cross-checking")
    add_common(p)
    p.add_argument("--ego", action="store_true", help="ego table instead of the global profile")
    p.add_argument("--centers", default=None)
    p.add_argument("--random", type=_non_negative, default=None, metavar="K")
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--tsv", default=None)
    p.add_argument("--four-cliques", action="store_true",
                   help="include the global 4-clique count")

    p = sub.add_parser("sparsifier-check", help="evaluate the sampling feasibility conditions")
    add_common(p)
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--epsilon", type=_positive, required=True)
    p.add_argument("--gamma", type=_positive, required=True)
    p.add_argument("--log-base", choices=("e", "2"), default="e")
    p.add_argument("--form", choices=("final", "prefinal"), default="final")

    p = sub.add_parser("polys", help="evaluate the indicator polynomials on sampled masks")
    add_common(p)
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--runs", type=_at_least_one, default=1)

    return parser


def _emit(args, report: dict) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise IntegrityError(f"report is not strict JSON: {exc}") from None
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _select_centers(args, g: UndirectedGraph) -> np.ndarray:
    chosen = sum(1 for f in (args.centers, args.random, args.all if args.all else None)
                 if f is not None)
    if chosen != 1:
        raise UsageError("pick exactly one of --centers, --random, --all")
    if args.all:
        return np.arange(g.vertex_count, dtype=np.int64)
    if args.random is not None:
        rng = np.random.default_rng(args.seed)
        k = min(args.random, g.vertex_count)
        return np.sort(rng.choice(g.vertex_count, size=k, replace=False)).astype(np.int64)
    raw = Path(args.centers).read_bytes()
    # lines end where the edge-list loader ends them: LF, CR LF and lone CR
    bad = _utf8_error(np.frombuffer(raw, dtype=np.uint8))
    if bad is not None:
        raise ParseError(f"--centers {bad[1]}")
    lines = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    labels = [line.strip() for line in lines if line.strip()]
    return np.array([g.id_of_label(label) for label in labels], dtype=np.int64)


def _labels_of(g: UndirectedGraph, ids: np.ndarray) -> list[str]:
    return list(map(g.label_of, ids.tolist()))


def _write_tsv(path: str, header: str, labels: list[str], columns) -> None:
    """Write the header line, then one line per label: the label and its
    entry of each integer column, tab-separated."""
    row = "%s" + "\t%d" * len(columns) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join(map(row.__mod__, zip(labels, *(c.tolist() for c in columns)))))


def _cmd_profile(args, g: UndirectedGraph, engine: Engine, report: dict) -> None:
    warnings: list[str] = []

    # sampled runs count on masked views of one orientation, shared with the
    # exact pipeline when both run
    o = orient(g) if args.p < 1.0 else None
    exact = None
    if args.p == 1.0 or args.compare_exact or args.local_tsv:
        exact, locals_ = compute_profile(g, engine, o)
        report["global"] = exact.as_json()
        if args.local_tsv:
            _write_tsv(args.local_tsv, "vertex\tn0\tn1_e\tn1_d\tn2_e\tn2_c\tn3",
                       _labels_of(g, np.arange(g.vertex_count)),
                       [locals_.n0, locals_.n1_e, locals_.n1_d, locals_.n2_e,
                        locals_.n2_c, locals_.n3])
            report["local_path"] = args.local_tsv

    if args.p < 1.0:
        report["sampling"] = {"p": args.p, "seed": args.seed, "runs": args.runs}
        seeds = [(args.seed + s) % 2 ** 64 for s in range(args.runs)]
        results: list = [None] * args.runs  # (estimate, phases) per seed

        def run(acc, s: int) -> None:
            # the runs share the workers, at most the CPUs; one run alone splits its count
            inner = Engine(max(1, min(engine.workers, engine_mod.usable_cpus()) // args.runs))
            params = sampling.SampleParams(args.p, seeds[s])
            results[s] = sampling.estimate_profile(g, params, inner, o)[0], inner.phases

        # the runs overlap, so this phase's seconds are the wall time of them all
        with engine.phase("sampled-runs"):
            engine.sum_steps(args.runs, [], run)
            for _, log in results:
                engine.phases.extend(log)
        runs = []
        for seed, (estimate, _) in zip(seeds, results):
            vals = estimate.as_floats()
            runs.append({"seed": seed,
                         "estimate": dict(zip(("n0", "n1", "n2", "n3"), vals))})
            for name, val in zip(("n0", "n1", "n2", "n3"), vals):
                if val < 0:
                    warnings.append(
                        f"run seed={seed}: negative estimate for {name} "
                        "(sampling noise, reported unclamped)")
        report["runs"] = runs
        per_entry = list(zip(*(tuple(r["estimate"].values()) for r in runs)))
        mean = [statistics.fmean(vals) for vals in per_entry]
        stdev = [statistics.stdev(vals) if len(vals) > 1 else 0.0 for vals in per_entry]
        report["estimate_mean"] = dict(zip(("n0", "n1", "n2", "n3"), mean))
        report["estimate_stddev"] = dict(zip(("n0", "n1", "n2", "n3"), stdev))
        if args.compare_exact:
            mean_profile = ProfileVector(*mean)
            ratios, ratio_warnings = accuracy_ratio(exact, mean_profile)
            report["accuracy_ratio"] = dict(zip(("n0", "n1", "n2", "n3"), ratios))
            warnings.extend(ratio_warnings)

    report["warnings"] = warnings


def _add_ego_table(args, g: UndirectedGraph, table: "ego_mod.EgoTable", report: dict) -> None:
    """Write the table to --tsv, or embed its rows as the report's ``egos``."""
    labels = _labels_of(g, table.centers)
    report["centers"] = len(labels)
    if args.tsv:
        _write_tsv(args.tsv, "center\tf0\tf1\tf2\tf3", labels, list(table.counts.T))
        report["table_path"] = args.tsv
    else:
        report["egos"] = list(map(list, zip(labels, *table.counts.T.tolist())))


def _cmd_ego(args, g: UndirectedGraph, engine: Engine, report: dict) -> None:
    table = ego_mod.ego_parallel(g, _select_centers(args, g), engine)
    _add_ego_table(args, g, table, report)


def _cmd_oracle(args, g: UndirectedGraph, engine: Engine, report: dict) -> None:
    report["method"] = "brute-force"
    if args.ego:
        ids = ego_mod._dedup_centers(g, _select_centers(args, g))
        counts = np.array([oracle_mod.brute_force_ego(g, v).as_tuple() for v in ids.tolist()],
                          dtype=np.int64).reshape(-1, 4)
        _add_ego_table(args, g, ego_mod.EgoTable(ids, counts), report)
    else:
        report["global"] = oracle_mod.brute_force_profile(g).as_json()
    if args.four_cliques:
        report["four_cliques"] = oracle_mod.brute_force_four_cliques(g)


def _cmd_sparsifier_check(args, g: UndirectedGraph, engine: Engine, report: dict) -> None:
    tri = scatter_edge_scalars(g, engine)
    profile = global_profile_from_local(gather_local_profiles(g, tri, engine))
    extremes = theory.edge_extremes(g, tri)
    base = math.e if args.log_base == "e" else 2.0
    result = theory.check_theorem_conditions(
        profile, extremes, g.edge_count, args.p, args.epsilon, args.gamma,
        log_base=base, form=args.form)
    report.update(profile=profile.as_json(),
                  extremes={"alpha": extremes.alpha, "beta": extremes.beta,
                            "delta": extremes.delta},
                  form=args.form, **result.as_json())


def _cmd_polys(args, g: UndirectedGraph, engine: Engine, report: dict) -> None:
    seeds = [(args.seed + i) % 2 ** 64 for i in range(args.runs)]
    masks = (sampling.sample_mask(g, sampling.SampleParams(args.p, seed)) for seed in seeds)
    with engine.phase("polys:triangle-pass"):
        terms = theory.census_terms(g, masks, engine)
    report["p"] = args.p
    report["runs"] = [{"seed": seed, "values": values.as_json(),
                       "identity_residuals": list(values.identity_residuals())}
                      for seed, values in zip(seeds, terms.values)]


_COMMANDS = {
    "profile": _cmd_profile,
    "ego": _cmd_ego,
    "oracle": _cmd_oracle,
    "sparsifier-check": _cmd_sparsifier_check,
    "polys": _cmd_polys,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        engine = Engine(args.threads)
        started = time.perf_counter()
        with engine.phase("load"):
            g = load_edge_list(args.graph, args.vertex_count, engine)
        report = {"command": args.command,
                  "graph": {"path": args.graph, "vertices": g.vertex_count,
                            "edges": g.edge_count}}
        _COMMANDS[args.command](args, g, engine, report)
        report["workers"] = None if args.no_timing else engine.workers
        report["phases"] = ([dict(ph, seconds=None) for ph in engine.phases]
                            if args.no_timing else engine.phases)
        report["elapsed_seconds"] = None if args.no_timing else time.perf_counter() - started
        _emit(args, report)
        return 0
    except (UsageError, ParseError, IntegrityError) as exc:
        prefix = "usage error: " if isinstance(exc, UsageError) else ""
        print(f"triprof: {prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"triprof: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = " ".join(str(exc).split())
        print(f"triprof: out of memory{': ' if detail else ''}{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
