"""Output checks. An operation whose output fails any of them counts as failed.

Each check raises ``CheckError`` with a one-line reason. Labels in the CLI's
output are the relabeled ones of the benchmark seed; ``base_of`` maps them back
to recipe ids so the pinned digests apply to every seed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

import workloads as W


class CheckError(Exception):
    pass


def _reject_constant(token: str):
    raise CheckError(f"report holds the non-JSON token {token}")


def strict_json(text: str) -> dict:
    """Parse a report, refusing NaN, Infinity and -Infinity."""
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    if not isinstance(report, dict):
        raise CheckError("report is not a JSON object")
    return report


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_graph(report: dict, workload: W.Workload) -> None:
    stats = W.STATS[workload.recipe.key]
    graph = report.get("graph", {})
    _expect(graph.get("vertices") == stats["vertices"] and graph.get("edges") == stats["edges"],
            f"graph block {graph.get('vertices')}/{graph.get('edges')} is not "
            f"{stats['vertices']}/{stats['edges']}")


def check_exact(report: dict, workload: W.Workload) -> None:
    expected = W.EXACT[workload.recipe.key]
    _expect(report.get("global") == expected,
            f"global profile {report.get('global')} is not {expected}")


def check_sampled(report: dict, workload: W.Workload) -> None:
    exact = W.EXACT[workload.recipe.key]
    p, seed = W.arg(workload, "--p", float), W.arg(workload, "--seed")
    runs = W.arg(workload, "--runs")
    _expect(report.get("sampling") == {"p": p, "seed": seed, "runs": runs},
            f"sampling block {report.get('sampling')} does not match the call")
    got = report.get("runs", [])
    _expect(len(got) == runs, f"{len(got)} sampled runs, expected {runs}")
    lo, hi = W.SAMPLED_BAND
    for i, run in enumerate(got):
        _expect(run.get("seed") == seed + i, f"run {i} has seed {run.get('seed')}")
        for name in ("n1", "n2", "n3"):
            est = run["estimate"][name]
            _expect(isinstance(est, (int, float)) and est != 0
                    and lo <= exact[name] / est <= hi,
                    f"run seed {seed + i}: {name} estimate {est} is outside "
                    f"[{lo}, {hi}] of exact {exact[name]}")


def max_rel_err(report: dict, workload: W.Workload) -> float:
    """Largest |estimate / exact - 1| over the runs' n1..n3."""
    exact = W.EXACT[workload.recipe.key]
    return max(abs(run["estimate"][k] / exact[k] - 1.0)
               for run in report["runs"] for k in ("n1", "n2", "n3"))


def ego_rows(tsv_text: str, base_of: Callable[[str], int]) -> list[tuple[int, ...]]:
    """(base id, f0, f1, f2, f3) per TSV row, in file order."""
    lines = tsv_text.splitlines()
    _expect(bool(lines) and lines[0] == "center\tf0\tf1\tf2\tf3",
            "ego table header is missing or wrong")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        _expect(len(cells) == 5, f"ego table line {lineno} has {len(cells)} cells")
        try:
            rows.append((base_of(cells[0]),) + tuple(int(c) for c in cells[1:]))
        except (KeyError, ValueError, IndexError):
            raise CheckError(f"ego table line {lineno} is malformed: {line!r}") from None
    return rows


def ego_digest(rows) -> str:
    text = "".join("\t".join(str(x) for x in row) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def check_ego(report: dict, tsv_text: str, base_of: Callable[[str], int],
              workload: W.Workload, expected_digest: str = W.EGO_DIGEST) -> list:
    """Check the report and table; returns the table rows for cross-checks."""
    want = W.arg(workload, "--random")
    _expect(report.get("centers") == want, f"report counts {report.get('centers')} centers")
    rows = ego_rows(tsv_text, base_of)
    _expect(len(rows) == want, f"ego table has {len(rows)} rows, expected {want}")
    _expect(len({r[0] for r in rows}) == want, "ego table repeats a center")
    _expect(ego_digest(rows) == expected_digest, "ego table differs from the pinned digest")
    return rows


def polys_digest(runs: list) -> str:
    text = json.dumps([[r["seed"], r["values"]] for r in runs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_polys(report: dict, workload: W.Workload,
                expected_digest: str = W.POLYS_DIGEST) -> None:
    runs = W.arg(workload, "--runs")
    got = report.get("runs", [])
    _expect(len(got) == runs, f"{len(got)} polys runs, expected {runs}")
    for run in got:
        _expect(run.get("identity_residuals") == [0, 0],
                f"seed {run.get('seed')}: residuals {run.get('identity_residuals')}")
    _expect(polys_digest(got) == expected_digest, "polys values differ from the pinned digest")


def check_operation(workload: W.Workload, report_text: str, tsv_text: str | None,
                    base_of: Callable[[str], int]):
    """All checks for one operation's outputs; returns (report, ego rows or None)."""
    report = strict_json(report_text)
    check_graph(report, workload)
    rows = None
    if workload.name == "skewed-exact":
        check_exact(report, workload)
    elif workload.name == "clustered-sampled":
        check_sampled(report, workload)
    elif workload.name == "clustered-ego":
        _expect(tsv_text is not None, "ego table was not written")
        rows = check_ego(report, tsv_text, base_of, workload)
    elif workload.name == "desk-polys":
        check_polys(report, workload)
    return report, rows


def check_cross(rows: list, reference: list) -> None:
    """Every reference row (base id, f0..f3) from ego_serial must appear in the table."""
    table = {r[0]: r for r in rows}
    for ref in reference:
        ref = tuple(ref)
        _expect(table.get(ref[0]) == ref,
                f"center {ref[0]}: table row {table.get(ref[0])} != ego_serial {ref}")
