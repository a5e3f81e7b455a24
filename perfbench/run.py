"""Benchmark the triprof CLI on one workload; run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures end to end for about S seconds. It runs the
workload's CLI call in a closed loop, one process at a time with the default
worker count: the next call starts only when the previous one has exited. A
set-up probe (a fresh interpreter imports triprof and loads the workload
file, timed for ``setup_s``) runs before every call, and after the last call
until there are SETUP_SAMPLES of them, so the probes sample the whole window.
No call starts that would, at the pace of the last one, end more than S
seconds after the first probe started; at least one always runs. Each call is
checked; a failed check counts as a failed operation, never retried.

``--trace 1`` runs the CLI call once untraced and once traced in process by
``tracing.py``, and reports the per-layer metrics.

The last stdout line is the result object; the line before it holds every
sample, the ``machine.ref_s`` timings taken beside the run, the fail rate and
the provenance. Inputs come from ``inputs.py`` and are cached in
``perfbench/.cache``; the run's own files live in a temporary directory there
and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
SETUP_SAMPLES = 3
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def reference_seconds() -> float:
    """A fixed program that does not use triprof: string-keyed dict building
    (like the parser) and a numpy sort (like the CSR build)."""
    start = time.perf_counter()
    ids: dict[str, int] = {}
    for i in range(400_000):
        ids.setdefault(str(i * 7919 % 400_009), i)
    np.sort(np.random.default_rng(0).integers(0, 1 << 40, 2_000_000))
    return time.perf_counter() - start


class Run:
    """One benchmark run's scratch directory, input file and tallies."""

    def __init__(self, workload: W.Workload, seed: int, work: Path, src: Path):
        self.workload = workload
        self.work = work
        pairs = inputs.cached_pairs(workload.recipe, CACHE, W.STATS[workload.recipe.key])
        self.labels = inputs.relabeling(pairs, seed)
        self._inverse = np.empty_like(self.labels)
        self._inverse[self.labels] = np.arange(len(self.labels))
        self.graph = work / "graph.txt"
        self.graph.write_text(inputs.edge_list_text(pairs, self.labels))
        self.graph.read_bytes()  # warm the page cache, as for a user re-running on a file
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.problems: list[str] = []  # one per failed operation
        self.max_rel_err = 0.0

    def base_of(self, label: str) -> int:
        v = int(label)
        if not 0 <= v < len(self._inverse):
            raise ValueError(label)
        return int(self._inverse[v])

    def fail(self, what: str, problem: str) -> None:
        """Count one failed operation."""
        self.problems.append(f"{what}: {problem}")
        print(f"perfbench: {self.workload.name}: {what}: {problem}", file=sys.stderr)

    def _stderr_tail(self, path: Path) -> str:
        lines = path.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def cli(self) -> dict:
        """One CLI call: wall, CPU and peak RSS of the process, output checked."""
        w = self.workload
        report, tsv, err = self.work / "report.json", self.work / "ego.tsv", self.work / "err"
        for path in (report, tsv):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "triprof", *W.cli_args(w, self.graph, report, tsv)]
        self.attempted += 1
        with open(err, "wb") as err_fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err_fh)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "ok": False, "rows": None}
        if proc.returncode != 0:
            self.fail("cli", f"exit code {proc.returncode}: {self._stderr_tail(err)}")
            return op
        op["ok"], op["rows"] = self.check("cli", report, tsv)
        return op

    def check(self, what: str, report: Path, tsv: Path):
        """(passed, ego rows) for one set of outputs."""
        try:
            tsv_text = tsv.read_text() if tsv.exists() else None
            rep, rows = checks.check_operation(self.workload, report.read_text(),
                                               tsv_text, self.base_of)
            if self.workload.name == "clustered-sampled":
                self.max_rel_err = checks.max_rel_err(rep, self.workload)
            return True, rows
        except (checks.CheckError, OSError) as exc:
            self.fail(what, str(exc))
            return False, None

    def _until_line(self, cmd: list[str], marker: str) -> tuple[float, str | None]:
        """Run a helper; seconds from launch to its ``marker`` line, and what it
        printed after that line (None, counted as a failure, if it failed)."""
        self.attempted += 1
        err = self.work / "helper.err"
        with open(err, "wb") as err_fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err_fh, text=True)
            with proc.stdout:
                first = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                rest = proc.stdout.read()
            code = proc.wait()
        if first != marker + "\n" or code != 0:
            self.fail(Path(cmd[1]).stem, f"exit code {code}: {self._stderr_tail(err)}")
            return elapsed, None
        return elapsed, rest

    def setup(self, centers: list[int] | None = None) -> tuple[float, list | None]:
        """Time a fresh interpreter through ``import triprof`` and ``load_edge_list``;
        with ``centers`` (base ids), also return the probe's ego_serial rows for them."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(self.graph)]
        if centers is not None:
            listing = self.work / "centers.txt"
            listing.write_text("".join(f"{self.labels[v]}\n" for v in centers))
            cmd.append(str(listing))
        elapsed, rest = self._until_line(cmd, "loaded")
        if centers is None or rest is None:
            return elapsed, None
        return elapsed, [[self.base_of(r[0])] + r[1:] for r in json.loads(rest)]

    def traced(self) -> tuple[float, list | None]:
        """The traced CLI call: seconds from launch to its ``done`` line, and its spans."""
        out = self.work / "traced"
        out.mkdir(exist_ok=True)
        elapsed, rest = self._until_line(
            [sys.executable, str(HERE / "tracing.py"), self.workload.name,
             str(self.graph), str(out)], "done")
        if rest is None:
            return elapsed, None
        ok, _ = self.check("traced", out / "report.json", out / "ego.tsv")
        return elapsed, json.loads((out / "trace.json").read_text()) if ok else None


def cross_check(run: Run, op: dict) -> float:
    """Recompute a spread of the ego table's rows with ego_serial in a set-up
    probe; returns the probe's set-up time."""
    step = max(1, len(op["rows"]) // W.EGO_CROSS_CHECK_ROWS)
    picked = op["rows"][::step][:W.EGO_CROSS_CHECK_ROWS]
    elapsed, reference = run.setup([row[0] for row in picked])
    if reference is not None:
        try:
            checks.check_cross(op["rows"], reference)
        except checks.CheckError as exc:
            op["ok"] = False
            run.fail("cli", f"ego_serial cross-check: {exc}")
    return elapsed


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics from CLI calls with a set-up probe before each."""
    start = time.perf_counter()
    setups, ops = [], []
    pending_cross_check = run.workload.command == "ego"
    while True:
        if pending_cross_check and ops and ops[-1]["ok"]:
            setups.append(cross_check(run, ops[-1]))
            pending_cross_check = False
        else:
            setups.append(run.setup()[0])
        if ops and time.perf_counter() - start + ops[-1]["wall_s"] > seconds:
            if len(setups) >= SETUP_SAMPLES:
                break
            continue
        ops.append(run.cli())
    good = [op for op in ops if op["ok"]] or ops
    metrics = {name: statistics.median(op[name] for op in good)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    samples = {"setup_s": setups,
               **{name: [op[name] for op in ops] for name in ("wall_s", "cpu_s", "peak_rss_mb")}}
    return {"metrics": metrics, "samples": samples}


def measure_layers(run: Run) -> dict:
    """Per-layer metrics from one untraced CLI call and one traced one."""
    untraced = run.cli()
    total, spans = run.traced()
    metrics = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    if spans is not None:
        metrics.update(tracing.layer_metrics(spans))
    metrics["trace.overhead_s"] = total - untraced["wall_s"]
    metrics["sampling.max_rel_err"] = run.max_rel_err
    return {"metrics": metrics, "samples": {"wall_s": [untraced["wall_s"]], "traced_s": [total]}}


def provenance(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    root = Path.cwd()
    src = root / "src"
    if not (src / "triprof" / "cli.py").is_file():
        print(f"perfbench: no triprof sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    workload = W.WORKLOADS[args.workload]
    CACHE.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=CACHE) as tmp:
        run = Run(workload, args.seed, Path(tmp), src)
        refs = [reference_seconds()]
        result = measure_layers(run) if args.trace else measure(run, args.seconds)
        refs.append(reference_seconds())
    metrics = result["metrics"]
    units = tracing.LAYER_METRICS if args.trace else END_TO_END
    if args.trace:
        metrics["machine.ref_s"] = statistics.median(refs)
    failed = len(run.problems)
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "samples": result["samples"], "machine.ref_s": refs,
              "fail_rate": failed / run.attempted, "problems": run.problems,
              "provenance": provenance(root)}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
