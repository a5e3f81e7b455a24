"""Run the workloads in interleaved sets and report medians and spreads.

    python3 perfbench/sets.py [--sets N] [--first-seed S] [--trace]

Run from the repository root. Set i runs every workload of BENCHMARK.json
once with seed first-seed + i, for the spec's run_seconds; the workload order rotates from set to set, so a slow phase
of the machine is spread over all workloads. For each workload and metric it
prints the median, the interquartile range as a share of the median (the
spread the bounds in BENCHMARK.json are sized against), the medians of the
first and second half of the sets, and the fail rate. ``machine.ref_s`` is
summarised beside them to tell drift of the machine from drift of the code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    """Interquartile range over the median, as the acceptance check computes it."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="per-layer runs instead")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in names}
    for i in range(args.sets):
        seed = args.first_seed + i
        for w in names[i % len(names):] + names[:i % len(names)]:
            result, detail = run_once(w, seed, spec["run_seconds"], args.trace)
            runs[w].append((result, detail))
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"set {i} {w} seed {seed}: correct={result['correct']} {values}", flush=True)

    print()
    for w, got in runs.items():
        attempted = sum(r["attempted"] for r, _ in got)
        failed = sum(r["failed"] for r, _ in got)
        print(f"{w}: fail_rate {failed / attempted:.4g} ratio ({failed}/{attempted})")
        metrics = got[0][0]["metrics"]
        refs = [statistics.median(d["machine.ref_s"]) for _, d in got]
        series = {name: [r["metrics"][name]["value"] for r, _ in got] for name in metrics}
        series["machine.ref_s"] = refs
        for name, values in series.items():
            unit = metrics[name]["unit"] if name in metrics else "s"
            half = len(values) // 2
            first = statistics.median(values[:half]) if half else values[0]
            second = statistics.median(values[half:])
            bound = bounds.get(name)
            note = f" bound {bound}" if bound is not None and not args.trace else ""
            print(f"  {name:34s} median {statistics.median(values):12.6g} {unit:5s} "
                  f"spread {spread(values):6.3f}  halves {first:.6g} / {second:.6g}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
