"""The four benchmark workloads: input recipe, CLI call and pinned expectations.

Why each workload is there is stated in BENCHMARK.json and README.md.

Every pinned value was produced by the CLI at the commit that added this
benchmark and is independent of the benchmark seed (see ``inputs.py``). A
change that alters any of them changes what the CLI reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from inputs import Recipe

CLUSTERED = Recipe("community", 300_000, 1_150_000, seed=7)
SKEWED = Recipe("chung_lu", 300_000, 1_250_000, seed=11, exponent=1.6)
DESK = Recipe("community", 50_000, 200_000, seed=3)

# graph_stats() of each recipe's pairs
STATS = {
    CLUSTERED.key: {"lines": 1_181_007, "vertices": 300_000, "edges": 1_181_007,
                    "max_degree": 18, "sum_deg_sq": 19_645_596},
    SKEWED.key: {"lines": 1_250_000, "vertices": 296_286, "edges": 1_247_648,
                 "max_degree": 7_723, "sum_deg_sq": 288_698_464},
    DESK.key: {"lines": 206_329, "vertices": 50_000, "edges": 206_329,
               "max_degree": 18, "sum_deg_sq": 3_598_922},
}

# exact global 3-profiles
EXACT = {
    CLUSTERED.key: {"n0": 4499600707245319, "n1": 354287729862,
                    "n2": 3366333, "n3": 1758486},
    SKEWED.key: {"n0": 4334517123325805, "n1": 369372170525,
                 "n2": 142867923, "n3": 77887},
}

# sha256 of the ego table in base labels (see checks.ego_digest)
EGO_DIGEST = "68bf41a9fcbec89c662f954862d6cfec205c8426fe0dfb68c6163d1d78ca9c66"
# sha256 of the polys runs (see checks.polys_digest); run seed 3 has y3 = 37247
POLYS_DIGEST = "e8fe623599b01ac64b0c50349c139a3bc679ef316e498e37d26f748392fb7b03"


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: Recipe
    args: tuple[str, ...]  # CLI arguments; the graph path goes after the first

    @property
    def command(self) -> str:
        return self.args[0]


WORKLOADS = {w.name: w for w in (
    Workload("skewed-exact", SKEWED, ("profile",)),
    Workload("clustered-sampled", CLUSTERED,
             ("profile", "--p", "0.3", "--seed", "7", "--runs", "10")),
    Workload("clustered-ego", CLUSTERED, ("ego", "--random", "20000", "--seed", "1")),
    Workload("desk-polys", DESK, ("polys", "--p", "0.5", "--seed", "3", "--runs", "20")),
)}

SAMPLED_BAND = (0.9, 1.1)  # acceptance criterion 8's band for exact / estimate
EGO_CROSS_CHECK_ROWS = 200  # table rows recomputed with ego_serial once per run


def cli_args(workload: Workload, graph, report, tsv) -> list[str]:
    """``triprof`` arguments of one operation: the JSON report goes to
    ``report`` and, for ego, the table to ``tsv``."""
    args = [workload.args[0], str(graph), *workload.args[1:], "--out", str(report)]
    if workload.command == "ego":
        args += ["--tsv", str(tsv)]
    return args


def arg(workload: Workload, flag: str, kind=int):
    """Value of a CLI flag in the workload's call."""
    return kind(workload.args[workload.args.index(flag) + 1])
