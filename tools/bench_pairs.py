"""Alternating parent/change runs of perfbench, summarised as BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --tag NAME \\
        --seeds 1 41 --claim limit-table:op_p50_s

Each side is the tree of its commit, unpacked with ``git archive`` into a
temporary directory: nothing is written to the repository or its ``.git``,
and nothing is left to clean up if a run is interrupted. For every workload
of BENCHMARK.json and every seed, PAIRS pairs run one process after the
other,

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in each side's directory, T being BENCHMARK.json's run_seconds, the parent
first in even pairs and the change first in odd ones. The file written
holds, per workload, seed and end-to-end metric of BENCHMARK.json: both
sides' runs, medians and quartiles (linear interpolation, as
numpy.percentile), the pairs the change won, the ratio of the medians and
the checks against the metric's bound.
With --traced, one traced run per side and workload (first seed) adds the
per-layer figures. Nothing is downloaded; the runs use the interpreter that
runs this script.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# alternating parent/change pairs per workload and seed
PAIRS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(commit: str, dest: Path) -> Path:
    """The tree of `commit` as plain files under `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench process: its result line plus the run details."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    details = json.loads((checkout / "perfbench" / "out" /
                          f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["details"] = details
    return result


def quartiles(runs: list[float]) -> dict:
    """Median and quartiles as numpy.percentile's default (linear) gives
    them, with the runs themselves."""
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in runs]}


def compare(parent: list[float], change: list[float], better: str,
            bound: float, unit: str) -> dict:
    """Pairwise wins and the median checks of one metric.

    worse_than_bound: the change's median is worse than the parent's by more
    than the bound (a fraction of the parent's median). spread_exceeds_bound:
    either side's quartile spread is more than the bound times its median.
    median_gain_exceeds_parent_iqr: the change's median is better than the
    parent's by more than the parent's quartile spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
                 for s in (p, c))
    return {
        "parent": p, "change": c,
        "change_wins": sum(sign * (a - b) > 0.0 for a, b in zip(parent, change)),
        "change_over_parent": (round(c["median"] / p["median"], 4)
                               if p["median"] else None),
        "bound": bound,
        "worse_than_bound": -gain > bound * abs(p["median"]),
        "parent_iqr": round(iqr, 6),
        "spread_exceeds_bound": spread > bound,
        "median_gain_exceeds_parent_iqr": gain > iqr,
        "unit": unit,
    }


def batch(checkouts: dict, workload: str, seed: int, seconds: float,
          metrics: list[dict], log) -> dict:
    """PAIRS alternating pairs of one workload and seed, summarised."""
    runs = {side: [] for side in SIDES}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(checkouts[side], workload, seed, seconds, 0))
            log(f"{workload} seed {seed} pair {i + 1}/{PAIRS} {side}: "
                f"op_p50_s {runs[side][-1]['metrics']['op_p50_s']['value']:.6g}")
    out = {
        "workload": workload, "seed": seed, "pairs": PAIRS,
        "rounds": {s: [r["details"]["rounds"] for r in runs[s]] for s in SIDES},
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
        "metrics": {},
    }
    for m in metrics:
        name = m["name"]
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        out["metrics"][name] = compare(values["parent"], values["change"],
                                       m["better"], m["bound"], m["unit"])
    return out, runs


def claim_result(batches: list[dict], workload: str, metric: str) -> dict:
    """Whether the change wins at least 9 pairs in 10 and beats the parent's
    median by more than its quartile spread, at every seed."""
    rows = [b for b in batches if b["workload"] == workload]
    need = -(-9 * PAIRS // 10)
    per_seed = []
    met = bool(rows)
    for b in rows:
        m = b["metrics"][metric]
        ok = m["change_wins"] >= need and m["median_gain_exceeds_parent_iqr"]
        met = met and ok
        per_seed.append({"seed": b["seed"], "parent": m["parent"]["median"],
                         "change": m["change"]["median"],
                         "change_wins": m["change_wins"], "pairs": b["pairs"],
                         "parent_iqr": m["parent_iqr"], "met": ok})
    return {"workload": workload, "metric": metric, "met": met,
            "per_seed": per_seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="change commit")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the claimed gain, judged per seed")
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--traced", action="store_true",
                        help="one traced run per side and workload, first seed")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", args.change)}
    out_path = ROOT / f"BENCH_{args.tag}.json"

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {s: unpack(commits[s], Path(tmp) / s) for s in SIDES}
        batches = []
        for seed in args.seeds:
            for workload in workloads:
                summary, runs = batch(checkouts, workload, seed, seconds,
                                      bench["end_to_end"], log)
                batches.append(summary)
        # the run details that do not change from run to run
        details = {s: runs[s][0]["details"] for s in SIDES}
        traced = {}
        if args.traced:
            for workload in workloads:
                rows = {s: run_once(checkouts[s], workload, args.seeds[0],
                                    seconds, 1)["metrics"] for s in SIDES}
                traced[workload] = {
                    m["name"]: {s: rows[s][m["name"]]["value"] for s in SIDES}
                    for m in bench["per_layer"]}
                log(f"{workload}: traced runs done")

    host = details["change"]
    record = {
        "name": args.tag,
        "change": args.note,
        "kernel_flavor": host["kernel_flavor"],
        "protocol": (
            f"{PAIRS} pairs per batch, parent and change run one after "
            "the other, parent first in even pairs; each run is one process "
            f"of the command below in an unpacked tree of its commit, "
            f"--seconds {seconds:g}, --trace 0; median and quartiles (linear) "
            "over the runs of each side; times are perfbench's scaled times. "
            "'rounds' is the number of whole workload rounds a run fitted in"),
        "commands": {
            "pairs": ("python3 tools/bench_pairs.py " + " ".join(
                a for a in (argv if argv is not None else sys.argv[1:]))),
            "run": ("cd <unpacked commit> && python3 perfbench/run.py "
                    f"--workload W --seed S --seconds {seconds:g} --trace 0"),
        },
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "host": {k: host[k] for k in ("kernel_flavor", "nproc", "cpu_count",
                                      "python", "numpy")},
        "src_lines": {s: details[s]["src_lines"] for s in SIDES},
        "batches": batches,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = claim_result(batches, workload, metric)
    if traced:
        record["per_layer"] = {
            "how": (f"one traced run per side and workload: perfbench/run.py "
                    f"--seed {args.seeds[0]} --seconds {seconds:g} --trace 1; "
                    "'.s' figures are the measured self time of one traced "
                    "round, not scaled"),
            **traced}
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    log(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
