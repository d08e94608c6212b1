"""Compare two checkouts on one benchmark workload by alternating runs.

Usage (from any directory)::

    python3 tools/ab.py BASE CHANGE --workload norm-certify --seed 1 \\
        --seconds 30 --pairs 10

``BASE`` and ``CHANGE`` are checkout directories.  Each pair runs
``perfbench/run.py --trace 0`` once in each checkout, each run in its own
process started in that checkout; the base runs first in even pairs and the
change first in odd ones, so drift on a shared host falls on both sides.
For every end-to-end metric of the change's ``BENCHMARK.json`` the tool
prints each side's median and quartiles, the median per-pair ratio
``change / base`` with its quartiles, and the number of pairs the change
won (strictly better in the metric's direction).  Under the table it prints
each side's median ``job_samples`` and ``job_tail_percentile`` (from each
run's ``detail`` line), so a ``job_tail_ms`` claim can state how many
latencies its tail was read from.  The last line of standard output is one
JSON object with every run's metrics and, under ``"tail"``, those medians.
The exit status is 1 if any run is not ``correct``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


# detail fields that say what job_tail_ms was read from
TAIL_DETAIL = ("job_samples", "job_tail_percentile")


def run_once(checkout, args):
    """The last JSON line of one ``perfbench/run.py --trace 0`` run, with the
    ``detail`` line before it under ``"detail"``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {checkout}: exit {done.returncode}\n{done.stderr.strip()}")
    run = json.loads(lines[-1])
    run["detail"] = json.loads(lines[-2])["detail"]
    return run


def tail_detail(runs):
    """The median of each ``TAIL_DETAIL`` field over one side's runs."""
    return {key: statistics.median(r["detail"][key] for r in runs) for key in TAIL_DETAIL}


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics, base_runs, change_runs):
    """One row per metric: each side's quartiles, the ratio's and the wins."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        ratios = [c / b for b, c in zip(base, change) if b]
        if metric["better"] == "lower":
            wins = sum(c < b for b, c in zip(base, change))
        else:
            wins = sum(c > b for b, c in zip(base, change))
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "base": quartiles(base),
            "change": quartiles(change),
            "ratio": quartiles(ratios) if ratios else None,
            "wins": wins,
        })
    return rows


def print_table(rows, pairs):
    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'metric':<16}{'base median [q1, q3]':<30}{'change median [q1, q3]':<30}"
          f"{'ratio median [q1, q3]':<30}wins")
    for row in rows:
        ratio = fmt(row["ratio"]) if row["ratio"] else "n/a"
        print(f"{row['metric']:<16}{fmt(row['base']):<30}{fmt(row['change']):<30}"
              f"{ratio:<30}{row['wins']}/{pairs}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base, change = args.base.resolve(), args.change.resolve()
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]

    checkouts = {"base": base, "change": change}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(checkouts[side], args))
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} job_tail_ms {runs[side][-1]['metrics']['job_tail_ms']['value']:.4g}"
            for side in order), file=sys.stderr, flush=True)

    rows = summarize(metrics, runs["base"], runs["change"])
    tails = {side: tail_detail(side_runs) for side, side_runs in runs.items()}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print_table(rows, args.pairs)
    for side, t in tails.items():
        print(f"{side} job_tail_ms: median {t['job_samples']:g} job samples per run, "
              f"percentile {t['job_tail_percentile']:g}")
    correct = all(r["correct"] for side in runs.values() for r in side)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "correct": correct,
        "summary": rows,
        "tail": tails,
        "base": [r["metrics"] for r in runs["base"]],
        "change": [r["metrics"] for r in runs["change"]],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
