#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one BENCH_*.json.

Runs ``bench/run.py --trace 0`` in two checkouts, one seed at a time, on each
named workload, alternating which side runs first from seed to seed, and
records every run's last stdout line (the end-to-end metrics) with its seed,
side and commit.  A summary gives each metric's median and quartiles per
side, the number of pairs the change won, and each side's attempted and
failed ops, and a verdict per metric under its BENCHMARK.json bound:

* ``regression``: the change's median is worse than the parent's by more
  than bound x the parent's median;
* ``unresolved``: either side's interquartile range is wider than bound x
  the parent's median, unless every change run beats every parent run;
* ``gain``: the change wins at least 9 pairs in 10, and its median beats
  the parent's by more than the parent's interquartile range;
* ``no change`` otherwise.

One unrecorded run of each workload comes first, because the
first run after idle time reads slow on either side.  ``bench/run.py``
exits 0 on wrong outputs, so after writing the JSON this script exits 1 if
any run was not correct.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seeds 101-110 --workloads reduce_sweep certify_corpus --out BENCH_9.json

Run the two checkouts from committed trees: each run benchmarks the source
in its own checkout, and the recorded commit is its ``HEAD``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    """Seeds lo-hi inclusive (or one seed); fewer than two are rejected,
    because the summary's quartiles need at least two pairs."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            f"{text!r} names {len(seeds)} seeds; at least two are needed")
    return seeds


def head_commit(checkout: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=True).stdout.strip()


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent: list[float], change: list[float], wins: int,
            direction: str, bound: float) -> str:
    """The verdict on one metric's paired runs, of which the change won
    ``wins``; see the module docstring."""
    sign = 1.0 if direction == "higher" else -1.0
    (p1, p_med, p3), (c1, c_med, c3) = (statistics.quantiles(v, n=4)
                                        for v in (parent, change))
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regression"
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(p3 - p1, c3 - c1) > bound * abs(p_med) and not separated:
        return "unresolved"
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p3 - p1:
        return "gain"
    return "no change"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        rows = {"attempted": {"parent": 0, "change": 0},
                "failed": {"parent": 0, "change": 0}}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
                for count in ("attempted", "failed"):
                    rows[count][r["side"]] += r["result"][count]
        for name, metric in metrics.items():
            sides = {side: [p[side][name]["value"] for p in pairs.values()]
                     for side in ("parent", "change")}
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(sides["parent"], sides["change"]))
            rows[name] = {side: dict(zip(("q1", "median", "q3"),
                                         statistics.quantiles(v, n=4)))
                          for side, v in sides.items()}
            rows[name]["change_better"] = f"{wins}/{len(pairs)}"
            rows[name]["verdict"] = verdict(sides["parent"], sides["change"], wins,
                                            metric["better"], metric["bound"])
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--workloads", nargs="+", default=["reduce_sweep"])
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: head_commit(path) for side, path in checkouts.items()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload in args.workloads:  # warm-up, not recorded
        run_side(checkouts["parent"], workload, args.seeds[0], args.seconds)
    runs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in args.workloads:
            for side in order:
                result = run_side(checkouts[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "commit": commits[side], "result": result})
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)
    record = {"command": f"bench/run.py --seconds {args.seconds:g} --trace 0",
              "runs": runs, "summary": summarize(runs, metrics)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, rows in record["summary"].items():
        for name in metrics:
            print(f"{workload} {name}: {rows[name]['verdict']} "
                  f"(change better in {rows[name]['change_better']} pairs)",
                  file=sys.stderr)
    incorrect = [r for r in runs if not r["result"]["correct"]]
    for r in incorrect:
        print(f"{r['workload']} seed {r['seed']} {r['side']}: incorrect, "
              f"{r['result']['failed']}/{r['result']['attempted']} ops failed",
              file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
