"""Alternating paired benchmark runs of a base revision against the working tree.

Usage (from anywhere in the repository):

    python3 tools/bench_pairs.py --base REV --workload W --pairs N --seed S

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i --trace 0``
twice, at perfbench's own run length: once in ``git archive REV`` unpacked
into a temporary directory (the base side) and once in the working tree (the
change side).
The base runs first in even pairs and second in odd ones, so a drift in the
machine's speed falls on both sides alike. Each pair's end-to-end metrics,
those that ``BENCHMARK.json`` lists, are printed as they arrive. The summary
gives, per metric, the number of pairs the change won (strictly better in
the metric's ``better`` direction), and each side's median and quartiles;
``drop>IQR`` says whether the medians differ in the better direction by
more than the distance between the base's quartiles. Exits 2 if a run
printed no result, and 1 if a run failed one of its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics() -> list:
    """``(name, better)`` of every end-to-end metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def unpack(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into the directory ``into``."""
    archive = into / "base.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The final JSON object of one untraced perfbench run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolating between runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    sides = {"base": [], "change": []}
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        unpack(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                try:
                    result = run_once(trees[side], args.workload, args.seed + i)
                except (RuntimeError, json.JSONDecodeError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                all_correct = all_correct and result["correct"]
                sides[side].append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"pair {i + 1} (seed {args.seed + i}, {order[0]} first)")
            for name, _ in metrics:
                print(f"   {name:14s} base {sides['base'][-1][name]:>12.6g}"
                      f"   change {sides['change'][-1][name]:>12.6g}")
    print(f"\n{args.workload}: {args.pairs} pairs, base {args.base} against the working tree")
    print(f"{'metric':14s} {'better':6s} {'wins':>6s}   {'base q1 / median / q3':>32s}"
          f"   {'change q1 / median / q3':>32s}   drop>IQR")
    for name, better in metrics:
        base = [run[name] for run in sides["base"]]
        change = [run[name] for run in sides["change"]]
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        beats_spread = sign * (cq[1] - bq[1]) > bq[2] - bq[0]
        print(f"{name:14s} {better:6s} {wins:>3d}/{args.pairs:<2d}"
              f"   {bq[0]:>10.4g} {bq[1]:>10.4g} {bq[2]:>10.4g}"
              f"   {cq[0]:>10.4g} {cq[1]:>10.4g} {cq[2]:>10.4g}   {'yes' if beats_spread else 'no'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
