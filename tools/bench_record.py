"""Record one run of the benchmark as ``BENCH_<PR>.json`` at the repository root.

Usage:

    python3 tools/bench_record.py --pr 12 --seed 101

Runs ``python3 perfbench/run.py --workload all --seed SEED`` from the
repository root, echoes its table, and writes the run's final JSON object
together with the commit (``git rev-parse HEAD``), the seed and the UTC date.
The commit names the checkout the run measured only when the tree is clean.
Exits with the runner's code; nothing is written if the runner printed no
JSON object. Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--seed", type=int, default=0, help="benchmark workload seed")
    args = parser.parse_args(argv)

    command = ["perfbench/run.py", "--workload", "all", "--seed", str(args.seed)]
    proc = subprocess.run([sys.executable, *command], cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("error: the benchmark printed no final JSON object", file=sys.stderr)
        return proc.returncode or 2
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    doc = {
        "commit": commit,
        "seed": args.seed,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": " ".join(["python3", *command]),
        "run": run,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
