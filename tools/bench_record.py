"""Record one run of the benchmark as ``BENCH_<PR>.json`` at the repository root.

Usage:

    python3 tools/bench_record.py --pr 12 --seed 101

Runs ``python3 perfbench/run.py --workload all --seed SEED`` from the
repository root, echoes its table, and writes the run's final JSON object
together with the commit (``git rev-parse HEAD``), the seed and the UTC date.
It then times every command of ``perfbench/workloads.py``'s ``CLI_COMMANDS``
as CLI_REPEATS fresh ``python -m ionseries.cli`` processes in a temporary
directory, in the benchmark's environment (one BLAS thread, ``src/`` on
``PYTHONPATH``), and records the median wall time of each under ``cli_wall_s``.
The commit names the checkout the run measured only when the tree is clean.
Exits with the runner's code; nothing is written if the runner printed no
JSON object or a command exited with a code other than its expected one.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_REPEATS = 5


def cli_wall_times() -> dict:
    """Median wall seconds of each CLI_COMMANDS id over CLI_REPEATS fresh processes."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.run import bench_env
    from perfbench.workloads import CLI_COMMANDS

    env, _ = bench_env()
    medians = {}
    with tempfile.TemporaryDirectory() as workdir:
        for cid, args, expected, _artefacts in CLI_COMMANDS:
            walls = []
            for _ in range(CLI_REPEATS):
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "ionseries.cli", *args], cwd=workdir,
                                      env=env, capture_output=True)
                walls.append(time.perf_counter() - start)
                if proc.returncode != expected:
                    raise RuntimeError(f"{cid} exited {proc.returncode}, expected {expected}: "
                                       f"{proc.stderr.decode(errors='replace').strip()}")
            medians[cid] = round(statistics.median(walls), 4)
            print(f"{cid:28s} {medians[cid]:.3f} s")
    return medians


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
    try:
        cli_wall_s = cli_wall_times()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    doc = {
        "commit": commit,
        "seed": args.seed,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": " ".join(["python3", *command]),
        "run": run,
        "cli_repeats": CLI_REPEATS,
        "cli_wall_s": cli_wall_s,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
