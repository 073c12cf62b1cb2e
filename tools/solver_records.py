"""sha256 of the general-order solver's results over the ``termination_scan``
input pool: a base revision against the working tree.

Usage (from anywhere in the repository):

    python3 tools/solver_records.py --base REV --seeds 0 101 3100

For each seed, the 384 inputs of the benchmark's ``termination_scan`` pool
(``perfbench/workloads.py``'s ``TerminationScan``, orders 3 to 8, both
branches, 32 eta values each) run through ``series.terminate_general`` in a
fresh process, once in ``git archive REV`` unpacked into a temporary
directory and once in the working tree, each with its own ``src/`` and one
BLAS thread. An input's record is the ``float.hex`` of the solved point's
rabi, detuning, c0, energy and termination residual with its Jacobian rank,
or the ``float.hex`` of each entry of the residual trace of an input that
raised NoSolutionFoundError. The line printed per seed gives both sides'
sha256 over the ``repr`` of all records in pool order, and how many inputs
were solved. When a seed's hashes differ, one line follows for each input
whose record changed: its order, branch and eta, and base -> tree as
``unsolved -> solved``, ``solved -> unsolved``, ``solved, moved`` (another
point) or ``unsolved, moved`` (another trace). Exits 1 when a seed's hashes
differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import unpack

ROOT = Path(__file__).resolve().parent.parent

#: Run in the tree under test: prints ``{"sha256": ..., "solved": ..., "inputs": ...,
#: "items": ..., "records": ...}`` for seed argv[1]; a solved record ends in its rank.
RECORDS = """
import hashlib, json, sys
from ionseries.errors import NoSolutionFoundError
from ionseries.series import terminate_general
from perfbench.workloads import TerminationScan

items, records, solved = [], [], 0
for cell in TerminationScan(int(sys.argv[1]), None, None).cells:
    for item in cell:
        items.append(item)
        try:
            sol = terminate_general(*item)
        except NoSolutionFoundError as exc:
            records.append(tuple(float(t).hex() for t in exc.residual_trace))
            continue
        solved += 1
        point = (sol.params.rabi, sol.params.detuning, sol.c0, sol.energy,
                 sol.termination_residual)
        records.append(tuple(float(v).hex() for v in point) + (sol.jacobian_rank,))
print(json.dumps({"sha256": hashlib.sha256(repr(records).encode()).hexdigest(),
                  "solved": solved, "inputs": len(records), "items": items,
                  "records": records}))
"""


def _verdict(record: list) -> str:
    return "solved" if isinstance(record[-1], int) else "unsolved"


def changed_inputs(base: dict, change: dict) -> list:
    """One line per pool input whose record differs between the two summaries."""
    lines = []
    for (order, branch, eta), old, new in zip(base["items"], base["records"], change["records"]):
        if old == new:
            continue
        before, after = _verdict(old), _verdict(new)
        what = f"{before}, moved" if before == after else f"{before} -> {after}"
        lines.append(f"  order {order} branch {branch:+d} eta {eta!r}: {what}")
    return lines


def pool_records(tree: Path, seed: int) -> dict:
    """The ``RECORDS`` summary of one seed's pool, computed with the code in ``tree``."""
    from perfbench.run import bench_env

    env, _ = bench_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree)])
    proc = subprocess.run([sys.executable, "-c", RECORDS, str(seed)], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101],
                        help="termination_scan pool seeds")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # for perfbench's environment
    same = True
    with tempfile.TemporaryDirectory(prefix="solver-records-") as tmp:
        unpack(args.base, Path(tmp))
        for seed in args.seeds:
            base = pool_records(Path(tmp) / "tree", seed)
            change = pool_records(ROOT, seed)
            match = base["sha256"] == change["sha256"]
            same = same and match
            print(f"seed {seed}: base {base['sha256']}  working tree {change['sha256']}  "
                  f"solved {base['solved']}/{base['inputs']} and "
                  f"{change['solved']}/{change['inputs']}  {'same' if match else 'DIFFERENT'}")
            if not match:
                print("\n".join(changed_inputs(base, change)))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
