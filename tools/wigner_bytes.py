"""Compare the bytes of ``wigner_grid`` at a base revision and in the working tree.

Usage (from anywhere in the repository):

    python3 tools/wigner_bytes.py --base REV

Hashes W (sha256 over ``W.tobytes()``, or over the error message of a refused
grid) for cat states at eta in {0, 0.2, 0.5, 1.2, 2.5}, a coherent state and
a seeded state without the mirror symmetry, at cutoffs 40, 150 and 400, on
four grids: the golden ``cat --wigner=-2:2:0.05`` 81 x 81, the eta = 2.5
``phase_space`` 69 x 69 (step 0.125), one point and a 7 x 3 grid. Each side
runs in a fresh process pinned to one CPU and then to two (with
``os.sched_setaffinity``, so Linux only). Prints the four hashes and exits 1
unless they all match.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, unpack


def wigner_hash(cpus: int) -> str:
    """sha256 over every W of the fixed set, computed on ``cpus`` CPUs."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
    import numpy as np
    from ionseries.cli import MAX_WIGNER_POINTS, _range
    from ionseries.model import FockBasis
    from ionseries.states import StateVector, cat_state, coherent_state, wigner_grid

    golden = np.array(_range(MAX_WIGNER_POINTS)("-2:2:0.05"))
    step, half = 0.125, 2.5 / 2 + 3.0  # phase_space's grid at eta = 2.5
    n = math.ceil(half / step)
    grids = [
        (golden, golden),
        (step * np.arange(-n, n + 1),
         step * np.arange(math.floor((2.5 / 2 - half) / step),
                          math.ceil((2.5 / 2 + half) / step) + 1)),
        (np.array([0.3]), np.array([-0.2])),
        (np.linspace(-1.5, 1.5, 7), np.array([-0.5, 0.0, 1.0])),
    ]
    h = hashlib.sha256()
    for cutoff in (40, 150, 400):
        basis = FockBasis(cutoff, spin_dim=1)
        mixed = np.zeros(cutoff, dtype=complex)
        rng = np.random.default_rng(cutoff)
        mixed[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        vs = [cat_state(eta, basis) for eta in (0.0, 0.2, 0.5, 1.2, 2.5)]
        vs += [coherent_state(0.8 - 0.4j, basis), StateVector(mixed, basis)]
        for v in vs:
            for xs, ps in grids:
                try:
                    h.update(wigner_grid(v, xs, ps).tobytes())
                except Exception as exc:  # a refused grid is behaviour too
                    h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision of the base side")
    parser.add_argument("--hash-cpus", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.hash_cpus:
        print(wigner_hash(args.hash_cpus))
        return 0
    if not args.base:
        parser.error("--base is required")
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        unpack(args.base, Path(tmp))
        for side, tree in (("base", Path(tmp) / "tree"), ("change", ROOT)):
            for cpus in (1, 2):
                env = dict(os.environ, PYTHONPATH=str(tree / "src"))
                out = subprocess.run([sys.executable, __file__, "--hash-cpus", str(cpus)],
                                     env=env, capture_output=True, text=True, check=True)
                hashes.append(out.stdout.strip())
                print(f"{side} {cpus} CPU(s) {hashes[-1]}")
    same = len(set(hashes)) == 1
    print("all match" if same else "MISMATCH")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
