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
Last, one fresh process in the same environment times LAYER_REPEATS in-process
calls of each library layer in ``print_layer_times`` (after one untimed call,
which pays the lazy imports) and records the medians under ``layer_s``.
Another such process times LAYER_REPEATS calls of the two machine probes of
``print_calibration`` and records their medians under ``calibration``: dividing a record's times by
them compares records made in a slow and a fast phase of the same VM.
The commit names the checkout the run measured only when the tree is clean.
Exits with the runner's code; nothing is written if the runner printed no
JSON object or a command exited with a code other than its expected one.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_REPEATS = 5
LAYER_REPEATS = 7


def cli_wall_times() -> dict:
    """Median wall seconds of each CLI_COMMANDS id over CLI_REPEATS fresh processes."""
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


def print_layer_times() -> None:
    """Print ``{layer: median seconds}`` as JSON on the last line of stdout.

    The order-1 point (eta, eps) = (0.3, -0.2) is the solution at both
    cutoffs, and ``levels_below`` counts the levels below its energy plus
    EIGEN_GAP_TOL; the fig sweep writes into the working directory. ``gn_step``
    is one least-squares step of the solver, ``series._lstsq_step`` on a
    seeded well-posed 3 x 3 system, which raises no floating-point flag and
    so needs no error state. ``terminate_general_5_plus_0.135`` is the
    seed-101 ``termination_scan`` pool input (5, +1, 0.13533480800114184),
    whose first start is parked after its first pass; no start of
    ``terminate_general_3_plus_0.3`` runs that long. The Wigner
    layers time an 81 x 81 grid like ``cat --eta 0.5 --wigner=-2:2:0.05`` and
    one grid of the ``phase_space`` workload.
    """
    import numpy as np

    from ionseries import cli
    from ionseries.model import FockBasis, build_h_transformed
    from ionseries.oracle import (
        EIGEN_GAP_TOL, hermitian_eigensystem, levels_below, validate_series_solution)
    from ionseries.series import (
        _lstsq_step, case1_closed_form, series_to_fock, terminate_general)
    from ionseries.states import cat_state, wigner_grid

    sol = case1_closed_form(0.3, -0.2, 1)
    layers = {}
    for cutoff in (150, 400):
        basis = FockBasis(cutoff)
        H = build_h_transformed(sol.params, basis)
        layers[f"build_h_transformed_c{cutoff}"] = functools.partial(
            build_h_transformed, sol.params, basis)
        layers[f"eigh_c{cutoff}"] = functools.partial(hermitian_eigensystem, H, True)
        layers[f"levels_below_c{cutoff}"] = functools.partial(
            levels_below, sol.params, cutoff, sol.energy + EIGEN_GAP_TOL)
        layers[f"series_to_fock_c{cutoff}"] = functools.partial(series_to_fock, sol, basis)
        layers[f"validate_series_solution_c{cutoff}"] = functools.partial(
            validate_series_solution, sol, basis)
    rng = np.random.default_rng(3)
    layers["gn_step"] = functools.partial(
        _lstsq_step, rng.standard_normal((3, 3)), rng.standard_normal((3, 1)))
    layers["terminate_general_3_plus_0.3"] = functools.partial(terminate_general, 3, 1, 0.3)
    layers["terminate_general_5_plus_0.135"] = functools.partial(
        terminate_general, 5, 1, 0.13533480800114184)
    layers["fig_omega0.5"] = functools.partial(
        cli.main, ["fig", "--omega", "0.5", "--out", "fig.csv"])
    cat, axis = cat_state(0.5, FockBasis(150, spin_dim=1)), np.linspace(-2.0, 2.0, 81)
    layers["wigner_grid_cat0.5_81x81"] = functools.partial(wigner_grid, cat, axis, axis)
    # phase_space's grid at eta 2.5, step 0.125: margin 3 around both lobes, 69 x 69 points
    cat, xs, ps = cat_state(2.5, FockBasis(150, spin_dim=1)), np.arange(-34, 35), np.arange(-24, 45)
    layers["wigner_grid_cat2.5_phase_space"] = functools.partial(
        wigner_grid, cat, 0.125 * xs, 0.125 * ps)
    print(json.dumps(_medians(layers, LAYER_REPEATS)))


def print_calibration() -> None:
    """Print ``{probe: median seconds}`` as JSON on the last line of stdout.

    The probes time the machine, not ionseries: ``eigvalsh_300`` is
    ``numpy.linalg.eigvalsh`` of a seeded symmetric 300 x 300 matrix (BLAS and
    LAPACK), ``python_float_loop`` 200000 steps of a pure-Python float
    recurrence (the interpreter).
    """
    import numpy as np

    a = np.random.default_rng(300).standard_normal((300, 300))

    def float_loop():
        x = 0.0
        for i in range(200_000):
            x = 0.999 * x + 1e-6 * i
        return x

    probes = {"eigvalsh_300": functools.partial(np.linalg.eigvalsh, a + a.T),
              "python_float_loop": float_loop}
    print(json.dumps(_medians(probes, LAYER_REPEATS)))


def _medians(calls: dict, repeats: int) -> dict:
    """Median wall seconds of ``repeats`` calls of each, after one untimed call."""
    medians = {}
    for name, call in calls.items():
        call()
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            walls.append(time.perf_counter() - start)
        medians[name] = round(statistics.median(walls), 6)
    return medians


def fresh_process_times(printer: str) -> dict:
    """``bench_record.<printer>()``'s medians, run in a fresh process in the
    benchmark's environment, echoed one per line."""
    from perfbench.run import bench_env

    env, _ = bench_env()
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "tools")
    code = f"import bench_record; bench_record.{printer}()"
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env,
                              capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{printer} exited {proc.returncode}: {proc.stderr.strip()}")
    medians = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, seconds in medians.items():
        print(f"{name:36s} {seconds * 1e3:9.2f} ms")
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--seed", type=int, default=0, help="benchmark workload seed")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # for perfbench's commands and environment

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
        layer_s = fresh_process_times("print_layer_times")
        calibration = fresh_process_times("print_calibration")
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
        "layer_repeats": LAYER_REPEATS,
        "layer_s": layer_s,
        "calibration": calibration,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
