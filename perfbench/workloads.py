"""The four benchmark workloads: inputs from a seed, the timed op, and its check.

Every workload yields its inputs in blocks, and the runner stops only at a
block boundary, so each run measures the same mix of input kinds whatever the
seed; the seed moves the values drawn inside the blocks and their order.
``run`` is the timed call and gets nothing but the generated input. ``check``
runs outside the timed region and returns ``OK``, ``UNSOLVED`` (the solver's
typed "no termination point found" outcome, which is not a failure) or a
message saying why the op failed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

# Library functions are called through their modules so that the tracer's
# patched module attributes see the benchmark's own calls.
from ionseries import oracle, series, states
from ionseries.errors import ConstraintInfeasibleError, NoSolutionFoundError
from ionseries.model import FockBasis

OK = "ok"
UNSOLVED = "unsolved"

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# (id, CLI arguments, expected exit code, artefacts the command writes)
CLI_COMMANDS = (
    ("fig_omega0.5_csv", ["fig", "--omega", "0.5", "--out", "fig05.csv"], 0,
     ("fig05.csv", "fig05.csv.crossings.json")),
    ("fig_omega3_json", ["fig", "--omega", "3.0", "--format", "json", "--out", "fig30.json"], 0,
     ("fig30.json", "fig30.json.crossings.json")),
    ("solve_order1", ["solve", "--order", "1", "--eta", "0.2", "--detuning", "0",
                      "--branch", "+", "--out", "solve1.json"], 0, ("solve1.json",)),
    ("solve_order2", ["solve", "--order", "2", "--eta", "0.1", "--omega", "0.5",
                      "--out", "solve2.json"], 0, ("solve2.json",)),
    ("solve_order3", ["solve", "--order", "3", "--eta", "0.3", "--branch", "+",
                      "--out", "solve3.json"], 0, ("solve3.json",)),
    ("oracle_target", ["oracle", "--omega", "0.5", "--eta", "0.1",
                       "--detuning", "0.9178925365849903", "--target", "1.5410537317075048",
                       "--out", "oracle.json"], 0, ("oracle.json",)),
    ("validate_all", ["validate", "--suite", "all", "--out", "validate_all.json"], 0,
     ("validate_all.json",)),
    ("cat_wigner", ["cat", "--eta", "0.5", "--wigner=-2:2:0.05", "--out", "cat.json"], 0,
     ("cat.json", "cat.json.wigner.csv")),
    # negative control: a perturbed energy must make the suite fail with exit 1
    ("validate_oracle_perturbed", ["validate", "--suite", "oracle", "--perturb-energy", "0.01",
                                   "--out", "validate_perturbed.json"], 1,
     ("validate_perturbed.json",)),
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Shared state: the seed, the run's scratch directory and child environment."""

    import_module = "ionseries"

    def __init__(self, seed, workdir, env):
        self.seed, self.workdir, self.env = seed, workdir, env
        self.skipped = 0
        self.tracer = None  # set by the runner for the traced half

    def before(self, item):
        """Untimed preparation of one op."""


class CliSession(Workload):
    """One fresh ``python -m ionseries.cli`` process per op, over a fixed list.

    A block is one pass over the command list in a seeded order. Traced runs
    start the benchmark's launcher instead, which records spans and then calls
    ``ionseries.cli.main``.
    """

    import_module = "ionseries.cli"

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        self.output_bytes = 0

    @functools.cached_property
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())["artefacts"]

    def blocks(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield [CLI_COMMANDS[i] for i in rng.permutation(len(CLI_COMMANDS))]

    def run(self, command):
        if self.tracer is None:
            argv = [sys.executable, "-m", "ionseries.cli", *command[1]]
        else:
            argv = [sys.executable, str(HERE / "launch.py"),
                    str(self.workdir / "spans.json"), *command[1]]
        return subprocess.run(argv, cwd=self.workdir, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def before(self, command):
        for name in command[3]:
            (self.workdir / name).unlink(missing_ok=True)

    def check(self, command, proc):
        cid, _, code, artefacts = command
        spans_file = self.workdir / "spans.json"
        if self.tracer is not None and spans_file.is_file():
            self.tracer.absorb(json.loads(spans_file.read_text()))
            spans_file.unlink()
        if proc.returncode != code:
            return f"{cid}: exit {proc.returncode}, expected {code}: {proc.stderr.decode()[-300:]}"
        written = len(proc.stdout)
        for name in artefacts:
            path = self.workdir / name
            if not path.is_file():
                return f"{cid}: {name} was not written"
            written += path.stat().st_size
            if sha256(path) != self.golden.get(cid, {}).get(name):
                return f"{cid}: {name} differs from the golden output"
        if self.tracer is not None:
            self.output_bytes += written
        return OK

    def record_golden(self):
        """sha256 of every artefact of one pass over the command list."""
        out = {}
        for command in CLI_COMMANDS:
            self.before(command)
            proc = self.run(command)
            if proc.returncode != command[2]:
                raise RuntimeError(
                    f"{command[0]} exited {proc.returncode}: {proc.stderr.decode()}")
            out[command[0]] = {name: sha256(self.workdir / name) for name in command[3]}
        return out


class ValidateSweep(Workload):
    """``validate_series_solution`` on seeded closed-form solutions.

    A block holds four ops: three at cutoff 150 and one at cutoff 400, two of
    order 1 and two of order 2, in seeded order, so the median tracks the
    default size and the tail the O(C^3) growth. Draws infeasible by
    construction (negative order-1 radicand, negative order-2 discriminant)
    are skipped and counted.
    """

    def _draw(self, rng, order):
        while True:
            if order == 1:
                eta, eps = rng.uniform(0.05, 0.8), rng.uniform(-0.5, 0.5)
                branch = 1 if rng.random() < 0.5 else -1
                try:
                    return series.case1_closed_form(float(eta), float(eps), branch)
                except ConstraintInfeasibleError:
                    self.skipped += 1
            else:
                rabi, eta = rng.uniform(0.0, 3.0), rng.uniform(0.05, 0.8)
                roots = series.case2_closed_form(float(rabi), float(eta))
                if roots:
                    return roots[int(rng.integers(len(roots)))]
                self.skipped += 1

    def blocks(self):
        rng = np.random.default_rng(self.seed)
        while True:
            cutoffs = rng.permutation([150, 150, 150, 400])
            orders = rng.permutation([1, 1, 2, 2])
            yield [(self._draw(rng, int(o)), int(c)) for o, c in zip(orders, cutoffs)]

    def run(self, item):
        sol, cutoff = item
        return oracle.validate_series_solution(sol, FockBasis(cutoff))

    def check(self, item, report):
        if report.inconclusive:
            return f"inconclusive at cutoff {item[1]}"
        if not report.passed:
            return (f"failed at cutoff {item[1]}: gap {report.eigen_gap:.3g}, "
                    f"residual {report.residual:.3g}, overlap {report.overlap:.6f}")
        return OK


class TerminationScan(Workload):
    """``terminate_general`` with its default seeds and built-in oracle (cutoff 150).

    The inputs are a seeded pool of 384: every order 3..8 and branch (twelve
    cells), at 32 eta values each, one drawn from each 32nd of U(0.05, 0.8).
    A block holds one input of every cell, so any whole number of blocks has
    the same order and branch mix; 32 blocks visit the whole pool, each
    cell's strata in bit-reversed order from a seeded start, so that a
    partial pass still spreads its eta values over the whole range. Inputs
    near a cell's solvable edge are the slowest, so a run repeats each input
    only a few times and its tail spans many distinct inputs. The pool lets
    every distinct result be re-checked by ``validate_series_solution`` once,
    outside the timed region; a repeat must return the identical point.
    """

    STRATA = 32

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        rng = np.random.default_rng(seed)
        self.cells = [
            [(order, branch, float(0.05 + 0.75 * (s + rng.random()) / self.STRATA))
             for s in range(self.STRATA)]
            for order in range(3, 9) for branch in (1, -1)
        ]
        self.verdicts = {}

    def blocks(self):
        rng = np.random.default_rng(self.seed + 1)
        bits = self.STRATA.bit_length() - 1  # STRATA is a power of two
        spread = [int(format(j, f"0{bits}b")[::-1], 2) for j in range(self.STRATA)]
        while True:
            starts = rng.integers(self.STRATA, size=len(self.cells))
            for j in spread:
                block = [cell[(j + k) % self.STRATA] for cell, k in zip(self.cells, starts)]
                yield [block[i] for i in rng.permutation(len(block))]

    def run(self, item):
        try:
            return series.terminate_general(*item)
        except NoSolutionFoundError:
            return UNSOLVED

    def check(self, item, sol):
        point = UNSOLVED if sol is UNSOLVED else (
            sol.params.rabi, sol.params.detuning, sol.c0, sol.energy)
        if item not in self.verdicts:
            verdict = UNSOLVED
            if sol is not UNSOLVED:
                report = oracle.validate_series_solution(sol, FockBasis(150))
                verdict = OK if report.passed and not report.inconclusive else (
                    f"order {item[0]} branch {item[1]:+d} eta {item[2]:.6f}: "
                    f"oracle re-check failed (gap {report.eigen_gap:.3g})")
            self.verdicts[item] = (point, verdict)
        first, verdict = self.verdicts[item]
        if point != first:
            return (f"order {item[0]} branch {item[1]:+d} eta {item[2]:.6f}: "
                    "result changed on repeat")
        return verdict


class PhaseSpace(Workload):
    """Even cat state, its coherent reference lobe and its Wigner grid.

    A block holds two ops: the next eta value of a golden-ratio sequence over
    [0.2, 2.5] that starts at a seeded offset, at grid steps 0.125 and 0.2 in
    seeded order. Op cost grows steeply with eta; this low-discrepancy
    sequence spreads any run's eta values evenly over the range, so the cost
    mix is nearly the same for every seed. The grid is square, centred on the
    state's two lobes (at 0 and i*eta) with a margin of 3 on every side, and
    contains the origin. The check compares W(0,0)
    with (2/pi)*parity and the grid sum W dx dp with 1 within 1e-6: the
    Wigner mass beyond a margin of 3 is about exp(-18).
    """

    CUTOFF = 150
    MARGIN = 3.0
    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
    W00_TOL = 1e-9
    MASS_TOL = 1e-6

    def blocks(self):
        rng = np.random.default_rng(self.seed)
        offset, k = rng.random(), 0
        while True:
            eta = 0.2 + 2.3 * ((offset + k * self.GOLDEN) % 1.0)
            k += 1
            steps = (0.125, 0.2) if rng.random() < 0.5 else (0.2, 0.125)
            yield [(eta, step) for step in steps]

    def grid(self, eta, step):
        half = eta / 2 + self.MARGIN
        n = math.ceil(half / step)
        xs = step * np.arange(-n, n + 1)
        ps = step * np.arange(math.floor((eta / 2 - half) / step),
                              math.ceil((eta / 2 + half) / step) + 1)
        return xs, ps

    def run(self, item):
        eta, step = item
        basis = FockBasis(self.CUTOFF, spin_dim=1)
        v = states.cat_state(eta, basis)
        states.coherent_state(1j * eta, basis)
        xs, ps = self.grid(eta, step)
        return v, states.wigner_grid(v, xs, ps)

    def check(self, item, result):
        eta, step = item
        v, W = result
        xs, ps = self.grid(eta, step)
        w00 = W[int(np.flatnonzero(ps == 0)[0]), int(np.flatnonzero(xs == 0)[0])]
        if abs(w00 - 2 / math.pi * states.parity(v)) > self.W00_TOL:
            return f"eta {eta:.6f} step {step}: W(0,0) {w00!r} != (2/pi) parity"
        mass = float(W.sum()) * step * step
        if abs(mass - 1.0) > self.MASS_TOL:
            return f"eta {eta:.6f} step {step}: sum W dx dp = {mass!r}"
        return OK


WORKLOADS = {
    "cli_session": CliSession,
    "validate_sweep": ValidateSweep,
    "termination_scan": TerminationScan,
    "phase_space": PhaseSpace,
}
