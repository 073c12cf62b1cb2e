"""Command-line front end: argument parsing, %.12g rendering, file writes and
exit codes over the library, which does the computing.

Subcommands
-----------
fig       Sweep eta and emit the comparison curve family (rotating-wave
          doublet branches n = 0..6 for the resonance scheme nearest the
          requested rabi frequency, the order-1 energy identity curve, and the
          order-2 constraint-root curves where real) as CSV or JSON, plus a
          crossings sidecar locating intersections between rotating-wave and
          series curves. The curves and crossings come from ``rwa.fig_curves``
          and ``rwa.find_crossings``.
solve     Emit one terminated-series solution (closed form for orders 1-2,
          numeric solver above) as JSON, with oracle validation attached.
validate  Run the invariant suites of ``ionseries.validate`` (identity grid,
          constraint-root set equality, oracle membership, rotating-wave
          sector agreement, cat identity) and write a JSON report; exit 1
          naming any failing check.
cat       Construct the displaced-even-coherent target state and report
          parity, identity overlap, and leading amplitudes; optionally emit a
          Wigner grid.
oracle    Diagonalize the transformed Hamiltonian and print interior
          eigenvalues near a target.

Conventions: floats are written with %.12g so identical configurations give
byte-identical files; infeasible parameter regions produce no rows (never
placeholder zeros); exit codes are 0 success, 1 validation failure, 2 bad
arguments, paths or parameter values, 3 solver non-convergence. Each
subcommand takes only the flags it reads, and solve refuses an --omega,
--detuning, --guess or --fix that its --order does not read. Where --cutoff
exists (all but fig), IONTRAP_CUTOFF overrides its default of 150 and an
explicit --cutoff beats both.
A --config JSON object is read as ``--key=value`` flags ahead of the command
line's own, so explicit flags win and keys the subcommand lacks are ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import IonSeriesError, NoSolutionFoundError
from .model import FockBasis, ModelParams, build_h_transformed
from .oracle import hermitian_eigensystem, nearest_eigenpair, nearest_level, validate_series_solution
from .rwa import fig_curves, find_crossings
from .series import (
    SeriesSolution,
    _branch_mark,
    _norm_branch,
    case1_closed_form,
    case2_closed_form,
    eq7_residual,
    terminate_general,
)
from .states import _require_coherent_fits, cat_state, coherent_state, fidelity, parity, wigner_grid
from .validate import CHECKS

DEFAULT_CUTOFF = 150
MIN_CUTOFF = 60
#: Largest --cutoff: the dense H_I is (2 * cutoff)^2 float64, 128 MB at 2000,
#: and its O(cutoff^3) eigensolve takes about 8x the ~3 s it takes at 1000.
MAX_CUTOFF = 2000
#: Most points an --eta range may hold (the default fig sweep has 101).
MAX_ETA_POINTS = 10_001
#: Largest --eta: D(i eta / 2) needs about (eta / 2)^2 = 2500 levels at 100,
#: more than MAX_CUTOFF, and far above it float64 overflows in H_I and fig.
MAX_ETA = 100.0
#: Most points per axis of a --wigner range. The CSV sidecar takes about 27
#: bytes per grid point, so the cap holds it near 280 kB (101 x 101 points).
MAX_WIGNER_POINTS = 101
#: Largest side of a --grid: each cell solves both branches in Python, about
#: 20 us, so 1001 x 1001 cells already take about 20 s.
MAX_GRID_SIDE = 1001

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x: float) -> str:
    """Deterministic float rendering used for every emitted number."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # canonicalize negative zero
    return f"{x:.12g}"


def _render(doc):
    """``doc`` with every float in it, in nested dicts and lists too, round-tripped
    through the deterministic rendering for JSON."""
    if isinstance(doc, dict):
        return {key: _render(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_render(value) for value in doc]
    return float(_fmt(doc)) if isinstance(doc, float) else doc


class CliError(Exception):
    """A usage error: a missing flag, or a path that cannot be read or written."""


# ---------------------------------------------------------------------------
# argument types and configuration
# ---------------------------------------------------------------------------

def _floats(text: str, sep: str) -> Tuple[float, ...]:
    """The floats of a ``sep``-separated list, or () if any part is not a finite one."""
    try:
        vals = tuple(float(t) for t in text.split(sep))
    except ValueError:
        return ()
    return vals if all(math.isfinite(v) for v in vals) else ()


def _finite(text: str) -> float:
    """argparse type of a finite float (--omega, --detuning, --target, ...)."""
    vals = _floats(text, ",")
    if len(vals) != 1:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return vals[0]


def _range(max_points: int):
    """argparse type of a range flag: 'min:max:step' or a single value, read as
    the list of its points, of which there may be at most ``max_points``."""

    def points(text: str) -> List[float]:
        vals = _floats(text, ":")
        if len(vals) == 1:
            return [vals[0]]
        if len(vals) != 3:
            raise argparse.ArgumentTypeError(
                f"must be 'min:max:step' or a single value of finite numbers, got {text!r}"
            )
        lo, hi, step = vals
        if not (step > 0):
            raise argparse.ArgumentTypeError(f"step must be > 0, got {step}")
        if not (lo <= hi):
            raise argparse.ArgumentTypeError(f"range must have min <= max, got {lo} > {hi}")
        too_many = argparse.ArgumentTypeError(
            f"range {text!r} has more than {max_points} point{'s' if max_points > 1 else ''}"
        )
        if not (hi - lo) / step < max_points:  # also keeps round() below off inf
            raise too_many
        n = int(round((hi - lo) / step))
        if abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
            n = int(math.floor((hi - lo) / step + 1e-12))
        if n >= max_points:
            raise too_many
        return [lo] if hi == lo else [lo + i * step for i in range(n + 1)]

    return points


def _int_in(minimum: int, maximum: Optional[int] = None):
    """argparse type of an integer >= ``minimum`` and, if given, <= ``maximum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return integer


def _branches(text: str) -> Tuple[int, ...]:
    """argparse type of --branch: a comma list of + and -."""
    try:
        return tuple(dict.fromkeys(_norm_branch(tok.strip()) for tok in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _guess(text: str) -> Tuple[float, float, float]:
    """argparse type of --guess: exactly three numbers rabi,eps,c0."""
    vals = _floats(text, ",")
    if len(vals) != 3:
        raise argparse.ArgumentTypeError(f"needs three numbers rabi,eps,c0, got {text!r}")
    return vals


def _grid(text: str) -> Tuple[int, int]:
    """argparse type of --grid: two integers in [1, MAX_GRID_SIDE] written like 50x50."""
    try:
        a, b = text.lower().split("x")
        grid = (int(a), int(b))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must look like 50x50, got {text!r}") from None
    if min(grid) < 1:
        raise argparse.ArgumentTypeError(f"both sizes must be >= 1, got {text!r}")
    if max(grid) > MAX_GRID_SIDE:
        raise argparse.ArgumentTypeError(f"both sizes must be <= {MAX_GRID_SIDE}, got {text!r}")
    return grid


def _config_flags(path: str) -> List[str]:
    """A JSON config object as ``--key=value`` flags; a list value becomes a:b:c."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError("config file must hold a JSON object")
    flags = []
    for key, value in data.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ":".join(str(v) for v in value)
        key = "out" if key == "output_path" else key.replace("_", "-")
        flags.append(f"--{key}={value}")
    return flags


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _write_json(path: Optional[str], doc) -> None:
    _write_text(path, json.dumps(_render(doc), indent=1) + "\n")


# ---------------------------------------------------------------------------
# fig
# ---------------------------------------------------------------------------

def run_figure(args: argparse.Namespace) -> int:
    if args.omega is None:
        raise CliError("fig requires --omega")
    etas = args.eta
    scheme, curves = fig_curves(args.omega)
    values = {label: [c[3](eta) for eta in etas] for label, c in curves.items()}
    rows = []
    for i, eta in enumerate(etas):
        for label, (source, mark, n, _) in curves.items():
            energy = values[label][i]
            if energy is not None:
                rows.append((eta, energy, source, mark, n))

    fmt = args.format or ("json" if args.out and args.out.endswith(".json") else "csv")
    if fmt == "csv":
        lines = ["eta,energy,source,branch,n"]
        for eta, energy, source, mark, n in rows:
            lines.append(f"{_fmt(eta)},{_fmt(energy)},{source},{mark},{n}")
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        keys = ("eta", "energy", "source", "branch", "n")
        _write_json(args.out, [dict(zip(keys, row)) for row in rows])

    crossings = sorted(  # by the rendered eta, so equal printed etas order by label
        _render([{"eta": eta, "energy": energy, "rwa": rl, "other": ol}
                 for eta, energy, rl, ol in find_crossings(etas, curves, values)]),
        key=lambda c: (c["eta"], c["rwa"], c["other"]),
    )
    if args.out is not None:
        _write_json(args.out + ".crossings.json", crossings)
    print(
        f"fig: omega={_fmt(args.omega)} scheme={scheme.scheme}={scheme.index} rows={len(rows)} "
        f"etas={len(etas)} crossings={len(crossings)}"
    )
    for c in crossings:
        print(
            f"crossing: eta={_fmt(c['eta'])} energy={_fmt(c['energy'])} "
            f"{c['rwa']} x {c['other']}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _solution_payload(sol: SeriesSolution, cutoff: int, with_eq7: bool) -> dict:
    report = validate_series_solution(sol, FockBasis(cutoff=cutoff, spin_dim=2))
    payload = {
        "order": sol.order,
        "branch": _branch_mark(sol.branch),
        "rabi": sol.params.rabi,
        "lamb_dicke": sol.params.lamb_dicke,
        "detuning": sol.params.detuning,
        "eps": sol.params.eps,
        "energy": sol.energy,
        "z": sol.coeffs.z,
        "c0": sol.c0,
        "b": list(sol.coeffs.b),
        "c": list(sol.coeffs.c),
        "termination_residual": sol.termination_residual,
        "oracle": {**report.fields(), "passed": bool(report.passed),
                   "inconclusive": bool(report.inconclusive)},
    }
    if with_eq7:
        payload["eq7_residual"] = eq7_residual(sol.params.rabi, sol.params.lamb_dicke,
                                               sol.params.eps, sol.branch)
    if sol.jacobian_rank is not None:  # the numeric solver's solutions only
        payload["jacobian_rank"] = int(sol.jacobian_rank)
        payload["solver_oracle_gap"] = abs(nearest_level(sol.params, cutoff, sol.energy)
                                           - sol.energy)
    return payload


def run_solve(args: argparse.Namespace) -> int:
    order = args.order
    if order is None:
        raise CliError("solve requires --order")
    if args.eta is None:
        raise CliError("solve requires --eta")
    eta = args.eta[0]
    branches = args.branch
    unread = [flag for flag, given, read in (
        ("--omega", args.omega is not None, order == 2),
        ("--detuning", args.detuning is not None, order == 1),
        ("--guess", args.guess is not None, order >= 3),
        ("--fix", args.fix is not None, order >= 3),
    ) if given and not read]
    if unread:
        raise CliError(f"solve --order {order} does not read {', '.join(unread)}")

    if order == 1:
        eps = -(0.0 if args.detuning is None else args.detuning) / 2.0
        sols = [case1_closed_form(eta, eps, b) for b in branches]
    elif order == 2:
        if args.omega is None:
            raise CliError("solve --order 2 requires --omega")
        sols = case2_closed_form(args.omega, eta, branches=branches)
    else:
        sols = [
            terminate_general(order, b, eta, guess=args.guess, fix=args.fix)
            for b in branches
        ]

    payloads = [_solution_payload(s, args.cutoff, with_eq7=(order == 2)) for s in sols]
    _write_json(args.out, {"command": "solve", "solutions": payloads})
    for p in payloads:
        print(
            f"solve: order={p['order']} branch={p['branch']} "
            f"rabi={_fmt(p['rabi'])} eps={_fmt(p['eps'])} energy={_fmt(p['energy'])} "
            f"oracle_gap={_fmt(p['oracle']['eigen_gap'])} passed={p['oracle']['passed']}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def run_validate(args: argparse.Namespace) -> int:
    suite = args.suite
    selected = CHECKS.values() if suite == "all" else [CHECKS[suite]]
    checks = {name: check(args.cutoff, args.grid, args.perturb_energy) for name, check in selected}
    all_passed = bool(all(c["passed"] for c in checks.values()))
    report = {"command": "validate", "suite": suite, "passed": all_passed, "checks": checks}
    _write_json(args.out, report)
    failing = [name for name, c in checks.items() if not c["passed"]]
    if failing:
        print(f"validate: FAILED checks: {', '.join(failing)}")
        return EXIT_VALIDATION
    print(f"validate: all {len(checks)} check(s) passed (suite={suite})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cat / oracle
# ---------------------------------------------------------------------------

def run_cat(args: argparse.Namespace) -> int:
    if args.eta is None:
        raise CliError("cat requires --eta")
    eta = args.eta[0]
    basis = FockBasis(cutoff=args.cutoff, spin_dim=1)
    v = cat_state(eta, basis)
    coh = coherent_state(1j * eta, basis)  # the displaced lobe, for reference
    n_show = min(basis.cutoff, 16)
    doc = {
        "command": "cat",
        "eta": eta,
        "cutoff": basis.cutoff,
        "identity_overlap": v.meta["identity_overlap"],
        "parity": parity(v),
        "fidelity_vs_coherent": fidelity(v, coh),
        "amplitudes": [[a.real, a.imag] for a in v.amplitudes[:n_show]],
    }
    if args.wigner:  # before any write, so a refused grid leaves no artefact
        axis = args.wigner
        W = wigner_grid(v, np.array(axis), np.array(axis))
        labels = [_fmt(a) for a in axis]
        lines = ["x,p,w"]
        for p, row in zip(labels, W.tolist()):
            lines.extend(f"{x},{p},{_fmt(w)}" for x, w in zip(labels, row))
    _write_json(args.out, doc)
    if args.wigner:
        out = (args.out or "cat") + ".wigner.csv"
        _write_text(out, "\n".join(lines) + "\n")
        print(f"cat: wigner grid {len(axis)}x{len(axis)} -> {out}")
    print(
        f"cat: eta={_fmt(eta)} parity={_fmt(doc['parity'])} "
        f"identity_overlap={_fmt(doc['identity_overlap'])}"
    )
    return EXIT_OK


def run_oracle(args: argparse.Namespace) -> int:
    if args.omega is None or args.eta is None:
        raise CliError("oracle requires --omega and --eta")
    eta = args.eta[0]
    p = ModelParams(rabi=args.omega, lamb_dicke=eta, detuning=args.detuning)
    # Eigenstates of H_I sit on coherent columns displaced by +/-g: a cutoff
    # that cannot hold |g> gives levels that move with the cutoff.
    _require_coherent_fits(p.g, args.cutoff, f"oracle at eta={_fmt(eta)}")
    H = build_h_transformed(p, FockBasis(args.cutoff))
    spec = hermitian_eigensystem(H)
    # The lowest third: the upper levels feel the truncation most. A heuristic,
    # not a certificate: at large eta, levels inside it still move with the cutoff.
    interior = spec.eigenvalues[:spec.eigenvalues.size // 3]
    count = min(args.count, interior.size)
    doc = {
        "command": "oracle",
        "rabi": args.omega,
        "lamb_dicke": eta,
        "detuning": args.detuning,
        "cutoff": args.cutoff,
        "interior_eigenvalues": list(interior[:count]),
    }
    if args.target is not None:
        pair = nearest_eigenpair(spec, args.target)
        doc["nearest"] = {"target": args.target, "eigenvalue": pair.value,
                          "gap_to_next": pair.gap_to_next}
    _write_json(args.out, doc)
    print(
        f"oracle: cutoff={args.cutoff} interior={interior.size} "
        f"lowest={_fmt(interior[0])}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionseries",
        description="Terminated-series spectra of a laser-driven trapped ion, "
        "with rotating-wave references and a diagonalization oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, run, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--config", help="JSON file with run parameters (flags win)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    def cutoff(sp, note=""):
        sp.add_argument(
            "--cutoff", type=_int_in(MIN_CUTOFF, MAX_CUTOFF),
            default=os.environ.get("IONTRAP_CUTOFF", str(DEFAULT_CUTOFF)),
            help=f"basis cutoff ({MIN_CUTOFF} to {MAX_CUTOFF}; "
            f"default $IONTRAP_CUTOFF or {DEFAULT_CUTOFF}){note}",
        )

    def eta(sp, default=None, max_points=1, positive=False):
        def etas(text: str) -> List[float]:
            values = _range(max_points)(text)
            if values[-1] > MAX_ETA:
                raise argparse.ArgumentTypeError(f"must be <= MAX_ETA = {MAX_ETA:g}, got {text!r}")
            if positive and not values[0] > 0:
                raise argparse.ArgumentTypeError(
                    f"must be > 0, got {text!r}: the series recurrences divide by g = eta/2, "
                    "so the eta -> 0 limit is reached only through small eta > 0")
            return values

        sp.add_argument(
            "--eta", type=etas, default=default,
            help="eta value or min:max:step range" if max_points > 1 else "eta value",
        )

    sp = subcommand("fig", run_figure, "emit comparison curve family over an eta sweep")
    eta(sp, "0:1:0.01", MAX_ETA_POINTS)
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--omega", type=_finite, default=None, help="rabi frequency for the sweep")

    sp = subcommand("solve", run_solve, "emit one terminated-series solution")
    cutoff(sp)
    eta(sp, positive=True)
    sp.add_argument("--order", type=int, default=None, help="termination order N >= 1")
    sp.add_argument("--branch", type=_branches, default=(1, -1), help="+ or - (default both)")
    sp.add_argument("--omega", type=_finite, default=None, help="rabi frequency (order 2)")
    sp.add_argument("--detuning", type=_finite, default=None, help="detuning (order 1; default 0)")
    sp.add_argument("--guess", type=_guess, default=None, help="rabi,eps,c0 start (order >= 3)")
    sp.add_argument("--fix", choices=("eps", "rabi"), default=None)

    sp = subcommand("validate", run_validate, "run the invariant suite")
    cutoff(sp, "; read by the case1, case2 and oracle suites only: cat fixes its own "
            "cutoff at 100 and rwa at 60, and eq13 and a3a4 use none")
    sp.add_argument("--suite", choices=(*CHECKS, "all"), default="all")
    sp.add_argument("--grid", type=_grid, default=(50, 50), help="identity grid size, e.g. 50x50")
    sp.add_argument("--perturb-energy", type=_finite, default=0.0,
                    help="negative-control hook: offset added to energies in oracle_membership")

    sp = subcommand("cat", run_cat, "construct the displaced-even-coherent state")
    cutoff(sp)
    eta(sp)
    sp.add_argument("--wigner", type=_range(MAX_WIGNER_POINTS), default=None,
                    help="grid min:max:step for a Wigner CSV")

    sp = subcommand("oracle", run_oracle, "diagonalize the transformed Hamiltonian")
    cutoff(sp)
    eta(sp)
    sp.add_argument("--omega", type=_finite, default=None, help="rabi frequency")
    sp.add_argument("--detuning", type=_finite, default=0.0)
    sp.add_argument("--count", type=_int_in(1), default=20, help="how many eigenvalues to list")
    sp.add_argument("--target", type=_finite, default=None, help="report nearest eigenvalue")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config flags go ahead of the command line's own, so those win;
            # flags this subcommand does not have come back unparsed, ignored.
            args, _ = parser.parse_known_args(
                [argv[0], *_config_flags(args.config), *argv[1:]]
            )
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
        return code
    except SystemExit as exc:  # argparse has printed the usage error; return its code
        return exc.code
    except NoSolutionFoundError as exc:  # only terminate_general, under solve, raises it
        trace = ", ".join(_fmt(t) for t in exc.residual_trace)
        print(f"error: solve: no convergence ({exc}); residual trace: [{trace}]",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except BrokenPipeError as exc:  # the reader closed stdout
        # Point stdout at devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # Python float arithmetic raises where numpy gives inf
        print(f"error: an input is too large: float overflow {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CliError, IonSeriesError, ValueError) as exc:  # ValueError: bad library input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
