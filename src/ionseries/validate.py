"""The invariant suites that ``ionseries validate`` runs.

Each suite checks one claim of the package against an independent
computation and returns a dict of raw, unrounded values with a ``passed``
flag. ``CHECKS`` maps a suite name to its check id and a function of
``(cutoff, grid, perturb)``, in the order ``--suite all`` runs them. Only
``case1``, ``case2`` and ``oracle`` read ``cutoff``; ``cat`` fixes its own at
100 and ``rwa`` at 60, and ``eq13`` and ``a3a4`` use none. ``eq13`` reads
``grid`` and ``oracle`` reads ``perturb``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .model import FockBasis, displacement_matrix
from .oracle import EIGEN_GAP_TOL, nearest_level, validate_series_solution
from .rwa import RwaQuery, rwa_energy, rwa_hamiltonian
from .series import (_branch_mark, case1_closed_form, case2_closed_form, case2_energies,
                     energy_identity_case1, eq7_residual)
from .states import cat_state, coherent_state


def check_eq13(grid: Tuple[int, int]) -> dict:
    """Order-1 closed-form energies against the eq. 13 identity on an (eta, eps) grid."""
    n_eta, n_eps = grid
    worst, count = 0.0, 0
    for eta in np.linspace(0.01, 1.0, n_eta):
        for eps in np.linspace(-1.0, 1.0, n_eps):
            for branch in (1, -1):
                if 1.0 + 2.0 * branch * eps - eta * eta <= 1e-9:
                    continue
                sol = case1_closed_form(eta, eps, branch)
                ident = energy_identity_case1(sol.params.rabi, eta)
                worst = max(worst, abs(sol.energy - ident))
                count += 1
    return {"passed": bool(worst < 1e-12 and count > 0), "points": count, "max_error": worst}


def check_a3a4(n_draws: int = 100, seed: int = 12345) -> dict:
    """The order-2 energy sets of eqs. A3 and A4 are equal on seeded random draws."""
    rng = np.random.default_rng(seed)
    worst, evaluated = 0.0, 0
    for _ in range(n_draws):
        omega = float(rng.uniform(0.0, 3.0))
        eta = float(rng.uniform(0.05, 1.2))
        energies = case2_energies(omega, eta)
        if energies is None:
            continue
        set_a3, set_a4 = sorted(energies[1]), sorted(energies[-1])
        worst = max(worst, max(abs(x - y) for x, y in zip(set_a3, set_a4)))
        evaluated += 1
    return {
        "passed": bool(worst < 1e-12 and evaluated > 0),
        "draws": n_draws,
        "real_root_draws": evaluated,
        "max_set_difference": worst,
    }


def check_oracle_membership(cutoff: int, perturb: float) -> dict:
    """Stored closed-form energies, offset by ``perturb``, are levels of the dense H_I."""
    sols = [
        case1_closed_form(0.2, 0.0, 1),
        case1_closed_form(0.3, 0.1, 1),
        case1_closed_form(0.25, -0.05, -1),
    ]
    sols += case2_closed_form(0.5, 0.1)
    results = []
    for sol in sols:
        target = sol.energy + perturb
        gap = abs(nearest_level(sol.params, cutoff, target) - target)
        results.append({"order": sol.order, "branch": _branch_mark(sol.branch), "energy": target,
                        "eigen_gap": gap, "passed": bool(gap < EIGEN_GAP_TOL)})
    return {"passed": all(r["passed"] for r in results), "solutions": results}


def check_case_oracle(order: int, cutoff: int) -> dict:
    """Order-1 or order-2 closed-form solutions pass the oracle; order 2 also eq. 7."""
    if order == 1:
        sols = [case1_closed_form(0.2, 0.0, 1), case1_closed_form(0.3, 0.1, -1)]
    else:
        sols = case2_closed_form(0.5, 0.1)
    basis = FockBasis(cutoff=cutoff, spin_dim=2)
    results = []
    for sol in sols:
        rep = validate_series_solution(sol, basis)
        ok = rep.passed
        if order == 2:
            r7 = eq7_residual(sol.params.rabi, sol.params.lamb_dicke, sol.params.eps, sol.branch)
            ok = ok and r7 < 1e-9
        results.append({"branch": _branch_mark(sol.branch), "energy": sol.energy,
                        **rep.fields(), "passed": bool(ok)})
    return {"passed": all(r["passed"] for r in results), "solutions": results}


def check_rwa(cutoff: int = 60) -> dict:
    """Closed-form rotating-wave doublets against the 2x2 sector eigenvalues."""
    worst = 0.0
    basis = FockBasis(cutoff=cutoff, spin_dim=2)
    for scheme, indices in (("M", (1, 2)), ("K", (2, 3))):
        for index in indices:
            for eta in (0.1, 0.5):
                q0 = RwaQuery(scheme=scheme, index=index)
                H = rwa_hamiltonian(q0, eta, basis).entries
                for n in range(0, 21):
                    i_dn = 2 * (n + 1)
                    i_up = 2 * n + 1
                    sub = H[np.ix_([i_dn, i_up], [i_dn, i_up])]
                    evals = np.linalg.eigvalsh(sub)
                    for sign, e_sec in ((-1, evals[0]), (1, evals[1])):
                        q = RwaQuery(scheme=scheme, index=index, n=n, sign=sign)
                        worst = max(worst, abs(rwa_energy(q, eta) - e_sec))
    return {"passed": bool(worst < 1e-10), "max_error": worst}


def displaced_pair_overlap(eta: float, basis: FockBasis) -> float:
    """|<cat_state(eta)|D(i eta/2)(|i eta/2> + |-i eta/2>)>| after normalizing, with a dense D.

    The coherent-state algebra makes the displaced pair equal |i eta> + |0>, so
    this checks ``cat_state`` against a second, matrix-exponential construction.
    """
    half = 0.5j * eta
    pair = coherent_state(half, basis).amplitudes + coherent_state(-half, basis).amplitudes
    displaced = displacement_matrix(half, basis).entries @ pair
    displaced /= np.linalg.norm(displaced)
    return float(abs(np.vdot(displaced, cat_state(eta, basis).amplitudes)))


def check_cat(cutoff: int = 100) -> dict:
    """``cat_state`` against the displaced pair at eta = 0.2 and 0.8."""
    basis = FockBasis(cutoff=cutoff, spin_dim=1)
    worst = min(1.0, *(displaced_pair_overlap(eta, basis) for eta in (0.2, 0.8)))
    return {"passed": bool(worst > 1.0 - 1e-9), "min_identity_overlap": worst}


# suite name -> (check id, check of (cutoff, grid, perturb)); ``all`` runs them in this order
CHECKS = {
    "eq13": ("eq13_identity", lambda cutoff, grid, perturb: check_eq13(grid)),
    "a3a4": ("a3a4_set_equality", lambda *_: check_a3a4()),
    "case1": ("case1_oracle", lambda cutoff, *_: check_case_oracle(1, cutoff)),
    "case2": ("case2_oracle", lambda cutoff, *_: check_case_oracle(2, cutoff)),
    "rwa": ("rwa_sector_agreement", lambda *_: check_rwa()),
    "cat": ("cat_identity", lambda *_: check_cat()),
    "oracle": ("oracle_membership",
               lambda cutoff, grid, perturb: check_oracle_membership(cutoff, perturb)),
}
