"""Acceptance gate: ten criteria, one test each, with timing budgets.

Every test prints a ``[ACCEPTANCE NN] name: PASS/FAIL`` line (also collected in
the terminal summary by conftest). Criterion 7 compares the rotating-wave
ladder with the order-1 identity curve through their signed gap: it checks
that the eta-driven departure from the eta = 0 offset -omega^2/8 grows, and
that the gap changes sign once, at the crossing the documented formulas give;
criterion 9 checks that ``fig`` reports that crossing. Its table also shows
the raw distance, which dips to zero there; the companion (non-criterion) test
after it pins the departure's values. See the README section on criterion 7.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

import conftest
from ionseries.cli import main as cli_main
from ionseries.model import FockBasis, build_h_transformed
from ionseries.oracle import (
    hermitian_eigensystem,
    nearest_eigenpair,
    nearest_level,
    validate_series_solution,
)
from ionseries.rwa import RwaQuery, rwa_energy, rwa_hamiltonian
from ionseries.series import (
    appendix_quadratic,
    case1_closed_form,
    case2_closed_form,
    energy_identity_case1,
    eq7_residual,
    terminate_general,
)
from ionseries.states import cat_state
from ionseries.validate import displaced_pair_overlap

# Where the M=1 rotating-wave branch (0, +) crosses the order-1 identity curve
# at omega = 0.5: the root of 64 eta^4 - 112 eta^2 + 17 that the documented
# formulas of rwa_energy and energy_identity_case1 give (see criterion 7).
M1_CROSSING_ETA = math.sqrt((7.0 - 4.0 * math.sqrt(2.0)) / 8.0)


def run_criterion(num, name, budget_s, body):
    t0 = time.perf_counter()
    try:
        body()
        dt = time.perf_counter() - t0
        assert dt < budget_s, f"runtime {dt:.2f}s exceeds the {budget_s}s budget"
    except BaseException:
        conftest.record_acceptance(num, name, "FAIL")
        print(f"\n[ACCEPTANCE {num:02d}] {name}: FAIL")
        raise
    conftest.record_acceptance(num, name, "PASS", f"{dt:.2f}s")
    print(f"\n[ACCEPTANCE {num:02d}] {name}: PASS ({dt:.2f}s)")


def test_criterion_01_closed_form_identity_grid():
    def body():
        worst, count = 0.0, 0
        for eta in np.linspace(0.0, 1.0, 50):
            for eps in np.linspace(-1.0, 1.0, 50):
                for branch in (1, -1):
                    if eta == 0.0 or 1.0 + 2.0 * branch * eps - eta * eta <= 0.0:
                        continue
                    sol = case1_closed_form(float(eta), float(eps), branch)
                    ident = energy_identity_case1(sol.params.rabi, float(eta))
                    worst = max(worst, abs(sol.energy - ident))
                    count += 1
        assert count > 1000, f"grid produced only {count} feasible points"
        assert worst < 1e-12, f"identity violated by {worst:.3e}"

    run_criterion(1, "closed_form_identity_grid", 5.0, body)


def test_criterion_02_case1_oracle_membership():
    def body():
        basis = FockBasis(150)
        points = [
            (eta, eps)
            for eta in (0.1, 0.15, 0.2, 0.25, 0.3)
            for eps in (-0.15, -0.05, 0.05, 0.15)
        ]
        assert len(points) == 20
        for i, (eta, eps) in enumerate(points):
            branch = 1 if i % 2 == 0 else -1
            sol = case1_closed_form(eta, eps, branch)
            report = validate_series_solution(sol, basis)
            assert report.eigen_gap < 1e-6, (eta, eps, branch, report.eigen_gap)
            assert report.overlap > 0.999, (eta, eps, branch, report.overlap)
            assert report.passed

    run_criterion(2, "case1_oracle_membership", 120.0, body)


def test_criterion_03_case2_roots_oracle_and_residual():
    def body():
        pairs = [
            (omega, eta)
            for omega in (0.2, 0.35, 0.5, 0.65, 0.8)
            for eta in (0.05, 0.1, 0.2, 0.3)
        ]
        assert len(pairs) == 20
        for omega, eta in pairs:
            sols = case2_closed_form(omega, eta)
            assert sols, f"no real roots at omega={omega}, eta={eta}"
            for sol in sols:
                eps = -sol.params.detuning / 2.0
                residual = eq7_residual(omega, eta, eps, sol.branch)
                assert residual < 1e-9, (omega, eta, eps, residual)
                spec = hermitian_eigensystem(build_h_transformed(sol.params, FockBasis(150)))
                gap = abs(nearest_eigenpair(spec, sol.energy).value - sol.energy)
                assert gap < 1e-6, (omega, eta, eps, gap)

    run_criterion(3, "case2_roots_oracle_and_residual", 120.0, body)


def test_criterion_04_root_set_equivalence():
    def body():
        rng = np.random.default_rng(2024)
        evaluated = 0
        for _ in range(100):
            omega = float(rng.uniform(0.0, 3.0))
            eta = float(rng.uniform(0.05, 1.2))
            q = appendix_quadratic(omega, eta)
            if q.discriminant < 0:
                continue
            g2 = (eta / 2.0) ** 2
            root = float(np.sqrt(q.discriminant))
            # plus-branch structure: eps = X + g^2, E = 2 + eps
            plus = sorted(2.0 + g2 + (-q.B + s * root) / (2.0 * q.A) for s in (1, -1))
            # minus-branch structure: eps = Y - g^2, E = 2 - eps
            minus = sorted(2.0 + g2 - (q.B + s * root) / (2.0 * q.A) for s in (1, -1))
            for a, b in zip(plus, minus):
                assert abs(a - b) < 1e-12, (omega, eta, plus, minus)
            evaluated += 1
        assert evaluated > 0

    run_criterion(4, "root_set_equivalence", 1.0, body)


def test_criterion_05_general_order_solver():
    def body():
        anchor1 = case1_closed_form(0.2, 0.0, 1)
        rec1 = terminate_general(
            1, 1, 0.2,
            guess=(anchor1.params.rabi + 0.03, 0.0, anchor1.c0 + 0.01),
            fix="eps",
        )
        assert abs(rec1.params.rabi - anchor1.params.rabi) < 1e-8
        assert abs(rec1.c0 - anchor1.c0) < 1e-8

        anchor2 = case2_closed_form(0.5, 0.1)[0]
        eps2 = -anchor2.params.detuning / 2.0
        rec2 = terminate_general(
            2, 1, 0.1, guess=(0.5, eps2 + 0.02, anchor2.c0 + 0.02), fix="rabi"
        )
        assert abs(-rec2.params.detuning / 2.0 - eps2) < 1e-8
        assert abs(rec2.c0 - anchor2.c0) < 1e-8

        sol3 = terminate_general(3, 1, 0.3)
        assert abs(nearest_level(sol3.params, 150, sol3.energy) - sol3.energy) < 1e-6
        assert sol3.termination_residual < 1e-9
        assert sol3.jacobian_rank == 2

    run_criterion(5, "general_order_solver", 60.0, body)


def test_criterion_06_rwa_sector_agreement():
    def body():
        basis = FockBasis(50)
        worst = 0.0
        for scheme in ("M", "K"):
            for index in (1, 2, 3):
                for eta in (0.05, 0.1, 0.5):
                    H = rwa_hamiltonian(RwaQuery(scheme, index), eta, basis).entries
                    for n in range(0, 41):
                        idx = [2 * (n + 1), 2 * n + 1]
                        evals = np.linalg.eigvalsh(H[np.ix_(idx, idx)])
                        for sign, sector in ((-1, evals[0]), (1, evals[1])):
                            closed = rwa_energy(RwaQuery(scheme, index, n=n, sign=sign), eta)
                            worst = max(worst, abs(closed - sector))
        assert worst < 1e-10, f"closed form deviates from sectors by {worst:.3e}"

    run_criterion(6, "rwa_sector_agreement", 30.0, body)


def test_criterion_07_rwa_distance_monotone_in_eta():
    """RWA agreement is best in the Lamb-Dicke limit and worsens as eta grows.

    The comparison is the signed gap f(eta) = E_rwa - E_identity between the
    M=1 rotating-wave branch nearest the order-1 identity curve at
    omega = 0.5 and that curve. The raw distance min |E_rwa - E_identity| is
    |f|, and it cannot measure the eta-driven error, for two reasons that
    follow from the documented formulas alone:

    * At eta = 0 the gap is f(0) = -omega^2/8. The documented M-scheme
      Hamiltonian conserves the excitation number and so has no eps sigma_x
      term; its (0, +) level at eta = 0 is 1 - 2^-1 = 1/2, while the identity
      curve E = 1/2 + eta^2/2 + omega^2/8 starts at 1/2 + omega^2/8. That part
      of the rotating-wave error does not depend on eta.
    * From those formulas, f(eta) = sqrt(eta^2 + 1/4)/2 - eta^2/4 - 9/32 at
      omega = 0.5. It rises from its negative start and vanishes where
      64 eta^4 - 112 eta^2 + 17 = 0, at eta* = sqrt((7 - 4 sqrt 2)/8) ~ 0.4097:
      the branch crosses the curve there, so |f| dips to zero without any
      gain in agreement.

    So the criterion states its two original demands, smallest at
    eta = 0.05 and growing up to eta = 0.5, for the eta-driven departure
    f(eta) - f(0), and checks the offset and the crossing against the values
    derived above.
    """
    omega = 0.5
    ladder = [(n, s) for n in range(7) for s in (1, -1)]

    def gap(branch, eta):
        n, sign = branch
        return rwa_energy(RwaQuery("M", 1, n=n, sign=sign), eta) - energy_identity_case1(
            omega, eta
        )

    def body():
        etas = [round(0.05 * k, 2) for k in range(1, 11)]
        nearest = [min(ladder, key=lambda b: abs(gap(b, eta))) for eta in etas]
        branch = nearest[0]
        f0 = gap(branch, 0.0)
        f = [gap(branch, eta) for eta in etas]
        departures = [v - f0 for v in f]
        print(f"\n    eta   min |E_rwa - E_identity|  f - f(0)  (omega = {omega})")
        for eta, v, dep in zip(etas, f, departures):
            print(f"    {eta:4.2f}  {abs(v):.6f}                  {dep:.6f}")

        assert nearest == [(0, 1)] * len(etas), (
            f"the rotating-wave branch nearest the identity curve is not (0, +) "
            f"on the whole grid: {nearest}"
        )
        assert abs(f0 + omega * omega / 8.0) < 1e-12, (
            f"signed gap at eta = 0 is {f0!r}, not the eta-independent offset -omega^2/8"
        )
        assert departures[0] > 0.0, (
            f"the eta-driven departure f(0.05) - f(0) = {departures[0]:.6f} is not positive"
        )
        assert all(b > a for a, b in zip(departures, departures[1:])), (
            "the eta-driven departure f(eta) - f(0) does not grow strictly from "
            f"eta = 0.05 to 0.5: {[round(d, 6) for d in departures]}"
        )
        changes = [
            (etas[i], etas[i + 1]) for i in range(len(f) - 1) if (f[i] < 0) != (f[i + 1] < 0)
        ]
        assert changes == [(0.40, 0.45)], (
            f"the signed gap must change sign once, between eta = 0.40 and 0.45, "
            f"where the branch crosses the identity curve; sign changes at {changes}"
        )
        lo, hi = changes[0]
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if gap(branch, mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - M1_CROSSING_ETA) < 1e-9, (
            f"the signed gap vanishes at eta = {0.5 * (lo + hi):.12f}, not at the "
            f"derived crossing eta* = {M1_CROSSING_ETA:.12f}"
        )

    run_criterion(7, "rwa_distance_monotone_in_eta", 10.0, body)


def test_rwa_identity_drift_reference_property():
    """Companion to criterion 7 (not a criterion itself): pins its departure values.

    Removing the eta-independent offset — comparing f(eta) = E_rwa - E_identity
    against its zero-coupling value f(0) — gives a drift |f(eta) - f(0)| that
    increases strictly over the same grid: the rotating-wave branch peels away
    from the identity curve monotonically once the constant gap is discounted.
    """
    f0 = rwa_energy(RwaQuery("M", 1, n=0, sign=1), 0.0) - energy_identity_case1(0.5, 0.0)
    drifts = []
    for k in range(1, 11):
        eta = 0.05 * k
        f = rwa_energy(RwaQuery("M", 1, n=0, sign=1), eta) - energy_identity_case1(0.5, eta)
        drifts.append(abs(f - f0))
    assert all(b > a for a, b in zip(drifts, drifts[1:]))
    assert drifts[0] == pytest.approx(0.000622, abs=2e-6)
    assert drifts[-1] == pytest.approx(0.041053, abs=2e-6)


def test_criterion_08_cat_identity_overlap():
    def body():
        basis = FockBasis(100, spin_dim=1)
        for eta in (0.2, 0.5, 0.8, 1.2):
            v = cat_state(eta, basis)
            assert v.meta["identity_overlap"] > 1.0 - 1e-9, (eta, v.meta)
            assert displaced_pair_overlap(eta, basis) > 1.0 - 1e-9, eta

    run_criterion(8, "cat_identity_overlap", 5.0, body)


def test_criterion_09_figure_family(tmp_path):
    def body():
        for omega, scheme_rows in (("0.5", "rwa_eq10"), ("3.0", "rwa_eq12")):
            first = tmp_path / f"fig_{omega}_a.csv"
            second = tmp_path / f"fig_{omega}_b.csv"
            for out in (first, second):
                assert cli_main(["fig", "--omega", omega, "--out", str(out)]) == 0
            assert first.read_bytes() == second.read_bytes(), "emission is not deterministic"
            rows = [
                line.split(",")
                for line in first.read_text().strip().split("\n")[1:]
            ]
            assert len(rows) == 101 * 19
            counts = Counter(r[2] for r in rows)
            assert counts[scheme_rows] == 14 * 101
            assert counts["eq13"] == 101
            assert counts["appendix_a3"] == 2 * 101
            assert counts["appendix_a4"] == 2 * 101
        crossings = json.loads(
            (tmp_path / "fig_0.5_a.csv.crossings.json").read_text()
        )
        reported = [
            c["eta"]
            for c in crossings
            if c["rwa"] == "rwa_eq10[n=0,+]" and c["other"] == "eq13"
        ]
        assert len(reported) == 1 and abs(reported[0] - M1_CROSSING_ETA) < 1e-7, (
            f"fig --omega 0.5 reports rwa_eq10[n=0,+] x eq13 crossings at {reported}, "
            f"not once at the derived eta* = {M1_CROSSING_ETA:.12f}"
        )
        crossings = json.loads(
            (tmp_path / "fig_3.0_a.csv.crossings.json").read_text()
        )
        assert len(crossings) >= 1, "no rotating-wave/series crossing reported at omega=3"

    run_criterion(9, "figure_family_determinism_and_crossings", 60.0, body)


def test_criterion_10_negative_control():
    def body():
        basis = FockBasis(150)
        sols = [
            case1_closed_form(0.2, 0.0, 1),
            case1_closed_form(0.3, 0.1, 1),
            case1_closed_form(0.25, -0.05, -1),
        ] + case2_closed_form(0.5, 0.1)
        assert len(sols) == 7
        for sol in sols:
            sol.energy += 1e-2
            report = validate_series_solution(sol, basis)
            assert not report.passed, "perturbed energy must not validate"
            assert abs(report.eigen_gap - 1e-2) < 1e-3, report.eigen_gap

    run_criterion(10, "negative_control_detects_perturbation", 30.0, body)
