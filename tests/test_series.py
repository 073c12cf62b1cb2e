"""Series recurrences, closed forms, the termination solver, and Fock mapping."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ionseries as ions
from ionseries import oracle, series
from ionseries.errors import (
    BasisMismatchError,
    ConstraintInfeasibleError,
    DegenerateQuadraticError,
    NoSolutionFoundError,
    PoleError,
    SingularRecurrenceError,
    TruncationError,
)
from ionseries.model import FockBasis, ModelParams, build_h_lab
from ionseries.oracle import nearest_level, validate_series_solution
from ionseries.series import (
    QuadraticCoeffs,
    SeriesCoefficients,
    SeriesSolution,
    _affine_conditions,
    appendix_quadratic,
    bargmann_to_fock,
    case1_closed_form,
    case2_closed_form,
    case2_energies,
    energy_identity_case1,
    eq7_residual,
    recurrence_coefficients,
    series_to_fock,
    state_residual,
    terminate_general,
)
from ionseries.states import coherent_state


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------

class TestRecurrence:
    def test_seeds(self):
        p = ModelParams(rabi=0.5, lamb_dicke=0.2, detuning=0.3)
        coeffs = recurrence_coefficients(1.0, 0.1, p, n_max=4, c0=0.2)
        assert coeffs.b[0] == 1.0
        assert coeffs.c[0] == 0.2

    def test_first_step_matches_hand_expansion(self):
        # g = 0.1, eps = -0.15, E = 1, z = 0.1, c0 = 0.2:
        # b1 = ((E + rabi/2 - g^2) c0 + (g z - eps) b0) / g
        # c1 = ((E - rabi/2 - g^2) b0 + (g z - eps) c0) / g
        p = ModelParams(rabi=0.5, lamb_dicke=0.2, detuning=0.3)
        coeffs = recurrence_coefficients(1.0, 0.1, p, n_max=2, c0=0.2)
        b1 = ((1.0 + 0.25 - 0.01) * 0.2 + (0.01 + 0.15) * 1.0) / 0.1
        c1 = ((1.0 - 0.25 - 0.01) * 1.0 + (0.01 + 0.15) * 0.2) / 0.1
        assert coeffs.b[1] == pytest.approx(b1, rel=1e-15)
        assert coeffs.c[1] == pytest.approx(c1, rel=1e-15)

    def test_zero_coupling_is_singular(self):
        p = ModelParams(rabi=0.5, lamb_dicke=0.0, detuning=0.3)
        with pytest.raises(SingularRecurrenceError):
            recurrence_coefficients(1.0, 0.0, p, n_max=4, c0=0.0)

    def test_n_max_floor(self):
        p = ModelParams(rabi=0.5, lamb_dicke=0.2, detuning=0.3)
        with pytest.raises(ValueError):
            recurrence_coefficients(1.0, 0.1, p, n_max=1, c0=0.0)

    def test_coefficient_container_validation(self):
        with pytest.raises(ValueError):
            SeriesCoefficients(b=np.ones(3), c=np.ones(4), z=0.0)
        with pytest.raises(ValueError):
            SeriesCoefficients(b=np.array([np.nan]), c=np.ones(1), z=0.0)

    def test_rank_two_dependency_identity(self, rng):
        # at E = N + branch*eps and z = branch*g the three tail residuals obey
        # g (N+1) (b_{N+1} + branch*c_{N+1}) = (rabi/2)(c_N - branch*b_N)
        # for every parameter draw — the structural reason the residual system
        # has rank 2 and the solution sets are curves, not points
        for _ in range(200):
            rabi = float(rng.uniform(0.05, 4.0))
            eta = float(rng.uniform(0.05, 2.5))
            eps = float(rng.uniform(-2.0, 2.0))
            c0 = float(rng.uniform(-2.0, 2.0))
            order = int(rng.integers(1, 7))
            branch = 1 if rng.integers(0, 2) == 0 else -1
            g = eta / 2.0
            p = ModelParams(rabi=rabi, lamb_dicke=eta, detuning=-2.0 * eps)
            E = order + branch * eps
            coeffs = recurrence_coefficients(E, branch * g, p, n_max=order + 1, c0=c0)
            lhs = g * (order + 1) * (coeffs.b[order + 1] + branch * coeffs.c[order + 1])
            rhs = (rabi / 2.0) * (coeffs.c[order] - branch * coeffs.b[order])
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) < 1e-10 * scale


# ---------------------------------------------------------------------------
# order-1 closed form
# ---------------------------------------------------------------------------

class TestCase1:
    def test_anchor_point(self):
        sol = case1_closed_form(0.2, 0.0, 1)
        assert sol.params.rabi == pytest.approx(2.0 * math.sqrt(0.96), rel=1e-15)
        assert sol.params.rabi == pytest.approx(1.9595917942265424, rel=1e-15)
        assert sol.energy == 1.0
        assert sol.c0 == pytest.approx(1.0414497092755294e-4, rel=1e-12)
        assert sol.coeffs.b[1] == pytest.approx(0.10205144336438075, rel=1e-9)
        assert sol.termination_residual < 1e-12

    def test_first_coefficient_matches_direct_formula(self):
        # b1 = [(1 + rabi/2 - g^2 + eps) c0 + (g^2 - eps)] / g on the plus branch
        sol = case1_closed_form(0.2, 0.0, 1)
        g, eps, rabi = 0.1, 0.0, sol.params.rabi
        b1 = ((1.0 + rabi / 2.0 - g * g + eps) * sol.c0 + (g * g - eps)) / g
        assert sol.coeffs.b[1] == pytest.approx(b1, abs=1e-12)

    def test_minus_branch_terminates_too(self):
        sol = case1_closed_form(0.25, -0.05, -1)
        assert sol.params.rabi == pytest.approx(2.0371548787463363, rel=1e-14)
        assert sol.energy == pytest.approx(1.05, abs=1e-15)
        assert sol.termination_residual < 1e-12

    def test_branch_strings_accepted(self):
        a = case1_closed_form(0.2, 0.05, "+")
        b = case1_closed_form(0.2, 0.05, 1)
        assert a.params.rabi == b.params.rabi
        with pytest.raises(ValueError):
            case1_closed_form(0.2, 0.05, 2)

    def test_infeasible_raises(self):
        with pytest.raises(ConstraintInfeasibleError):
            case1_closed_form(0.5, -0.5, 1)  # 1 + 2*eps - eta^2 = -0.25

    def test_zero_eta_is_singular(self):
        with pytest.raises(SingularRecurrenceError):
            case1_closed_form(0.0, 0.1, 1)

    def test_energy_identity_and_implied_detuning_roundtrip(self):
        """E = 1 + branch*eps turns the identity's energy back into the eps solved at."""
        for branch in (1, -1):
            sol = case1_closed_form(0.3, 0.1, branch)
            energy = energy_identity_case1(sol.params.rabi, 0.3)
            assert energy == pytest.approx(sol.energy, abs=1e-13)
            assert branch * (energy - 1.0) == pytest.approx(sol.params.eps, abs=1e-13)
            assert sol.params.eps == pytest.approx(0.1, abs=1e-15)

    def test_small_coupling_asymptotics(self):
        # at eps = 0 the exact formulas give c0 -> g^4 and b1 -> +g as eta -> 0
        devs_c0, devs_b1 = [], []
        for eta in (0.2, 0.05, 0.01):
            sol = case1_closed_form(eta, 0.0, 1)
            g = eta / 2.0
            devs_c0.append(abs(sol.c0 / g**4 - 1.0))
            devs_b1.append(abs(sol.coeffs.b[1] / g - 1.0))
        assert devs_c0[0] > devs_c0[1] > devs_c0[2]
        assert devs_b1[0] > devs_b1[1] > devs_b1[2]
        assert devs_c0[-1] < 2e-4 and devs_b1[-1] < 1e-4

    def test_vanishing_denominator_is_a_pole(self):
        # eta = 2^-20 and eps = (eta^2 - 1)/2 make the radicand exactly 0 (rabi = 0)
        # and 1 + rabi/2 + 2*eps - 2g^2 exactly 2^-41, below POLE_TOL
        with pytest.raises(PoleError, match="order-1 coefficient denominator") as exc_info:
            case1_closed_form(2.0**-20, (2.0**-40 - 1.0) / 2.0, 1)
        assert exc_info.value.value == 2.0**-41


# ---------------------------------------------------------------------------
# order-2 quadratic and closed form
# ---------------------------------------------------------------------------

class TestQuadratic:
    def test_anchor_coefficients(self):
        q = appendix_quadratic(0.5, 0.1)
        assert q.A == pytest.approx(7.98, abs=0.0)
        assert q.B == pytest.approx(11.556037499999999, rel=1e-15)
        assert q.C == pytest.approx(3.633287765625, rel=1e-15)
        assert q.discriminant == pytest.approx(17.567457222656202, rel=1e-14)

    def test_exact_rational_recomputation(self):
        # independent evaluation of the same polynomials in exact arithmetic
        g2 = Fraction(1, 400)  # (eta/2)^2 at eta = 1/10
        W2 = Fraction(1, 4)  # rabi^2 at rabi = 1/2
        A = 8 * (1 - g2)
        B = 12 - 28 * g2 + 16 * g2**2 - Fraction(3, 2) * W2 * (1 - g2)
        C = (
            4 - 24 * g2 + 28 * g2**2 - 8 * g2**3
            - Fraction(5, 4) * W2 + Fraction(11, 4) * W2 * g2
            - Fraction(3, 2) * W2 * g2**2 + (W2**2 / 16) * (1 - g2)
        )
        q = appendix_quadratic(0.5, 0.1)
        assert q.A == pytest.approx(float(A), rel=1e-15)
        assert q.B == pytest.approx(float(B), rel=1e-15)
        assert q.C == pytest.approx(float(C), rel=1e-15)
        assert q.discriminant == pytest.approx(float(B * B - 4 * A * C), rel=1e-12)

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DegenerateQuadraticError):
            appendix_quadratic(0.5, 2.0)  # g = 1

    def test_zero_coupling_limit_roots(self):
        # as eta -> 0 the roots tend to the decoupled values -15/32 and -63/64,
        # and the discriminant tends to the perfect square (4 + rabi^2/2)^2
        q = appendix_quadratic(0.5, 1e-9)
        root = math.sqrt(q.discriminant)
        xs = sorted([(-q.B + root) / (2 * q.A), (-q.B - root) / (2 * q.A)])
        assert xs[0] == pytest.approx(-0.984375, abs=1e-8)
        assert xs[1] == pytest.approx(-0.46875, abs=1e-8)
        assert math.sqrt(q.discriminant) == pytest.approx(4.125, abs=1e-8)

    def test_discriminant_nonnegative_over_domain(self, rng):
        # no real parameter draw has ever produced a negative discriminant;
        # pin that observation (the empty-solution branch stays defensive)
        for _ in range(500):
            rabi = float(rng.uniform(0.0, 6.0))
            eta = float(rng.uniform(1e-3, 5.9))
            if abs(eta - 2.0) < 1e-6:
                continue
            q = appendix_quadratic(rabi, eta)
            assert q.discriminant >= -1e-12 * max(1.0, q.B * q.B)


class TestCase2:
    def test_four_solutions_and_energy_set(self):
        sols = case2_closed_form(0.5, 0.1)
        assert len(sols) == 4
        assert [s.branch for s in sols] == [1, 1, -1, -1]
        energies = sorted(s.energy for s in sols)
        # the two branches produce the same energy pair
        assert energies[0] == pytest.approx(energies[1], abs=1e-12)
        assert energies[2] == pytest.approx(energies[3], abs=1e-12)
        assert energies[0] == pytest.approx(1.0158212682924952, rel=1e-12)
        assert energies[2] == pytest.approx(1.5410537317075048, rel=1e-12)
        for s in sols:
            assert s.termination_residual < 1e-11
            assert s.energy == pytest.approx(2 + s.branch * (-s.params.detuning / 2), abs=1e-12)

    def test_branch_mirror_symmetry(self):
        # the minus branch's eps values are the negatives of the plus branch's
        sols = case2_closed_form(0.5, 0.1)
        eps = [-s.params.detuning / 2.0 for s in sols]
        assert sorted(eps[:2]) == pytest.approx(sorted(-e for e in eps[2:]), rel=1e-12)

    def test_branch_filter(self):
        sols = case2_closed_form(0.5, 0.1, branches=(1,))
        assert len(sols) == 2
        assert all(s.branch == 1 for s in sols)

    def test_anchor_c0_values(self):
        sols = case2_closed_form(0.5, 0.1)
        assert sols[0].c0 == pytest.approx(-1.0668702653118762, rel=1e-10)
        assert sols[1].c0 == pytest.approx(-0.7766830076643713, rel=1e-10)

    def test_zero_eta_rejected(self):
        with pytest.raises(SingularRecurrenceError):
            case2_closed_form(0.5, 0.0)

    def test_flat_c0_condition_is_a_pole(self):
        # d(c_2 - b_2)/dc0 changes sign at a plus-branch root between these two
        # neighbouring floats (bisection in rabi at eta = 0.5); at either, c0 is
        # undetermined
        for rabi in (0.4221806717057348, 0.42218067170573487):
            with pytest.raises(PoleError, match="c0 determination degenerate") as exc_info:
                case2_closed_form(rabi, 0.5)
            assert exc_info.value.value < 1e-14


def fig_order2_energies(omega, eta):
    """The order-2 energies as the fig command derived them before case2_energies."""
    try:
        q2 = series.appendix_quadratic(omega, eta)
    except DegenerateQuadraticError:
        return None
    if q2.discriminant < 0:
        return None
    g2 = (eta / 2.0) ** 2
    root = math.sqrt(q2.discriminant)
    xs = [(-q2.B + root) / (2 * q2.A), (-q2.B - root) / (2 * q2.A)]
    ys = [(q2.B + root) / (2 * q2.A), (q2.B - root) / (2 * q2.A)]
    return {1: tuple(2.0 + g2 + x for x in xs), -1: tuple(2.0 + g2 - y for y in ys)}


def hex_energies(energies):
    if energies is None:
        return None
    return {branch: [e.hex() for e in pair] for branch, pair in energies.items()}


class TestCase2Energies:
    def test_bit_identical_to_fig_formula(self):
        rng = np.random.default_rng(5)
        draws = [(float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.0, 4.0))) for _ in range(2000)]
        draws += [(0.5, 0.0), (3.0, 0.0), (0.5, 2.0), (3.0, 2.0)]
        for omega, eta in draws:
            assert hex_energies(case2_energies(omega, eta)) == hex_energies(
                fig_order2_energies(omega, eta)
            ), (omega, eta)
        assert case2_energies(0.5, 2.0) is None  # g = 1
        assert case2_energies(3.0, 2.0) is None

    def test_negative_discriminant_gives_none(self, monkeypatch):
        # For real parameters the discriminant is (g^2 - 1)^2 (W^4 + 16 W^2 +
        # 1024 g^2 + 64) / 4 >= 0, so random quadratics are injected to reach
        # the negative branch; both formulas must agree bit for bit on each.
        rng = np.random.default_rng(11)
        negative = 0
        for _ in range(400):
            A, B, C = (float(v) for v in rng.uniform(-5.0, 5.0, 3))
            q = QuadraticCoeffs(A=A, B=B, C=C, discriminant=B * B - 4.0 * A * C)
            monkeypatch.setattr(series, "appendix_quadratic", lambda rabi, eta, q=q: q)
            eta = float(rng.uniform(0.0, 3.0))
            got = case2_energies(0.7, eta)
            assert hex_energies(got) == hex_energies(fig_order2_energies(0.7, eta))
            if q.discriminant < 0:
                negative += 1
                assert got is None
                assert case2_closed_form(0.7, eta + 0.1) == []
        assert negative > 100

    def test_matches_closed_form_energy_sets(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            omega, eta = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.05, 1.5))
            try:
                sols = case2_closed_form(omega, eta)
            except PoleError:
                continue
            energies = case2_energies(omega, eta)
            for branch in (1, -1):
                closed = [s.energy for s in sols if s.branch == branch]
                assert closed == pytest.approx(list(energies[branch]), abs=1e-12)
            checked += 1
        assert checked > 250


class TestEq7Residual:
    def test_vanishes_at_closed_form_roots(self):
        for sol in case2_closed_form(0.5, 0.1):
            eps = -sol.params.detuning / 2.0
            assert eq7_residual(0.5, 0.1, eps, sol.branch) < 1e-12

    def test_grows_off_the_constraint(self):
        for sol in case2_closed_form(0.5, 0.1):
            eps = -sol.params.detuning / 2.0
            assert eq7_residual(0.5, 0.1, eps + 0.01, sol.branch) > 1e-4

    def test_pole_detection(self):
        # both determinations of c0 have real poles in eps; values located by
        # bracketing the slope sign change at (rabi, eta) = (0.5, 0.1), branch +
        with pytest.raises(PoleError):
            eq7_residual(0.5, 0.1, -1.2994192987612974, 1)
        with pytest.raises(PoleError):
            eq7_residual(0.5, 0.1, -1.3576390931165485, 1)

    def test_pole_error_carries_location(self):
        with pytest.raises(PoleError) as exc_info:
            eq7_residual(0.5, 0.1, -1.2994192987612974, 1)
        assert "eps" in exc_info.value.location
        assert exc_info.value.value < 1e-10

    def test_zero_eta_rejected(self):
        with pytest.raises(SingularRecurrenceError):
            eq7_residual(0.5, 0.0, -0.5, 1)

    def test_affine_conditions_are_affine(self):
        # the probe construction assumes exactness of the affine model in c0;
        # verify with a third probe point
        t0, ts, u0, us = _affine_conditions(2, 1, 0.5, 0.05, -0.3)
        coeffs = recurrence_coefficients(2 - 0.3, 0.05, ModelParams(0.5, 0.1, 0.6), 3, 2.0)
        b2v, c2v = coeffs.b, coeffs.c
        assert c2v[2] - b2v[2] == pytest.approx(t0 + 2.0 * ts, rel=1e-12)
        assert b2v[3] == pytest.approx(u0 + 2.0 * us, rel=1e-12)


# ---------------------------------------------------------------------------
# general-order numerical solver
# ---------------------------------------------------------------------------

class TestTerminateGeneral:
    def test_recovers_order1_anchor_with_pinned_eps(self):
        anchor = case1_closed_form(0.2, 0.0, 1)
        sol = terminate_general(
            1, 1, 0.2, guess=(anchor.params.rabi + 0.03, 0.0, anchor.c0 + 0.01), fix="eps"
        )
        assert abs(sol.params.rabi - anchor.params.rabi) < 1e-8
        assert abs(sol.c0 - anchor.c0) < 1e-8
        assert sol.jacobian_rank == 2
        assert abs(nearest_level(sol.params, 150, sol.energy) - sol.energy) < 1e-6

    def test_recovers_order2_anchor_with_pinned_rabi(self):
        anchor = case2_closed_form(0.5, 0.1)[0]
        eps = -anchor.params.detuning / 2.0
        sol = terminate_general(
            2, 1, 0.1, guess=(0.5, eps + 0.02, anchor.c0 + 0.02), fix="rabi"
        )
        assert abs(-sol.params.detuning / 2.0 - eps) < 1e-8
        assert abs(sol.c0 - anchor.c0) < 1e-8

    @pytest.mark.parametrize(
        "order, branch, eta, guess, fix",
        [
            (3, 1, 0.3, (1.0, 0.2, -1.0), "eps"),
            (1, 1, 0.2, (1.0, 0.2, 0.25), "eps"),
            (1, 1, 0.2, (1.5, -0.6, 0.5), "rabi"),
            (1, -1, 0.3, (1.0, -0.2, -0.25), "eps"),
        ],
    )
    def test_pinned_entry_keeps_its_guess(self, order, branch, eta, guess, fix):
        # the guess itself fails and a jittered start converges, which returned
        # the jittered value of the pinned entry when the jitter reached it too
        sol = terminate_general(order, branch, eta, guess=guess, fix=fix)
        if fix == "rabi":
            assert sol.params.rabi == guess[0]
        else:
            assert -sol.params.detuning / 2.0 == guess[1]
            assert sol.params.rabi > 1.0  # a driven point, not the undriven ion

    @pytest.mark.parametrize("order, branch, eta, guess", [
        (3, 1, 0.3, (0.5, 0.2, -1.0)),
        (1, 1, 0.2, (0.5, 0.2, 0.5)),
        (1, -1, 0.3, (1.5, -0.2, -1.0)),
        (3, -1, 0.3, (0.8, -0.3, 1.0)),
    ])
    def test_undriven_ion_is_rejected(self, order, branch, eta, guess):
        """At rabi = 0, E = N + branch*eps solves the system for every eps, so
        these starts all slide to rabi near 0, which is rejected as out of domain."""
        with pytest.raises(NoSolutionFoundError) as exc_info:
            terminate_general(order, branch, eta, guess=guess, fix="eps")
        assert exc_info.value.residual_trace == [math.inf] * 8

    def test_order3_solution_from_heuristic_starts(self):
        sol = terminate_general(3, 1, 0.3)
        assert sol.order == 3
        assert sol.termination_residual < 1e-9
        assert sol.energy == pytest.approx(3 - sol.params.detuning / 2.0, abs=1e-12)
        assert sol.jacobian_rank == 2
        assert abs(nearest_level(sol.params, 150, sol.energy) - sol.energy) < 1e-6

    def test_input_with_rounding_level_stalls_is_solved(self):
        """On (8, -1, 0.2449) six of the eight starts stall at max|F| between 2.6e-10
        and 5.4e-9, the first at 1.7e-9, which the former coefficient bound 1e-10
        refused. The first start's point has state residual 1.5e-16 and passes
        the oracle."""
        sol = terminate_general(8, -1, 0.2449)
        assert sol.termination_residual >= 1e-10
        assert state_residual(sol) < 1e-12
        assert validate_series_solution(sol, FockBasis(150)).passed

    def test_solver_runs_no_dense_eigensolve(self, monkeypatch):
        """The state residual is the solver's only energy check: it builds no
        matrix. The dense gap of its point is one eigvalsh, run by the caller."""
        calls = []
        eigensystem, build = oracle.hermitian_eigensystem, oracle.build_h_transformed
        monkeypatch.setattr(oracle, "hermitian_eigensystem",
                            lambda *a, **k: calls.append("eig") or eigensystem(*a, **k))
        monkeypatch.setattr(oracle, "build_h_transformed",
                            lambda *a, **k: calls.append("build") or build(*a, **k))
        sol = terminate_general(3, 1, 0.3)
        assert calls == []
        gap = abs(nearest_level(sol.params, 150, sol.energy) - sol.energy)
        assert gap.hex() == "0x1.aa00000000000p-44"
        assert calls == ["build", "eig"]

    def test_no_convergence_reports_trace(self):
        """Two inputs with no termination point, at eta = 0.3 and eps = -2 pinned.

        Order 1: rabi^2 = 4(1 + 2 eps - eta^2) = -12.36 has no real root
        (``case1_closed_form`` refuses it). Order 3: eliminating c0 from the two
        affine conditions leaves -rabi q(rabi^2) / (18432 g^7) with
        q(y) = y^3 + 42.16 y^2 + 572.6256 y + 2520.971136, whose coefficients
        are all positive, so q has no root y >= 0 (its roots are -19.0, -12.7
        and -10.4) and only the undriven rabi = 0 solves it. The test checks q
        against the conditions at a few rabi.
        """
        g, eps = 0.15, -2.0
        with pytest.raises(ConstraintInfeasibleError):
            case1_closed_form(2.0 * g, eps, 1)
        for rabi in (0.1, 1.0, 3.0, 10.0):
            t0, t_slope, u0, u_slope = _affine_conditions(3, 1, rabi, g, eps)
            y = rabi * rabi
            q = ((y + 42.16) * y + 572.6256) * y + 2520.971136
            assert t0 * u_slope - t_slope * u0 == pytest.approx(-rabi * q / (18432 * g**7),
                                                                rel=1e-9)
        for order in (1, 3):
            with pytest.raises(NoSolutionFoundError) as exc_info:
                terminate_general(order, 1, 2.0 * g, guess=(1.0, eps, 0.0), fix="eps")
            trace = exc_info.value.residual_trace
            assert len(trace) == 8
            assert all(isinstance(t, float) for t in trace)

    @pytest.mark.parametrize("args, kwargs", [
        ((3, 1, 0.3), {"guess": (1e200, 1e200, 1e200)}),
        ((3, 1, 0.3), {"guess": (1e100, 0.5, 1.0)}),
        ((8, 1, 1e-60), {}),
    ], ids=["overflowing-guess", "overflowing-rabi", "nan-residual"])
    def test_non_finite_starts_end_in_the_typed_error(self, capfd, args, kwargs):
        """A start whose residual or Jacobian is not finite ends before lstsq,
        so neither numpy's LinAlgError nor LAPACK's stdout message appears."""
        with np.errstate(all="ignore"), pytest.raises(NoSolutionFoundError) as exc_info:
            terminate_general(*args, **kwargs)
        assert len(exc_info.value.residual_trace) == 8
        assert not any(t < 1e-10 for t in exc_info.value.residual_trace)
        assert "DLASCL" not in capfd.readouterr().out

    @pytest.mark.parametrize("columns", [2, 3])
    def test_step_is_numpy_lstsq_bit_for_bit(self, columns):
        """The solver's step, the ``dgelsd`` gufunc on the solver's buffers, is
        ``np.linalg.lstsq(J, -F, rcond=None)[0]`` bit for bit: on seeded systems
        that are well posed, rank deficient, near singular, badly scaled or zero."""
        rng = np.random.default_rng(columns)
        systems = [np.zeros((3, columns))]
        for _ in range(40):
            J = rng.standard_normal((3, columns))
            deficient, near = J.copy(), J.copy()
            deficient[:, -1] = 2.0 * J[:, 0]
            near[:, -1] = J[:, 0] + 1e-13 * rng.standard_normal(3)
            scaled = J * 10.0 ** rng.integers(-12, 13, size=columns)
            systems += [J, deficient, near, scaled]
        for J in systems:
            F = rng.standard_normal(3)
            rhs = np.empty((3, 1))
            rhs[:, 0] = np.negative(F)
            with np.errstate(**series._LSTSQ_ERRSTATE):
                step = series._lstsq_step(J, rhs)
            reference = np.linalg.lstsq(J, np.negative(F), rcond=None)[0]
            assert np.array(step).tobytes() == reference.tobytes()

    def test_failed_step_raises_linalg_error(self, monkeypatch):
        """The step runs under ``np.linalg.lstsq``'s error state, so a gufunc that
        flags an invalid result raises LinAlgError out of the solver, as the
        wrapper's "SVD did not converge" does."""
        def flagging(J, rhs, rcond, signature):
            np.sqrt(np.full(1, -1.0))  # sets the invalid flag
            return (np.full((J.shape[1], 1), np.nan),)

        monkeypatch.setattr(series, "_lstsq", flagging)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            terminate_general(3, 1, 0.3)

    def test_rank_deficient_point_is_rejected(self):
        """At eps = 1e100, E + rabi/2 - g^2 rounds to eps, so b_1 = c_1 = 0 exactly
        and every start "converges" with residual 0 but Jacobian rank 0."""
        with pytest.raises(NoSolutionFoundError) as exc_info:
            terminate_general(3, 1, 0.3, guess=(0.5, 1e100, 1.0), fix="eps")
        assert exc_info.value.residual_trace == [math.inf] * 8

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            terminate_general(0, 1, 0.3)
        with pytest.raises(SingularRecurrenceError):
            terminate_general(2, 1, 0.0)
        with pytest.raises(ValueError):
            terminate_general(2, 1, 0.3, fix="eps")  # fix without a guess
        with pytest.raises(ValueError):
            terminate_general(2, 1, 0.3, guess=(0.5, -0.5, 0.0), fix="c0")


# ---------------------------------------------------------------------------
# zero coupling
# ---------------------------------------------------------------------------

class TestZeroCoupling:
    @pytest.mark.parametrize("rabi, eps", [(0.5, 0.3), (0.5, 0.0), (1.2, -0.4)])
    def test_named_route_gives_levels_n_plus_minus_r(self, rabi, eps):
        """The eta = 0 refusal names build_h_lab, whose levels are exactly n +/- R."""
        with pytest.raises(SingularRecurrenceError, match="build_h_lab"):
            recurrence_coefficients(1.0, 0.0, ModelParams(rabi, 0.0, -2 * eps), 4, 0.0)
        with pytest.raises(SingularRecurrenceError, match="build_h_lab"):
            case1_closed_form(0.0, eps, 1)
        basis = FockBasis(cutoff=12, spin_dim=2)
        spec = oracle.hermitian_eigensystem(
            build_h_lab(ModelParams(rabi, 0.0, -2 * eps), basis), True)
        R = math.sqrt(eps * eps + rabi * rabi / 4.0)
        n = np.arange(12.0)
        np.testing.assert_allclose(spec.eigenvalues, np.sort(np.concatenate([n - R, n + R])),
                                   rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# Bargmann -> Fock mapping
# ---------------------------------------------------------------------------

class TestBargmannToFock:
    def test_constant_polynomial_zero_shift_is_vacuum(self):
        v = bargmann_to_fock([1.0], 0.0, FockBasis(cutoff=40, spin_dim=1))
        assert v[0] == pytest.approx(1.0, rel=1e-14)
        assert np.max(np.abs(v[1:])) < 1e-14

    def test_constant_polynomial_with_shift_is_coherent(self):
        basis = FockBasis(cutoff=40, spin_dim=1)
        v = bargmann_to_fock([1.0], 0.3, basis)
        v = v / np.linalg.norm(v)
        target = coherent_state(-0.3, basis)
        assert abs(np.vdot(target.amplitudes, v)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_monomial_is_first_excited(self):
        v = bargmann_to_fock([0.0, 1.0], 0.0, FockBasis(cutoff=40, spin_dim=1))
        assert v[1] == pytest.approx(1.0, rel=1e-14)
        assert np.max(np.abs(np.delete(v, 1))) < 1e-14

    def test_degree_overflow(self):
        with pytest.raises(TruncationError):
            bargmann_to_fock(np.ones(10), 0.0, FockBasis(cutoff=8, spin_dim=1))


class TestSeriesToFock:
    def test_requires_spin_basis(self):
        sol = case1_closed_form(0.2, 0.0, 1)
        with pytest.raises(BasisMismatchError, match="series_to_fock requires spin_dim = 2"):
            series_to_fock(sol, FockBasis(cutoff=100, spin_dim=1))

    def test_requires_headroom(self):
        sol = case1_closed_form(0.2, 0.0, 1)
        with pytest.raises(TruncationError):
            series_to_fock(sol, FockBasis(cutoff=10, spin_dim=2))
        # order + 10 levels: the coherent column must fit below level 0
        with pytest.raises(TruncationError, match="levels 0 and up"):
            series_to_fock(sol, FockBasis(cutoff=11, spin_dim=2))

    def test_output_is_normalized_with_small_tail(self):
        sol = case1_closed_form(0.2, 0.0, 1)
        state = series_to_fock(sol, FockBasis(cutoff=100, spin_dim=2))
        assert abs(state.norm - 1.0) < 1e-12
        assert state.tail_mass() < 1e-8
        # both internal components are populated
        assert np.linalg.norm(state.amplitudes[0::2]) > 0
        assert np.linalg.norm(state.amplitudes[1::2]) > 0


class TestSeriesSolutionInvariants:
    def test_energy_must_match_order_and_branch(self):
        good = case1_closed_form(0.2, 0.0, 1)
        with pytest.raises(ValueError):
            SeriesSolution(
                order=1,
                branch=1,
                params=good.params,
                energy=1.23,
                coeffs=good.coeffs,
                termination_residual=0.0,
            )

    def test_order_floor(self):
        good = case1_closed_form(0.2, 0.0, 1)
        with pytest.raises(ValueError):
            SeriesSolution(
                order=0,
                branch=1,
                params=good.params,
                energy=0.0,
                coeffs=good.coeffs,
                termination_residual=0.0,
            )
