"""Terminated coherent-state (Bargmann) series eigensolutions.

In the Bargmann representation the transformed Hamiltonian acts on pairs of
analytic functions of one complex variable alpha (one function per internal
level), with the ladder operators realized as multiplication by alpha and
d/d alpha. Writing each component as ``exp(-z*alpha)`` times a power series with
coefficients ``b_n`` (upper level) and ``c_n`` (lower level) turns the eigenvalue
problem into a pair of coupled two-step recurrences. For special parameter
combinations the series terminates at a finite order N: the eigenvalue is then
exactly ``E = N + branch*eps`` with ``z = branch*g``, and the surviving
polynomial maps to a finite superposition of displaced Fock states.

This module implements those recurrences, the closed forms for termination
orders 1 and 2, the constraint quadratic behind order 2, the energy identity
shared by both order-1 branches, a numerical solver for general termination
order, the zero-coupling special case, and the conversion from Bargmann
polynomials to Fock-space vectors.

Termination structure used throughout: requesting ``b_n = c_n = 0`` for all
``n > N`` reduces (by the recurrences' two-step memory) to three residuals
``(b_{N+1}, c_{N+1}, c_N - branch*b_N)``. At the exact energy these three have
rank 2 — combining the two recurrences at step N gives
``g(N+1)(b_{N+1} +/- c_{N+1}) = (rabi/2)(c_N -/+ b_N)`` — so the independent
pair ``(c_N - branch*b_N, b_{N+1})`` characterizes the constraint manifold,
which at fixed lamb_dicke is a one-dimensional curve in (rabi, eps, c0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import (
    ConstraintInfeasibleError,
    DegenerateCaseError,
    DegenerateQuadraticError,
    NoSolutionFoundError,
    PoleError,
    SingularRecurrenceError,
    TruncationError,
)
from .model import FockBasis, ModelParams, _displacement_entries, _require_spin
from .states import StateVector, _within_tail_budget

__all__ = [
    "SeriesCoefficients",
    "SeriesSolution",
    "QuadraticCoeffs",
    "SpecialCaseSolution",
    "recurrence_coefficients",
    "case1_closed_form",
    "energy_identity_case1",
    "appendix_quadratic",
    "case2_closed_form",
    "case2_energies",
    "eq7_residual",
    "terminate_general",
    "state_residual",
    "special_case_small_eta",
    "series_to_fock",
    "bargmann_to_fock",
]

#: Relative denominator floor below which rational constraint forms raise
#: PoleError: a denominator is "at a pole" when it is this small compared to
#: the corresponding numerator scale (with an absolute floor of 1).
POLE_TOL = 1e-12


def _at_pole(denominator: float, numerator: float) -> bool:
    return abs(denominator) < POLE_TOL * max(1.0, abs(numerator))


def _norm_branch(branch) -> int:
    """Normalize 1, "+", "+1" or "plus" to +1, and their minus forms to -1."""
    if branch in (1, "+", "+1", "plus"):
        return 1
    if branch in (-1, "-", "-1", "minus"):
        return -1
    raise ValueError(f"branch must be +1 or -1 (or '+'/'-'), got {branch!r}")


def _branch_mark(branch: int) -> str:
    """The ``+``/``-`` label of a branch, as the CLI documents print it."""
    return "+" if branch == 1 else "-"


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------

@dataclass
class SeriesCoefficients:
    """Series coefficients b_0..b_nmax (upper level) and c_0..c_nmax (lower level).

    ``z`` is the exponential prefactor parameter. b_0 = 1 is the normalization
    convention.
    """

    b: np.ndarray
    c: np.ndarray
    z: float

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if self.b.shape != self.c.shape or self.b.ndim != 1:
            raise ValueError("b and c must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.c))):
            raise ValueError("series coefficients must be finite")


def _roll_recurrence(
    E: float, z: float, rabi: float, g: float, eps: float, c0: float, n_max: int,
    b: Optional[list] = None, c: Optional[list] = None,
) -> Tuple[float, float, float, float]:
    """Run the two coupled recurrences for n = 0..n_max-1, keeping two steps.

    Seeds: b_0 = 1, c_0 = c0, and both coefficients vanish at negative index.
    Returns (b_{n_max-1}, c_{n_max-1}, b_{n_max}, c_{n_max}); when lists ``b``
    and ``c`` are given, b_1..b_{n_max} and c_1..c_{n_max} are appended to them.
    The arguments must be Python floats (n_max an int): they round exactly as
    float64 arrays do. The hoisted invariants keep the left-to-right
    evaluation order of the full expressions, and the step index n is kept as
    a float, which is exact and lets every operation run float by float.
    """
    e_up = E + rabi / 2.0
    e_down = E - rabi / 2.0
    gg = g * g
    shift = g * z - eps
    b_prev = c_prev = 0.0
    b_n, c_n = 1.0, c0
    n = 0.0
    for _ in range(n_max):
        n_next = n + 1.0
        denom = g * n_next
        b_next = ((e_up - n - gg) * c_n + shift * b_n - g * b_prev + z * c_prev) / denom
        c_next = ((e_down - n - gg) * b_n + shift * c_n - g * c_prev + z * b_prev) / denom
        b_prev = b_n
        c_prev = c_n
        b_n = b_next
        c_n = c_next
        n = n_next
        if b is not None:
            b.append(b_n)
            c.append(c_n)
    return b_prev, c_prev, b_n, c_n


def recurrence_coefficients(
    E: float, z: float, p: ModelParams, n_max: int, c0: float
) -> SeriesCoefficients:
    """Run the coupled series recurrences for n = 0..n_max-1.

    Requires g = lamb_dicke/2 > 0 (the update divides by g) and n_max >= 2.
    """
    if p.g == 0:
        raise SingularRecurrenceError(
            "lamb_dicke = 0 makes the recurrence singular; "
            "use special_case_small_eta for the zero-coupling regime"
        )
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    b, c = [1.0], [float(c0)]
    _roll_recurrence(float(E), float(z), p.rabi, p.g, p.eps, c[0], int(n_max), b, c)
    return SeriesCoefficients(b=b, c=c, z=float(z))


def _termination_residual(b: np.ndarray, c: np.ndarray, order: int, branch: int) -> float:
    return float(
        max(abs(b[order + 1]), abs(c[order + 1]), abs(c[order] - branch * b[order]))
    )


def _shifted_norm2(p: list, q: list, z: float) -> float:
    """``||P(a^dagger)|-z>||^2 + ||Q(a^dagger)|-z>||^2`` = sum_m m! (s_m^2 + t_m^2),
    with s_m and t_m the coefficients of P and Q in powers of (alpha + z).

    The shift is repeated synthetic division by (alpha + z), in place on the
    equal-length lists ``p`` and ``q`` (lowest degree first);
    (a^dagger + z)^m |-z> is D(-z) sqrt(m!) |m>, so the shifted powers are
    orthogonal.
    """
    r = -z
    deg = len(p) - 1
    for k in range(deg):
        for j in range(deg - 1, k - 1, -1):
            p[j] += r * p[j + 1]
            q[j] += r * q[j + 1]
    total, fact = 0.0, 1.0
    for m in range(deg + 1):
        if m:
            fact *= m
        total += fact * (p[m] * p[m] + q[m] * q[m])
    return total


def _state_residual(
    level: float, branch: int, g: float, z: float, rabi: float, eps: float, c0: float
) -> float:
    """``||(H_I - E) psi|| / ||psi||`` of the order-``level`` series state at (rabi, eps, c0).

    psi = exp(-z*alpha) (P_b(alpha)|up> + P_c(alpha)|down>) keeps b_0..b_N and
    c_0..c_N, with E = N + branch*eps and z = branch*g. In the Bargmann form
    a^dagger -> alpha, a -> d/dalpha, H_I - E sends it to exp(-z*alpha) times
    a polynomial. Its coefficient of alpha^n for n < N is the recurrence step
    that produced b_{n+1} or c_{n+1}, so it vanishes. At alpha^N the step
    lacks the dropped g(N+1)c_{N+1} (upper level) or g(N+1)b_{N+1} (lower
    level). At alpha^{N+1} only alpha*d/dalpha acting on exp(-z*alpha), which
    gives -z*alpha, and the coupling g*alpha*sigma_x reach: g*c_N - z*b_N on
    the upper level and g*b_N - z*c_N on the lower one. With
    d = c_N - branch*b_N:

        upper: -g(N+1) c_{N+1} alpha^N + g d alpha^{N+1}
        lower: -g(N+1) b_{N+1} alpha^N - branch g d alpha^{N+1}

    exp(-z*alpha) P(alpha) is the Bargmann function of exp(z^2/2) P(a^dagger)|-z>,
    so both norms come from :func:`_shifted_norm2` and the common factor
    cancels in the ratio: no cutoff enters, and the cost is O(N^2) float
    operations. The arguments must be Python floats (``level`` too), as for
    :func:`_roll_recurrence`. NaN where ||psi||^2 is 0 or not finite, and
    NaN or inf where the residual's coefficients are not finite.
    """
    n = int(level)
    b, c = [1.0], [c0]
    _roll_recurrence(level + branch * eps, z, rabi, g, eps, c0, n + 1, b, c)
    d = g * (c[n] - branch * b[n])
    top = -g * (level + 1.0)
    upper = [0.0] * n + [top * c[n + 1], d]
    lower = [0.0] * n + [top * b[n + 1], -branch * d]
    psi = _shifted_norm2(b[:-1], c[:-1], z)
    if not 0.0 < psi < math.inf:
        return math.nan
    return math.sqrt(_shifted_norm2(upper, lower, z) / psi)


def state_residual(sol: "SeriesSolution") -> float:
    """``||(H_I - E) psi|| / ||psi||`` of a terminated series solution, exactly.

    Computed from the series coefficients in O(N^2) with no Fock cutoff (see
    :func:`_state_residual` for the identity). By the Weinstein bound a level
    of the untruncated H_I lies within this distance of ``sol.energy``.
    """
    p = sol.params
    return _state_residual(float(sol.order), sol.branch, p.g, sol.coeffs.z, p.rabi, p.eps,
                           sol.c0)


@dataclass
class SeriesSolution:
    """A terminated series eigensolution of the transformed Hamiltonian.

    energy = order + branch*eps holds by construction; termination_residual is
    the max-norm of (b_{N+1}, c_{N+1}, c_N - branch*b_N) re-evaluated through the
    recurrences. Its scale follows the coefficients', which grow like g^-N, so
    it is no measure of the state's error: :func:`state_residual` is, and the
    numeric solver accepts a point on it. ``jacobian_rank`` is filled by the
    numeric solver: the rank of the residual Jacobian at the point.
    """

    order: int
    branch: int
    params: ModelParams
    energy: float
    coeffs: SeriesCoefficients
    termination_residual: float
    jacobian_rank: Optional[int] = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        self.branch = _norm_branch(self.branch)
        expected = self.order + self.branch * self.params.eps
        if abs(self.energy - expected) > 1e-12 * max(1.0, abs(expected)):
            raise ValueError(
                f"energy {self.energy} != order + branch*eps = {expected}"
            )

    @property
    def c0(self) -> float:
        return float(self.coeffs.c[0])


def _solution_from_point(
    order: int, branch: int, eta: float, rabi: float, eps: float, c0: float
) -> SeriesSolution:
    """Assemble a SeriesSolution at an explicit constraint point."""
    energy = order + branch * eps
    z = branch * (eta / 2.0)
    params = ModelParams(rabi=rabi, lamb_dicke=eta, detuning=-2.0 * eps)
    coeffs = recurrence_coefficients(energy, z, params, n_max=order + 1, c0=c0)
    residual = _termination_residual(coeffs.b, coeffs.c, order, branch)
    return SeriesSolution(
        order=order,
        branch=branch,
        params=params,
        energy=float(energy),
        coeffs=coeffs,
        termination_residual=residual,
    )


# ---------------------------------------------------------------------------
# order 1 closed form
# ---------------------------------------------------------------------------

def case1_closed_form(eta: float, eps: float, branch) -> SeriesSolution:
    """Order-1 terminated solution at given (lamb_dicke, eps) on one branch.

    The constraint fixes rabi = 2*sqrt(1 + 2*branch*eps - eta^2); the energy is
    E = 1 + branch*eps with z = branch*g. Raises ConstraintInfeasibleError when
    the radicand is negative and SingularRecurrenceError at eta = 0 (handled by
    special_case_small_eta instead).
    """
    branch = _norm_branch(branch)
    if eta == 0:
        raise SingularRecurrenceError(
            "eta = 0 is singular for the series recurrence; "
            "use special_case_small_eta"
        )
    if eta < 0:
        raise ValueError("eta must be positive")
    g = eta / 2.0
    radicand = 1.0 + 2.0 * branch * eps - eta * eta
    if radicand < 0:
        raise ConstraintInfeasibleError(
            f"order-1 constraint infeasible: 1 + 2*({branch})*eps - eta^2 = "
            f"{radicand:.6g} < 0"
        )
    rabi = 2.0 * math.sqrt(radicand)
    g2 = g * g
    se = branch * eps
    numer = 1.0 - rabi / 2.0 + 2.0 * se - 2.0 * g2
    denom = 1.0 + rabi / 2.0 + 2.0 * se - 2.0 * g2
    if _at_pole(denom, numer):
        raise PoleError(
            "order-1 coefficient denominator vanished",
            location=f"1 + rabi/2 + 2*branch*eps - 2g^2 at eta={eta}, eps={eps}",
            value=abs(denom),
        )
    # branch +: c0 = numer/denom; branch -: the mirrored formula carries a sign
    c0 = (numer / denom) if branch == 1 else -(numer / denom)
    return _solution_from_point(1, branch, eta, rabi, eps, c0)


def energy_identity_case1(rabi: float, eta: float) -> float:
    """The single energy expression shared by both order-1 branches.

    E = 1/2 + eta^2/2 + rabi^2/8; with E = 1 + branch*eps it fixes eps.
    """
    return 0.5 + 0.5 * eta * eta + rabi * rabi / 8.0


# ---------------------------------------------------------------------------
# order 2: constraint quadratic and closed form
# ---------------------------------------------------------------------------

@dataclass
class QuadraticCoeffs:
    """Coefficients of the order-2 constraint quadratic A*X^2 + B*X + C = 0.

    X = eps - g^2 on the plus branch; the minus branch satisfies the mirrored
    equation A*Y^2 - B*Y + C = 0 with Y = eps + g^2 (same A, B, C).
    """

    A: float
    B: float
    C: float
    discriminant: float


def appendix_quadratic(rabi: float, eta: float) -> QuadraticCoeffs:
    """Constraint quadratic for order-2 termination, derived from the recurrences.

    A = 8(1 - g^2); B and C are polynomials in (rabi, g) fixed by eliminating c0
    from the two independent termination conditions. Degenerates (A = 0) at
    g = 1, which is rejected.
    """
    g = eta / 2.0
    g2 = g * g
    if abs(1.0 - g2) < 1e-14:
        raise DegenerateQuadraticError("leading coefficient 8(1 - g^2) vanishes at g = 1")
    W2 = rabi * rabi
    A = 8.0 * (1.0 - g2)
    B = 12.0 - 28.0 * g2 + 16.0 * g2 * g2 - 1.5 * W2 * (1.0 - g2)
    C = (
        4.0
        - 24.0 * g2
        + 28.0 * g2 * g2
        - 8.0 * g2 * g2 * g2
        - 1.25 * W2
        + 2.75 * W2 * g2
        - 1.5 * W2 * g2 * g2
        + (W2 * W2 / 16.0) * (1.0 - g2)
    )
    return QuadraticCoeffs(A=A, B=B, C=C, discriminant=B * B - 4.0 * A * C)


def _affine_conditions(
    order: int, branch: int, rabi: float, g: float, eps: float
) -> Tuple[float, float, float, float]:
    """The two independent termination conditions as affine functions of c0.

    Returns (t0, t_slope, u0, u_slope) where
    T(c0) = t0 + t_slope*c0 is c_N - branch*b_N and
    U(c0) = u0 + u_slope*c0 is b_{N+1}.
    Both are exactly affine because every coefficient generated by the
    recurrences is affine in the seed c0.
    """
    rabi, g, eps = float(rabi), float(g), float(eps)
    E = order + branch * eps
    z = branch * g
    b_n0, c_n0, u0, _ = _roll_recurrence(E, z, rabi, g, eps, 0.0, order + 1)
    b_n1, c_n1, u1, _ = _roll_recurrence(E, z, rabi, g, eps, 1.0, order + 1)
    t0 = c_n0 - branch * b_n0
    t1 = c_n1 - branch * b_n1
    return t0, t1 - t0, u0, u1 - u0


def _case2_roots(q: QuadraticCoeffs) -> Optional[dict]:
    """Roots ``{+1: (X0, X1), -1: (Y0, Y1)}`` of A*X^2 + B*X + C and A*Y^2 - B*Y + C.

    Index 0 takes +sqrt(discriminant); None when it is negative or NaN (inf - inf).
    """
    if not q.discriminant >= 0:
        return None
    root = math.sqrt(q.discriminant)
    two_a = 2.0 * q.A
    return {
        1: ((-q.B + root) / two_a, (-q.B - root) / two_a),
        -1: ((q.B + root) / two_a, (q.B - root) / two_a),
    }


def case2_closed_form(rabi: float, eta: float, branches=(1, -1)) -> list:
    """All order-2 terminated solutions at given (rabi, lamb_dicke).

    Solves each branch's constraint quadratic independently (plus branch in
    X = eps - g^2, minus branch in Y = eps + g^2), recovers c0 from the linear
    condition c_2 = branch*b_2, and regenerates all coefficients through the
    recurrences. Returns an empty list when the discriminant is negative
    (no real isolated solution at this parameter pair). The two branches yield
    identical energy sets.
    """
    if eta <= 0:
        raise SingularRecurrenceError("case2_closed_form requires eta > 0")
    roots = _case2_roots(appendix_quadratic(rabi, eta))
    if roots is None:
        return []
    g = eta / 2.0
    g2 = g * g
    solutions = []
    for branch in branches:
        branch = _norm_branch(branch)
        for r in roots[branch]:
            eps = r + g2 if branch == 1 else r - g2
            t0, t_slope, _, _ = _affine_conditions(2, branch, rabi, g, eps)
            if _at_pole(t_slope, t0):
                raise PoleError(
                    "c0 determination degenerate at an order-2 root",
                    location=f"d(c_2 - branch*b_2)/dc0 at rabi={rabi}, eta={eta}, eps={eps}",
                    value=abs(t_slope),
                )
            c0 = -t0 / t_slope
            solutions.append(_solution_from_point(2, branch, eta, rabi, eps, c0))
    return solutions


def case2_energies(rabi: float, eta: float) -> Optional[dict]:
    """Order-2 energies ``{+1: (E0, E1), -1: (E0, E1)}`` without the solutions.

    E = 2 + g^2 + X on the plus branch (eq. A3) and 2 + g^2 - Y on the minus
    branch (eq. A4), in :func:`case2_closed_form`'s root order. None for a
    negative discriminant and at g = 1; eta = 0 is allowed.
    """
    g2 = (eta / 2.0) ** 2  # OverflowError where g^2 is past the float range
    try:
        roots = _case2_roots(appendix_quadratic(rabi, eta))
    except DegenerateQuadraticError:
        return None
    if roots is None:
        return None
    return {
        1: tuple(2.0 + g2 + x for x in roots[1]),
        -1: tuple(2.0 + g2 - y for y in roots[-1]),
    }


def eq7_residual(rabi: float, eta: float, eps: float, branch) -> float:
    """Order-2 constraint residual in ratio form.

    The two independent termination conditions each determine c0 as a ratio of
    affine coefficients; the residual is |c0_from(c_2 - branch*b_2) -
    c0_from(b_3)|, which vanishes exactly on the constraint manifold. Either
    determination's denominator falling below 1e-14 raises PoleError with the
    offending location (the poles are real: they are roots of the respective
    denominators in eps).
    """
    branch = _norm_branch(branch)
    if eta <= 0:
        raise SingularRecurrenceError("eq7_residual requires eta > 0")
    g = eta / 2.0
    t0, t_slope, u0, u_slope = _affine_conditions(2, branch, rabi, g, eps)
    for condition, slope, offset in (("c_2 - branch*b_2", t_slope, t0), ("b_3", u_slope, u0)):
        if _at_pole(slope, offset):
            raise PoleError(
                f"pole of the c0 ratio from the {condition} condition",
                location=f"rabi={rabi}, eta={eta}, eps={eps}, branch={branch:+d}",
                value=abs(slope),
            )
    return abs((-t0 / t_slope) - (-u0 / u_slope))


# ---------------------------------------------------------------------------
# general-order numerical termination solver
# ---------------------------------------------------------------------------

_HEURISTIC_SEEDS = (
    (0.8, -0.3, 0.5),
    (0.8, -1.0, -0.8),
    (1.6, -0.3, -0.8),
    (1.6, -1.0, 0.5),
    (0.3, -0.6, 0.5),
    (2.4, -0.6, -0.8),
    (1.0, -1.4, 0.5),
    (2.0, -0.1, -0.8),
)

#: Convergence bound on max|F|, minimum step norm and iteration cap of each start.
_TOL = 1e-10
_STEP_TOL = 1e-12
_MAX_ITER = 200

#: Iterations every start runs in terminate_general's first pass; a start that
#: has not ended by then is parked until each other start has had its first pass.
_FIRST_PASS = 50

#: tau: a point is certified when its state residual (see state_residual) is
#: below tau * max(1, |E|). Oracle-failing points start at 1.24e-8 of
#: max(1, |E|), and 99% of oracle-passing first points below _TOL sit under
#: 1e-9 (README, "Accepting a point").
_STATE_TOL = 2e-9

#: Smallest rabi a converged point may have. At rabi = 0 the ion is undriven
#: and E = N + branch*eps solves the system for every eps, so a start that
#: slides there has found no driven solution.
_MIN_RABI = 1e-8


def _max_abs(values) -> float:
    """``np.max(np.abs(values))`` on floats: NaN when any entry is NaN.

    Bare ``max`` would drop a NaN that is not its first argument.
    """
    magnitudes = [abs(v) for v in values]
    return math.nan if any(map(math.isnan, magnitudes)) else max(magnitudes)


#: LAPACK ``dgelsd``: the gufunc ``np.linalg.lstsq`` calls. numpy 2.4 names it
#: ``lstsq``, hence the numpy floor; numpy 1.x split it into ``lstsq_m`` and ``lstsq_n``.
_lstsq = _umath_linalg.lstsq

#: ``np.linalg.lstsq``'s default rcond for float64 and at most 3 rows or columns.
_LSTSQ_RCOND = np.finfo(float).eps * 3


def _lstsq_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


#: The error state ``np.linalg.lstsq`` runs its gufunc under: the gufunc flags a
#: failed ``dgelsd`` as invalid, and that raises LinAlgError.
_LSTSQ_ERRSTATE = dict(call=_lstsq_failed, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _lstsq_step(J: np.ndarray, rhs: np.ndarray) -> list:
    """``np.linalg.lstsq(J, rhs[:, 0], rcond=None)[0].tolist()`` bit for bit, for a
    (3, k) ``J`` and a (3, 1) ``rhs``, without the wrapper's array conversions:
    4.7 us against 14.5 us on a 3 x 3 system (one core of an Intel Xeon VM).
    Run it under ``np.errstate(**_LSTSQ_ERRSTATE)``, as the wrapper runs the gufunc.
    """
    return _lstsq(J, rhs, _LSTSQ_RCOND, signature="ddd->ddid")[0].ravel().tolist()


def _norm(values, buf: np.ndarray) -> float:
    """``np.linalg.norm`` of a float vector: the square root of ``ndarray.dot``.

    OpenBLAS's dot may fuse multiply-adds, so a Python sum of squares can round
    differently; the Newton path depends on every bit of this norm. ``buf``, a
    float array of the vector's length, takes the values in place of a new
    array.
    """
    buf[:] = values
    return math.sqrt(buf.dot(buf))


def terminate_general(
    order: int,
    branch,
    eta: float,
    guess: Optional[Tuple[float, float, float]] = None,
    *,
    fix: Optional[str] = None,
) -> SeriesSolution:
    """Numerically terminate the series at a given order.

    Finds (rabi, eps, c0) such that generating the coefficients with
    E = order + branch*eps and z = branch*g drives the residual vector
    F = (b_{N+1}, c_{N+1}, c_N - branch*b_N) to zero, and accepts a point when
    its state residual ``||(H_I - E) psi|| / ||psi||`` (:func:`state_residual`)
    is below tau * max(1, |E|), tau = ``_STATE_TOL`` = 2e-9.

    The residual system has rank 2, so at fixed lamb_dicke the solutions form
    one-dimensional curves; damped Gauss-Newton with minimum-norm
    least-squares steps and finite-difference Jacobians converges to the
    nearest manifold point. A start's descent stops at max|F| < 1e-10 on a
    certified point, and otherwise runs until it stalls (no damped step
    lowers ||F||, the step is below 1e-12, or 200 iterations). The starts run
    in two passes: the first runs each, in seed order, until it ends or
    reaches 50 iterations (``_FIRST_PASS``), and the second resumes the
    parked ones in seed order, each to the end it would have reached in one
    go. The first start whose end point is certified, and passes the checks
    below, is returned. A start that wanders to a nonzero local minimum of
    ||F|| thus no longer holds up a later one that certifies in a few
    iterations: over the ``termination_scan`` pools of seeds 0-299 this
    changed the returned point of 41 of 115,200 inputs (each another
    certified point), and on a 2-vCPU Intel Xeon VM it cut that workload's
    ``op_tail_ms`` from 21.0 to 6.2 ms (medians of 10 alternating pairs).

    Pass ``fix="eps"`` or ``fix="rabi"`` to pin that parameter at its value
    in ``guess``, in every start, and recover the isolated point the closed
    forms parametrize (needed for exact anchor recovery).

    ``guess`` is (rabi, eps, c0), tried first and then from 7 seeded jitters
    of itself; without one, 8 heuristic seeds are tried. The certificate is
    the only energy check: by the Weinstein-Kato bound, the untruncated H_I
    has a level within the state residual of E, so no cutoff enters and no
    matrix is built.
    Raises NoSolutionFoundError (with each start's final max|F|, in seed
    order, as the residual trace) if no start is accepted. A start ends
    where its residual or Jacobian is not finite, and certified points with
    rabi < 1e-8 (the undriven ion) or a full Jacobian rank below 2 are
    rejected as out of domain, with trace entry inf.
    """
    branch = _norm_branch(branch)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if eta <= 0:
        raise SingularRecurrenceError("terminate_general requires eta > 0")
    if fix not in (None, "eps", "rabi"):
        raise ValueError(f'fix must be None, "eps", or "rabi", got {fix!r}')
    if fix is not None and guess is None:
        raise ValueError("fix requires an explicit guess supplying the pinned value")
    level, g = float(order), float(eta) / 2.0  # _roll_recurrence takes Python floats
    free = [k for k, name in enumerate(("rabi", "eps", "c0")) if name != fix]
    z = branch * g

    # x is (rabi, eps, c0) as Python floats, and each residual is one rolling
    # recurrence pass; every update, difference and test rounds exactly as the
    # float64 array expression does. numpy computes only the least-squares step
    # (see _lstsq_step) and the norms (see _norm).
    def residual(x: list) -> Tuple[float, float, float]:
        rabi, eps, c0 = x
        b_n, c_n, b_next, c_next = _roll_recurrence(
            level + branch * eps, z, rabi, g, eps, c0, order + 1)
        return b_next, c_next, c_n - branch * b_n

    def jacobian(x: list, columns, out: np.ndarray) -> bool:
        """Fill the (3, len(columns)) ``out`` with the central-difference Jacobian of
        ``residual`` in the ``columns`` entries of x. False, with ``out`` partly
        filled, when an entry is not finite: lstsq and svd would raise on it, and
        LAPACK print to stdout."""
        for j, k in enumerate(columns):
            h = 1e-7 * max(1.0, abs(x[k]))
            xp = list(x)
            xm = list(x)
            xp[k] += h
            xm[k] -= h
            p0, p1, p2 = residual(xp)
            m0, m1, m2 = residual(xm)
            two_h = 2.0 * h
            d0, d1, d2 = (p0 - m0) / two_h, (p1 - m1) / two_h, (p2 - m2) / two_h
            if not (math.isfinite(d0) and math.isfinite(d1) and math.isfinite(d2)):
                return False
            out[0, j] = d0
            out[1, j] = d1
            out[2, j] = d2
        return True

    if guess is not None:
        base = np.asarray(guess, dtype=float)
        rng = np.random.default_rng(0)
        starts = [base] + [
            base * (1.0 + 0.02 * rng.standard_normal(3)) + 0.01 * rng.standard_normal(3)
            for _ in range(len(_HEURISTIC_SEEDS) - 1)
        ]
        pinned = [k for k in range(3) if k not in free]
        for start in starts:
            start[pinned] = base[pinned]  # a pinned entry keeps its guess in every start
    else:
        # the minus branch's manifold mirrors the plus one in eps
        starts = [(s[0], branch * s[1], s[2]) for s in _HEURISTIC_SEEDS]

    J = np.empty((3, len(free)))  # every step's Jacobian, filled in place
    rhs = np.empty((3, 1))  # and its right-hand side -F
    buf = np.empty(3)  # _norm's scratch for every residual of this call
    step_buf = np.empty(len(free))  # and for every step

    def certified(x: list) -> bool:
        """Whether the state residual at x is below tau * max(1, |E|) (False on NaN)."""
        rabi, eps, c0 = x
        bound = _STATE_TOL * max(1.0, abs(level + branch * eps))
        return _state_residual(level, branch, g, z, rabi, eps, c0) < bound

    def descend(x: list) -> Iterator[Optional[Tuple[list, Tuple[float, float, float], bool]]]:
        """Damped Gauss-Newton from x. Yields None once, when it reaches
        _FIRST_PASS iterations without ending, and then its end: the last point,
        its residual, and whether the point is certified. The descent stops at
        max|F| < _TOL only on a certified point; otherwise it runs until it
        stalls. Resume it under ``np.errstate(**_LSTSQ_ERRSTATE)``."""
        F = residual(x)
        norm = _norm(F, buf)
        ok = None  # certified(x), once computed for this x
        for i in range(_MAX_ITER):
            if i == _FIRST_PASS:
                yield None  # J, rhs and the norm buffers hold nothing of this start here
            size = _max_abs(F)  # inf or NaN when an entry is
            if size < _TOL:
                ok = certified(x)
                if ok:
                    break
            if not (math.isfinite(size) and jacobian(x, free, J)):
                break
            f0, f1, f2 = F
            rhs[0, 0] = -f0
            rhs[1, 0] = -f1
            rhs[2, 0] = -f2
            step = _lstsq_step(J, rhs)
            if not all(map(math.isfinite, step)):
                break
            lam = 1.0
            # A trial whose float sum of squares exceeds this is rejected without
            # the numpy norm: both sums are within 3 ulp of the exact one, and
            # norm * norm within 2 ulp of the last ``dot``, so its ``dot`` is
            # larger and its norm no smaller. With norm > 1e-150 the largest
            # square of a trial that exceeds it is a normal float, so no square
            # that decides it underflows; a NaN sum takes the numpy path.
            above = norm * norm * (1.0 + 2.0**-40) if norm > 1e-150 else math.inf
            for _ in range(30):
                x_new = list(x)
                for j, k in enumerate(free):
                    x_new[k] = x[k] + lam * step[j]
                F_new = residual(x_new)
                f0, f1, f2 = F_new
                if f0 * f0 + f1 * f1 + f2 * f2 > above:
                    lam *= 0.5
                    continue
                norm_new = _norm(F_new, buf)
                if math.isfinite(norm_new) and norm_new < norm:
                    x, F, norm, ok = x_new, F_new, norm_new, None
                    break
                lam *= 0.5
            else:
                break  # no damped step improved the residual
            if _norm([lam * s for s in step], step_buf) < _STEP_TOL:
                break
        yield x, F, certified(x) if ok is None else ok

    # Two passes: the first runs each start in seed order until it ends or
    # parks, the second resumes the parked ones in seed order, so a start that
    # wanders to a local minimum of ||F|| never delays one that certifies fast.
    trace = [math.nan] * len(starts)  # each start's final max|F|, in seed order
    pending = [(k, descend([float(v) for v in start])) for k, start in enumerate(starts)]
    while pending:
        parked = []
        for k, run in pending:
            # numpy's lstsq error state around the descent only: the checks
            # below keep the caller's
            with np.errstate(**_LSTSQ_ERRSTATE):
                end = next(run)
            if end is None:
                parked.append((k, run))
                continue
            x, F, ok = end
            trace[k] = _max_abs(F)
            if not ok:
                continue
            rabi, eps, c0 = x
            # Rank of the full residual Jacobian at the converged point: 2, because
            # one linear dependency ties the three residuals together on the
            # manifold, leaving a one-dimensional solution curve in (rabi, eps, c0).
            # Below 2 the recurrence has lost its digits (at eps = 1e100 every
            # b_1, c_1 rounds to 0); like rabi < _MIN_RABI, that point is out of domain.
            full = np.empty((3, 3))
            rank = 0
            if jacobian(x, (0, 1, 2), full):
                svals = np.linalg.svd(full, compute_uv=False)
                rank = int(np.sum(svals > 1e-6 * max(svals[0], 1e-300)))
            if rabi < _MIN_RABI or rank < 2:
                trace[k] = float("inf")
                continue
            sol = _solution_from_point(order, branch, eta, rabi, eps, c0)
            sol.jacobian_rank = rank
            return sol
        pending = parked
    raise NoSolutionFoundError(
        f"no order-{order} termination point found for branch {branch:+d}, "
        f"eta={eta} after {len(starts)} start(s)",
        residual_trace=trace,
    )


# ---------------------------------------------------------------------------
# zero-coupling special case
# ---------------------------------------------------------------------------

@dataclass
class SpecialCaseSolution:
    """One of the two zero-coupling (eta -> 0) solutions.

    ``b0, b1, c0, c1`` are the linear-polynomial coefficients of the two
    components; ``psi_os`` is the corresponding lab-frame two-component state
    supported on the lowest two Fock levels.
    """

    energy: float
    b0: float
    b1: float
    c0: float
    c1: float
    psi_os: StateVector


def special_case_small_eta(rabi: float, eps: float) -> Tuple[SpecialCaseSolution, SpecialCaseSolution]:
    """Both zero-coupling solutions at given (rabi, eps).

    Energies are E = 1 +/- sqrt(eps^2 + rabi^2/4) with z = 0. Coefficient
    convention: b0 = 1, b1 = 0, and c0/b0 = c1/b1 = (E - rabi/2 - 1)/eps (the
    c-coefficients inherit the ratio; with b1 = 0 this gives c1 = 0). At
    eps = 0 the ratio is replaced by its limit: (b0, c0) = (1, 0) on the plus
    solution and (0, 1) on the minus one. The lab-frame state places
    (b0 - c0)/sqrt(2) on the upper level and (b0 + c0)/sqrt(2) on the lower
    level of Fock index 0, and -i(b1 + c1)/sqrt(2) on both levels of index 1,
    then normalizes.
    """
    if rabi < 0:
        raise ValueError("rabi must be >= 0")
    R = math.sqrt(eps * eps + rabi * rabi / 4.0)
    if R == 0:
        raise DegenerateCaseError(
            "rabi = 0 and eps = 0 leave the zero-coupling doublet undefined"
        )
    basis = FockBasis(cutoff=2, spin_dim=2)
    out = []
    for sign in (1, -1):
        energy = 1.0 + sign * R
        if eps != 0:
            ratio = (sign * R - rabi / 2.0) / eps
            b0, c0 = 1.0, ratio
        else:
            b0, c0 = (1.0, 0.0) if sign == 1 else (0.0, 1.0)
        b1 = c1 = 0.0
        amps = np.zeros(4, dtype=complex)
        amps[1] = (b0 - c0) / math.sqrt(2.0)  # upper level, Fock 0
        amps[0] = (b0 + c0) / math.sqrt(2.0)  # lower level, Fock 0
        amps[3] = -1j * (b1 + c1) / math.sqrt(2.0)  # upper level, Fock 1
        amps[2] = -1j * (b1 + c1) / math.sqrt(2.0)  # lower level, Fock 1
        amps = amps / np.linalg.norm(amps)
        psi_os = StateVector(amplitudes=amps, basis=basis)
        out.append(
            SpecialCaseSolution(energy=energy, b0=b0, b1=b1, c0=c0, c1=c1, psi_os=psi_os)
        )
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Bargmann polynomial -> Fock vector
# ---------------------------------------------------------------------------

def _bargmann_seed(poly: Sequence[float], z: float, cutoff: int) -> np.ndarray:
    """Fock vector sum_m s_m sqrt(m!) |m> of the Taylor-shifted polynomial.

    ``s_m`` are the coefficients of P in powers of (alpha + z); applying the
    displacement by -z to this seed gives :func:`bargmann_to_fock`.
    """
    poly = np.asarray(poly, dtype=complex)
    deg = len(poly) - 1
    if deg >= cutoff:
        raise TruncationError(
            f"polynomial degree {deg} does not fit in cutoff {cutoff}"
        )
    shifted = np.zeros(deg + 1, dtype=complex)
    for m in range(deg + 1):
        total = 0.0 + 0.0j
        for n in range(m, deg + 1):
            total += poly[n] * math.comb(n, m) * (-z) ** (n - m)
        shifted[m] = total
    fock = np.zeros(cutoff, dtype=complex)
    for m in range(deg + 1):
        fock[m] = shifted[m] * math.sqrt(math.factorial(m))
    return fock


def bargmann_to_fock(poly: Sequence[float], z: float, basis: FockBasis) -> np.ndarray:
    """Fock amplitudes (up to overall normalization) of exp(-z*alpha) * P(alpha).

    Steps: (i) Taylor-shift the polynomial to powers of (alpha + z); (ii) map
    (alpha + z)^m to sqrt(m!) |m>, since exp(-z*alpha)(alpha + z)^m is (up to an
    m-independent factor) the displaced number state D(-z) sqrt(m!) |m>; (iii)
    apply the displacement by -z. Returns the raw (unnormalized) motional
    vector, length basis.cutoff.
    """
    seed = _bargmann_seed(poly, z, basis.cutoff)
    return _displacement_entries(-z, basis.cutoff) @ seed


def series_to_fock(sol: SeriesSolution, basis: FockBasis) -> StateVector:
    """Normalized Fock-space vector of a terminated series solution.

    Maps each component's Bargmann polynomial through the Taylor-shift /
    displaced-number-state construction and interleaves upper (b) and lower (c)
    components; both share one displacement D(-z). The basis must have
    spin_dim = 2 and comfortably contain the displaced support; a tail-mass
    violation raises TruncationError.
    """
    _require_spin(basis, 2, "series_to_fock")
    if basis.cutoff < sol.order + 10:
        raise TruncationError(
            f"cutoff {basis.cutoff} too small for order {sol.order} solution"
        )
    n_keep = sol.order + 1
    z = sol.coeffs.z
    D = _displacement_entries(-z, basis.cutoff)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[1::2] = D @ _bargmann_seed(sol.coeffs.b[:n_keep], z, basis.cutoff)
    amps[0::2] = D @ _bargmann_seed(sol.coeffs.c[:n_keep], z, basis.cutoff)
    state = StateVector(amplitudes=amps, basis=basis)
    return _within_tail_budget(state, f"order-{sol.order} series solution").normalize()
