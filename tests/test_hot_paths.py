"""Byte identity of the fast hot paths against the straightforward forms they replace.

Each reference below is the plain construction the library used before its
hot path was rewritten: the Kronecker sums for H_I, H_lab and the
rotating-wave Hamiltonians, the ndarray recurrence, the Gauss-Newton loop on
numpy residual vectors, one displacement per spin component, and the (grid
point, Fock level) Wigner layout. CLI output is pinned digit for digit, so
the fast paths must store the same bits, signed zeros included, not merely
agree within a tolerance.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.linalg import expm

from ionseries import model, oracle, series, states
from ionseries.errors import IonSeriesError, NoSolutionFoundError, TruncationError
from ionseries.model import FockBasis, ModelParams, build_h_lab, build_h_transformed
from ionseries.rwa import RwaQuery, rwa_hamiltonian
from ionseries.oracle import nearest_level
from ionseries.series import (
    _FIRST_PASS,
    _HEURISTIC_SEEDS,
    _MAX_ITER,
    _STATE_TOL,
    _STEP_TOL,
    _TOL,
    _solution_from_point,
    _state_residual,
    case1_closed_form,
    case2_closed_form,
    recurrence_coefficients,
    terminate_general,
)
from ionseries.states import StateVector, cat_state, coherent_state, wigner_grid


SIGMA_Z = np.diag([-1.0, 1.0])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])  # |up><down|
SIGMA_MINUS = SIGMA_PLUS.T.copy()  # |down><up|


def kron_h_transformed(p, basis):
    """H_I as the sum of its four Kronecker terms."""
    g, eps = p.lamb_dicke / 2.0, -p.detuning / 2.0
    cutoff = basis.cutoff
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    x = a + a.T
    number = np.diag(np.arange(float(cutoff)))
    eye_m = np.eye(cutoff)
    return (
        np.kron(eye_m, (p.rabi / 2.0) * SIGMA_Z)
        + np.kron(number, np.eye(2))
        + np.kron(g * x + eps * eye_m, SIGMA_X)
        + g**2 * np.eye(basis.dim)
    )


def kron_h_lab(p, basis):
    """H_lab as a Kronecker sum, with e^{i eta x} from its own expm."""
    cutoff = basis.cutoff
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    eplus = expm(1j * p.lamb_dicke * (a + a.T))
    return (
        np.kron(np.eye(cutoff), (p.detuning / 2.0) * SIGMA_Z).astype(complex)
        + np.kron(np.diag(np.arange(float(cutoff))), np.eye(2))
        + (p.rabi / 2.0) * (np.kron(eplus, SIGMA_PLUS) + np.kron(eplus.conj().T, SIGMA_MINUS))
    )


def kron_rwa_hamiltonian(q, eta, basis):
    """The M- or K-scheme rotating-wave Hamiltonian as a Kronecker sum."""
    g = eta / 2.0
    cutoff = basis.cutoff
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    coupling = g * (np.kron(a.T, SIGMA_MINUS) + np.kron(a, SIGMA_PLUS))
    if q.scheme == "M":
        diagonal = np.kron((1.0 - 2.0 ** (-q.index)) * (a.T @ a), np.eye(2))
    else:
        coeff = (q.index - 1.0) / (2.0 * q.index) * float(q.index)
        diagonal = np.kron(np.eye(cutoff), coeff * SIGMA_Z)
    return diagonal + coupling + g * g * np.eye(basis.dim)


def ndarray_recurrence(E, z, rabi, g, eps, c0, n_max):
    b = np.zeros(n_max + 1)
    c = np.zeros(n_max + 1)
    b[0] = 1.0
    c[0] = c0
    for n in range(n_max):
        b_prev = b[n - 1] if n >= 1 else 0.0
        c_prev = c[n - 1] if n >= 1 else 0.0
        denom = g * (n + 1)
        b[n + 1] = (
            (E + rabi / 2.0 - n - g * g) * c[n] + (g * z - eps) * b[n] - g * b_prev + z * c_prev
        ) / denom
        c[n + 1] = (
            (E - rabi / 2.0 - n - g * g) * b[n] + (g * z - eps) * c[n] - g * c_prev + z * b_prev
        ) / denom
    return b, c


def fd_jacobian(f, x, free):
    """Central finite-difference Jacobian of the 3-residual ``f`` in the ``free`` entries of x."""
    J = np.empty((3, len(free)))
    for j, k in enumerate(free):
        h = 1e-7 * max(1.0, abs(x[k]))
        xp = list(x)
        xm = list(x)
        xp[k] += h
        xm[k] -= h
        J[:, j] = (f(xp) - f(xm)) / (2.0 * h)
    return J


def vector_terminate_general(order, branch, eta, guess=None, *, fix=None):
    """terminate_general with its residuals, Jacobian and tests on numpy 3-vectors.

    Each residual comes from the ndarray recurrence. The starts keep a pinned
    entry at its guess, and a start ends where its residual or Jacobian is not
    finite, as the library's do. A descent stops below _TOL only on a point
    that the library's ``_state_residual`` certifies, and runs until it stalls
    otherwise; an uncertified end point, one with rank below 2 and one with
    rabi < 1e-8 (the undriven ion) are rejected; the certificate is the only
    energy check, as in the library. The starts run in the library's two
    passes: each in seed order up to _FIRST_PASS iterations, then the ones
    still running to their end, in seed order.
    """
    g = eta / 2.0
    free = [k for k, name in enumerate(("rabi", "eps", "c0")) if name != fix]

    def residual(x):
        rabi, eps, c0 = x
        b, c = ndarray_recurrence(order + branch * eps, branch * g, rabi, g, eps, c0, order + 1)
        return np.array([b[order + 1], c[order + 1], c[order] - branch * b[order]])

    if guess is not None:
        base = np.asarray(guess, dtype=float)
        rng = np.random.default_rng(0)
        starts = [base] + [
            base * (1.0 + 0.02 * rng.standard_normal(3)) + 0.01 * rng.standard_normal(3)
            for _ in range(len(_HEURISTIC_SEEDS) - 1)
        ]
        pinned = [k for k in range(3) if k not in free]
        for start in starts:
            start[pinned] = base[pinned]
    else:
        starts = [(s[0], branch * s[1], s[2]) for s in _HEURISTIC_SEEDS]

    def certified(x):
        rabi, eps, c0 = x
        energy = order + branch * eps
        r = _state_residual(float(order), branch, g, branch * g, rabi, eps, c0)
        return r < _STATE_TOL * max(1.0, abs(energy))

    def descend(x):
        """Yields None once at _FIRST_PASS iterations if still running, then (x, F)."""
        F = residual(x)
        norm = math.sqrt(F.dot(F))
        for i in range(_MAX_ITER):
            if i == _FIRST_PASS:
                yield None
            if np.max(np.abs(F)) < _TOL and certified(x):
                break
            J = fd_jacobian(residual, x, free)
            if not (np.all(np.isfinite(F)) and np.all(np.isfinite(J))):
                break
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
            if not np.all(np.isfinite(step)):
                break
            step_list = step.tolist()
            lam = 1.0
            for _ in range(30):
                x_new = list(x)
                for j, k in enumerate(free):
                    x_new[k] = x[k] + lam * step_list[j]
                F_new = residual(x_new)
                norm_new = math.sqrt(F_new.dot(F_new))
                if math.isfinite(norm_new) and norm_new < norm:
                    x, F, norm = x_new, F_new, norm_new
                    break
                lam *= 0.5
            else:
                break
            if np.linalg.norm(lam * step) < _STEP_TOL:
                break
        yield x, F

    trace = [None] * len(starts)
    runs = [descend([float(v) for v in start]) for start in starts]
    for _ in range(2):
        for k, run in enumerate(runs):
            if trace[k] is not None:
                continue  # ended in the first pass
            end = next(run)
            if end is None:
                continue  # parked until the second pass
            x, F = end
            trace[k] = float(np.max(np.abs(F)))
            if not certified(x):
                continue
            rabi, eps, c0 = x
            J = fd_jacobian(residual, x, (0, 1, 2))
            rank = 0
            if np.all(np.isfinite(J)):
                svals = np.linalg.svd(J, compute_uv=False)
                rank = int(np.sum(svals > 1e-6 * max(svals[0], 1e-300)))
            if rabi < 1e-8 or rank < 2:
                trace[k] = float("inf")
                continue
            sol = _solution_from_point(order, branch, eta, rabi, eps, c0)
            sol.jacobian_rank = rank
            return sol
    raise NoSolutionFoundError("no termination point found", residual_trace=trace)


def displaced_bargmann(poly, z, basis):
    """bargmann_to_fock with its own displacement_matrix(-z)."""
    poly = np.asarray(poly, dtype=complex)
    deg = len(poly) - 1
    fock = np.zeros(basis.cutoff, dtype=complex)
    for m in range(deg + 1):
        total = 0.0 + 0.0j
        for n in range(m, deg + 1):
            total += poly[n] * math.comb(n, m) * (-z) ** (n - m)
        fock[m] = total * math.sqrt(math.factorial(m))
    return model.displacement_matrix(-z, basis).entries @ fock


def two_displacement_series_to_fock(sol, basis):
    """series_to_fock with one displacement_matrix(-z) per spin component."""
    n_keep = sol.order + 1
    motional = basis.motional()
    amps = np.zeros(basis.dim, dtype=complex)
    amps[1::2] = displaced_bargmann(sol.coeffs.b[:n_keep], sol.coeffs.z, motional)
    amps[0::2] = displaced_bargmann(sol.coeffs.c[:n_keep], sol.coeffs.z, motional)
    return amps / np.linalg.norm(amps)


def row_major_wigner(v, xs, ps):
    """wigner_grid's recurrence over a (grid point, Fock level) array."""
    amps = v.amplitudes / np.linalg.norm(v.amplitudes)
    cutoff = v.basis.cutoff
    support = np.nonzero(np.abs(amps) > 1e-14)[0]
    j_max = int(support[-1]) if support.size else 0
    gamma = -(xs[None, :] + 1j * ps[:, None]).ravel()
    col = np.empty((gamma.size, cutoff), dtype=complex)
    col[:, 0] = np.exp(-0.5 * np.abs(gamma) ** 2)
    for n in range(1, cutoff):
        col[:, n] = col[:, n - 1] * gamma / math.sqrt(n)
    signs = np.where(np.arange(cutoff) % 2 == 0, 1.0, -1.0)
    u = amps[0] * col
    gconj = np.conj(gamma)[:, None]
    for j in range(1, j_max + 1):
        nxt = np.empty_like(col)
        nxt[:, 0] = -gconj[:, 0] * col[:, 0]
        nxt[:, 1:] = np.sqrt(np.arange(1, cutoff))[None, :] * col[:, :-1] - gconj * col[:, 1:]
        col = nxt / math.sqrt(j)
        if amps[j] != 0:
            u += amps[j] * col
    W = (2.0 / math.pi) * (signs[None, :] * np.abs(u) ** 2).sum(axis=1)
    return W.reshape(ps.size, xs.size)


def _h_params(rng, count):
    fixed = [
        (0.5, 0.3, 0.0),  # detuning 0 stores eps = -0.0
        (0.0, 0.3, 0.7),  # rabi 0
        (0.0, 0.0, 0.0),
        (0.0, 0.0, -0.0),
        (1.2, 0.0, -0.4),  # lamb_dicke 0
        (-0.0, -0.0, 0.25),
    ]
    drawn = [
        (rng.uniform(0, 3), rng.uniform(0, 1.5), rng.uniform(-2, 2)) for _ in range(count)
    ]
    return [ModelParams(*t) for t in fixed + drawn]


class TestBandBuiltHamiltonian:
    def test_matches_kron_sum_bytes(self):
        for p in _h_params(np.random.default_rng(11), 40):
            for cutoff in (2, 3, 17, 60):
                basis = FockBasis(cutoff)
                fast = build_h_transformed(p, basis).entries
                ref = kron_h_transformed(p, basis)
                assert fast.dtype == ref.dtype and fast.flags.c_contiguous
                assert fast.tobytes() == ref.tobytes(), (p, cutoff)


class TestBlockBuiltOperators:
    def test_h_lab_matches_kron_sum_bytes(self):
        for p in _h_params(np.random.default_rng(13), 10):
            for cutoff in (2, 3, 20, 60):
                basis = FockBasis(cutoff)
                fast = build_h_lab(p, basis).entries
                ref = kron_h_lab(p, basis)
                assert fast.dtype == ref.dtype and fast.flags.c_contiguous
                assert fast.tobytes() == ref.tobytes(), (p, cutoff)

    @pytest.mark.parametrize("scheme", ["M", "K"])
    def test_rwa_matches_kron_sum_bytes(self, scheme):
        for index in (1, 2, 3, 4):
            for eta in (0.0, -0.0, 0.1, 0.5, 1.3, 2.7):
                for cutoff in (2, 3, 20, 60):
                    q, basis = RwaQuery(scheme, index), FockBasis(cutoff)
                    fast = rwa_hamiltonian(q, eta, basis).entries
                    ref = kron_rwa_hamiltonian(q, eta, basis)
                    assert fast.dtype == ref.dtype and fast.flags.c_contiguous
                    assert fast.tobytes() == ref.tobytes(), (q, eta, cutoff)


def recurrence(E, z, rabi, g, eps, c0, n_max):
    """recurrence_coefficients' b and c for the derived (g, eps), which ModelParams
    carries exactly as lamb_dicke = 2g and detuning = -2 eps."""
    coeffs = recurrence_coefficients(E, z, ModelParams(rabi, 2.0 * g, -2.0 * eps), n_max, c0)
    return coeffs.b, coeffs.c


class TestFloatRecurrence:
    def test_matches_ndarray_recurrence_bytes(self):
        rng = np.random.default_rng(12)
        cases = [(2 - 0.3, 0.05, 0.5, 0.05, -0.3, 2.0, 3), (1.0, 0.0, 0.0, 1.0, -0.0, 0.0, 2)]
        for _ in range(200):
            g = rng.uniform(0.01, 0.8)
            branch = rng.choice([-1.0, 1.0])
            eps = rng.uniform(-2, 2)
            cases.append(
                (
                    int(rng.integers(1, 9)) + branch * eps,
                    branch * g,
                    rng.uniform(0, 3),
                    g,
                    eps,
                    rng.uniform(-3, 3),
                    int(rng.integers(2, 12)),
                )
            )
        for args in cases:
            b, c = recurrence(*args)
            rb, rc = ndarray_recurrence(*args)
            assert b.dtype == rb.dtype and c.dtype == rc.dtype
            assert b.tobytes() == rb.tobytes() and c.tobytes() == rc.tobytes(), args

    def test_numpy_scalar_inputs_match(self):
        args = tuple(np.float64(v) for v in (1.7, 0.15, 0.9, 0.15, -0.3, 0.4)) + (5,)
        b, c = recurrence(*args)
        rb, rc = ndarray_recurrence(*args)
        assert b.tobytes() == rb.tobytes() and c.tobytes() == rc.tobytes()


def _solver_bits(solve, *args, **kwargs):
    """The bits of one solver call: the point, or the trace, or the error raised."""
    try:
        with np.errstate(all="ignore"):
            sol = solve(*args, **kwargs)
    except NoSolutionFoundError as exc:
        return [t.hex() for t in exc.residual_trace]
    p = sol.params
    gap = abs(nearest_level(p, 150, sol.energy) - sol.energy)
    return tuple(v.hex() for v in (p.rabi, p.detuning, sol.c0, gap)) + (
        sol.jacobian_rank, sol.termination_residual.hex())


def _scan_sample():
    """Seven inputs of every (order, branch) cell of a termination_scan-like pool.

    Each cell draws one eta from each 32nd of U(0.05, 0.8), as the benchmark's
    pool does, and the sample takes strata 0, 5, ..., 30, so the low-eta edge of
    orders >= 5, which only the state-residual certificate solves, is included.
    """
    rng = np.random.default_rng(17)
    sample = []
    for order in range(3, 9):
        for branch in (1, -1):
            etas = [0.05 + 0.75 * (s + rng.random()) / 32 for s in range(32)]
            sample += [(order, branch, etas[s]) for s in range(0, 32, 5)]
    return sample


class TestFloatGaussNewton:
    """terminate_general's float loop against the same loop on numpy 3-vectors."""

    def test_scan_sample_matches_vector_loop_bits(self):
        """The low-eta edge of orders >= 5 is solved only through the certificate:
        its points keep a termination residual of at least _TOL. At
        (8, +1, 0.3441941354216717) the first start ends uncertified, the second
        certifies only after its first pass, and the third, within its first
        pass, is returned."""
        certified_only = 0
        for args in _scan_sample() + [(8, 1, 0.3441941354216717)]:
            fast = _solver_bits(terminate_general, *args)
            assert fast == _solver_bits(vector_terminate_general, *args), args
            certified_only += float.fromhex(fast[-1]) >= _TOL
        assert certified_only >= 4

    def test_guess_and_fix_runs_match_vector_loop_bits(self):
        """The guess and fix runs of test_solver_bits, and one that needs a jittered start."""
        a1 = case1_closed_form(0.2, 0.0, 1)
        a2 = case2_closed_form(0.5, 0.1)[0]
        runs = [
            ((1, 1, 0.2), {"guess": (a1.params.rabi + 0.03, 0.0, a1.c0 + 0.01), "fix": "eps"}),
            ((2, 1, 0.1), {"guess": (0.5, -a2.params.detuning / 2.0 + 0.02, a2.c0 + 0.02),
                           "fix": "rabi"}),
            ((5, -1, 0.38), {"guess": (0.8, -0.97, -0.86)}),
            ((4, 1, 0.3), {"guess": (9.0, 9.0, 9.0), "fix": "eps"}),
            ((3, 1, 0.3), {"guess": (0.5, 0.2, -1.0), "fix": "eps"}),
            ((3, 1, 0.3), {"guess": (1.0, -2.0, 0.0), "fix": "eps"}),  # no solution
        ]
        for args, kwargs in runs:
            assert _solver_bits(terminate_general, *args, **kwargs) == _solver_bits(
                vector_terminate_general, *args, **kwargs), (args, kwargs)

    @pytest.mark.parametrize("args, kwargs", [
        ((8, 1, 0.01), {"guess": (1e32, 1.0, 1.0)}),
        ((3, 1, 0.3), {"guess": (1e100, 0.5, 1.0)}),
        ((8, 1, 1e-60), {}),
    ], ids=["norm-overflows", "residual-overflows", "residual-nan"])
    def test_overflowing_runs_match_vector_loop_bits(self, args, kwargs):
        """Each ends in NoSolutionFoundError with its trace, on both sides."""
        fast = _solver_bits(terminate_general, *args, **kwargs)
        assert isinstance(fast, list) and len(fast) == 8
        assert fast == _solver_bits(vector_terminate_general, *args, **kwargs)

    def test_numpy_scalar_inputs_run_on_floats(self, monkeypatch):
        """numpy scalar order and eta keep their bits and reach every pass as floats."""
        arg_types = set()
        roll = series._roll_recurrence

        def spy(*args):
            arg_types.update(type(v) for v in args[:6])
            return roll(*args)

        args = (3, 1, 0.3)
        kwargs = {"guess": (0.5, 0.2, -1.0), "fix": "eps"}
        expected = _solver_bits(terminate_general, *args, **kwargs)
        monkeypatch.setattr(series, "_roll_recurrence", spy)
        got = _solver_bits(terminate_general, np.int64(3), 1, np.float64(0.3), **kwargs)
        assert got == expected
        assert arg_types == {float}

    def test_max_abs_keeps_numpy_nan(self):
        nan, inf = math.nan, math.inf
        vectors = [(1.0, nan, 2.0), (nan, 1.0, 2.0), (2.0, 1.0, nan), (-0.0, 0.0, -0.0),
                   (-inf, 1.0, nan), (1e-300, -3.0, 2.5), (inf, -inf, 0.0)]
        for v in vectors:
            expected = float(np.max(np.abs(np.array(v))))
            assert series._max_abs(v).hex() == expected.hex(), v

    def test_norm_rounds_as_numpy(self):
        """Through the caller's buffer, from a list or a tuple, as terminate_general calls it."""
        rng = np.random.default_rng(3)
        for size in (2, 3):
            buf = np.empty(size)
            for v in rng.standard_normal((3000, size)) * 10.0 ** rng.integers(-8, 8, (3000, 1)):
                expected = float(np.linalg.norm(v)).hex()
                assert series._norm(v.tolist(), buf).hex() == expected
                assert series._norm(tuple(v.tolist()), buf).hex() == expected


class TestSharedDisplacement:
    def test_matches_per_component_displacement_bytes(self):
        sols = [case1_closed_form(eta, eps, br) for eta, eps, br in
                [(0.3, -0.2, 1), (0.3, 0.2, -1), (0.8, 0.1, 1), (1.1, 0.7, 1)]]
        for rabi, eta in ((0.5, 0.3), (1.0, 0.6), (2.0, 1.2)):
            sols.extend(case2_closed_form(rabi, eta))
        assert len(sols) > 8
        for sol in sols:
            for cutoff in (60, 150):
                basis = FockBasis(cutoff)
                fast = series.series_to_fock(sol, basis).amplitudes
                assert fast.tobytes() == two_displacement_series_to_fock(sol, basis).tobytes()
            b, z, motional = sol.coeffs.b[: sol.order + 1], sol.coeffs.z, FockBasis(60, 1)
            single = series.bargmann_to_fock(b, z, motional)
            assert single.tobytes() == displaced_bargmann(b, z, motional).tobytes()


class TestColumnMajorWigner:
    def test_matches_row_major_bytes(self):
        basis = FockBasis(cutoff=40, spin_dim=1)
        xs = np.linspace(-3, 3, 25)
        ps = np.linspace(-2.5, 3.5, 31)
        vs = [
            cat_state(1.3, basis),
            cat_state(0.0, basis),
            coherent_state(0.8 - 0.4j, basis),
            StateVector(np.eye(40)[3], basis),
        ]
        rng = np.random.default_rng(7)
        mixed = np.zeros(40, dtype=complex)
        mixed[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        mixed[5] = 0.0
        vs.append(StateVector(mixed, basis))
        for v in vs:
            W = wigner_grid(v, xs, ps)
            assert W.tobytes() == row_major_wigner(v, xs, ps).tobytes()
        single = wigner_grid(vs[0], np.array([0.0]), np.array([0.0]))
        assert single.tobytes() == row_major_wigner(vs[0], np.array([0.0]), np.array([0.0])).tobytes()

    @pytest.mark.parametrize("cutoff", [40, 150, 400])
    def test_tiles_match_row_major_bytes(self, cutoff, monkeypatch):
        basis = FockBasis(cutoff=cutoff, spin_dim=1)
        tile = max(1, states._TILE_BYTES // (16 * cutoff))
        rng = np.random.default_rng(cutoff)
        gapped = np.zeros(cutoff, dtype=complex)
        gapped[:20] = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        gapped[[0, 4, 9, 10, 17]] = 0.0  # zeros inside the support, the first included
        vs = [cat_state(1.7, basis), StateVector(gapped, basis)]

        def axis(n):  # n points over [-3, 3] with 0.0 and -0.0 among them once n > 2
            a = np.linspace(-3.0, 3.0, n)
            if n > 2:
                a[1], a[-2] = 0.0, -0.0
            return a

        # one point, fewer points than a tile, two whole tiles, two tiles plus one
        grids = [(axis(n_x), -axis(n_p))
                 for n_p, n_x in [(1, 1), (1, tile - 1), (2, tile), (1, 2 * tile + 1), (3, 5)]]
        # tile + 1, 2 * tile + 1 and 5 * tile - 1 evaluated points, at distinct |x|
        # so that the cat evaluates every one: 2 and 3 equal tiles narrower than
        # the most a tile may take, and 5 full ones, the last padded by one point
        grids += [(np.linspace(0.25, 3.0, n), np.array([-0.5]))
                  for n in (tile + 1, 2 * tile + 1, 5 * tile - 1)]
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            for v in vs:
                for xs, ps in grids:
                    W = wigner_grid(v, xs, ps)
                    assert W.shape == (ps.size, xs.size)
                    assert W.tobytes() == row_major_wigner(v, xs, ps).tobytes(), (
                        cutoff, cpus, ps.size, xs.size)

    @pytest.mark.parametrize("cutoff", [40, 150])
    def test_chunks_match_row_major_bytes(self, cutoff, monkeypatch):
        basis = FockBasis(cutoff=cutoff, spin_dim=1)
        chunk = states._CHUNK_TILES * max(1, states._TILE_BYTES // (16 * cutoff))
        # the cat evaluates only its distinct |x| columns; the coherent state
        # is not mirror-invariant and evaluates every column
        vs = [cat_state(1.7, basis), coherent_state(0.8 - 0.4j, basis)]
        threads, chunk_fn = set(), states._wigner_chunk

        def counted_chunk(*args):
            threads.add(threading.get_ident())
            chunk_fn(*args)

        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(states, "_wigner_chunk", counted_chunk)
        monkeypatch.setattr(threading, "Thread", CountedThread)
        # a chunk minus one point, one whole chunk, a chunk plus one point,
        # and three chunks, which the two threads share unequally
        shapes = [(1, chunk - 1), (1, chunk), (1, chunk + 1), (3, chunk)]
        for v, mirrored in zip(vs, (True, False)):
            for n_p, n_x in shapes:
                xs, ps = np.linspace(-3.0, 3.0, n_x), np.linspace(-2.0, 2.5, n_p)
                reference = row_major_wigner(v, xs, ps).tobytes()
                columns = np.unique(np.abs(xs)).size if mirrored else n_x
                chunks = -(-n_p * columns // chunk)
                for cpus in (1, 2):
                    _use_cpus(monkeypatch, cpus)
                    threads.clear()
                    started.clear()
                    assert wigner_grid(v, xs, ps).tobytes() == reference, (n_p, n_x, cpus)
                    assert len(threads) == min(cpus, chunks)
                    assert len(started) == min(cpus, chunks) - 1  # none for one chunk

    def test_peak_memory_is_tile_bound(self, monkeypatch):
        v = cat_state(1.5, FockBasis(cutoff=150, spin_dim=1))
        axis = np.linspace(-5.0, 5.0, 101)
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                wigner_grid(v, axis, axis)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8e6, (cpus, peak)

    def test_worker_failure_reaches_caller(self, monkeypatch):
        v = cat_state(1.2, FockBasis(cutoff=60, spin_dim=1))
        axis = np.linspace(-4.0, 4.0, 97)
        original = states._wigner_chunk

        def failing_second_chunk(W, gamma, start, chunk, *args):
            if start == chunk:
                raise RuntimeError("chunk failed")
            original(W, gamma, start, chunk, *args)

        monkeypatch.setattr(states, "_wigner_chunk", failing_second_chunk)
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            with pytest.raises(RuntimeError, match="chunk failed"):
                wigner_grid(v, axis, axis)


def _count_kernel_points(monkeypatch):
    """The list of grid points each _wigner_chunk call evaluates from now on."""
    evaluated = []
    original = states._wigner_chunk

    def counted(W, gamma, start, chunk, *args):
        evaluated.append(gamma[start:start + chunk].copy())
        original(W, gamma, start, chunk, *args)

    monkeypatch.setattr(states, "_wigner_chunk", counted)
    return evaluated


class TestMirroredWigner:
    """wigner_grid computes a mirror-invariant state's distinct |x| columns once."""

    @staticmethod
    def axes():
        n = 16
        return {
            "symmetric": 0.125 * np.arange(-n, n + 1),
            "cli": np.array([-2 + 0.05 * i for i in range(81)]),
            "negative": np.linspace(-2.5, -0.1, 13),  # every column computed at its mirror
        }

    @pytest.mark.parametrize("cutoff", [40, 150])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.7, 2.5])
    def test_cat_matches_row_major_bytes(self, eta, cutoff):
        v = cat_state(eta, FockBasis(cutoff=cutoff, spin_dim=1))
        ps = np.linspace(-1.5, eta + 1.5, 7)
        for name, xs in self.axes().items():
            W = wigner_grid(v, xs, ps)
            assert W.shape == (ps.size, xs.size)
            assert W.tobytes() == row_major_wigner(v, xs, ps).tobytes(), (name, eta, cutoff)

    def test_non_invariant_states_keep_their_bytes(self, monkeypatch):
        basis = FockBasis(cutoff=40, spin_dim=1)
        rng = np.random.default_rng(7)
        mixed = np.zeros(40, dtype=complex)
        mixed[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        mixed[5] = 0.0
        evaluated = _count_kernel_points(monkeypatch)
        ps = np.linspace(-2.0, 2.5, 9)
        for v in (coherent_state(0.8 - 0.4j, basis), StateVector(mixed, basis)):
            for xs in self.axes().values():
                evaluated.clear()
                assert wigner_grid(v, xs, ps).tobytes() == row_major_wigner(v, xs, ps).tobytes()
                points = xs.size * ps.size
                tiles = -(-points // max(1, states._TILE_BYTES // (16 * basis.cutoff)))
                # every grid point, plus fewer copies of the origin than there are tiles
                assert points <= sum(g.size for g in evaluated) < points + tiles

    def test_every_cat_is_mirror_invariant(self):
        """conj(v_n) = (-1)^n v_n holds exactly for the normalized cat amplitudes."""
        built = 0
        for cutoff in (60, 150, 400, 1000, 2000):
            signs = np.where(np.arange(cutoff) % 2 == 0, 1.0, -1.0)
            for eta in np.linspace(0.0, 30.0, 31):
                try:
                    v = cat_state(eta, FockBasis(cutoff=cutoff, spin_dim=1))
                except TruncationError:
                    continue
                amps = v.amplitudes / np.linalg.norm(v.amplitudes)
                assert np.array_equal(np.conj(amps), signs * amps), (eta, cutoff)
                built += 1
        assert built > 60

    @pytest.mark.parametrize("eta, cutoff", [(0.0, 40), (0.5, 150), (2.5, 150)])
    def test_cat_evaluates_only_distinct_columns(self, monkeypatch, eta, cutoff):
        v = cat_state(eta, FockBasis(cutoff=cutoff, spin_dim=1))
        xs, ps = np.array([-2 + 0.05 * i for i in range(81)]), np.array([eta / 2, eta])
        distinct = np.unique(np.abs(xs))
        evaluated = _count_kernel_points(monkeypatch)
        entered = []
        original = states.wigner_grid

        def counted_grid(*args):
            entered.append(args)
            return original(*args)

        monkeypatch.setattr(states, "wigner_grid", counted_grid)
        W = states.wigner_grid(v, xs, ps)
        assert len(entered) == 1 and W.size == xs.size * ps.size
        points = np.concatenate(evaluated)
        assert points.size == distinct.size * ps.size < xs.size * ps.size
        assert np.array_equal(np.unique(-points.real), distinct)

    def test_refusal_names_the_requested_point(self):
        """The bound is checked on the full grid, so a mirrored column keeps its own x."""
        v = cat_state(2.5, FockBasis(cutoff=150, spin_dim=1))
        for xs, x in ((np.array([-8.0, 0.0]), "-8"), (np.array([0.0, 8.0]), "8")):
            with pytest.raises(IonSeriesError, match=f"at x={x}, p=8 exceeds 2/pi"):
                wigner_grid(v, xs, np.array([0.0, 8.0]))


def _report_bits(report):
    """A ValidationReport with its floats as ``float.hex``, for byte comparison."""
    return (report.residual.hex(), report.eigen_gap.hex(), report.overlap.hex(), report.passed,
            report.inconclusive, report.recommended_cutoff)


def _count_threads(monkeypatch):
    """The list of threads the library's runner starts from now on."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(states, "threading", SimpleNamespace(Thread=Counted, Lock=threading.Lock))
    return started


class TestOverlappedValidation:
    """validate_series_solution runs series_to_fock on a worker beside its eigh."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_threaded_report_matches_in_turn_bits(self, monkeypatch, order):
        sol = case1_closed_form(0.3, -0.2, 1) if order == 1 else case2_closed_form(0.5, 0.1)[0]
        basis = FockBasis(150)
        started = _count_threads(monkeypatch)
        _use_cpus(monkeypatch, 1)
        in_turn = _report_bits(oracle.validate_series_solution(sol, basis))
        assert not started
        _use_cpus(monkeypatch, 2)
        before = threading.active_count()
        threaded = _report_bits(oracle.validate_series_solution(sol, basis))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            switching = [_report_bits(oracle.validate_series_solution(sol, basis))
                         for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 4
        assert threading.active_count() == before
        assert in_turn[3] and threaded == in_turn
        assert switching == [in_turn] * 3

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_too_small_basis_stays_inconclusive(self, monkeypatch, cpus):
        _use_cpus(monkeypatch, cpus)
        before = threading.active_count()
        report = oracle.validate_series_solution(case1_closed_form(0.2, 0.0, 1), FockBasis(8))
        assert report.inconclusive and report.recommended_cutoff == 16
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_truncation_wins_over_eigensolve_error(self, monkeypatch, cpus):
        def truncated(sol, basis):
            raise TruncationError("tail mass")

        monkeypatch.setattr(oracle, "series_to_fock", truncated)
        monkeypatch.setattr(oracle, "hermitian_eigensystem", _failing_eigensolve)
        _use_cpus(monkeypatch, cpus)
        before = threading.active_count()
        report = oracle.validate_series_solution(case1_closed_form(0.2, 0.0, 1), FockBasis(60))
        assert report.inconclusive and report.recommended_cutoff == 120
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_eigensolve_error_reaches_caller(self, monkeypatch, cpus):
        monkeypatch.setattr(oracle, "hermitian_eigensystem", _failing_eigensolve)
        _use_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="eigensolve failed"):
            oracle.validate_series_solution(case1_closed_form(0.2, 0.0, 1), FockBasis(60))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_displacement_error_wins_over_eigensolve_error(self, monkeypatch, cpus):
        def failing(sol, basis):
            raise ValueError("displacement failed")

        monkeypatch.setattr(oracle, "series_to_fock", failing)
        monkeypatch.setattr(oracle, "hermitian_eigensystem", _failing_eigensolve)
        _use_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(ValueError, match="displacement failed"):
            oracle.validate_series_solution(case1_closed_form(0.2, 0.0, 1), FockBasis(60))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cutoff, cpus, threads", [
        (150, 2, 1), (241, 2, 1), (242, 2, 0), (400, 2, 0), (400, 8, 0), (150, 1, 0)])
    def test_thread_only_below_the_byte_budget_and_with_two_cpus(self, monkeypatch, cutoff,
                                                                  cpus, threads):
        started = _count_threads(monkeypatch)
        _use_cpus(monkeypatch, cpus)
        report = oracle.validate_series_solution(case1_closed_form(0.3, -0.2, 1), FockBasis(cutoff))
        assert report.passed
        assert len(started) == threads


def _failing_eigensolve(H, want_vectors=False):
    raise RuntimeError("eigensolve failed")


def _use_cpus(monkeypatch, count):
    """Make the library's runner see ``count`` CPUs without changing the real affinity."""
    monkeypatch.setattr(states, "_cpu_count", lambda: count)


def _python_output(code):
    """Stripped stdout of a fresh ``python -c code`` that imports this checkout's package."""
    src = Path(states.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return out.stdout.strip()


def _printed_by_cli_import(module):
    """``True`` or ``False``: whether ``import ionseries.cli`` loads ``module``."""
    return _python_output(f"import sys, ionseries.cli; print({module!r} in sys.modules)")


@pytest.mark.parametrize(
    "argv",
    [
        ["cat", "--eta", "0.5", "--wigner=-2:2:0.05"],
        ["fig", "--omega", "0.5"],
        ["oracle", "--omega", "0.5", "--eta", "0.1"],
    ],
    ids=["cat", "fig", "oracle"],
)
def test_command_leaves_scipy_unloaded(tmp_path, argv):
    """``cat`` builds its state and Wigner grid without a matrix exponential, ``fig``
    needs none for its curves and crossings, and ``oracle`` none for its eigensolve."""
    argv = [*argv, "--out", str(tmp_path / "out.json")]
    code = f"import sys, ionseries.cli; print(ionseries.cli.main({argv!r}), 'scipy' in sys.modules)"
    assert _python_output(code).splitlines()[-1] == "0 False"


def test_cli_import_leaves_scipy_unloaded():
    assert _printed_by_cli_import("scipy") == "False"


def test_cli_import_leaves_concurrent_futures_unloaded():
    assert _printed_by_cli_import("concurrent.futures") == "False"
