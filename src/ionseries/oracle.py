"""Independent validation layer: dense diagonalization over the truncated basis.

Every analytic object in this package (closed forms, terminated series, RWA
spectra) is checked against direct numerical diagonalization of the same
Hamiltonian. This module owns that machinery: the eigensolver wrapper, eigenpair
matching with degeneracy awareness, an O(cutoff) count of the levels below an
energy, and the combined validator for series eigensolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NonHermitianError, TruncationError
from .model import FockBasis, ModelParams, OperatorMatrix, _h_transformed_band, build_h_transformed
from .series import series_to_fock
from .states import _run_pair

__all__ = [
    "Spectrum",
    "EigenPair",
    "ValidationReport",
    "hermitian_eigensystem",
    "nearest_eigenpair",
    "levels_below",
    "validate_series_solution",
]

#: Two eigenvalues closer than this are treated as one degenerate level.
DEGENERACY_TOL = 1e-8

#: An energy counts as an eigenvalue when the nearest one is closer than this.
EIGEN_GAP_TOL = 1e-6

#: Most bytes of ``expm`` scratch (about nine complex cutoff x cutoff matrices)
#: that may be live beside the eigensolve; cutoffs up to 241 fit.
_OVERLAP_BYTES = 8 * 2**20


@dataclass
class Spectrum:
    """Ascending eigenvalues (and optionally the matching eigenvector columns)."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]


class EigenPair(NamedTuple):
    value: float
    gap_to_next: float


@dataclass
class ValidationReport:
    """Outcome of checking one series solution against the diagonalization oracle.

    ``passed`` requires all three gates: eigenvalue distance < EIGEN_GAP_TOL, Rayleigh
    residual < 1e-7, and overlap with the (possibly degenerate) eigenspace
    > 0.999. ``inconclusive`` marks runs where the basis was too small to decide
    (the reconstruction raised TruncationError); such runs are not failures,
    and their ``residual`` and ``eigen_gap`` are NaN.
    """

    residual: float
    eigen_gap: float
    overlap: float
    passed: bool
    inconclusive: bool = False

    def fields(self) -> dict:
        """The ``residual``, ``eigen_gap`` and ``overlap`` entries of a report document."""
        return {"residual": self.residual, "eigen_gap": self.eigen_gap, "overlap": self.overlap}


def hermitian_eigensystem(H: OperatorMatrix, want_vectors: bool = False) -> Spectrum:
    """Full ascending eigensystem of a Hermitian operator.

    Rejects inputs whose Hermiticity defect is not below 1e-10, NaN included
    (with the defect in the error). Eigenvectors, when requested, are
    orthonormal columns matched to the eigenvalue order.
    """
    M = np.asarray(H.entries)
    defect = H.hermiticity_defect()
    if not defect < 1e-10:  # NaN fails too
        raise NonHermitianError(
            f"matrix is not Hermitian (defect {defect:.3e}, limit 1e-10)", defect=defect
        )
    w, v = np.linalg.eigh(M) if want_vectors else (np.linalg.eigvalsh(M), None)
    return Spectrum(w, v)


def nearest_eigenpair(s: Spectrum, target: float) -> EigenPair:
    """The eigenvalue nearest to ``target``; ties break toward the smaller one.

    ``gap_to_next`` is the distance from ``target`` to the *second*-nearest
    eigenvalue, so a near-zero gap flags a (quasi-)degenerate match.
    """
    w = np.asarray(s.eigenvalues)
    if w.size == 0:
        raise ValueError("empty spectrum")
    dist = np.abs(w - target)
    # stable argmin returns the first (= smaller eigenvalue, ascending order) tie
    idx = int(np.argmin(dist))
    gap = float(np.min(np.delete(dist, idx), initial=np.inf))
    return EigenPair(value=float(w[idx]), gap_to_next=gap)


def nearest_level(p: ModelParams, cutoff: int, target: float) -> float:
    """The eigenvalue of the transformed Hamiltonian at ``cutoff`` nearest ``target``.

    Values only: one ``eigvalsh``, no eigenvectors.
    """
    spec = hermitian_eigensystem(build_h_transformed(p, FockBasis(cutoff)))
    return nearest_eigenpair(spec, target).value


def levels_below(p: ModelParams, cutoff: int, sigma: float) -> int:
    """How many eigenvalues of the transformed Hamiltonian at ``cutoff`` lie below ``sigma``.

    By Sylvester's law of inertia this is the number of negative eigenvalues
    of the 2x2 pivot blocks S_n of the block LDL^T factorization of
    H_I - sigma (Barth, Martin & Wilkinson, Numer. Math. 9, 1967). Over the
    ``2n+s`` level blocks H_I is block tridiagonal: block n is
    A_n = [[down_n, eps], [eps, up_n]], and it couples to block n-1 through
    h_n sigma_x with h_n = g sqrt(n) (see ``model._h_transformed_band``). So

        S_0 = A_0 - sigma,   S_n = A_n - sigma - (h_n^2 / det S_{n-1}) P(S_{n-1}),

    with P([[a, b], [b, d]]) = [[a, -b], [-b, d]], the adjugate of S_{n-1}
    conjugated by sigma_x. S_n has one negative eigenvalue when its
    determinant is negative, and two when the determinant is positive and
    the trace negative. The loop runs on Python floats and builds no matrix:
    O(cutoff).

    The count is exact unless sigma lies within rounding of a level of H_I.
    Near-zero pivot: a block whose |det S_n| is at most 1e-12 (|ad| + b^2) is
    singular to rounding, as S_n is when sigma is a level of a leading block
    of H_I (at eps = 0 and sigma = g^2 - rabi/2, S_0 is exactly). Dividing by
    its determinant would spoil every later block, so the count starts again
    at sigma - 1e-12 max(1, |sigma|). So a level at sigma itself is not
    counted, and neither is one less than that step below it. Raises
    OverflowError when the factorization overflows, which takes entries
    near 1e154, and ValueError for a sigma that is not finite.
    """
    down, up, eps, hop = _h_transformed_band(p, FockBasis(cutoff).cutoff)
    down, up, hop = down.tolist(), up.tolist(), hop.tolist()
    sigma = float(sigma)
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    while True:
        count = _block_inertia(down, up, hop, eps, sigma)
        if count is not None:
            return count
        sigma -= 1e-12 * max(1.0, abs(sigma))


def _block_inertia(down: list, up: list, hop: list, eps: float, sigma: float) -> Optional[int]:
    """The negative eigenvalues of the pivot blocks of H_I - sigma (see ``levels_below``).

    ``down`` and ``up`` are the diagonals of H_I at each level, ``hop`` the
    h_n. None when a block is singular to rounding.
    """
    count = 0
    a = b = d = 0.0
    det = 1.0  # h_0 = 0: block 0 couples to nothing
    for x, y, h in zip(down, up, hop):
        k = h * h / det
        a, b, d = (x - sigma) - k * a, eps + k * b, (y - sigma) - k * d
        det = a * d - b * b
        tiny = 1e-12 * (abs(a * d) + b * b)
        if det < -tiny:
            count += 1
        elif det > tiny:
            if a + d < 0.0:
                count += 2
        elif tiny < math.inf:  # |det| <= tiny; a NaN det comes with a NaN or inf tiny
            return None
        else:
            raise OverflowError(f"the level count overflowed at cutoff {len(down)}")
    return count


def validate_series_solution(sol, basis: FockBasis) -> ValidationReport:
    """Check a terminated series solution against direct diagonalization.

    Reconstructs the solution as a Fock-space vector, then tests (i) that the
    transformed Hamiltonian at the solution's parameters has an eigenvalue
    within EIGEN_GAP_TOL of the solution energy, (ii) that the Rayleigh residual
    ||H v - E v|| is below 1e-7, and (iii) that the vector overlaps the matched
    eigenspace (all eigenvalues within the degeneracy tolerance of the nearest
    one) with norm > 0.999. A basis too small to represent the vector yields an
    inconclusive report instead of a failure.

    The reconstruction (its ``expm``) and the ``eigh`` are ``states._run_pair``'s
    two jobs, so they overlap on two threads, unless the ``expm``
    scratch exceeds ``_OVERLAP_BYTES`` (cutoff 150 fits, 400 does not): then
    they run in turn, the reconstruction first. The report is byte-identical
    either way. The budget bounds memory: overlapping at cutoff 400 too raised
    the validation benchmark's peak RSS from 94 to 114 MB.
    """
    H = build_h_transformed(sol.params, basis)
    try:
        state, spec = _run_pair(lambda: series_to_fock(sol, basis),
                                lambda: hermitian_eigensystem(H, True),
                                serial=9 * 16 * basis.cutoff**2 > _OVERLAP_BYTES)
    except TruncationError:
        nan = float("nan")
        return ValidationReport(residual=nan, eigen_gap=nan, overlap=0.0, passed=False,
                                inconclusive=True)
    v = state.amplitudes
    E = float(sol.energy)
    residual = float(np.linalg.norm(H.entries @ v - E * v))
    pair = nearest_eigenpair(spec, E)
    eigen_gap = abs(pair.value - E)
    degenerate = np.abs(spec.eigenvalues - pair.value) < DEGENERACY_TOL
    subspace = spec.eigenvectors[:, degenerate]
    overlap = float(np.linalg.norm(subspace.conj().T @ v))
    passed = bool(eigen_gap < EIGEN_GAP_TOL and residual < 1e-7 and overlap > 0.999)
    return ValidationReport(
        residual=residual, eigen_gap=float(eigen_gap), overlap=overlap, passed=passed
    )
