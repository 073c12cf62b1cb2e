"""Rotating-wave reference Hamiltonians and closed-form spectra.

Two resonance families are implemented, labelled by the scheme letter:

* M-scheme — resonant Rabi frequency 2^(-M); Hamiltonian
  (1 - 2^(-M)) a^dag a + g (a^dag sigma_- + a sigma_+) + g^2.
* K-scheme — resonant Rabi frequency K; Hamiltonian
  ((K-1)/2K) * rabi * sigma_z + g (a^dag sigma_- + a sigma_+) + g^2
  (no bare a^dag a term).

Both conserve the Jaynes-Cummings excitation number a^dag a + sigma_+ sigma_-,
so the spectrum splits into 2x2 sectors spanned by |n+1, lower> and
|n, upper>; the closed forms below are those sector eigenvalues. The Fock
label n >= 0 indexes the doublet (the unpaired ground level |0, lower> is not
covered by the closed form).

The ``fig`` comparison lives here too: the resonance nearest a Rabi frequency,
the curve family that sets its rotating-wave doublets beside the order-1 and
order-2 series energies, and the crossings of the two kinds of curve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .model import FockBasis, OperatorMatrix, _annihilation, _require_spin, _spin_blocks
from .series import _branch_mark, case2_energies, energy_identity_case1

__all__ = [
    "RwaQuery", "rwa_resonant_rabi", "rwa_energy", "rwa_hamiltonian",
    "nearest_scheme", "fig_curves", "find_crossings",
]


@dataclass(frozen=True)
class RwaQuery:
    """Selects one rotating-wave branch: scheme, resonance index, doublet, sign."""

    scheme: str
    index: int
    n: int = 0
    sign: int = 1

    def __post_init__(self):
        if self.scheme not in ("M", "K"):
            raise ValueError(f'scheme must be "M" or "K", got {self.scheme!r}')
        if not isinstance(self.index, int) or self.index < 1:
            raise ValueError(f"index must be an integer >= 1, got {self.index!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"n must be an integer >= 0, got {self.n!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


def rwa_resonant_rabi(q: RwaQuery) -> float:
    """The resonant Rabi frequency of the query's scheme: 2^(-M) or K."""
    if q.scheme == "M":
        return 2.0 ** (-q.index)
    return float(q.index)


def rwa_energy(q: RwaQuery, eta: float) -> float:
    """Closed-form doublet eigenvalue for the query at coupling eta.

    M-scheme: (1 - 2^(-M))(n + 1/2) + eta^2/4
              + sign/2 * sqrt(eta^2 (n+1) + (1 - 2^(-M))^2).
    K-scheme: eta^2/4 + sign/2 * sqrt(eta^2 (n+1) + (K-1)^2).
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    e2 = eta * eta
    if q.scheme == "M":
        w = 1.0 - 2.0 ** (-q.index)
        return w * (q.n + 0.5) + e2 / 4.0 + q.sign * 0.5 * math.sqrt(
            e2 * (q.n + 1) + w * w
        )
    k1 = q.index - 1.0
    return e2 / 4.0 + q.sign * 0.5 * math.sqrt(e2 * (q.n + 1) + k1 * k1)


def rwa_hamiltonian(q: RwaQuery, eta: float, basis: FockBasis) -> OperatorMatrix:
    """Matrix of the query's rotating-wave Hamiltonian over the given basis.

    Requires spin_dim = 2. The result is Hermitian, commutes with the
    excitation number, and its 2x2-sector eigenvalues reproduce rwa_energy for
    every doublet that fits below the cutoff.
    """
    _require_spin(basis, 2, "rwa_hamiltonian")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    g = 0.0 + eta / 2.0  # eta = -0.0 stores +0.0 couplings
    cutoff = basis.cutoff
    a = _annihilation(cutoff)
    shift = g * g * np.eye(cutoff)
    if q.scheme == "M":
        w = 1.0 - 2.0 ** (-q.index)
        down = up = w * (a.T @ a) + shift
    else:
        level = (q.index - 1.0) / (2.0 * q.index) * rwa_resonant_rabi(q) * np.eye(cutoff)
        down, up = shift - level, shift + level
    # g (a^dag sigma_- + a sigma_+): sigma_- = |down><up|, sigma_+ = |up><down|
    H = _spin_blocks(down, g * a.T, g * a, up)
    return OperatorMatrix(entries=H, basis=basis)


def nearest_scheme(omega: float) -> RwaQuery:
    """The resonance M=1..6 or K=1..6 nearest the Rabi frequency; ties prefer M."""
    queries = [RwaQuery(scheme=s, index=i) for s in ("M", "K") for i in range(1, 7)]
    best = queries[0]
    for q in queries[1:]:
        if abs(omega - rwa_resonant_rabi(q)) < abs(omega - rwa_resonant_rabi(best)) - 1e-15:
            best = q
    return best


def _finite_or_none(value):
    """``value``, or None where it is None or not finite (an overflow at huge eta)."""
    return value if value is not None and math.isfinite(value) else None


def fig_curves(omega: float):
    """The nearest resonance and the curves in row order: label -> (source, branch, n, f).

    ``f(eta)`` is the curve's energy, or None where it is infeasible (no real
    order-2 root) or not finite (an overflow at huge eta). The same callables
    are sampled for the rows and bisected for the crossings. A negative
    ``omega`` raises ValueError, as ModelParams does.
    """
    if omega < 0:
        raise ValueError(f"rabi must be >= 0, got {omega}")
    scheme = nearest_scheme(omega)
    src_rwa = "rwa_eq10" if scheme.scheme == "M" else "rwa_eq12"
    curves = {}
    for n in range(0, 7):
        for sign in (1, -1):
            q = RwaQuery(scheme=scheme.scheme, index=scheme.index, n=n, sign=sign)
            mark = _branch_mark(sign)
            curves[f"{src_rwa}[n={n},{mark}]"] = (
                src_rwa, mark, n, lambda eta, q=q: _finite_or_none(rwa_energy(q, eta)))
    curves["eq13"] = ("eq13", "", 0, lambda eta: _finite_or_none(energy_identity_case1(omega, eta)))
    for source, branch in (("appendix_a3", 1), ("appendix_a4", -1)):
        for idx in (0, 1):
            curves[f"{source}[{idx}]"] = (
                source, _branch_mark(branch), idx,
                lambda eta, b=branch, i=idx: _finite_or_none(
                    (case2_energies(omega, eta) or {b: (None, None)})[b][i]
                ),
            )
    return scheme, curves


def find_crossings(etas, curves, values) -> List[Tuple[float, float, str, str]]:
    """Crossings ``(eta, energy, rwa label, other label)`` of rotating-wave and series curves.

    ``values[label]`` holds the curve sampled on ``etas``; a sign change of
    (rwa - other) between neighbours is bisected to 1e-8 in eta. Listed per
    curve pair in grid order, unsorted.
    """
    rwa_labels = [label for label, c in curves.items() if c[0].startswith("rwa_")]
    crossings = []
    for rl, ol in itertools.product(rwa_labels, [lb for lb in curves if lb not in rwa_labels]):
        f_rwa, f_other, rv, ov = curves[rl][3], curves[ol][3], values[rl], values[ol]
        for i in range(len(etas) - 1):
            if None in (rv[i], rv[i + 1], ov[i], ov[i + 1]):
                continue
            f0, f1 = rv[i] - ov[i], rv[i + 1] - ov[i + 1]
            if f0 == 0.0:
                crossings.append((etas[i], rv[i], rl, ol))
            elif f0 * f1 < 0:
                lo, hi, flo = etas[i], etas[i + 1], f0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    other = f_other(mid)
                    if other is None:
                        break
                    fm = f_rwa(mid) - other
                    if flo * fm <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                    if hi - lo < 1e-8:
                        break
                eta_c = 0.5 * (lo + hi)
                crossings.append((eta_c, f_rwa(eta_c), rl, ol))
    return crossings
