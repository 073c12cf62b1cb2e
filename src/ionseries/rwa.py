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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FockBasis, OperatorMatrix, _annihilation, _require_spin2, _spin_blocks

__all__ = ["RwaQuery", "rwa_resonant_rabi", "rwa_energy", "rwa_hamiltonian"]


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
    _require_spin2(basis, "rwa_hamiltonian")
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
    return OperatorMatrix(
        entries=H,
        basis=basis,
        meta={"scheme": q.scheme, "index": q.index, "eta": eta},
    )
