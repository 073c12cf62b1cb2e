"""Model parameters, truncated Fock(+spin) basis, and Hamiltonian builders.

Physical setting: a single trapped ion driven by a pair of Raman lasers, described
in trap-frequency units. The drive strength is the Rabi frequency ``rabi`` (called
Omega below), the ion-motion coupling is the Lamb-Dicke parameter ``lamb_dicke``
(eta), and ``detuning`` (Delta) is the scaled two-photon detuning. Two equivalent
Hamiltonians are provided:

* the lab-frame form
  ``H = (Delta/2) sigma_z + a^dag a + (Omega/2)(sigma_+ e^{i eta x} + sigma_- e^{-i eta x})``
  with ``x = a + a^dag``, and
* the transformed form
  ``H_I = (Omega/2) sigma_z + a^dag a + [g (a + a^dag) + eps] sigma_x + g^2``
  with ``g = eta/2`` and ``eps = -Delta/2``,

connected by the combined unitary built in :func:`transform_uv`. Both are realized
as dense matrices over a truncated Fock ladder tensored with the two internal
levels. Each Hamiltonian builder writes a mirrored pair of entries from one
value and its conjugate, so its output is exactly Hermitian when finite;
:func:`ionseries.oracle.hermitian_eigensystem` is where Hermiticity is checked.

Basis ordering convention (fixed package-wide): basis index ``i = 2*n + s`` where
``n`` is the Fock label and ``s`` is the spin label, ``s = 0`` for the lower
internal state ("down") and ``s = 1`` for the upper one ("up"). Spin operators are
taken in (down, up) ordering, so ``sigma_z = diag(-1, +1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatchError, InvalidBasisError

__all__ = [
    "ModelParams",
    "FockBasis",
    "OperatorMatrix",
    "displacement_matrix",
    "build_h_lab",
    "build_h_transformed",
    "transform_uv",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless drive/trap parameters (all energies in trap-frequency units).

    rabi : Omega >= 0, the Rabi frequency of the two-photon drive.
    lamb_dicke : eta >= 0, the combined Lamb-Dicke parameter of the two beams.
    detuning : Delta, the scaled detuning (may have either sign).
    """

    rabi: float
    lamb_dicke: float
    detuning: float

    def __post_init__(self):
        for name in ("rabi", "lamb_dicke", "detuning"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        if self.lamb_dicke < 0:
            raise ValueError(f"lamb_dicke must be >= 0, got {self.lamb_dicke}")

    @property
    def g(self) -> float:
        """The coupling g = lamb_dicke/2."""
        return self.lamb_dicke / 2.0

    @property
    def eps(self) -> float:
        """The flipped half-detuning eps = -detuning/2."""
        return -self.detuning / 2.0


@dataclass(frozen=True)
class FockBasis:
    """Truncated Fock ladder (indices 0..cutoff-1), optionally tensored with spin.

    spin_dim = 1 describes a motional-only space; spin_dim = 2 adds the two
    internal levels with the interleaved index convention ``i = 2*n + s``.
    """

    cutoff: int
    spin_dim: int = 2

    def __post_init__(self):
        if int(self.cutoff) != self.cutoff or self.cutoff < 2:
            raise InvalidBasisError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        if self.spin_dim not in (1, 2):
            raise InvalidBasisError(f"spin_dim must be 1 or 2, got {self.spin_dim!r}")
        object.__setattr__(self, "cutoff", int(self.cutoff))
        object.__setattr__(self, "spin_dim", int(self.spin_dim))

    @property
    def dim(self) -> int:
        return self.cutoff * self.spin_dim

    def motional(self) -> "FockBasis":
        """The spin-stripped (spin_dim = 1) version of this basis."""
        return FockBasis(cutoff=self.cutoff, spin_dim=1)


def _require_spin(basis: FockBasis, spin_dim: int, who: str) -> None:
    """BasisMismatchError unless ``basis`` has ``spin_dim``; the package's one spin guard."""
    if basis.spin_dim != spin_dim:
        raise BasisMismatchError(f"{who} requires spin_dim = {spin_dim}, got {basis.spin_dim}")


@dataclass
class OperatorMatrix:
    """Dense operator over a FockBasis.

    ``entries`` is a square complex (or real) ndarray whose side equals
    ``basis.dim``. ``meta`` carries construction diagnostics (e.g. the
    unitarity defect of a truncated displacement).
    """

    entries: np.ndarray
    basis: FockBasis
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = np.asarray(self.entries)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {self.entries.shape}")
        if self.entries.shape[0] != self.basis.dim:
            raise BasisMismatchError(
                f"entries dim {self.entries.shape[0]} != basis dim {self.basis.dim}"
            )

    def hermiticity_defect(self) -> float:
        """Entrywise max |H - H^dagger|."""
        return _hermiticity_defect(self.entries)


def _hermiticity_defect(M: np.ndarray) -> float:
    """Entrywise max |M - M^dagger|.

    An exactly Hermitian M costs one comparison and no temporary of floats:
    its defect is 0.0 when every entry is finite, which a finite sum shows
    (inf == inf, but inf - inf is NaN, so infinite entries take the formula).
    """
    Mh = M.conj().T
    with np.errstate(over="ignore", invalid="ignore"):  # finite entries may overflow the sum
        if M.size and np.array_equal(M, Mh) and np.isfinite(M.sum()):
            return 0.0
    return float(np.max(np.abs(M - Mh)))


# ---------------------------------------------------------------------------
# motional-sector operators
# ---------------------------------------------------------------------------

def _annihilation(cutoff: int) -> np.ndarray:
    """The annihilation operator a on ``cutoff`` motional levels: <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def _displacement_entries(gamma: complex, cutoff: int) -> np.ndarray:
    """Dense exp(gamma a^dag - conj(gamma) a) on a motional ladder of ``cutoff`` levels.

    This is the package's one scipy call: ``expm`` is imported on first use,
    so importing the package does not load ``scipy.linalg``.
    """
    gamma = complex(gamma)
    if gamma == 0:
        return np.eye(cutoff, dtype=complex)
    from scipy.linalg import expm

    a = _annihilation(cutoff)
    return expm(gamma * a.conj().T - np.conj(gamma) * a)


def displacement_matrix(gamma: complex, basis: FockBasis) -> OperatorMatrix:
    """Displacement operator exp(gamma a^dag - conj(gamma) a) on the motional sector.

    Computed by scaling-and-squaring matrix exponential of the (skew-Hermitian)
    generator in the truncated basis. The caller is responsible for choosing a
    cutoff with |gamma|^2 << cutoff; truncation quality is reported via
    ``meta["unitarity_defect"]``, the entrywise defect of D D^dag - I on the
    top-left k x k block with k = cutoff - ceil(8 |gamma|^2).
    """
    cutoff = basis.cutoff
    entries = _displacement_entries(gamma, cutoff)
    k = max(1, cutoff - math.ceil(8.0 * abs(gamma) ** 2))
    block = entries[:k, :k]
    defect = float(np.max(np.abs(block @ block.conj().T - np.eye(k))))
    return OperatorMatrix(entries, basis.motional(), meta={"unitarity_defect": defect, "block": k})


# ---------------------------------------------------------------------------
# Hamiltonian builders (spin_dim = 2, interleaved index 2n + s)
# ---------------------------------------------------------------------------

def _spin_blocks(
    down_down: np.ndarray, down_up: np.ndarray, up_down: np.ndarray, up_up: np.ndarray
) -> np.ndarray:
    """The ``2n+s`` matrix whose (s, s') spin block is the given motional matrix."""
    blocks = np.array([[down_down, down_up], [up_down, up_up]])
    cutoff = blocks.shape[-1]
    return blocks.transpose(2, 0, 3, 1).reshape(2 * cutoff, 2 * cutoff)


def build_h_lab(p: ModelParams, basis: FockBasis) -> OperatorMatrix:
    """Lab-frame Hamiltonian on the interleaved spin-motional basis.

    H = (Delta/2) sigma_z + a^dag a
        + (Omega/2)(sigma_+ e^{i eta x} + sigma_- e^{-i eta x}),   x = a + a^dag.
    """
    _require_spin(basis, 2, "build_h_lab")
    cutoff = basis.cutoff
    eplus = _displacement_entries(1j * p.lamb_dicke, cutoff)  # e^{i eta x} = D(i eta)
    number = np.diag(np.arange(float(cutoff)))
    shift = (p.detuning / 2.0) * np.eye(cutoff)
    half = p.rabi / 2.0
    # ``0.0 +`` stores +0.0 where a spin-flip product is -0.0, so that, as in
    # build_h_transformed, no -0.0 reaches LAPACK.
    H = 0.0 + _spin_blocks(number - shift, half * eplus.conj().T, half * eplus, number + shift)
    return OperatorMatrix(H, basis)


def _h_transformed_band(p: ModelParams, cutoff: int):
    """The nonzero entries of H_I on ``cutoff`` Fock levels, level by level.

    Returns ``(down, up, eps, hop)``: the diagonal entries <n,s|H_I|n,s> for
    s = down and s = up (arrays over n), the spin-flip entry
    <n,down|H_I|n,up> = eps, and the arrays hop[n] = g sqrt(n), the entries
    <n-1,down|H_I|n,up> = <n-1,up|H_I|n,down> (hop[0] = 0 couples nothing).
    Each entry is, bit for bit, the four terms of H_I summed left to right as
    dense matrices. A stored -0.0 would change LAPACK's rounding, so ``0.0 +``
    turns eps = -0.0 (detuning 0) into the +0.0 that sum has.
    """
    g, r = p.g, p.rabi / 2.0
    n = np.arange(float(cutoff))
    hop = 0.0 + g * np.sqrt(n)  # g <n-1|x|n> = g sqrt(n), spin flipped
    return (-r + n) + g**2, (r + n) + g**2, 0.0 + p.eps, hop


def build_h_transformed(p: ModelParams, basis: FockBasis) -> OperatorMatrix:
    """Transformed-frame Hamiltonian (real symmetric in this basis).

    H_I = (Omega/2) sigma_z + a^dag a + [g (a + a^dag) + eps] sigma_x + g^2.
    """
    _require_spin(basis, 2, "build_h_transformed")
    down, up_diag, eps, hop = _h_transformed_band(p, basis.cutoff)
    dn = np.arange(0, basis.dim, 2)
    up = dn + 1
    # A band fill, not _spin_blocks: every oracle check builds H_I, and at
    # cutoff 150 (one AMD EPYC core) this takes 0.24 ms against 0.49 ms.
    H = np.zeros((basis.dim, basis.dim))
    H[dn, dn] = down
    H[up, up] = up_diag
    H[dn, up] = H[up, dn] = eps
    hop = hop[1:]
    H[dn[:-1], up[1:]] = H[up[1:], dn[:-1]] = hop
    H[up[:-1], dn[1:]] = H[dn[1:], up[:-1]] = hop
    return OperatorMatrix(H, basis)


def transform_uv(p: ModelParams, basis: FockBasis) -> OperatorMatrix:
    """Combined unitary connecting the two frames: H_I = (UV)^dag H_lab (UV).

    The spin-block structure (rows/columns in (up, down) block order) is
    ``U = ((D, -D), (D^dag, D^dag))`` with ``D`` the displacement by
    ``i*lamb_dicke/2``, and ``V = (1/sqrt(2)) e^{-i pi a^dag a / 2}`` (a quarter
    phase-space rotation). Neither factor alone is normalized; the product UV is
    unitary (up to truncation, reported as ``meta["unitarity_defect"]`` over the
    whole matrix).
    """
    _require_spin(basis, 2, "transform_uv")
    cutoff = basis.cutoff
    D = _displacement_entries(0.5j * p.lamb_dicke, cutoff)
    rotation = np.diag((-1j) ** np.arange(cutoff))
    DR = D @ rotation / math.sqrt(2.0)
    DdR = D.conj().T @ rotation / math.sqrt(2.0)
    UV = _spin_blocks(DdR, DdR, -DR, DR)
    defect = float(np.max(np.abs(UV.conj().T @ UV - np.eye(basis.dim))))
    return OperatorMatrix(UV, basis, meta={"unitarity_defect": defect})
