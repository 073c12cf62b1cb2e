"""Parameter objects, basis, operators, Hamiltonian builders, and the frame map."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ionseries as ions
from ionseries.model import (
    FockBasis,
    ModelParams,
    OperatorMatrix,
    _annihilation,
    _hermiticity_defect,
    build_h_lab,
    build_h_transformed,
    displacement_matrix,
    transform_uv,
)
from ionseries.errors import BasisMismatchError, InvalidBasisError
from ionseries.states import _coherent_amplitudes


class TestParams:
    def test_derived_pair_is_half_eta_and_flipped_half_detuning(self):
        p = ModelParams(rabi=0.7, lamb_dicke=0.4, detuning=0.3)
        assert p.g == 0.2
        assert p.eps == -0.15

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(rabi=-0.1, lamb_dicke=0.2, detuning=0.0)

    def test_negative_lamb_dicke_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(rabi=0.1, lamb_dicke=-0.2, detuning=0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(rabi=float("nan"), lamb_dicke=0.2, detuning=0.0)
        with pytest.raises(ValueError):
            ModelParams(rabi=0.1, lamb_dicke=0.2, detuning=float("inf"))


class TestBasis:
    def test_dim_interleaves_spin(self):
        assert FockBasis(cutoff=7, spin_dim=2).dim == 14
        assert FockBasis(cutoff=7, spin_dim=1).dim == 7

    def test_motional_strips_spin(self):
        assert FockBasis(cutoff=9, spin_dim=2).motional() == FockBasis(cutoff=9, spin_dim=1)

    def test_invalid_cutoff_and_spin(self):
        with pytest.raises(InvalidBasisError):
            FockBasis(cutoff=1)
        with pytest.raises(InvalidBasisError):
            FockBasis(cutoff=10, spin_dim=3)

    def test_operator_matrix_rejects_wrong_dim(self):
        with pytest.raises(BasisMismatchError):
            OperatorMatrix(np.eye(5), FockBasis(cutoff=3, spin_dim=2))

    def test_operator_matrix_rejects_non_square(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros((3, 4)), FockBasis(cutoff=2, spin_dim=2))


class TestLadder:
    def test_entries_are_sqrt_n_on_superdiagonal(self):
        a = _annihilation(5)
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n), abs=0.0)
        assert np.count_nonzero(a) == 4

    def test_number_operator_diagonal(self):
        a = _annihilation(6)
        num = a.T @ a
        assert np.allclose(num, np.diag(np.arange(6.0)), atol=1e-14)


class TestDisplacement:
    def test_zero_displacement_is_exact_identity(self):
        D = displacement_matrix(0.0, FockBasis(cutoff=10, spin_dim=1))
        assert np.array_equal(D.entries, np.eye(10, dtype=complex))

    def test_full_matrix_is_unitary(self):
        # the generator is exactly skew-Hermitian, so the truncated exponential
        # is unitary to rounding regardless of cutoff
        D = displacement_matrix(0.4 + 0.2j, FockBasis(cutoff=60, spin_dim=1)).entries
        assert np.max(np.abs(D.conj().T @ D - np.eye(60))) < 1e-12

    def test_column_zero_is_coherent_closed_form(self):
        gamma = 0.4 + 0.2j
        D = displacement_matrix(gamma, FockBasis(cutoff=60, spin_dim=1)).entries
        closed = _coherent_amplitudes(gamma, 60)
        assert np.max(np.abs(D[:, 0] - closed)) < 1e-12

    def test_composition_with_inverse(self):
        basis = FockBasis(cutoff=50, spin_dim=1)
        D = displacement_matrix(0.3j, basis).entries
        Dinv = displacement_matrix(-0.3j, basis).entries
        assert np.max(np.abs(D @ Dinv - np.eye(50))) < 1e-12

    def test_meta_reports_block_defect(self):
        D = displacement_matrix(0.1j, FockBasis(cutoff=60, spin_dim=1))
        assert "unitarity_defect" in D.meta
        assert D.meta["unitarity_defect"] >= 0.0


class TestTransformedHamiltonian:
    P = ModelParams(rabi=0.7, lamb_dicke=0.4, detuning=0.3)  # g=0.2, eps=-0.15

    def test_is_real_symmetric(self):
        H = build_h_transformed(self.P, FockBasis(cutoff=20, spin_dim=2))
        assert H.hermiticity_defect() == 0.0
        assert np.max(np.abs(H.entries.imag)) == 0.0

    def test_diagonal_entries(self):
        H = build_h_transformed(self.P, FockBasis(cutoff=6, spin_dim=2)).entries
        g2 = 0.2**2
        for n in range(5):
            assert H[2 * n + 1, 2 * n + 1] == pytest.approx(0.35 + n + g2, abs=1e-15)
            assert H[2 * n, 2 * n] == pytest.approx(-0.35 + n + g2, abs=1e-15)

    def test_coupling_entries(self):
        H = build_h_transformed(self.P, FockBasis(cutoff=6, spin_dim=2)).entries
        # same-n spin flip carries eps; the n <-> n+1 flips carry g*sqrt(n+1)
        assert H[0, 1] == pytest.approx(-0.15, abs=1e-15)
        assert H[0, 3] == pytest.approx(0.2 * math.sqrt(1), abs=1e-15)
        assert H[2, 5] == pytest.approx(0.2 * math.sqrt(2), abs=1e-15)
        assert H[2, 1] == pytest.approx(0.2 * math.sqrt(1), abs=1e-15)
        # no coupling across two or more motional levels
        assert H[0, 5] == 0.0

    def test_requires_spin_basis(self):
        with pytest.raises(BasisMismatchError):
            build_h_transformed(self.P, FockBasis(cutoff=6, spin_dim=1))

    def test_entries_keep_their_bytes(self):
        """sha256 of the entries over a seeded set of (params, cutoff), as the band
        fill stored them before it read its entries from ``_h_transformed_band``."""
        rng = np.random.default_rng(2020)
        params = [ModelParams(0.5, 0.3, 0.0), ModelParams(0.0, 0.3, 0.7),
                  ModelParams(0.0, 0.0, -0.0), ModelParams(1.2, 0.0, -0.4)]
        params += [ModelParams(rng.uniform(0, 3), rng.uniform(0, 2), rng.uniform(-3, 3))
                   for _ in range(40)]
        digest = hashlib.sha256()
        for p in params:
            for cutoff in (2, 3, 17, 150, 401):
                digest.update(build_h_transformed(p, FockBasis(cutoff)).entries.tobytes())
        assert digest.hexdigest() == (
            "90844b5866d6cc37f6a025fa8c8a7c87d63c0838f638f84e80fcc0cd3d97edb7")


class TestLabHamiltonian:
    P = ModelParams(rabi=0.7, lamb_dicke=0.4, detuning=0.3)

    def test_is_hermitian(self):
        H = build_h_lab(self.P, FockBasis(cutoff=20, spin_dim=2))
        assert H.hermiticity_defect() < 1e-12

    def test_diagonal_is_detuning_split_plus_number(self):
        H = build_h_lab(self.P, FockBasis(cutoff=6, spin_dim=2)).entries
        assert H[0, 0] == pytest.approx(-0.15, abs=1e-12)
        assert H[1, 1] == pytest.approx(0.15, abs=1e-12)
        assert H[4, 4] == pytest.approx(2.0 - 0.15, abs=1e-12)

    def test_zero_coupling_limit_is_diagonal(self):
        p = ModelParams(rabi=0.0, lamb_dicke=0.0, detuning=0.4)
        H = build_h_lab(p, FockBasis(cutoff=5, spin_dim=2)).entries
        off = H - np.diag(np.diag(H))
        assert np.max(np.abs(off)) == 0.0


class TestFrameMap:
    P = ModelParams(rabi=0.7, lamb_dicke=0.4, detuning=0.3)

    def test_uv_is_unitary(self):
        UV = transform_uv(self.P, FockBasis(cutoff=120, spin_dim=2))
        assert UV.meta["unitarity_defect"] < 1e-12

    def test_zero_coupling_entries(self):
        # at lamb_dicke = 0 the displacement factor is the identity, leaving the
        # quarter rotation and the 1/sqrt(2) spinor mixing explicitly visible
        p0 = ModelParams(rabi=0.7, lamb_dicke=0.0, detuning=0.3)
        UV = transform_uv(p0, FockBasis(cutoff=6, spin_dim=2)).entries
        for n in range(6):
            w = (-1j) ** n / math.sqrt(2.0)
            assert UV[2 * n + 1, 2 * n + 1] == pytest.approx(w, abs=1e-15)
            assert UV[2 * n + 1, 2 * n] == pytest.approx(-w, abs=1e-15)
            assert UV[2 * n, 2 * n + 1] == pytest.approx(w, abs=1e-15)
            assert UV[2 * n, 2 * n] == pytest.approx(w, abs=1e-15)

    def test_conjugation_connects_the_frames(self):
        # (UV)^dag H_lab (UV) must reproduce the transformed matrix away from
        # the truncation edge (entrywise, on the lowest-third block)
        basis = FockBasis(cutoff=120, spin_dim=2)
        UV = transform_uv(self.P, basis).entries
        H_lab = build_h_lab(self.P, basis).entries
        H_t = build_h_transformed(self.P, basis).entries
        conj = UV.conj().T @ H_lab @ UV
        k = basis.dim // 3
        assert np.max(np.abs(conj[:k, :k] - H_t[:k, :k])) < 1e-8

    def test_interior_spectra_agree(self):
        basis = FockBasis(cutoff=120, spin_dim=2)
        w_lab = np.linalg.eigvalsh(build_h_lab(self.P, basis).entries)
        w_t = np.linalg.eigvalsh(build_h_transformed(self.P, basis).entries)
        k = basis.dim // 3
        assert np.max(np.abs(w_lab[:k] - w_t[:k])) < 1e-8


# Any float64, with the values where a shortcut could go wrong drawn often.
ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]),
)


@st.composite
def near_hermitian(draw):
    """A real or complex matrix mirrored to be exactly Hermitian, then perhaps
    with one entry replaced, or with the sign of one mirrored zero flipped."""
    n = draw(st.integers(1, 5))
    complex_entries = draw(st.booleans())
    re = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    M = re.astype(complex) if complex_entries else re
    if complex_entries:
        M.imag = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    lower = np.tril_indices(n, -1)
    M[lower] = M.conj().T[lower]
    if complex_entries:
        M[np.diag_indices(n)] = M.diagonal().real
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "replace", "flip_zero"]))
    if change == "replace":
        M[i, j] = draw(ENTRIES)
    elif change == "flip_zero":
        M[i, j] = M[j, i] = 0.0
        M[i, j] = -0.0
    return M


class TestHermiticityDefect:
    @settings(max_examples=400, deadline=None)
    @given(near_hermitian())
    def test_matches_formula_bit_for_bit(self, M):
        with np.errstate(invalid="ignore", over="ignore"):
            want = float(np.max(np.abs(M - M.conj().T)))
            got = _hermiticity_defect(M)
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))

    def test_empty_matrix_raises_as_formula_does(self):
        with pytest.raises(ValueError):
            _hermiticity_defect(np.empty((0, 0)))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(0.0, 3.0), st.floats(-5.0, 5.0),
           st.integers(2, 60), st.sampled_from("MK"), st.integers(1, 6))
    def test_builders_are_exactly_hermitian(self, rabi, eta, detuning, cutoff, scheme, index):
        """Mirrored entries come from one value, so no builder needs a check of its own."""
        p, basis = ModelParams(rabi, eta, detuning), FockBasis(cutoff)
        for H in (build_h_transformed(p, basis), build_h_lab(p, basis),
                  ions.rwa_hamiltonian(ions.RwaQuery(scheme, index), eta, basis)):
            assert _hermiticity_defect(H.entries) == 0.0
