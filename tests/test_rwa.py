"""Rotating-wave reference spectra: closed forms vs sector diagonalization."""

import math

import numpy as np
import pytest

from ionseries.errors import BasisMismatchError
from ionseries.model import FockBasis, _annihilation
from ionseries.rwa import RwaQuery, rwa_energy, rwa_hamiltonian, rwa_resonant_rabi


class TestQueryValidation:
    def test_scheme_letter(self):
        with pytest.raises(ValueError):
            RwaQuery(scheme="X", index=1)

    def test_index_floor(self):
        with pytest.raises(ValueError):
            RwaQuery(scheme="M", index=0)

    def test_doublet_label_floor(self):
        with pytest.raises(ValueError):
            RwaQuery(scheme="K", index=2, n=-1)

    def test_sign_domain(self):
        with pytest.raises(ValueError):
            RwaQuery(scheme="K", index=2, sign=0)


class TestResonantRabi:
    def test_values(self):
        assert rwa_resonant_rabi(RwaQuery("M", 1)) == 0.5
        assert rwa_resonant_rabi(RwaQuery("M", 3)) == 0.125
        assert rwa_resonant_rabi(RwaQuery("K", 3)) == 3.0


class TestClosedFormEnergies:
    def test_frozen_values(self):
        assert rwa_energy(RwaQuery("M", 1, n=0, sign=1), 0.1) == pytest.approx(
            0.5074509756796393, rel=1e-15
        )
        assert rwa_energy(RwaQuery("M", 1, n=0, sign=-1), 0.1) == pytest.approx(
            -0.0024509756796392557, rel=1e-13
        )
        assert rwa_energy(RwaQuery("K", 3, n=0, sign=1), 0.1) == pytest.approx(
            1.0037492197250393, rel=1e-15
        )
        assert rwa_energy(RwaQuery("K", 3, n=0, sign=-1), 0.1) == pytest.approx(
            -0.9987492197250394, rel=1e-15
        )

    def test_zero_coupling_collapse(self):
        assert rwa_energy(RwaQuery("M", 1, n=0, sign=1), 0.0) == pytest.approx(0.5, abs=0.0)
        assert rwa_energy(RwaQuery("M", 1, n=0, sign=-1), 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            rwa_energy(RwaQuery("M", 1), -0.1)


class TestHamiltonian:
    def test_requires_spin_basis(self):
        with pytest.raises(BasisMismatchError):
            rwa_hamiltonian(RwaQuery("M", 1), 0.1, FockBasis(cutoff=20, spin_dim=1))

    def test_hermitian(self):
        H = rwa_hamiltonian(RwaQuery("K", 2), 0.3, FockBasis(cutoff=30, spin_dim=2))
        assert H.hermiticity_defect() < 1e-12

    def test_conserves_excitation_number(self):
        cutoff = 40
        H = rwa_hamiltonian(RwaQuery("M", 2), 0.3, FockBasis(cutoff, spin_dim=2)).entries
        a = _annihilation(cutoff)
        up_projector = np.diag([0.0, 1.0])  # sigma_+ sigma_- = |up><up|
        n_exc = np.kron(a.T @ a, np.eye(2)) + np.kron(np.eye(cutoff), up_projector)
        assert np.max(np.abs(H @ n_exc - n_exc @ H)) < 1e-12

    def test_sector_eigenvalues_match_closed_form(self):
        H = rwa_hamiltonian(RwaQuery("M", 2), 0.3, FockBasis(cutoff=60, spin_dim=2)).entries
        n = 0
        idx = [2 * (n + 1), 2 * n + 1]  # |n+1, lower>, |n, upper>
        evals = np.linalg.eigvalsh(H[np.ix_(idx, idx)])
        assert evals[0] == pytest.approx(
            rwa_energy(RwaQuery("M", 2, n=n, sign=-1), 0.3), abs=1e-13
        )
        assert evals[1] == pytest.approx(
            rwa_energy(RwaQuery("M", 2, n=n, sign=1), 0.3), abs=1e-13
        )

    def test_first_index_k_scheme_has_no_internal_splitting(self):
        # K = 1 zeroes the sigma_z coefficient: the diagonal is the constant
        # g^2 shift only
        H = rwa_hamiltonian(RwaQuery("K", 1), 0.4, FockBasis(cutoff=10, spin_dim=2)).entries
        g2 = 0.2**2
        assert np.max(np.abs(np.diag(H) - g2)) < 1e-15

    def test_zero_coupling_spectrum_is_diagonal(self):
        H = rwa_hamiltonian(RwaQuery("K", 2), 0.0, FockBasis(cutoff=10, spin_dim=2)).entries
        assert np.max(np.abs(H - np.diag(np.diag(H)))) == 0.0
        assert sorted(set(np.round(np.diag(H), 12))) == [-0.5, 0.5]

    def test_meta_records_query(self):
        H = rwa_hamiltonian(RwaQuery("K", 2), 0.3, FockBasis(cutoff=10, spin_dim=2))
        assert H.meta == {"scheme": "K", "index": 2, "eta": 0.3}
