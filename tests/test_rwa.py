"""Rotating-wave reference spectra: closed forms vs sector diagonalization."""

import math

import numpy as np
import pytest

from ionseries.errors import BasisMismatchError
from ionseries.model import FockBasis, _annihilation
from ionseries.rwa import (
    RwaQuery,
    fig_curves,
    find_crossings,
    nearest_scheme,
    rwa_energy,
    rwa_hamiltonian,
    rwa_resonant_rabi,
)


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


def _sampled(omega, etas):
    scheme, curves = fig_curves(omega)
    return scheme, curves, {label: [c[3](eta) for eta in etas] for label, c in curves.items()}


class TestFigureFamily:
    """The fig comparison as library calls: nearest resonance, curves, crossings."""

    ETAS = [0.01 * i for i in range(101)]  # the default fig sweep 0:1:0.01

    @pytest.mark.parametrize(
        "omega, expected",
        [(0.5, ("M", 1)), (0.126, ("M", 3)), (3.0, ("K", 3)), (100.0, ("K", 6))],
    )
    def test_nearest_scheme(self, omega, expected):
        q = nearest_scheme(omega)
        assert (q.scheme, q.index) == expected

    def test_tie_resolves_to_m(self):
        # 0.75 lies exactly halfway between M=1 (0.5) and K=1 (1.0)
        q = nearest_scheme(0.75)
        assert (q.scheme, q.index) == ("M", 1)

    def test_curve_labels_and_row_fields(self):
        scheme, curves = fig_curves(3.0)
        assert (scheme.scheme, scheme.index) == ("K", 3)
        rwa = [f"rwa_eq12[n={n},{s}]" for n in range(7) for s in "+-"]
        order2 = ["appendix_a3[0]", "appendix_a3[1]", "appendix_a4[0]", "appendix_a4[1]"]
        assert list(curves) == rwa + ["eq13"] + order2
        assert curves["rwa_eq12[n=2,-]"][:3] == ("rwa_eq12", "-", 2)
        assert curves["eq13"][:3] == ("eq13", "", 0)
        assert curves["appendix_a4[1]"][:3] == ("appendix_a4", "-", 1)
        q = RwaQuery("K", 3, n=2, sign=-1)
        assert curves["rwa_eq12[n=2,-]"][3](0.4) == rwa_energy(q, 0.4)

    def test_curves_are_none_where_infeasible_or_not_finite(self):
        _, curves = fig_curves(0.5)
        assert curves["rwa_eq10[n=6,+]"][3](1e154) is None  # overflows to inf
        assert curves["eq13"][3](1e155) is None
        assert curves["appendix_a3[0]"][3](2.0) is None  # g = 1: no order-2 root
        assert curves["appendix_a4[1]"][3](1e154) is None  # discriminant inf - inf
        assert curves["appendix_a4[1]"][3](1.0) is not None

    def test_one_rwa_identity_crossing_at_eta_star(self):
        etas = self.ETAS
        _, curves, values = _sampled(0.5, etas)
        hits = [c for c in find_crossings(etas, curves, values)
                if c[2:] == ("rwa_eq10[n=0,+]", "eq13")]
        assert len(hits) == 1
        eta, energy, _, _ = hits[0]
        eta_star = math.sqrt((7 - 4 * math.sqrt(2)) / 8)
        assert abs(eta - eta_star) < 1e-7
        assert energy == pytest.approx(0.5 + 0.5 * eta_star**2 + 0.5**2 / 8, abs=1e-7)

    def test_crossings_pair_rwa_with_series_curves_only(self):
        etas = self.ETAS
        _, curves, values = _sampled(3.0, etas)
        crossings = find_crossings(etas, curves, values)
        assert crossings
        for eta, energy, rl, ol in crossings:
            assert rl.startswith("rwa_eq12") and not ol.startswith("rwa_")
            assert 0.0 <= eta <= 1.0
            assert energy == pytest.approx(curves[ol][3](eta), abs=1e-6)

    def test_grid_point_on_a_crossing_is_reported_as_is(self):
        """A zero gap at a grid point is a crossing there, with no bisection."""
        eta_star = math.sqrt((7 - 4 * math.sqrt(2)) / 8)
        curves = {"rwa_x": ("rwa_x", "+", 0, lambda eta: eta), "y": ("y", "", 0, lambda eta: 0.5)}
        etas = [0.0, 0.5, eta_star + 0.5]
        values = {label: [c[3](eta) for eta in etas] for label, c in curves.items()}
        assert find_crossings(etas, curves, values) == [(0.5, 0.5, "rwa_x", "y")]
