"""Diagonalization oracle: eigensystem wrapper, matching, level counts, validation."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ionseries import model, oracle
from ionseries.errors import InvalidBasisError, NonHermitianError
from ionseries.model import FockBasis, ModelParams, OperatorMatrix, build_h_transformed
from ionseries.oracle import (
    Spectrum,
    EIGEN_GAP_TOL,
    has_level,
    hermitian_eigensystem,
    levels_below,
    nearest_eigenpair,
    nearest_level,
    validate_series_solution,
)
from ionseries.series import case1_closed_form


P_ANCHOR = ModelParams(rabi=1.9595917942265424, lamb_dicke=0.2, detuning=0.0)


class TestEigensystem:
    def test_rejects_non_hermitian_with_defect(self):
        M = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), FockBasis(2, spin_dim=1))
        with pytest.raises(NonHermitianError) as exc_info:
            hermitian_eigensystem(M)
        assert exc_info.value.defect == pytest.approx(1.0, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nan_and_inf_entries(self, bad):
        entries = np.eye(4)
        entries[0, 1] = entries[1, 0] = bad
        M = OperatorMatrix(entries, FockBasis(2))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonHermitianError) as exc_info:
                hermitian_eigensystem(M)
        assert np.isnan(exc_info.value.defect)

    def test_no_warning_when_finite_entries_overflow_their_sum(self):
        """Entries near 1e307 are finite, so the defect is 0.0 and numpy stays quiet."""
        H = build_h_transformed(ModelParams(0.5, 1e154, 0.0), FockBasis(150))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hermitian_eigensystem(H)
            assert H.hermiticity_defect() == 0.0

    def test_eigenvalues_ascending(self):
        spec = hermitian_eigensystem(build_h_transformed(P_ANCHOR, FockBasis(40)))
        assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_reconstruction_bound(self):
        H = build_h_transformed(P_ANCHOR, FockBasis(150))
        spec = hermitian_eigensystem(H, want_vectors=True)
        R = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(R - H.entries) < 1e-8 * np.linalg.norm(H.entries)

    def test_vectors_orthonormal(self):
        spec = hermitian_eigensystem(
            build_h_transformed(P_ANCHOR, FockBasis(40)), want_vectors=True
        )
        V = spec.eigenvectors
        assert np.max(np.abs(V.conj().T @ V - np.eye(V.shape[1]))) < 1e-12

    def test_one_hermiticity_pass_per_eigensolve(self, monkeypatch):
        calls = []
        defect = model._hermiticity_defect
        monkeypatch.setattr(model, "_hermiticity_defect", lambda M: calls.append(1) or defect(M))
        nearest_level(P_ANCHOR, 40, 0.5)
        assert len(calls) == 1
        validate_series_solution(case1_closed_form(0.2, 0.0, 1), FockBasis(60))
        assert len(calls) == 2


class TestNearestEigenpair:
    def test_picks_nearest_and_reports_gap_to_second(self):
        spec = Spectrum(np.array([0.3, 0.99, 2.0]), None)
        pair = nearest_eigenpair(spec, 1.0)
        assert pair.value == 0.99
        assert pair.gap_to_next == pytest.approx(0.7, rel=1e-15)

    def test_tie_breaks_toward_smaller_eigenvalue(self):
        spec = Spectrum(np.array([0.0, 2.0]), None)
        assert nearest_eigenpair(spec, 1.0).value == 0.0

    def test_single_eigenvalue_has_infinite_gap(self):
        spec = Spectrum(np.array([1.5]), None)
        assert nearest_eigenpair(spec, 1.0).gap_to_next == float("inf")

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            nearest_eigenpair(Spectrum(np.array([]), None), 1.0)


def dense_levels(p, cutoff):
    return np.linalg.eigvalsh(build_h_transformed(p, FockBasis(cutoff)).entries)


class TestLevelsBelow:
    """The O(cutoff) inertia count against the dense spectrum."""

    @settings(max_examples=120, deadline=None)
    @given(
        cutoff=st.integers(2, 160),
        rabi=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
        eta=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 30.0)),
        detuning=st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
        where=st.floats(-0.1, 1.1),
        level=st.integers(0, 319),
        offset=st.floats(-8.0, -2.0),
        sign=st.sampled_from([-1.0, 1.0]),
        near=st.booleans(),
    )
    def test_matches_dense_count_away_from_levels(
        self, cutoff, rabi, eta, detuning, where, level, offset, sign, near
    ):
        """Equal to the dense count whenever sigma is 1e-9 scale or more from every
        level: anywhere in the spectrum, or 1e-8 to 1e-2 scale from one level."""
        p = ModelParams(rabi, eta, detuning)
        w = dense_levels(p, cutoff)
        scale = max(1.0, float(np.max(np.abs(w))))
        if near:
            sigma = w[level % w.size] + sign * 10.0**offset * scale
        else:
            sigma = w[0] + where * (w[-1] - w[0])
        assume(np.min(np.abs(w - sigma)) >= 1e-9 * scale)
        assert levels_below(p, cutoff, sigma) == int(np.sum(w < sigma))

    def test_matches_dense_count_at_cutoff_1000(self):
        p = ModelParams(rabi=2.5, lamb_dicke=30.0, detuning=-1.3)
        w = dense_levels(p, 1000)
        sigmas = np.concatenate([w[::97] + 1e-6, w[50::131] - 1e-6, [w[0] - 1.0, w[-1] + 1.0]])
        for sigma in sigmas:
            assert levels_below(p, 1000, sigma) == int(np.sum(w < sigma)), sigma

    @pytest.mark.parametrize("rabi, eta", [(0.8, 0.3), (0.5, 1.0), (0.0, 0.6)])
    def test_singular_first_block_matches_dense_count(self, rabi, eta):
        """At eps = 0 and sigma = g^2 - rabi/2 the first pivot block is singular
        (the zero matrix at rabi = 0); the count restarts just below sigma."""
        p = ModelParams(rabi, eta, 0.0)
        sigma = -rabi / 2.0 + (eta / 2.0) ** 2
        down, up, eps, _ = model._h_transformed_band(p, 2)
        assert (down[0] - sigma) * (up[0] - sigma) - eps * eps == 0.0
        assert levels_below(p, 40, sigma) == int(np.sum(dense_levels(p, 40) < sigma))

    def test_level_at_sigma_is_not_counted(self):
        """Uncoupled (eta = 0, eps = 0), the levels are n -/+ rabi/2: 1.5 is a double
        level, so block 1 is exactly singular at sigma = 1.5."""
        p = ModelParams(rabi=1.0, lamb_dicke=0.0, detuning=0.0)
        assert levels_below(p, 10, 1.5) == 3  # -0.5, 0.5, 0.5
        assert levels_below(p, 10, 1.5 + 1e-9) == 5

    def test_overflow_and_bad_arguments_raise(self):
        with pytest.raises(OverflowError):
            levels_below(ModelParams(0.5, 1e154, 0.3), 150, 1.0)
        with pytest.raises(ValueError):
            levels_below(P_ANCHOR, 40, float("nan"))
        with pytest.raises(InvalidBasisError):
            levels_below(P_ANCHOR, 1, 0.5)

    @pytest.mark.parametrize("rabi, eta", [(0.5, 1.0), (0.8, 0.3), (0.9, 0.6)])
    def test_has_level_is_two_counts_on_one_band(self, rabi, eta):
        """``has_level`` counts on one band and gives what two ``levels_below``
        calls give. At (0.5, 1.0) the first block is singular at sigma = 0, which
        energy -/+ EIGEN_GAP_TOL hits exactly, so both zero-pivot restarts run."""
        p = ModelParams(rabi, eta, 0.0)
        singular = -rabi / 2.0 + (eta / 2.0) ** 2
        energies = [singular - EIGEN_GAP_TOL, singular + EIGEN_GAP_TOL, *dense_levels(p, 40)[:6]]
        if singular == 0.0:
            assert oracle._block_inertia(*oracle._band_lists(p, 40), 0.0) is None
            assert energies[0] + EIGEN_GAP_TOL == 0.0 == energies[1] - EIGEN_GAP_TOL
        for energy in energies:
            counts = levels_below(p, 40, energy + EIGEN_GAP_TOL), levels_below(
                p, 40, energy - EIGEN_GAP_TOL)
            assert has_level(p, 40, energy) == (counts[0] > counts[1])

    def test_has_level_within_the_gap_tolerance(self):
        """The solver's check: a level 5e-7 away is accepted, one 2e-6 away is not."""
        p = ModelParams(rabi=0.9, lamb_dicke=0.6, detuning=0.4)
        for level in dense_levels(p, 150)[[0, 7, 40]]:
            for sign in (-1.0, 1.0):
                assert has_level(p, 150, level + sign * 0.5 * EIGEN_GAP_TOL)
                assert not has_level(p, 150, level + sign * 2.0 * EIGEN_GAP_TOL)


class TestValidateSeriesSolution:
    def test_closed_form_solution_passes(self):
        sol = case1_closed_form(0.2, 0.0, 1)
        report = validate_series_solution(sol, FockBasis(150))
        assert report.passed
        assert not report.inconclusive
        assert report.eigen_gap < 1e-10
        assert report.residual < 1e-10
        assert report.overlap > 0.999

    def test_wrong_energy_fails_conclusively(self):
        sol = case1_closed_form(0.2, 0.0, 1)
        sol.energy += 0.01
        report = validate_series_solution(sol, FockBasis(150))
        assert not report.passed
        assert not report.inconclusive
        assert report.eigen_gap == pytest.approx(0.01, abs=1e-4)

    def test_too_small_basis_is_inconclusive(self):
        sol = case1_closed_form(0.2, 0.0, 1)
        report = validate_series_solution(sol, FockBasis(8))
        assert report.inconclusive
        assert not report.passed
        assert report.recommended_cutoff == 16

    def test_tail_heavy_reconstruction_is_inconclusive(self):
        # a wider displaced solution that fits degree-wise but leaves tail mass
        sol = case1_closed_form(1.2, 0.4, 1)
        report = validate_series_solution(sol, FockBasis(12))
        assert report.inconclusive
        assert report.recommended_cutoff == 24
