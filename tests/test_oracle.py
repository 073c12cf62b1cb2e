"""Diagonalization oracle: eigensystem wrapper, matching, level counts, validation."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ionseries import model
from ionseries.errors import InvalidBasisError, NonHermitianError
from ionseries.model import FockBasis, ModelParams, OperatorMatrix, build_h_transformed
from ionseries.oracle import (
    Spectrum,
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


#: Rows of rabi, lamb_dicke and detuning (float.hex), cutoff and sigma (float.hex):
#: each sigma is an eigenvalue of a leading block of H_I, 1e-9 or more from
#: every level of H_I, at which a pivot block is singular to rounding. Found by
#: ``leading_block_probes`` over 60 parameter sets (seed 2026, cutoffs 5-150,
#: rabi in [0, 3], eta in [0.05, 2], detuning in [-2, 2]): the first 47 of its
#: 243 292 probes are the ones that a count dividing by such a pivot gets wrong.
#: The last, from a second such search (seed 7, a fifth of the sets at detuning
#: 0), is one that a singularity threshold of 1e-13 (|ad| + b^2) gets wrong.
LEADING_BLOCK_PROBES = """
0x1.eb740c351449ep+0 0x1.ec1eeae4ece49p-1 -0x1.093705075c834p-1 129 0x1.6cf5634939b10p+6
0x1.ccc97589facc5p-1 0x1.d55cb34c86618p-2 0x1.7f9d72e7bdb0cp+0 52 0x1.69dadc80d5cd5p+3
0x1.3239bc476f7bap+1 0x1.3bab626ce1895p+0 -0x1.3d3be86658b04p-1 68 0x1.25652c4a37801p+3
0x1.3239bc476f7bap+1 0x1.3bab626ce1895p+0 -0x1.3d3be86658b04p-1 68 0x1.fc403ccb4a0bap+4
0x1.b0ac7fb46263ap+0 0x1.c9ab9a0a9ee7dp-1 0x1.9a0f75adad83cp+0 72 0x1.7622766335c5fp+3
0x1.ea824e88065d9p-1 0x1.683d9a8758a82p+0 -0x1.7d4bc4acb46f8p-1 143 0x1.15c1e312e98e1p+3
0x1.ea824e88065d9p-1 0x1.683d9a8758a82p+0 -0x1.7d4bc4acb46f8p-1 143 0x1.3532be42f9194p+5
0x1.ea824e88065d9p-1 0x1.683d9a8758a82p+0 -0x1.7d4bc4acb46f8p-1 143 0x1.da936a21500bfp+6
0x1.dd50834b5a36cp+0 0x1.8d261d62bc315p-1 -0x1.46e36eaa428f8p-2 147 0x1.38b948112a50cp+6
0x1.dd50834b5a36cp+0 0x1.8d261d62bc315p-1 -0x1.46e36eaa428f8p-2 147 0x1.acee780a4a259p+6
0x1.7c07792b3b5e7p+0 0x1.eed1a74b23360p-1 0x1.67b58970459b0p-1 85 0x1.8d57e7134ac80p+5
0x1.5b6807764311fp+1 0x1.fae054dc1d8dcp+0 -0x1.c3daea4696a7ep+0 49 0x1.8cdb20b60d350p+4
0x1.131f1f98c4c50p+0 0x1.793f8c79eabeap+0 -0x1.7c70b7fa1ab34p-1 18 0x1.115879859b927p+2
0x1.3fed2f0ad1a3cp+0 0x1.8f4965c452267p+0 0x1.d577b12215412p+0 60 0x1.9dba635862d5fp+4
0x1.5524d2f0eb4ddp+1 0x1.42c55f38ec692p+0 -0x1.5be10cf2ce9aap+0 87 0x1.c34849381d3bfp+2
0x1.5524d2f0eb4ddp+1 0x1.42c55f38ec692p+0 -0x1.5be10cf2ce9aap+0 87 0x1.14f14d8449839p+6
0x1.fa9410ce3b8f4p+0 0x1.1d64ad217c4b8p+0 0x1.ab47120725f04p+0 32 0x1.1774502bfe8e7p+4
0x1.cc4651904d8bep+0 0x1.a34527aa2e3c2p+0 -0x1.760118121a610p+0 149 0x1.6a4b3de5aba55p+5
0x1.cc4651904d8bep+0 0x1.a34527aa2e3c2p+0 -0x1.760118121a610p+0 149 0x1.1b0913ad42adfp+6
0x1.cc4651904d8bep+0 0x1.a34527aa2e3c2p+0 -0x1.760118121a610p+0 149 0x1.c52403322f585p+6
0x1.d2088fd3da68ap+0 0x1.b8a757b4cd833p+0 0x1.06db3e7ae34b4p-1 53 0x1.38a4b4f578460p+3
0x1.fa8ca591f5209p+0 0x1.c4b029fdafe70p+0 -0x1.28d5c5520fa98p-1 142 -0x1.fe63e54cb2cbap-3
0x1.fa8ca591f5209p+0 0x1.c4b029fdafe70p+0 -0x1.28d5c5520fa98p-1 142 0x1.64cc7d4098ac4p+4
0x1.fa8ca591f5209p+0 0x1.c4b029fdafe70p+0 -0x1.28d5c5520fa98p-1 142 0x1.933448bf407c6p+4
0x1.fa8ca591f5209p+0 0x1.c4b029fdafe70p+0 -0x1.28d5c5520fa98p-1 142 0x1.fa4f9879913ffp+5
0x1.700e6dd94897ap+1 0x1.69b2cddc67b12p+0 0x1.f5d4d9c43ef04p-1 101 0x1.b444267ae59ecp+4
0x1.4b744ea265d27p-1 0x1.515ce6c5d721ep+0 0x1.bd395495a7d9cp-1 73 0x1.281b9c4f90897p+3
0x1.4b744ea265d27p-1 0x1.515ce6c5d721ep+0 0x1.bd395495a7d9cp-1 73 0x1.4aa1073005709p+3
0x1.436a5fd8e9162p+1 0x1.70d5e29d922ccp-1 0x1.82a6cc75905a0p-1 134 0x1.e9ae8896b28d3p+5
0x1.436a5fd8e9162p+1 0x1.70d5e29d922ccp-1 0x1.82a6cc75905a0p-1 134 0x1.dd9f2c998e3bcp+6
0x1.363686bb6eb2ep-2 0x1.245f14f5467f9p-1 0x1.a8672f883c760p+0 101 0x1.c958e99d0833cp+5
0x1.e9a63706284dap-1 0x1.3146aaedb1874p+0 -0x1.0b867d0ee20d4p+0 58 0x1.751bec67881f0p+3
0x1.e9a63706284dap-1 0x1.3146aaedb1874p+0 -0x1.0b867d0ee20d4p+0 58 0x1.bea9dc53a36c8p+5
0x1.719a0278efbefp-1 0x1.92db9c4fe362dp+0 -0x1.13e56d9dedd64p-1 45 0x1.597c2aa7c757ep-3
0x1.719a0278efbefp-1 0x1.92db9c4fe362dp+0 -0x1.13e56d9dedd64p-1 45 0x1.a9f85c36f6cddp+2
0x1.719a0278efbefp-1 0x1.92db9c4fe362dp+0 -0x1.13e56d9dedd64p-1 45 0x1.a81e3c8e93320p+3
0x1.719a0278efbefp-1 0x1.92db9c4fe362dp+0 -0x1.13e56d9dedd64p-1 45 0x1.944fcbfbb1655p+4
0x1.08bfcbc8e745cp-3 0x1.eeb65be1c3e9ap+0 -0x1.e0cdd555b2da4p+0 68 0x1.e2d7f77525bdcp+3
0x1.08bfcbc8e745cp-3 0x1.eeb65be1c3e9ap+0 -0x1.e0cdd555b2da4p+0 68 0x1.160039fe553fcp+5
0x1.08bfcbc8e745cp-3 0x1.eeb65be1c3e9ap+0 -0x1.e0cdd555b2da4p+0 68 0x1.50803c939a2a4p+5
0x1.f0086c128ae4cp-2 0x1.1f18a0ac373eep+0 -0x1.383fe3ffc6b40p-3 64 0x1.c78f788a15b4ep+3
0x1.28452d4e317a0p+1 0x1.8d4df64ee1788p+0 -0x1.afbf0361dde4cp+0 132 0x1.4239db2cbcc92p+4
0x1.45d881ee72a45p-1 0x1.cbc6b568150cbp+0 0x1.8489d680cfc80p+0 113 0x1.f83efe222a880p+3
0x1.45d881ee72a45p-1 0x1.cbc6b568150cbp+0 0x1.8489d680cfc80p+0 113 0x1.8bf76066f1762p+4
0x1.45d881ee72a45p-1 0x1.cbc6b568150cbp+0 0x1.8489d680cfc80p+0 113 0x1.b2400f6de0df5p+5
0x1.45d881ee72a45p-1 0x1.cbc6b568150cbp+0 0x1.8489d680cfc80p+0 113 0x1.1b0e5b631c923p+6
0x1.45d881ee72a45p-1 0x1.cbc6b568150cbp+0 0x1.8489d680cfc80p+0 113 0x1.9f72f6f52d3d4p+6
0x1.25c39d256c023p-1 0x1.2b89b11562818p+0 -0x1.d75c718a7e2e8p+0 141 0x1.405076eff4eb4p+6
"""


def leading_block_probes(p, cutoff):
    """Every eigenvalue of every leading m x m block of H_I, m = 1..2 cutoff, that
    lies 1e-9 or more from every level of H_I; and those levels."""
    H = build_h_transformed(p, FockBasis(cutoff)).entries
    w = np.linalg.eigvalsh(H)
    sigmas = np.concatenate([np.linalg.eigvalsh(H[:m, :m]) for m in range(1, 2 * cutoff + 1)])
    return [float(s) for s in sigmas if np.min(np.abs(w - s)) >= 1e-9], w


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

    def test_sigma_at_a_leading_block_level_matches_dense_count(self):
        """A pivot block singular to rounding, not only exactly, restarts the
        count, at the listed probes and on a seeded sample of small cutoffs."""
        rows = [line.split() for line in LEADING_BLOCK_PROBES.strip().splitlines()]
        for rabi, eta, detuning, cutoff, sigma in rows:
            p = ModelParams(*(float.fromhex(x) for x in (rabi, eta, detuning)))
            sigma, w = float.fromhex(sigma), dense_levels(p, int(cutoff))
            assert np.min(np.abs(w - sigma)) >= 1e-9
            assert levels_below(p, int(cutoff), sigma) == int(np.sum(w < sigma)), (rabi, sigma)
        rng = np.random.default_rng(11)
        for _ in range(16):
            cutoff = int(rng.integers(5, 31))
            p = ModelParams(rng.uniform(0.0, 3.0), rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
            sigmas, w = leading_block_probes(p, cutoff)
            assert [levels_below(p, cutoff, s) for s in sigmas] == [
                int(np.sum(w < s)) for s in sigmas]

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
