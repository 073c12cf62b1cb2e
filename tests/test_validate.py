"""The validate suites as library calls: raw values, passing defaults, and a
failing verdict on a bad input for every suite."""

import math

import pytest

from ionseries import validate
from ionseries.rwa import rwa_energy
from ionseries.states import cat_state


def _floats(doc):
    """Every float in a suite's result, nested lists and dicts included."""
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _floats(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _floats(v)]
    return [doc] if isinstance(doc, float) else []


def test_suite_table_order_and_ids():
    assert list(validate.CHECKS) == ["eq13", "a3a4", "case1", "case2", "rwa", "cat", "oracle"]
    assert [cid for cid, _ in validate.CHECKS.values()] == [
        "eq13_identity", "a3a4_set_equality", "case1_oracle", "case2_oracle",
        "rwa_sector_agreement", "cat_identity", "oracle_membership",
    ]


@pytest.mark.parametrize("suite", ["eq13", "a3a4", "case1", "case2", "rwa", "cat", "oracle"])
def test_every_suite_passes_at_the_cli_defaults(suite):
    _, check = validate.CHECKS[suite]
    result = check(150, (10, 10), 0.0)
    assert result["passed"] is True
    assert all(math.isfinite(x) for x in _floats(result))


def test_results_are_raw_floats_not_rendered():
    """Rendering to 12 digits is the CLI's job; the suites hand back full precision."""
    result = validate.check_case_oracle(1, 150)
    assert any(float(f"{x:.12g}") != x for x in _floats(result))
    assert set(result["solutions"][0]) == {"branch", "energy", "residual", "eigen_gap",
                                           "overlap", "passed"}


def test_only_case_and_oracle_suites_read_the_cutoff(monkeypatch):
    seen = []
    basis, level = validate.FockBasis, validate.nearest_level

    def spy_basis(cutoff, spin_dim):
        seen.append(cutoff)
        return basis(cutoff=cutoff, spin_dim=spin_dim)

    def spy_level(p, cutoff, target):
        seen.append(cutoff)
        return level(p, cutoff, target)

    monkeypatch.setattr(validate, "FockBasis", spy_basis)
    monkeypatch.setattr(validate, "nearest_level", spy_level)
    expected = {"case1": 77, "case2": 77, "oracle": 77, "rwa": 60, "cat": 100}
    for suite, (_, check) in validate.CHECKS.items():
        seen.clear()
        check(77, (2, 2), 0.0)
        assert set(seen) == ({expected[suite]} if suite in expected else set()), suite


class TestBadInputFails:
    def test_eq13_with_an_empty_grid(self):
        result = validate.check_eq13((0, 0))
        assert result["passed"] is False and result["points"] == 0

    def test_a3a4_with_no_draws(self):
        result = validate.check_a3a4(n_draws=0)
        assert result["passed"] is False and result["real_root_draws"] == 0

    @pytest.mark.parametrize("order", [1, 2])
    def test_case_oracle_at_a_cutoff_too_small_to_decide(self, order):
        result = validate.check_case_oracle(order, 10)
        assert result["passed"] is False
        assert not any(s["passed"] for s in result["solutions"])

    def test_oracle_with_perturbed_energies(self):
        result = validate.check_oracle_membership(150, 0.01)
        assert result["passed"] is False
        assert all(s["eigen_gap"] > 1e-3 for s in result["solutions"])

    def test_rwa_against_a_shifted_closed_form(self, monkeypatch):
        monkeypatch.setattr(validate, "rwa_energy", lambda q, eta: rwa_energy(q, eta) + 1e-9)
        result = validate.check_rwa()
        assert result["passed"] is False
        assert result["max_error"] == pytest.approx(1e-9, rel=1e-3)

    def test_cat_against_a_cat_at_the_wrong_eta(self, monkeypatch):
        monkeypatch.setattr(validate, "cat_state", lambda eta, basis: cat_state(1.01 * eta, basis))
        result = validate.check_cat()
        assert result["passed"] is False
        assert result["min_identity_overlap"] < 1.0 - 1e-6
