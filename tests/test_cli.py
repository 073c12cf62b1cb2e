"""Command-line interface: outputs, determinism, config precedence, exit codes,
flags per subcommand and the argument types."""

import argparse
import json
import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionseries.cli import (
    MAX_CUTOFF,
    MAX_ETA,
    MAX_ETA_POINTS,
    MAX_GRID_SIDE,
    MAX_WIGNER_POINTS,
    MIN_CUTOFF,
    _branches,
    _build_parser,
    _finite,
    _grid,
    _guess,
    _int_in,
    _range,
    main,
)
from ionseries.model import FockBasis, ModelParams, build_h_transformed


def read(path):
    return path.read_text(encoding="utf-8")


class TestFigure:
    def test_curve_family_row_counts(self, tmp_path):
        out = tmp_path / "fig05.csv"
        assert main(["fig", "--omega", "0.5", "--out", str(out)]) == 0
        lines = read(out).strip().split("\n")
        assert lines[0] == "eta,energy,source,branch,n"
        rows = [ln.split(",") for ln in lines[1:]]
        # 101 eta points x (14 rotating-wave rows + 1 identity row + 4 root rows)
        assert len(rows) == 101 * 19
        counts = Counter(r[2] for r in rows)
        assert counts == {
            "rwa_eq10": 14 * 101,
            "eq13": 101,
            "appendix_a3": 2 * 101,
            "appendix_a4": 2 * 101,
        }
        etas = sorted({r[0] for r in rows}, key=float)
        assert etas[0] == "0" and etas[-1] == "1"

    def test_kilohertz_scheme_selected_for_large_omega(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["fig", "--omega", "3.0", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "scheme=K=3" in captured
        rows = [ln.split(",") for ln in read(out).strip().split("\n")[1:]]
        assert Counter(r[2] for r in rows)["rwa_eq12"] == 14 * 101

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["fig", "--omega", "0.5", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (
            (tmp_path / "a.csv.crossings.json").read_bytes()
            == (tmp_path / "b.csv.crossings.json").read_bytes()
        )

    def test_crossings_sidecar(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig", "--omega", "3.0", "--out", str(out)]) == 0
        crossings = json.loads(read(tmp_path / "fig3.csv.crossings.json"))
        assert isinstance(crossings, list)
        assert len(crossings) >= 1
        for c in crossings:
            assert set(c) == {"eta", "energy", "rwa", "other"}
            assert 0.0 <= c["eta"] <= 1.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig.json"
        assert main(["fig", "--omega", "0.5", "--eta", "0:0.2:0.1", "--out", str(out)]) == 0
        rows = json.loads(read(out))
        assert len(rows) == 3 * 19
        assert set(rows[0]) == {"eta", "energy", "source", "branch", "n"}

    def test_requires_omega(self, tmp_path):
        assert main(["fig", "--out", str(tmp_path / "x.csv")]) == 2

    def test_overflowing_energies_write_no_rows(self, tmp_path, capsys):
        """eta = 1e154, where the rotating-wave ladder would overflow, is over MAX_ETA."""
        out = tmp_path / "fig.csv"
        assert main(["fig", "--omega", "0.5", "--eta", "1e154", "--out", str(out)]) == 2
        assert not out.exists()
        assert "MAX_ETA" in capsys.readouterr().err


class TestSolve:
    def test_order1_payload(self, tmp_path):
        out = tmp_path / "s1.json"
        code = main(
            ["solve", "--order", "1", "--eta", "0.2", "--detuning", "0",
             "--branch", "+", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(read(out))
        assert doc["command"] == "solve"
        (sol,) = doc["solutions"]
        assert sol["order"] == 1 and sol["branch"] == "+"
        # payload floats are canonicalized to 12 significant digits
        assert sol["rabi"] == pytest.approx(1.9595917942265424, rel=1e-11)
        assert sol["energy"] == 1.0
        assert sol["oracle"]["passed"] is True
        assert sol["oracle"]["eigen_gap"] < 1e-6
        assert "eq7_residual" not in sol

    def test_order1_detuning_defaults_to_zero(self, tmp_path):
        """Without --detuning order 1 solves at detuning 0, byte for byte."""
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        argv = ["solve", "--order", "1", "--eta", "0.2", "--branch", "+"]
        assert main([*argv, "--out", str(implicit)]) == 0
        assert main([*argv, "--detuning", "0", "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_order2_payload(self, tmp_path):
        out = tmp_path / "s2.json"
        code = main(["solve", "--order", "2", "--omega", "0.5", "--eta", "0.1", "--out", str(out)])
        assert code == 0
        sols = json.loads(read(out))["solutions"]
        assert len(sols) == 4
        energies = sorted({s["energy"] for s in sols})
        assert energies[0] == pytest.approx(1.0158212682924952, rel=1e-10)
        assert energies[1] == pytest.approx(1.5410537317075048, rel=1e-10)
        for s in sols:
            assert s["eq7_residual"] < 1e-9
            assert s["oracle"]["passed"] is True

    def test_order2_branch_filter(self, tmp_path):
        out = tmp_path / "s2p.json"
        code = main(
            ["solve", "--order", "2", "--omega", "0.5", "--eta", "0.1",
             "--branch", "+", "--out", str(out)]
        )
        assert code == 0
        sols = json.loads(read(out))["solutions"]
        assert len(sols) == 2
        assert all(s["branch"] == "+" for s in sols)

    def test_order3_numeric(self, tmp_path):
        out = tmp_path / "s3.json"
        code = main(
            ["solve", "--order", "3", "--eta", "0.3", "--branch", "+", "--out", str(out)]
        )
        assert code == 0
        (sol,) = json.loads(read(out))["solutions"]
        assert sol["order"] == 3
        assert sol["jacobian_rank"] == 2
        assert sol["solver_oracle_gap"] < 1e-6
        assert sol["oracle"]["passed"] is True

    def test_order4_near_eta4_passes_the_oracle(self, tmp_path, capsys):
        """The coefficient bound max|F| < 1e-10 accepted a point here whose mapped
        state had Rayleigh residual 1.32e-7; the certificate keeps descending."""
        out = tmp_path / "s4.json"
        code = main(["solve", "--order", "4", "--eta", "3.828125", "--branch", "+",
                     "--out", str(out)])
        assert code == 0 and "passed=True" in capsys.readouterr().out
        (sol,) = json.loads(read(out))["solutions"]
        assert sol["oracle"]["passed"] is True and sol["oracle"]["residual"] < 1e-10

    def test_no_convergence_exit_code(self, tmp_path, capsys):
        """At eta = 0.3 and eps = -2 no driven order-3 point exists: the c0
        eliminant's cubic in rabi^2 has only positive coefficients
        (tests/test_series.py::TestTerminateGeneral::test_no_convergence_reports_trace)."""
        code = main(
            ["solve", "--order", "3", "--eta", "0.3", "--branch", "+",
             "--guess", "1,-2,0", "--fix", "eps", "--out", str(tmp_path / "x.json")]
        )
        assert code == 3
        assert "residual trace" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--branch", "+", "--guess=1e200,1e200,1e200"],  # every residual overflows
        ["--branch", "+", "--guess=0.5,1e100,1.0", "--fix", "eps"],  # Jacobian rank 0
        ["--branch=-", "--guess=0.8,-0.3,1.0", "--fix", "eps"],  # every start reaches rabi ~ 0
    ], ids=["overflowing-guess", "rank-deficient-point", "undriven-ion"])
    def test_unsolvable_guess_exits_3(self, tmp_path, capfd, argv):
        out = tmp_path / "x.json"
        code = main(["solve", "--order", "3", "--eta", "0.3", *argv, "--out", str(out)])
        captured = capfd.readouterr()
        assert code == 3 and not out.exists()
        assert captured.out == "" and "residual trace" in captured.err

    def test_displacement_beyond_the_cutoff_is_inconclusive(self, tmp_path, capsys):
        """At eta = 50 each solution's coherent column has mean level 625, which
        cutoff 150 cannot hold: no verdict, rather than a definite failure."""
        out = tmp_path / "s50.json"
        assert main(["solve", "--order", "2", "--eta", "50", "--omega", "1",
                     "--out", str(out)]) == 0
        sols = json.loads(read(out))["solutions"]
        assert len(sols) == 4
        for sol in sols:
            assert sol["oracle"]["inconclusive"] is True and sol["oracle"]["passed"] is False
            assert math.isnan(sol["oracle"]["eigen_gap"])
        assert capsys.readouterr().out.count("oracle_gap=nan passed=False") == 4

    def test_infeasible_is_usage_error(self, tmp_path):
        code = main(
            ["solve", "--order", "1", "--eta", "0.5", "--detuning", "1.0",
             "--branch", "+", "--out", str(tmp_path / "x.json")]
        )
        assert code == 2


class TestValidate:
    def test_identity_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert main(["validate", "--suite", "eq13", "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert doc["passed"] is True
        assert doc["checks"]["eq13_identity"]["passed"] is True
        assert "passed" in capsys.readouterr().out

    def test_perturbed_energies_fail_oracle_membership(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = main(
            ["validate", "--suite", "oracle", "--perturb-energy", "0.01", "--out", str(out)]
        )
        assert code == 1
        assert "oracle_membership" in capsys.readouterr().out
        doc = json.loads(read(out))
        assert doc["passed"] is False
        results = doc["checks"]["oracle_membership"]["solutions"]
        assert all(not r["passed"] for r in results)
        assert all(abs(r["eigen_gap"] - 0.01) < 1e-3 for r in results)

    def test_unknown_suite(self, tmp_path):
        assert main(["validate", "--suite", "nope", "--out", str(tmp_path / "v.json")]) == 2


class TestCatCommand:
    def test_report_and_wigner_sidecar(self, tmp_path):
        out = tmp_path / "cat.json"
        code = main(["cat", "--eta", "0.5", "--out", str(out), "--wigner=-2:2:1"])
        assert code == 0
        doc = json.loads(read(out))
        assert doc["parity"] == pytest.approx(0.8954926991520814, abs=1e-9)
        assert doc["identity_overlap"] > 1.0 - 1e-9
        assert doc["fidelity_vs_coherent"] == pytest.approx(0.9412484512922977, abs=1e-9)
        wigner = read(tmp_path / "cat.json.wigner.csv").strip().split("\n")
        assert wigner[0] == "x,p,w"
        assert len(wigner) == 1 + 5 * 5


    @pytest.mark.parametrize("argv", [["--eta", "40", "--cutoff", "2000"], ["--eta", "100"]])
    def test_underflow_is_named(self, tmp_path, capsys, argv):
        assert main(["cat", *argv, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "underflows in float64" in err[0] and "increase the cutoff" not in err[0]

    def test_truncated_lobe_still_fails_on_tail_mass(self, tmp_path, capsys):
        assert main(["cat", "--eta", "6", "--cutoff", "60", "--out", str(tmp_path / "x")]) == 2
        assert "tail mass" in capsys.readouterr().err


class TestOracleCommand:
    def test_interior_listing_and_target(self, tmp_path):
        out = tmp_path / "o.json"
        # detuning matched to the first order-2 root: eps = -0.45894626829249513
        code = main(
            ["oracle", "--omega", "0.5", "--eta", "0.1",
             "--detuning", "0.91789253658499026",
             "--target", "1.5410537317075048", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(read(out))
        assert doc["cutoff"] == 150
        assert len(doc["interior_eigenvalues"]) == 20
        assert abs(doc["nearest"]["eigenvalue"] - 1.5410537317075048) < 1e-6
        assert doc["nearest"]["gap_to_next"] > 1e-3

    def test_interior_is_lowest_third(self, tmp_path):
        """The listing is the lowest third of the 2 * cutoff levels, ascending."""
        out = tmp_path / "o.json"
        argv = ["oracle", "--omega", "0.7", "--eta", "0.4", "--detuning", "0.2",
                "--cutoff", "61", "--count", "1000", "--out", str(out)]
        assert main(argv) == 0
        levels = np.linalg.eigvalsh(build_h_transformed(
            ModelParams(rabi=0.7, lamb_dicke=0.4, detuning=0.2), FockBasis(61)).entries)
        listed = json.loads(read(out))["interior_eigenvalues"]
        assert listed == [float(f"{x:.12g}") for x in levels[:40]]

    @pytest.mark.parametrize("eta, code", [(19, 0), (20, 2), (100, 2)])
    def test_refuses_a_coupling_the_cutoff_cannot_hold(self, tmp_path, capsys, eta, code):
        """At cutoff 150 the coherent column |eta/2> puts more than 1e-8 of its
        mass on levels 150 and up from eta = 20: exit 2 with no listing."""
        out = tmp_path / "o.json"
        assert main(["oracle", "--omega", "1", "--eta", str(eta), "--detuning", "0",
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "coherent state" in capsys.readouterr().err


class TestConfigAndEnvironment:
    def test_config_fills_unset_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": "0.25", "detuning": 0.0}))
        out = tmp_path / "s.json"
        code = main(
            ["solve", "--order", "1", "--branch", "+", "--config", str(cfg),
             "--out", str(out)]
        )
        assert code == 0
        (sol,) = json.loads(read(out))["solutions"]
        assert sol["lamb_dicke"] == 0.25

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": "0.25", "detuning": 0.0}))
        out = tmp_path / "s.json"
        code = main(
            ["solve", "--order", "1", "--eta", "0.2", "--branch", "+",
             "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        (sol,) = json.loads(read(out))["solutions"]
        assert sol["lamb_dicke"] == 0.2

    def test_cutoff_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IONTRAP_CUTOFF", "80")
        out = tmp_path / "o.json"
        code = main(["oracle", "--omega", "0.5", "--eta", "0.1", "--out", str(out)])
        assert code == 0
        assert json.loads(read(out))["cutoff"] == 80

    def test_explicit_cutoff_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IONTRAP_CUTOFF", "80")
        out = tmp_path / "o.json"
        code = main(
            ["oracle", "--omega", "0.5", "--eta", "0.1", "--cutoff", "100",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(read(out))["cutoff"] == 100

    def test_config_values_parsed_like_flags(self, tmp_path):
        # JSON numbers, and output_path as an alias of out
        flags_out = tmp_path / "flags.json"
        assert main(["solve", "--order", "1", "--branch", "+", "--eta", "0.25",
                     "--detuning", "0", "--out", str(flags_out)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg_out = tmp_path / "cfg_out.json"
        cfg.write_text(json.dumps({"eta": 0.25, "detuning": 0, "output_path": str(cfg_out)}))
        assert main(["solve", "--order", "1", "--branch", "+", "--config", str(cfg)]) == 0
        assert cfg_out.read_bytes() == flags_out.read_bytes()

    def test_config_string_omega_on_fig(self, tmp_path):
        flags_out, cfg_out = tmp_path / "flags.csv", tmp_path / "cfg.csv"
        assert main(["fig", "--omega", "0.5", "--eta", "0:0.2:0.1", "--out", str(flags_out)]) == 0
        cfg = tmp_path / "cfg.json"
        # a list is a min:max:step range; "suite" is not a fig flag and is ignored
        cfg.write_text(json.dumps({"omega": "0.5", "eta": [0, 0.2, 0.1], "suite": "all"}))
        assert main(["fig", "--config", str(cfg), "--out", str(cfg_out)]) == 0
        assert cfg_out.read_bytes() == flags_out.read_bytes()

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": "abc"}))
        code = main(["oracle", "--omega", "0.5", "--eta", "0.1", "--config", str(cfg),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_cutoff_env_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IONTRAP_CUTOFF", "30")
        assert main(["oracle", "--omega", "0.5", "--eta", "0.1",
                     "--out", str(tmp_path / "o.json")]) == 2

    def test_config_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["solve", "--order", "1", "--eta", "0.2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: config file must hold a JSON object"]

    def test_bad_config_path(self, tmp_path):
        code = main(
            ["solve", "--order", "1", "--eta", "0.2", "--branch", "+",
             "--config", str(tmp_path / "missing.json")]
        )
        assert code == 2


class TestUsageErrors:
    def test_inverted_eta_range(self, tmp_path):
        assert main(["fig", "--omega", "0.5", "--eta", "1:0:0.1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_malformed_eta(self, tmp_path):
        assert main(["fig", "--omega", "0.5", "--eta", "a:b",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_output_path(self):
        assert main(["fig", "--omega", "0.5", "--eta", "0:0.1:0.1",
                     "--out", "/nonexistent_dir_xyz/f.csv"]) == 2

    def test_cutoff_floor(self, tmp_path):
        assert main(["oracle", "--omega", "0.5", "--eta", "0.1", "--cutoff", "30",
                     "--out", str(tmp_path / "o.json")]) == 2

    def test_wigner_zero_step(self, tmp_path):
        assert main(["cat", "--eta", "0.5", "--wigner=0:1:0",
                     "--out", str(tmp_path / "c.json")]) == 2

    def test_wigner_inverted_range(self, tmp_path):
        assert main(["cat", "--eta", "0.5", "--wigner=1:0:0.1",
                     "--out", str(tmp_path / "c.json")]) == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_oracle_count_below_one(self, tmp_path, count):
        assert main(["oracle", "--omega", "0.5", "--eta", "0.1", "--count", count,
                     "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["solve", "--eta", "0.3"], "--order"),
        (["solve", "--order", "3"], "--eta"),
        (["solve", "--order", "2", "--eta", "0.1"], "--omega"),
        (["cat"], "--eta"),
        (["oracle", "--eta", "0.1"], "--omega"),
        (["oracle", "--omega", "0.5"], "--eta"),
    ], ids=["solve-order", "solve-eta", "solve-order2-omega", "cat-eta", "oracle-omega",
            "oracle-eta"])
    def test_missing_required_flag(self, tmp_path, capsys, argv, flag):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--omega", "-1", "--eta", "0.1"],
            ["solve", "--order", "0", "--eta", "0.3"],
            ["solve", "--order", "3", "--eta", "0.3", "--guess", "a,b,c"],
            ["cat", "--eta=-0.5"],
            ["solve", "--order", "1", "--eta=-0.2"],
        ],
        ids=["negative-omega", "order-0", "bad-guess", "negative-cat-eta", "negative-solve-eta"],
    )
    def test_domain_errors_exit_2_without_traceback(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["fig"], ["solve", "--order", "2", "--eta", "0.1"],
                                      ["oracle", "--eta", "0.1"]], ids=["fig", "solve", "oracle"])
    def test_negative_omega_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--omega=-0.5", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: rabi must be >= 0, got -0.5"]


    @pytest.mark.parametrize("argv, unread", [
        (["--order", "1", "--eta", "0.2", "--guess", "9,9,9", "--fix", "eps", "--omega", "7"],
         "--omega, --guess, --fix"),
        (["--order", "3", "--eta", "0.3", "--omega", "0.1", "--detuning", "5"],
         "--omega, --detuning"),
        (["--order", "2", "--eta", "0.1", "--omega", "0.5", "--detuning", "0"], "--detuning"),
        (["--order", "2", "--eta", "0.1", "--omega", "0.5", "--guess", "1,0,0"], "--guess"),
        (["--order", "4", "--eta", "0.3", "--omega", "0.5"], "--omega"),
        (["--order", "1", "--eta", "0.2", "--fix", "rabi"], "--fix"),
    ], ids=["order1-guess-fix-omega", "order3-omega-detuning", "order2-detuning",
            "order2-guess", "order4-omega", "order1-fix"])
    def test_solve_refuses_flags_its_order_does_not_read(self, tmp_path, capsys, argv, unread):
        out = tmp_path / "x.json"
        assert main(["solve", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and err[0].endswith(unread)

    def test_solve_refuses_an_unread_flag_from_config(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"omega": 0.5}))
        assert main(["solve", "--order", "1", "--eta", "0.2", "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith("--omega")

    @pytest.mark.parametrize("eta", ["0", "-0.0", "-0.2"])
    @pytest.mark.parametrize("order", ["1", "2", "3"])
    def test_solve_refuses_eta_at_or_below_zero(self, tmp_path, capsys, order, eta):
        """Every order gets one refusal from --eta's type: exit 2, no stdout,
        nothing written, and a message naming the eta -> 0 limit."""
        out = tmp_path / "x.json"
        argv = ["solve", "--order", order, f"--eta={eta}", "--omega", "0.5", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(err) == 1 and "must be > 0" in err[0] and "eta -> 0 limit" in err[0]

    def test_solve_refuses_eta_zero_from_config(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"eta": 0, "order": 3}))
        assert main(["solve", "--config", str(config)]) == 2
        assert "eta -> 0 limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["cat"], ["oracle", "--omega", "0.5", "--count", "2"]])
    def test_cat_and_oracle_accept_eta_zero(self, tmp_path, command):
        assert main([*command, "--eta", "0", "--out", str(tmp_path / "x.json")]) == 0


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("spelling", ["+1,-1", "plus", "-,+", "minus, plus"])
    def test_branch_spellings(self, tmp_path, spelling):
        out = tmp_path / "s.json"
        # the = form, since argparse reads a separate "-,+" as an option
        assert main(["solve", "--order", "1", "--eta", "0.2", f"--branch={spelling}",
                     "--out", str(out)]) == 0
        branches = [s["branch"] for s in json.loads(read(out))["solutions"]]
        assert set(branches) == ({"+"} if spelling == "plus" else {"+", "-"})

    def test_cutoff_env_does_not_reach_fig(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IONTRAP_CUTOFF", "30")
        assert main(["fig", "--omega", "0.5", "--eta", "0:0.2:0.1",
                     "--out", str(tmp_path / "f.csv")]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--order", "1", "--eta", "0.2", "--format", "json"],
            ["fig", "--omega", "0.5", "--cutoff", "100"],
            ["validate", "--suite", "rwa", "--eta", "0.3"],
            ["cat", "--eta", "0.5", "--format", "json"],
            ["oracle", "--omega", "0.5", "--eta", "0.1", "--format", "json"],
        ],
        ids=["solve-format", "fig-cutoff", "validate-eta", "cat-format", "oracle-format"],
    )
    def test_unread_flags_are_usage_errors(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig", "--omega", "nan"],
            ["fig", "--omega", "inf", "--eta", "0:0.1:0.1"],
            ["oracle", "--omega", "0.5", "--eta", "0.1", "--target", "nan"],
            ["oracle", "--omega", "0.5", "--eta", "0.1", "--detuning", "-inf"],
            ["solve", "--order", "1", "--eta", "0.2", "--detuning", "nan"],
            ["validate", "--suite", "oracle", "--perturb-energy", "nan"],
            ["validate", "--suite", "eq13", "--grid", "0x5"],
            ["fig", "--omega", "0.5", "--eta", "0:1:1e-5"],
            ["cat", "--eta", "0.5", "--wigner=-1:1:0.01"],
            ["oracle", "--omega", "0.5", "--eta", "0.1:0.5:0.1", "--count", "1"],
            ["solve", "--order", "1", "--eta", "0.1:0.3:0.1"],
            ["cat", "--eta", "0.2:0.3:0.1"],
            ["validate", "--suite", "eq13", "--grid", f"{MAX_GRID_SIDE + 1}x1"],
            ["fig", "--omega", "0.5", "--eta", "1e160"],
            ["oracle", "--omega", "0.5", "--eta", "1e160"],
            ["cat", "--eta", "100"],
            ["cat", "--eta", "2.5", "--wigner=-8:8:2"],
        ],
        ids=["omega-nan", "omega-inf", "target-nan", "detuning-inf", "solve-detuning-nan",
             "perturb-nan", "grid-0x5", "eta-over-cap", "wigner-over-cap",
             "oracle-eta-range", "solve-eta-range", "cat-eta-range", "grid-over-cap",
             "fig-eta-overflow", "oracle-eta-overflow", "cat-underflow", "wigner-far-grid"],
    )
    def test_rejected_before_running(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["fig", "--omega", "0.5", "--eta", "1e154"],
        ["fig", "--omega", "0.5", "--eta", "0:200:1"],
        ["solve", "--order", "1", "--eta", "1e154"],
        ["cat", "--eta", "100.5"],
        ["oracle", "--omega", "0.5", "--eta", "1e154"],
    ], ids=["fig", "fig-range", "solve", "cat", "oracle"])
    def test_eta_over_its_cap_names_max_eta(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()
        err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(err) == 1 and f"MAX_ETA = {MAX_ETA:g}" in err[0]

    def test_eta_cap_is_inclusive(self, capsys):
        parse = _build_parser().parse_args
        assert parse(["cat", "--eta", str(MAX_ETA)]).eta == [MAX_ETA]
        assert parse(["fig", "--eta", f"0:{MAX_ETA}:1"]).eta[-1] == MAX_ETA
        with pytest.raises(SystemExit):
            parse(["cat", "--eta", repr(math.nextafter(MAX_ETA, math.inf))])
        assert "MAX_ETA" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["oracle", "--omega", "0.5", "--count", "1"], ["cat"]])
    def test_one_point_eta_range_is_its_value(self, tmp_path, command):
        ranged, single = tmp_path / "ranged.json", tmp_path / "single.json"
        assert main([*command, "--eta", "0.5:0.5:0.1", "--out", str(ranged)]) == 0
        assert main([*command, "--eta", "0.5", "--out", str(single)]) == 0
        assert read(ranged) == read(single)


# number-like strings, including the non-finite and out-of-range spellings
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "1e-320", "", " ", "x", "-0", "1_0"]),
)


def joined(sep, max_size):
    return st.lists(NUMBERS, min_size=1, max_size=max_size).map(sep.join)


class TestArgumentTypes:
    """Every string either parses to finite values inside the flag's bounds or
    raises ArgumentTypeError. Caps are tested on the type functions alone, so
    no oversized range is ever built."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=20), joined(":", 4)),
           st.sampled_from([1, MAX_ETA_POINTS, MAX_WIGNER_POINTS]))
    def test_range(self, text, cap):
        try:
            points = _range(cap)(text)
        except argparse.ArgumentTypeError:
            return
        assert 1 <= len(points) <= cap
        assert all(math.isfinite(p) for p in points)
        assert points == sorted(points)
        assert float(text.split(":")[0]) == points[0]

    @pytest.mark.parametrize(
        "cap, text, points",
        [
            (MAX_ETA_POINTS, "0:1:0.01", 101),
            (MAX_ETA_POINTS, "0:1:1e-4", MAX_ETA_POINTS),
            (MAX_WIGNER_POINTS, "-2:2:0.05", 81),
            (MAX_WIGNER_POINTS, "0:1:0.01", MAX_WIGNER_POINTS),
            (MAX_WIGNER_POINTS, "0.5", 1),
            (1, "0.5", 1),
            (1, "0.5:0.5:0.1", 1),
        ],
    )
    def test_range_accepts_up_to_the_cap(self, cap, text, points):
        assert len(_range(cap)(text)) == points

    @pytest.mark.parametrize(
        "cap, text",
        [
            (MAX_ETA_POINTS, "0:1:1e-9"),
            (MAX_ETA_POINTS, "0:1.0001:1e-4"),
            (MAX_WIGNER_POINTS, "0:1:1e-9"),
            (MAX_WIGNER_POINTS, "0:1.01:0.01"),
            # under the cap by step ratio, but max snaps to the 102nd point
            (MAX_WIGNER_POINTS, "0:1.00999999999:0.01"),
            (MAX_ETA_POINTS, "-1e308:1e308:1"),
            (MAX_ETA_POINTS, "0:1:5e-324"),
            (1, "0.1:0.5:0.1"),
            (1, "0:0.1:0.1"),
        ],
    )
    def test_range_rejects_beyond_the_cap(self, cap, text):
        with pytest.raises(argparse.ArgumentTypeError, match="more than"):
            _range(cap)(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=12), st.tuples(
        st.integers(-5, 10**12), st.integers(-5, 10**12)).map(lambda t: f"{t[0]}x{t[1]}")))
    def test_grid(self, text):
        try:
            grid = _grid(text)
        except argparse.ArgumentTypeError:
            return
        assert len(grid) == 2 and all(isinstance(n, int) and 1 <= n <= MAX_GRID_SIDE for n in grid)

    @pytest.mark.parametrize("text, grid", [("1x1", (1, 1)),
                                            (f"{MAX_GRID_SIDE}x1", (MAX_GRID_SIDE, 1)),
                                            (f"1X{MAX_GRID_SIDE}", (1, MAX_GRID_SIDE))])
    def test_grid_accepts_up_to_the_cap(self, text, grid):
        assert _grid(text) == grid

    @pytest.mark.parametrize("text", [f"{MAX_GRID_SIDE + 1}x1", f"1x{MAX_GRID_SIDE + 1}",
                                      "1000000000x1"])
    def test_grid_rejects_beyond_the_cap(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match=f"<= {MAX_GRID_SIDE}"):
            _grid(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=12), st.integers(-10, 10**7).map(str)))
    def test_cutoff(self, text):
        try:
            cutoff = _int_in(MIN_CUTOFF, MAX_CUTOFF)(text)
        except (argparse.ArgumentTypeError, ValueError):  # argparse reports both
            return
        assert MIN_CUTOFF <= cutoff <= MAX_CUTOFF

    @pytest.mark.parametrize("text, ok", [(str(MIN_CUTOFF), True), (str(MAX_CUTOFF), True),
                                          (str(MIN_CUTOFF - 1), False),
                                          (str(MAX_CUTOFF + 1), False), ("100000", False)])
    def test_cutoff_edges(self, text, ok):
        if ok:
            assert _int_in(MIN_CUTOFF, MAX_CUTOFF)(text) == int(text)
        else:
            with pytest.raises(argparse.ArgumentTypeError):
                _int_in(MIN_CUTOFF, MAX_CUTOFF)(text)

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_cutoff_cap_is_a_usage_error(self, monkeypatch, capsys, source):
        """Parsed only: an over-cap cutoff must never reach a command."""
        argv = ["oracle", "--omega", "0.5", "--eta", "0.1"]
        if source == "flag":
            argv += ["--cutoff", str(MAX_CUTOFF + 1)]
        else:
            monkeypatch.setenv("IONTRAP_CUTOFF", str(MAX_CUTOFF + 1))
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert f"<= {MAX_CUTOFF}" in err

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=12), st.lists(st.sampled_from(
        ["+", "-", "+1", "-1", "plus", "minus", " + ", "1", "0", "", "x"]), min_size=1,
        max_size=4).map(",".join)))
    def test_branches(self, text):
        try:
            branches = _branches(text)
        except argparse.ArgumentTypeError:
            return
        assert branches and set(branches) <= {1, -1}
        assert len(set(branches)) == len(branches)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=20), joined(",", 4)))
    def test_guess(self, text):
        try:
            guess = _guess(text)
        except argparse.ArgumentTypeError:
            return
        assert len(guess) == 3 and all(math.isfinite(v) for v in guess)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=20), NUMBERS))
    def test_finite(self, text):
        try:
            value = _finite(text)
        except argparse.ArgumentTypeError:
            return
        assert isinstance(value, float) and math.isfinite(value)


def test_closed_stdout_exits_2_with_one_error_line(tmp_path):
    """A reader that closes the pipe early, as ``ionseries fig ... | head -1``
    does, gets exit 2 and one ``error:`` line: no traceback, no exit 1 (the
    code of a failed suite) and no "Exception ignored" from the flush at exit."""
    from test_golden import _env

    # about 650 kB of CSV, more than the pipe holds, so the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "ionseries.cli", "fig", "--omega", "0.5",
                             "--eta=0:1:0.001"], cwd=tmp_path, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "eta,energy,source,branch,n\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write stdout:"), err
