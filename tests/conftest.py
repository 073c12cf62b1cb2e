"""Shared fixtures and the acceptance-criteria terminal summary."""

import numpy as np
import pytest

import ionseries as ions

# (number, name, status, extra) tuples filled in by tests/test_acceptance.py
ACCEPTANCE_RESULTS = []


def record_acceptance(num: int, name: str, status: str, extra: str = "") -> None:
    ACCEPTANCE_RESULTS.append((num, name, status, extra))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for num, name, status, extra in sorted(ACCEPTANCE_RESULTS):
        line = f"[ACCEPTANCE {num:02d}] {name}: {status}"
        if extra:
            line += f"  ({extra})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def motional100():
    return ions.FockBasis(cutoff=100, spin_dim=1)


@pytest.fixture(scope="session")
def spin150():
    return ions.FockBasis(cutoff=150, spin_dim=2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240816)
