"""Shared fixtures and the acceptance-criteria terminal summary."""

import os
import sys

# One BLAS thread, as the benchmark runs, unless the environment sets another
# count. On a 2-vCPU VM the suite ran in 37 s so, against 53 s with OpenBLAS's
# default of one thread per CPU contending with the library's own threads.
# BLAS reads these once, when numpy loads, so a numpy loaded earlier would
# silently keep its own thread count.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS threads")
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402  (after the pin)
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
