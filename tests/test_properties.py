"""Seeded hypothesis properties over the parameter space (eta, rabi, eps).

Each property states the ranges it draws from. The draws are seeded, so a run
is reproducible, and the example counts keep the whole file to a few seconds.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from ionseries.errors import ConstraintInfeasibleError, PoleError
from ionseries.model import FockBasis
from ionseries.oracle import validate_series_solution
from ionseries.rwa import RwaQuery, rwa_energy, rwa_hamiltonian
from ionseries.series import case1_closed_form, case2_closed_form

SETTINGS = settings(deadline=None, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

ETA = st.floats(0.05, 4.0)
EPS = st.floats(-3.0, 3.0)
RABI = st.floats(0.0, 6.0)
BRANCH = st.sampled_from((1, -1))

#: The oracle's cutoff. At orders 1 and 2 it is far above order + 10, so a
#: report can be inconclusive only by the tail mass of the mapped state.
CUTOFF = 150


def assert_validated(sol):
    report = validate_series_solution(sol, FockBasis(CUTOFF))
    assert report.passed or report.inconclusive, (sol.order, sol.branch, sol.params, report)


@seed(20_221)
@settings(SETTINGS, max_examples=20)
@given(eta=ETA, eps=EPS, branch=BRANCH)
def test_case1_solutions_pass_the_oracle(eta, eps, branch):
    """Every feasible order-1 closed form with 0.05 <= eta <= 4 and |eps| <= 3
    passes ``validate_series_solution`` at cutoff 150, or is inconclusive by
    tail mass. Its rabi = 2 sqrt(1 + 2 branch eps - eta^2) is then at most
    2 sqrt(7), inside rabi <= 6."""
    try:
        sol = case1_closed_form(eta, eps, branch)
    except (ConstraintInfeasibleError, PoleError):
        assume(False)
    assert_validated(sol)


@seed(20_222)
@settings(SETTINGS, max_examples=10)
@given(rabi=RABI, eta=ETA)
def test_case2_solutions_pass_the_oracle(rabi, eta):
    """Every order-2 closed form with 0 <= rabi <= 6, 0.05 <= eta <= 4 and
    |eps| <= 3 passes ``validate_series_solution`` at cutoff 150, or is
    inconclusive by tail mass. Draws at a c0 pole are skipped."""
    assume(abs(eta - 2.0) > 1e-6)  # g = 1 degenerates the constraint quadratic
    try:
        sols = case2_closed_form(rabi, eta)
    except PoleError:
        assume(False)
    for sol in sols:
        if abs(sol.params.detuning) <= 6.0:  # eps = -detuning / 2
            assert_validated(sol)


@seed(20_223)
@settings(SETTINGS, max_examples=200)
@given(rabi=RABI, eta=ETA)
def test_case2_branches_give_one_energy_set(rabi, eta):
    """For 0 <= rabi <= 6 and 0.05 <= eta <= 4 (away from the g = 1
    degeneracy), the plus and minus order-2 branches give the same energies,
    bit for bit: X = eps - g^2 and Y = eps + g^2 solve quadratics that differ
    only in the sign of B, so Y = -X in floats."""
    assume(abs(eta - 2.0) > 1e-6)
    try:
        plus = case2_closed_form(rabi, eta, branches=(1,))
        minus = case2_closed_form(rabi, eta, branches=(-1,))
    except PoleError:
        assume(False)
    assert sorted(s.energy for s in plus) == sorted(s.energy for s in minus)
    assert len(plus) in (0, 2)


@seed(20_224)
@settings(SETTINGS, max_examples=200)
@given(scheme=st.sampled_from("MK"), index=st.integers(1, 6), n=st.integers(0, 27),
       sign=st.sampled_from((1, -1)), eta=st.floats(0.0, 4.0))
def test_rwa_energy_is_an_eigenvalue_of_rwa_hamiltonian(scheme, index, n, sign, eta):
    """For both schemes, resonance index 1..6, doublet n = 0..27 and
    0 <= eta <= 4, ``rwa_energy`` lies within 1e-12 of the matrix scale of an
    eigenvalue of ``rwa_hamiltonian`` on 30 Fock levels, where the doublet
    |n+1, lower>, |n, upper> fits."""
    q = RwaQuery(scheme, index, n=n, sign=sign)
    H = rwa_hamiltonian(q, eta, FockBasis(cutoff=30, spin_dim=2)).entries
    levels = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.max(np.abs(levels))))
    energy = rwa_energy(q, eta)
    assert math.isfinite(energy)
    assert float(np.min(np.abs(levels - energy))) < 1e-12 * scale
