"""Bit-for-bit pins of the general-order termination solver.

``terminate_general`` is deterministic: 8 fixed heuristic seeds, or a guess
and 7 jitters of it from a seeded generator, refined by damped Gauss-Newton.
Its printed digits are golden-pinned, so every returned point is frozen here
as ``float.hex`` of (rabi, detuning, c0, gap), its ``jacobian_rank`` and
the ``float.hex`` of its termination residual, where gap is the distance from
its energy to the nearest ``eigvalsh`` level of H_I at cutoff 150, and every unsolved input as the
``float.hex`` of its 8-entry residual trace.

GRID keys are (order, branch, index into ETAS): two inputs for each order 3..8
and branch. At eta = 0.05 the points of orders 4..8 are accepted on their
state residual (``series.state_residual``) with termination residuals of
3.4e-10 to 9.3e-4, which the coefficient bound max|F| < 1e-10 had refused
(orders >= 5) or had stopped a later start on (order 4). The guess run
converges only from a jittered start, so it pins the jitter draws too. The
no-convergence run pins eps, which keeps its guess in all 8 starts, at a
point with no driven order-3 solution (see
tests/test_series.py::TestTerminateGeneral::test_no_convergence_reports_trace).
The formerly refused run is the earlier no-convergence input, whose stalled
first start has a state residual of 8.6e-12.
PARKED and MOVED pin the two-pass schedule on ``termination_scan`` pool
inputs. PARKED's first start is parked after its first pass and then ends
uncertified, so the second start is returned as in a start-by-start run.
In each MOVED input an earlier start needs more than ``_FIRST_PASS``
iterations to certify, and a later one certifies within them and is returned.
GRID_SHA256 is the sha256 of the ``repr`` of the records of all 192 inputs
(orders 3..8, both branches, every ETAS value), so one test gates the whole
grid; the GRID samples show which input moved.
"""

import hashlib

import numpy as np
import pytest

from ionseries.errors import NoSolutionFoundError
from ionseries.model import FockBasis
from ionseries.oracle import nearest_level, validate_series_solution
from ionseries.series import case1_closed_form, case2_closed_form, terminate_general

ETAS = np.linspace(0.05, 0.8, 16)

GRID = {
    (3, 1, 0): (
        "0x1.9999981940653p-1", "0x1.792a3da174351p+1", "-0x1.8776f2a1756e2p-1",
        "0x1.0000000000000p-51", 2, "0x1.03e6a6a000000p-37",
    ),
    (3, 1, 3): (
        "0x1.9999997a6f3c8p-1", "0x1.e968b33e8ec06p+0", "-0x1.c5ab7cf2f94a2p-1",
        "0x1.0000000000000p-51", 2, "0x1.2c50000000000p-40",
    ),
    (3, -1, 0): (
        "0x1.9999995ad7d8fp-1", "-0x1.aa6fe83a75871p-1", "0x1.70b38194fbe65p-1",
        "0x1.8000000000000p-50", 2, "0x1.16c0000000000p-36",
    ),
    (3, -1, 4): (
        "0x1.9999981aa1cddp-1", "-0x1.56e329beeabc6p-1", "0x1.1037ca8436fdap-1", "0x0.0p+0",
        2, "0x1.4000000000000p-43",
    ),
    (4, 1, 0): (
        "0x1.999990015c2f3p-1", "0x1.a942690c00693p-1", "-0x1.103a5f3a09186p+0",
        "0x1.0000000000000p-50", 2, "0x1.7800000000000p-32",
    ),
    (4, 1, 5): (
        "0x1.999992122879ap-1", "0x1.0eedf27f22900p-1", "-0x1.f8a800a9935cep+0",
        "0x1.6000000000000p-48", 2, "0x1.07aaaaaaaaaabp-35",
    ),
    (4, -1, 0): (
        "0x1.9999980cca5dcp-1", "-0x1.a94265d6d7d7ap-1", "0x1.103a601dba90dp+0",
        "0x1.0000000000000p-50", 2, "0x1.0b00000000000p-30",
    ),
    (4, -1, 6): (
        "0x1.9999987acae52p-1", "-0x1.b5910a8d92de3p-2", "0x1.7604fc459e879p+1",
        "0x1.8000000000000p-50", 2, "0x1.7000000000000p-39",
    ),
    (5, 1, 0): (
        "0x1.999998a752b07p-1", "0x1.eb5e3af94d691p+0", "-0x1.da13495196207p-1",
        "0x1.8000000000000p-49", 2, "0x1.e2a7fffffffffp-29",
    ),
    (5, 1, 7): (
        "0x1.99999966df060p-1", "0x1.c6e5aa1f7f524p+0", "-0x1.ec896b2482aefp-1",
        "0x1.6000000000000p-47", 2, "0x1.3800000000000p-38",
    ),
    (5, -1, 0): (
        "0x1.999999be89b16p-1", "-0x1.a8158059425fap-1", "0x1.9d61e151170f5p-1",
        "0x1.0000000000000p-50", 2, "0x1.21fffffffffffp-27",
    ),
    (5, -1, 8): (
        "0x1.9998ff0690c2ep-1", "-0x1.0b83d234c6576p-4", "-0x1.47e5d86d20d11p-3",
        "0x1.c000000000000p-47", 2, "0x1.3df684bda12f6p-34",
    ),
    (6, 1, 0): (
        "0x1.99999a54aca16p-1", "0x1.a6e938452a3efp-1", "-0x1.0de9c26fcc037p+0",
        "0x1.8000000000000p-49", 2, "0x1.3492492492492p-24",
    ),
    (6, 1, 9): (
        "0x1.999a656e0da9dp-1", "0x1.6f965a6b8d985p+1", "-0x1.db0492845d864p-1",
        "0x1.0000000000000p-50", 2, "0x1.0124924924925p-43",
    ),
    (6, -1, 0): (
        "0x1.999996afcc2cfp-1", "-0x1.a6e939b85b22dp-1", "0x1.0de9c21a4ed0ap+0",
        "0x1.4000000000000p-48", 2, "0x1.2d12492492492p-19",
    ),
    (6, -1, 10): (
        "0x1.9999ab1e63984p-1", "-0x1.7c351115b91b5p+0", "0x1.9c0603e289bd3p-1",
        "0x1.f000000000000p-46", 2, "0x1.ae50000000000p-34",
    ),
    (7, 1, 0): (
        "0x1.9999999b3ac1cp-1", "0x1.eb4b1dba178b6p+0", "-0x1.e4639058ae89ap-1",
        "0x1.0000000000000p-49", 2, "0x1.1309600000000p-13",
    ),
    (7, 1, 11): (
        "0x1.9999981481c4cp-1", "0x1.44d928cbe6e33p+0", "-0x1.35cc9e08c9a89p+0",
        "0x1.0000000000000p-50", 2, "0x1.a000000000000p-41",
    ),
    (7, -1, 0): (
        "0x1.99999a30a9108p-1", "-0x1.a5bd8c572248fp-1", "0x1.b2fb15082dda1p-1",
        "0x0.0p+0", 2, "0x1.2020000000000p-15",
    ),
    (7, -1, 12): (
        "0x1.99999b2229cd9p-1", "-0x1.23293e66e0808p+0", "0x1.5fdd5c17c947fp+0",
        "0x1.8000000000000p-49", 2, "0x1.0800000000000p-39",
    ),
    (8, 1, 0): (
        "0x1.999999e03d37fp-1", "0x1.eb411e59e6012p+0", "-0x1.e3271c0243732p-1",
        "0x1.8000000000000p-49", 2, "0x1.e74e000000000p-11",
    ),
    (8, 1, 13): (
        "0x1.9999a368e763fp-1", "0x1.4182bfe19bed4p+1", "-0x1.ef9fdbcff442ep-1",
        "0x1.0000000000000p-49", 2, "0x1.8d00000000000p-38",
    ),
    (8, -1, 0): (
        "0x1.99999811fadbep-1", "-0x1.a4927bf555b85p-1", "0x1.0c90876e063f3p+0",
        "0x1.0000000000000p-48", 2, "0x1.4471c71c71c72p-11",
    ),
    (8, -1, 14): (
        "0x1.9999983068706p-1", "-0x1.5d943a2cd27cfp-1", "0x1.1a2c2e9ff852ap-2",
        "0x1.8000000000000p-49", 2, "0x1.6900000000000p-34",
    ),
}
FIX_EPS = (
    "0x1.f5a7cecdb685bp+0", "-0x0.0p+0", "0x1.b4d0cfa0e134bp-14",
    "0x1.c000000000000p-51", 2, "0x1.c87c000000000p-42",
)
FIX_RABI = (
    "0x1.0000000000000p-1", "0x1.d5f602b3c001fp-1", "-0x1.111e68e296e08p+0",
    "0x1.0000000000000p-52", 2, "0x1.7555555555554p-44",
)
GUESS = (
    "0x1.9b2acbb75f748p-1", "-0x1.0c7f62bbb3936p-2", "0x1.841231261a46fp-4",
    "0x1.8000000000000p-49", 2, "0x1.7931674c59d31p-36",
)
NO_CONVERGENCE = [
    "0x1.40320af13ee42p+6", "0x1.40320af1c3c70p+6", "0x1.40320ac6b40d4p+6",
    "0x1.40320acfdc2f4p+6", "0x1.40320aff90144p+6", "0x1.40320b03863acp+6",
    "0x1.40320ae7a5266p+6", "0x1.40320af5022eap+6",
]
FORMERLY_REFUSED = (
    "0x1.161e312004663p+3", "-0x1.2000000000000p+4", "0x1.6af605ebe09ebp-1",
    "0x1.8000000000000p-48", 2, "0x1.3e45aaaaaaaabp-29",
)
GRID_SHA256 = "c759bab486633f1067a9693217eb646ec4492a3b1ad21d3254483a5785e96a20"
PARKED = (
    "0x1.9999a1610969fp-1", "0x1.e9e47802906bdp+0", "-0x1.daaece75fca1bp-1",
    "0x1.8000000000000p-48", 2, "0x1.6a20000000000p-34",
)
MOVED = {
    (6, 1, 0.37597792549943804): (
        "0x1.99999a1dc3ee3p-1", "0x1.75f2f7c1dba8ep+1", "-0x1.d975d5a8dd4fep-1",
        "0x0.0p+0", 2, "0x1.08a4a885d33bbp-41",
    ),
    (8, 1, 0.3433683609199979): (
        "0x1.99999b654abf6p+0", "0x1.77b9fbbbba560p+0", "-0x1.b51e46d1dbcc6p-1",
        "0x1.0000000000000p-49", 2, "0x1.93d7a09989eeep-35",
    ),
    (8, 1, 0.3441941354216717): (
        "0x1.9999998a5e5aep+0", "0x1.7769427f9cec2p+0", "-0x1.b4ffb3042bac7p-1",
        "0x1.0000000000000p-49", 2, "0x1.1800000000000p-34",
    ),
}


def record(*args, **kwargs):
    try:
        sol = terminate_general(*args, **kwargs)
    except NoSolutionFoundError as exc:
        return [t.hex() for t in exc.residual_trace]
    p = sol.params
    gap = abs(nearest_level(p, 150, sol.energy) - sol.energy)
    return tuple(v.hex() for v in (p.rabi, p.detuning, sol.c0, gap)) + (
        sol.jacobian_rank, sol.termination_residual.hex())


@pytest.mark.parametrize("key", sorted(GRID), ids=lambda k: "order%d%+d-eta%d" % k)
def test_grid_input_bits(key):
    order, branch, i = key
    assert record(order, branch, float(ETAS[i])) == GRID[key]


def test_whole_grid_digest():
    records = [record(order, branch, float(eta))
               for order in range(3, 9) for branch in (1, -1) for eta in ETAS]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == GRID_SHA256


def test_fixed_anchor_bits():
    a1 = case1_closed_form(0.2, 0.0, 1)
    guess1 = (a1.params.rabi + 0.03, 0.0, a1.c0 + 0.01)
    assert record(1, 1, 0.2, guess=guess1, fix="eps") == FIX_EPS
    a2 = case2_closed_form(0.5, 0.1)[0]
    guess2 = (0.5, -a2.params.detuning / 2.0 + 0.02, a2.c0 + 0.02)
    assert record(2, 1, 0.1, guess=guess2, fix="rabi") == FIX_RABI


def test_guess_run_bits():
    assert record(5, -1, 0.38, guess=(0.8, -0.97, -0.86)) == GUESS


def test_no_convergence_trace_bits():
    assert record(3, 1, 0.3, guess=(1.0, -2.0, 0.0), fix="eps") == NO_CONVERGENCE


def test_formerly_refused_guess_run_bits():
    assert record(4, 1, 0.3, guess=(9.0, 9.0, 9.0), fix="eps") == FORMERLY_REFUSED


def test_parked_first_start_keeps_its_record():
    """Seed-101 pool input: its first start is parked and then not accepted."""
    assert record(5, 1, 0.13533480800114184) == PARKED


@pytest.mark.parametrize("args", sorted(MOVED), ids=lambda a: "order%d%+d-eta%r" % a)
def test_start_certified_in_first_pass_wins(args):
    """Pool inputs of seeds 15, 34 and 9137 whose earlier start certifies only
    after its first pass; the returned point passes the cutoff-150 oracle."""
    assert record(*args) == MOVED[args]
    assert validate_series_solution(terminate_general(*args), FockBasis(150)).passed
