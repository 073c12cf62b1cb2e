"""Motional states: coherent/cat constructions, fidelity, parity, Wigner grids,
and the thread runner behind the Wigner grid and the oracle."""

import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from ionseries import states
from ionseries.errors import BasisMismatchError, IonSeriesError, TruncationError
from ionseries.model import FockBasis
from ionseries.states import (
    StateVector,
    cat_state,
    coherent_state,
    fidelity,
    parity,
    wigner_grid,
)
from ionseries.validate import displaced_pair_overlap


class TestStateVector:
    def test_length_must_match_basis(self):
        with pytest.raises(BasisMismatchError):
            StateVector(np.ones(5), FockBasis(cutoff=3, spin_dim=1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.inf, 0.0]), FockBasis(cutoff=2, spin_dim=1))

    def test_normalize(self):
        v = StateVector(np.array([3.0, 4.0]), FockBasis(cutoff=2, spin_dim=1))
        n = v.normalize()
        assert n.norm == pytest.approx(1.0, rel=1e-15)
        assert n.amplitudes[0] == pytest.approx(0.6, rel=1e-15)
        with pytest.raises(ValueError):
            StateVector(np.zeros(2), FockBasis(cutoff=2, spin_dim=1)).normalize()


class TestCoherent:
    def test_frozen_amplitudes(self, motional100):
        v = coherent_state(0.5j, motional100)
        assert v.amplitudes[0] == pytest.approx(0.8824969025845955, rel=1e-14)
        assert v.amplitudes[1] == pytest.approx(0.4412484512922977j, rel=1e-14)

    def test_zero_is_vacuum(self, motional100):
        v = coherent_state(0.0, motional100)
        assert abs(v.amplitudes[0]) == 1.0
        assert np.max(np.abs(v.amplitudes[1:])) == 0.0

    def test_overlap_closed_form(self, motional100):
        g1, g2 = 0.3 + 0.2j, -0.1 + 0.4j
        f = fidelity(coherent_state(g1, motional100), coherent_state(g2, motional100))
        closed = abs(
            np.exp(-(abs(g1) ** 2 + abs(g2) ** 2) / 2.0 + np.conj(g1) * g2)
        ) ** 2
        assert f == pytest.approx(closed, abs=1e-10)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            coherent_state(8.0, FockBasis(cutoff=60, spin_dim=1))

    def test_requires_motional_basis(self):
        with pytest.raises(BasisMismatchError):
            coherent_state(0.5, FockBasis(cutoff=60, spin_dim=2))

    def test_underflowing_weight_is_named(self):
        """e^(-|gamma|^2/2) is subnormal at |gamma| = 38.5 and 0 at 38.7; the lobe fits
        at cutoff 2000 either way, so the refusal names the underflow, not the cutoff."""
        basis = FockBasis(cutoff=2000, spin_dim=1)
        assert coherent_state(38.5j, basis).norm == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(TruncationError, match="underflows to 0 in float64"):
            coherent_state(38.7j, basis)

    def test_exact_column_gate(self):
        """|2i> has Poisson mass 1.02e-8 on levels 20 and up and 1.9e-9 on 21 and up.
        |40>, whose weight e^{-1600} underflows, has 4.97e-7 on 1800 and up and
        5.7e-10 on 1850 and up. Even the vacuum has all its mass on 0 and up."""
        with pytest.raises(TruncationError, match="levels 20 and up"):
            states._require_coherent_fits(2j, 20, "probe")
        states._require_coherent_fits(2j, 21, "probe")
        with pytest.raises(TruncationError, match="mass 4.966e-07"):
            states._require_coherent_fits(40.0, 1800, "probe")
        states._require_coherent_fits(40.0, 1850, "probe")
        with pytest.raises(TruncationError, match="mass 1.000e"):
            states._require_coherent_fits(0.0, 0, "probe")
        states._require_coherent_fits(0.0, 1, "probe")


class TestCat:
    def test_frozen_amplitudes(self, motional100):
        v = cat_state(0.5, motional100)
        assert v.amplitudes[0] == pytest.approx(0.9701795974417818, rel=1e-14)
        assert v.amplitudes[1] == pytest.approx(0.22740555071236493j, rel=1e-14)

    def test_vacuum_component_closed_form(self, motional100):
        # <0| of the normalized superposition: (e^{-eta^2/2} + 1)/sqrt(2 + 2 e^{-eta^2/2})
        for eta in (0.2, 0.7, 1.2):
            v = cat_state(eta, motional100)
            w = math.exp(-(eta**2) / 2.0)
            assert v.amplitudes[0].real == pytest.approx(
                (w + 1.0) / math.sqrt(2.0 + 2.0 * w), rel=1e-12
            )

    def test_zero_eta_is_vacuum(self, motional100):
        v = cat_state(0.0, motional100)
        assert abs(v.amplitudes[0]) == pytest.approx(1.0, abs=1e-15)

    def test_displaced_pair_identity(self, motional100):
        for eta in (0.2, 0.5, 0.8, 1.2):
            assert displaced_pair_overlap(eta, motional100) > 1.0 - 1e-9

    def test_negative_eta_rejected(self, motional100):
        with pytest.raises(ValueError):
            cat_state(-0.5, motional100)

    def test_underflowed_pair_raises_truncation(self):
        """At eta = 100 every amplitude of |i eta> underflows to 0, leaving |0>/sqrt(2)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 on the way to the error
            with pytest.raises(TruncationError, match=r"overlap 0\.707106781186547"):
                cat_state(100.0, FockBasis(cutoff=150, spin_dim=1))

    @pytest.mark.parametrize("eta", [38.3, 38.6, 40.0])
    def test_underflow_is_named_not_blamed_on_the_cutoff(self, eta):
        """The lobe fits at cutoff 2000, but e^(-eta^2/2) is not a normal float64."""
        with pytest.raises(TruncationError, match="underflows in float64") as info:
            cat_state(eta, FockBasis(cutoff=2000, spin_dim=1))
        assert "increase the cutoff" not in str(info.value)

    def test_truncated_lobe_asks_for_a_larger_cutoff(self):
        """The vacuum holds nearly all of the kept mass, so the top ten levels pass."""
        with pytest.raises(TruncationError, match="more than 1e-9 from 1; increase the cutoff"):
            cat_state(8.0, FockBasis(cutoff=20, spin_dim=1))


class TestFidelity:
    def test_self_fidelity(self, motional100):
        v = coherent_state(0.4j, motional100)
        assert fidelity(v, v) == pytest.approx(1.0, abs=1e-14)

    def test_self_fidelity_is_clamped_to_one(self):
        """|<v|v>|^2 of the normalized |0.11> rounds to 1 + 4e-16; fidelity returns 1."""
        v = coherent_state(0.11, FockBasis(cutoff=60, spin_dim=1))
        vn = v.amplitudes / np.linalg.norm(v.amplitudes)
        assert abs(np.vdot(vn, vn)) ** 2 > 1.0
        assert fidelity(v, v) == 1.0

    def test_orthogonal_states(self):
        basis = FockBasis(cutoff=4, spin_dim=1)
        u = StateVector(np.eye(4)[0], basis)
        w = StateVector(np.eye(4)[2], basis)
        assert fidelity(u, w) == 0.0

    def test_cat_vs_displaced_lobe_closed_form(self, motional100):
        # |<i eta|cat>|^2 = (1 + e^{-eta^2/2})/2 at eta = 0.5
        f = fidelity(cat_state(0.5, motional100), coherent_state(0.5j, motional100))
        assert f == pytest.approx((1.0 + math.exp(-0.125)) / 2.0, abs=1e-12)
        assert f == pytest.approx(0.9412484512922977, abs=1e-12)

    def test_zero_vector_is_refused(self, motional100):
        zero = StateVector(np.zeros(100), motional100)
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            fidelity(zero, coherent_state(0.2, motional100))
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            fidelity(coherent_state(0.2, motional100), zero)

    def test_basis_mismatch(self, motional100):
        small = coherent_state(0.2, FockBasis(cutoff=80, spin_dim=1))
        big = coherent_state(0.2, motional100)
        with pytest.raises(BasisMismatchError):
            fidelity(small, big)


class TestParity:
    def test_vacuum_even(self, motional100):
        assert parity(coherent_state(0.0, motional100)) == 1.0

    def test_first_excited_odd(self):
        basis = FockBasis(cutoff=6, spin_dim=1)
        v = StateVector(np.eye(6)[1], basis)
        assert parity(v) == -1.0

    def test_cat_closed_form(self, motional100):
        # (1 + e^{-2 eta^2} + 2 e^{-eta^2/2}) / (2 + 2 e^{-eta^2/2})
        eta = 0.5
        expected = (1.0 + math.exp(-2 * eta**2) + 2.0 * math.exp(-(eta**2) / 2.0)) / (
            2.0 + 2.0 * math.exp(-(eta**2) / 2.0)
        )
        assert parity(cat_state(eta, motional100)) == pytest.approx(expected, abs=1e-13)
        assert parity(cat_state(eta, motional100)) == pytest.approx(
            0.8954926991520814, abs=1e-13
        )

    def test_zero_vector_is_refused(self):
        zero = StateVector(np.zeros(20), FockBasis(20, spin_dim=1))
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            parity(zero)

    def test_unnormalized_vectors_keep_their_bits(self):
        """Normalizing inside parity and fidelity divides by the norm, as before."""
        rng = np.random.default_rng(5)
        basis = FockBasis(30, spin_dim=1)
        u, w = (StateVector(3.7 * (rng.standard_normal(30) + 1j * rng.standard_normal(30)), basis)
                for _ in range(2))
        un, wn = (x.amplitudes / np.linalg.norm(x.amplitudes) for x in (u, w))
        signs = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
        assert parity(u) == float(np.dot(signs, np.abs(un) ** 2))
        assert fidelity(u, w) == float(abs(np.vdot(un, wn)) ** 2)

    def test_even_superposition_is_clamped_to_one(self):
        """The probabilities of |2>, |28> and |36> sum to 1 + 2e-16; parity returns 1."""
        amps = np.zeros(60)
        amps[[2, 28, 36]] = (-0.7037352358069926, -1.2654214710460525, -0.6232744625373522)
        probs = (amps / np.linalg.norm(amps)) ** 2
        assert float(np.dot(np.where(np.arange(60) % 2 == 0, 1.0, -1.0), probs)) > 1.0
        assert parity(StateVector(amps, FockBasis(cutoff=60, spin_dim=1))) == 1.0

    def test_traces_over_spin(self):
        basis = FockBasis(cutoff=4, spin_dim=2)
        amps = np.zeros(8)
        amps[2] = 1.0  # motional level 1, lower internal state
        assert parity(StateVector(amps, basis)) == -1.0


class TestWigner:
    def test_vacuum_peak(self):
        v = coherent_state(0.0, FockBasis(cutoff=30, spin_dim=1))
        W = wigner_grid(v, np.array([0.0]), np.array([0.0]))
        assert W.shape == (1, 1)
        assert W[0, 0] == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_first_excited_negative_at_origin(self):
        v = StateVector(np.eye(30)[1], FockBasis(cutoff=30, spin_dim=1))
        W = wigner_grid(v, np.array([0.0]), np.array([0.0]))
        assert W[0, 0] == pytest.approx(-2.0 / math.pi, rel=1e-12)

    def test_grid_orientation_and_shape(self, motional100):
        v = coherent_state(1.0j, motional100)  # displaced along the p axis
        xs = np.linspace(-2, 2, 5)
        ps = np.linspace(-2, 2, 9)
        W = wigner_grid(v, xs, ps)
        assert W.shape == (9, 5)
        i, j = np.unravel_index(np.argmax(W), W.shape)
        assert xs[j] == pytest.approx(0.0, abs=1e-12)
        assert ps[i] == pytest.approx(1.0, abs=1e-12)

    def test_normalization(self, motional100):
        v = cat_state(0.5, motional100)
        xs = np.linspace(-4.5, 4.5, 61)
        W = wigner_grid(v, xs, xs)
        dx = xs[1] - xs[0]
        assert float(W.sum()) * dx * dx == pytest.approx(1.0, abs=1e-6)

    def test_interference_negativity(self):
        v = cat_state(2.0, FockBasis(cutoff=100, spin_dim=1))
        W = wigner_grid(v, np.linspace(-3, 3, 41), np.linspace(-1, 3, 41))
        assert float(W.min()) < -0.1

    def test_refuses_values_no_state_has(self):
        """Far from cat_state(2.5) the recurrence returns |W| far above 2/pi."""
        v = cat_state(2.5, FockBasis(cutoff=150, spin_dim=1))
        axis = np.arange(-8.0, 9.0, 2.0)
        with pytest.raises(IonSeriesError, match="at x=-8, p=8 exceeds 2/pi"):
            wigner_grid(v, axis, axis)

    def test_requires_motional_basis(self):
        amps = np.zeros(8)
        amps[0] = 1.0
        v = StateVector(amps, FockBasis(cutoff=4, spin_dim=2))
        with pytest.raises(BasisMismatchError):
            wigner_grid(v, np.array([0.0]), np.array([0.0]))

    def test_zero_vector_is_refused(self):
        zero = StateVector(np.zeros(20), FockBasis(20, spin_dim=1))
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            wigner_grid(zero, np.array([0.0]), np.array([0.0]))

    def test_rejects_empty_grid(self, motional100):
        v = coherent_state(0.0, motional100)
        with pytest.raises(ValueError):
            wigner_grid(v, np.array([]), np.array([0.0]))


class TestRunWorkers:
    """states._run_pair, the library's one way to start a thread: its two jobs
    run on the caller's thread and on at most one more."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_thread_count_is_cpus_items_and_cap(self, pin_cpus, cpus, count):
        """``count`` items in two shares, as wigner_grid shares its chunks (serial
        for one), run on min(count, 2) threads, the caller's among them, whether
        the process may use one CPU or more."""
        pin_cpus(cpus)
        threads = []

        def job(share):
            def run():
                threads.append(threading.get_ident())
                return [2 * i for i in share]
            return run

        items = range(count)
        results = states._run_pair(job(items[0::2]), job(items[1::2]), serial=count < 2)
        assert len(set(threads)) == min(count, 2)
        assert threading.get_ident() in threads
        assert results == [[2 * i for i in items[0::2]], [2 * i for i in items[1::2]]]
        threads.clear()
        assert states._run_pair(job(items[0::2]), job(items[1::2]), serial=True) == results
        assert threads == [threading.get_ident()] * 2

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the platform cannot pin a thread to one CPU")
    def test_helper_thread_on_one_cpu(self):
        """Pinned to one CPU, ``second`` still runs on a helper thread exactly
        when ``serial`` is false: no path reads the CPU allowance."""
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})  # this thread; the helper inherits it
        try:
            for serial in (False, True):
                ran = states._run_pair(threading.get_ident, threading.get_ident, serial=serial)
                assert ran[0] == threading.get_ident()
                assert (ran[1] != ran[0]) is not serial
        finally:
            os.sched_setaffinity(0, allowed)

    def test_no_thread_left_running(self):
        before = threading.active_count()

        def slow():
            time.sleep(0.01)
            return 1

        def failing():
            raise ValueError("failed")

        for first, second in [(slow, slow), (failing, slow), (slow, failing), (failing, failing)]:
            try:
                states._run_pair(first, second)
            except ValueError:
                pass
            assert threading.active_count() == before

    def test_failure_reaches_caller(self):
        """``first``'s exception is raised ahead of ``second``'s, threaded or ``serial``."""
        def fail(exc):
            def run():
                raise exc
            return run

        for serial in (False, True):
            with pytest.raises(KeyError, match="second"):
                states._run_pair(lambda: 0, fail(KeyError("second")), serial=serial)
            with pytest.raises(KeyError, match="first"):
                states._run_pair(fail(KeyError("first")), lambda: 0, serial=serial)
            with pytest.raises(KeyError, match="first"):
                states._run_pair(fail(KeyError("first")), fail(ValueError("second")),
                                 serial=serial)

    def test_interrupt_is_raised_after_the_join(self):
        """An interrupt or exit from either job comes before any ``Exception``, and
        ``first``'s before ``second``'s; the thread has ended by then."""
        before = threading.active_count()

        def fail(exc):
            def run():
                raise exc
            return run

        cases = [((ValueError(), KeyboardInterrupt()), KeyboardInterrupt),
                 ((KeyboardInterrupt(), ValueError()), KeyboardInterrupt),
                 ((SystemExit(), KeyboardInterrupt()), SystemExit),
                 ((lambda: 0, KeyboardInterrupt()), KeyboardInterrupt)]
        for jobs, expected in cases:
            first, second = (job if callable(job) else fail(job) for job in jobs)
            with pytest.raises(expected):
                states._run_pair(first, second)
            assert threading.active_count() == before

    def test_no_item_lost_under_fast_thread_switching(self):
        """Pairs nested in pairs run four jobs on four threads, more than there
        are cores, and every result arrives in its place."""
        before = threading.active_count()
        items = np.arange(400.0)
        quarters = [items[k::4] for k in range(4)]

        def job(share):
            return lambda: [float(np.sqrt(x)) * 2.0 for x in share]

        def pair(a, b):
            return lambda: states._run_pair(job(a), job(b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                results = states._run_pair(pair(*quarters[:2]), pair(*quarters[2:]))
                assert results == [[(np.sqrt(q) * 2.0).tolist() for q in quarters[:2]],
                                   [(np.sqrt(q) * 2.0).tolist() for q in quarters[2:]]]
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_run_stops_after_a_failure(self):
        """Run in turn (``serial``), a failed ``first`` skips ``second``; beside
        it on a thread, ``second`` has run by the time the failure is raised."""
        ran = []

        def first():
            ran.append("first")
            raise RuntimeError("first")

        def second():
            ran.append("second")

        for serial, expected in [(True, ["first"]), (False, ["first", "second"])]:
            ran.clear()
            with pytest.raises(RuntimeError, match="first"):
                states._run_pair(first, second, serial=serial)
            assert sorted(ran) == expected
