"""Motional-state constructions and phase-space diagnostics.

Coherent states, the displaced-even-coherent ("cat") target state, overlap
fidelity, motional parity, and a parity-kernel Wigner evaluation on a grid.
All constructions enforce the truncation-honesty invariant: amplitude mass in
the top ten Fock levels above 1e-8 raises TruncationError instead of silently
returning a clipped state.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatchError, IonSeriesError, TruncationError
from .model import FockBasis, _require_spin

__all__ = [
    "StateVector",
    "coherent_state",
    "cat_state",
    "fidelity",
    "parity",
    "wigner_grid",
]

#: Maximum allowed probability mass in the top ten Fock levels.
TAIL_MASS_TOL = 1e-8

#: Bytes of each of wigner_grid's (cutoff, tile) recurrence buffers: 256 KiB
#: makes 109-point tiles at cutoff 150, and the six that one recurrence step
#: touches fit a 2 MiB L2. A wigner_grid thread holds at most ten (2.5 MiB).
_TILE_BYTES = 256 * 1024

#: Tiles per chunk, the unit of work a wigner_grid thread takes: the coherent
#: seed column costs ``cutoff`` Python-level steps, paid once per chunk.
_CHUNK_TILES = 4


@dataclass
class StateVector:
    """A vector over a FockBasis.

    ``amplitudes[2n+s]`` is the amplitude on motional level n and internal
    level s (s = 0 lower, s = 1 upper) when spin_dim = 2; for spin_dim = 1 the
    index is the motional level directly.
    """

    amplitudes: np.ndarray
    basis: FockBasis
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or self.amplitudes.shape[0] != self.basis.dim:
            raise BasisMismatchError(
                f"amplitude vector of length {self.amplitudes.shape} does not "
                f"match basis dimension {self.basis.dim}"
            )
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes must be finite")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        return StateVector(
            amplitudes=_normalized(self.amplitudes),
            basis=self.basis,
            meta=dict(self.meta),
        )

    def tail_mass(self) -> float:
        """Probability mass on the top ten motional levels."""
        k = 10 * self.basis.spin_dim
        v = self.amplitudes
        total = np.sum(np.abs(v) ** 2)
        if total == 0:
            return 0.0
        return float(np.sum(np.abs(v[-k:]) ** 2) / total)


def _within_tail_budget(state: StateVector, what: str) -> StateVector:
    """``state`` itself, or TruncationError when its tail mass exceeds TAIL_MASS_TOL."""
    tail = state.tail_mass()
    if tail > TAIL_MASS_TOL:
        raise TruncationError(
            f"{what} has tail mass {tail:.3e} at cutoff {state.basis.cutoff}; "
            "increase the cutoff"
        )
    return state


def _coherent_amplitudes(gamma: complex, cutoff: int) -> np.ndarray:
    """Amplitudes gamma^n e^{-|gamma|^2/2}/sqrt(n!) without overflow."""
    a = np.empty(cutoff, dtype=complex)
    a[0] = math.exp(-0.5 * abs(gamma) ** 2)
    for n in range(1, cutoff):
        a[n] = a[n - 1] * gamma / math.sqrt(n)
    return a


def _require_coherent_fits(gamma: complex, level: int, what: str) -> None:
    """TruncationError when the exact coherent state |gamma> has more than
    TAIL_MASS_TOL of its mass on Fock levels ``level`` and up.

    Checked before a truncated displacement, whose result is unitary on the
    basis and so shows no tail mass of its own when gamma outgrows the cutoff.
    The Poisson weights e^{-lam} lam^n / n!, lam = |gamma|^2, are summed from
    their logarithms, so none is lost where e^{-lam} is subnormal or 0.
    """
    lam = abs(gamma) ** 2
    n = np.arange(level)
    if lam == 0:
        head = float(n.size > 0)
    else:
        log_factorial = np.cumsum(np.log(np.maximum(n, 1)))
        head = float(np.exp(n * math.log(lam) - lam - log_factorial).sum())
    tail = 1.0 - head
    if tail > TAIL_MASS_TOL:
        raise TruncationError(
            f"{what}: the coherent state |gamma|={abs(gamma):.3g} has mass {tail:.3e} "
            f"on Fock levels {level} and up; increase the cutoff"
        )


def coherent_state(gamma: complex, basis: FockBasis) -> StateVector:
    """The coherent state |gamma> in a truncated Fock basis.

    Amplitudes follow the closed form gamma^n e^{-|gamma|^2/2}/sqrt(n!); a
    truncation deficit inside the tail-mass budget is renormalized away, and a
    larger one raises TruncationError, as does an e^{-|gamma|^2/2} that
    underflows to 0 (|gamma| above about 38.6), which leaves a zero vector.
    """
    _require_spin(basis, 1, "coherent_state")
    a = _coherent_amplitudes(complex(gamma), basis.cutoff)
    if a[0] == 0.0:  # a zero vector has no tail mass for the budget to catch
        raise TruncationError(f"coherent state |gamma|={abs(gamma):.3g}: e^(-|gamma|^2/2) "
                              "underflows to 0 in float64, which no cutoff mends")
    state = StateVector(amplitudes=a, basis=basis)
    return _within_tail_budget(state, f"coherent state |gamma|={abs(gamma):.3g}").normalize()


def cat_state(eta: float, basis: FockBasis) -> StateVector:
    """The normalized superposition of |i*eta> and the vacuum.

    Built as (|i*eta> + |0>) / sqrt(2 + 2 e^{-eta^2/2}). ``meta["identity_overlap"]``
    is the built vector's norm over that exact norm: the overlap with the exact
    cat, short of 1 by what the cutoff cuts off, and off either way once
    e^{-eta^2/2} underflows (eta above about 37.6). Off 1 by more than 1e-9, NaN
    included, it raises TruncationError. ``validate --suite cat`` checks the
    equal displaced pair D(i*eta/2)(|i*eta/2> + |-i*eta/2>) with a dense D.
    """
    _require_spin(basis, 1, "cat_state")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    direct = _coherent_amplitudes(1j * eta, basis.cutoff)
    direct[0] += 1.0  # add the vacuum component
    state = StateVector(amplitudes=direct, basis=basis)
    cat = _within_tail_budget(state, f"cat state at eta={eta}").normalize()

    weight = math.exp(-0.5 * eta**2)  # <0|i*eta>
    overlap = state.norm / math.sqrt(2.0 + 2.0 * weight)
    if not abs(overlap - 1.0) <= 1e-9:  # NaN fails too
        why = (f"e^(-eta^2/2) = {weight!r} underflows in float64, which no cutoff mends"
               if weight < np.finfo(float).smallest_normal else "increase the cutoff")
        raise TruncationError(f"cat state at eta={eta} has overlap {overlap!r} with the "
                              f"exact cat at cutoff {basis.cutoff}, more than 1e-9 from 1; {why}")
    cat.meta["identity_overlap"] = overlap
    return cat


def _normalized(a: np.ndarray) -> np.ndarray:
    """``a`` over its 2-norm; ValueError for the zero vector, the library's one refusal."""
    n = np.linalg.norm(a)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return a / n


def fidelity(u: StateVector, v: StateVector) -> float:
    """|<u|v>|^2 after normalizing both states, clamped to at most 1 (rounding
    can put ``fidelity(v, v)`` a few ulp above it). Bases must match exactly."""
    if u.basis != v.basis:
        raise BasisMismatchError(
            f"fidelity between different bases: {u.basis} vs {v.basis}"
        )
    overlap = abs(np.vdot(_normalized(u.amplitudes), _normalized(v.amplitudes))) ** 2
    return min(float(overlap), 1.0)


def parity(v: StateVector) -> float:
    """Expectation of (-1)^n over the motional index, traced over spin, clamped
    to [-1, 1] (the normalized probabilities sum to 1 only within rounding)."""
    probs = np.abs(_normalized(v.amplitudes)) ** 2
    if v.basis.spin_dim == 2:
        probs = probs[0::2] + probs[1::2]
    signs = np.where(np.arange(probs.size) % 2 == 0, 1.0, -1.0)
    return max(-1.0, min(float(np.dot(signs, probs)), 1.0))


def _wigner_chunk(W, gamma, start, chunk, tile, amps, j_max, inv_root, root_n, signs):
    """Fill W[start:start + chunk] in buffers of its own, calling only numpy."""
    cutoff = amps.size
    g = gamma[start:start + chunk]
    m = g.size
    # Row n of ``seed`` holds <n|D(g)|0> for every point of the chunk, so
    # each step works on contiguous rows in place.
    seed = np.empty((cutoff, m), dtype=complex)
    seedf = seed.view(float)
    e0 = np.absolute(g)
    np.square(e0, out=e0)
    np.multiply(-0.5, e0, out=e0)
    seed[0] = np.exp(e0, out=e0)
    for n in range(1, cutoff):
        np.multiply(seed[n - 1], g, out=seed[n])
        seedf[n] *= inv_root[n]
    gconj_chunk = np.conjugate(g)
    neg_gconj_chunk = np.negative(gconj_chunk)

    # One tile's buffers: ``col``, ``nxt``, ``tmp`` and ``u`` for the
    # recurrence, ``gconj_rows`` its conj(g) repeated over levels 1.., and
    # ``w2`` and ``rows`` its row-sum terms in level-major and point-major order.
    col, nxt, tmp, u = (np.empty((cutoff, tile), dtype=complex) for _ in range(4))
    gconj_rows = np.empty((cutoff - 1, tile), dtype=complex)
    w2 = np.empty((cutoff, tile))
    rows = np.empty((tile, cutoff))
    # Float views (re, im interleaved) for the sums, the differences and the
    # scalings by a real factor. numpy divides by c + 0j as (re + im*0) * (1/c),
    # so the bytes match complex arithmetic up to signed zeros, which |u|^2
    # erases. Every operand is full-shape and contiguous: a broadcast or
    # strided one costs numpy a buffered iteration on every call.
    colf, nxtf, tmpf, uf = (x.view(float) for x in (col, nxt, tmp, u))
    col0, nxt0, col_hi, tmp_hi = col[0], nxt[0], col[1:], tmp[1:]
    colf_lo, nxtf_hi, tmpf_hi = colf[:-1], nxtf[1:], tmpf[1:]
    for a in range(0, m, tile):
        b = a + tile
        neg_gconj = neg_gconj_chunk[a:b]
        np.copyto(col, seed[:, a:b])
        np.copyto(gconj_rows, gconj_chunk[a:b])

        np.multiply(amps[0], col, out=u)  # accumulate sum_j v_j * D(g)|j>
        for j in range(1, j_max + 1):
            np.multiply(neg_gconj, col0, out=nxt0)
            np.multiply(root_n, colf_lo, out=nxtf_hi)
            np.multiply(gconj_rows, col_hi, out=tmp_hi)
            np.subtract(nxtf_hi, tmpf_hi, out=nxtf_hi)
            np.multiply(nxtf, inv_root[j], out=colf)
            if amps[j] != 0:
                np.multiply(amps[j], col, out=tmp)
                uf += tmpf

        # signs * |u|^2 elementwise, then each point's levels made contiguous,
        # so the sum reduces in the same (pairwise) order for every tile width.
        np.absolute(u, out=w2)
        np.square(w2, out=w2)
        np.multiply(signs, w2, out=w2)
        np.copyto(rows, w2.T)
        w = np.sum(rows, axis=1, out=W[start + a:start + b])
        np.multiply(2.0 / math.pi, w, out=w)


def _run_pair(first, second, serial=False):
    """``[first(), second()]``, with ``second`` on a helper thread unless ``serial``.

    This is the library's one way to start a thread. With ``serial``,
    ``second`` runs after ``first`` on the caller's thread, and a failed
    ``first`` skips it. The thread is joined before this returns or raises.
    Of the two jobs' failures, an interrupt or exit (an exception that is not
    an ``Exception``) is raised first, then ``first``'s, then ``second``'s.
    """
    if serial:
        return [first(), second()]
    outcomes = [None, None]  # (result, exception) of first and of second

    def run(k, job):
        try:
            outcomes[k] = (job(), None)
        except BaseException as exc:  # handed to the caller
            outcomes[k] = (None, exc)

    thread = threading.Thread(target=run, args=(1, second))
    thread.start()
    try:
        run(0, first)
    finally:
        thread.join()
    errors = [exc for _, exc in outcomes if exc is not None]
    if errors:  # sorted is stable: first's failure stays ahead of second's
        raise sorted(errors, key=lambda exc: isinstance(exc, Exception))[0]
    return [result for result, _ in outcomes]


def wigner_grid(v: StateVector, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Wigner function W(x + i p) of a motional state on a rectangular grid.

    Uses the parity form W(alpha) = (2/pi) * sum_n (-1)^n |<n|D(-alpha)|v>|^2.
    Returns shape (len(ps), len(xs)): row i is momentum ps[i], column j is
    position xs[j]. Integrates to ~1 (dx dp measure) over a grid that contains
    the state's support. No state has |W| > 2/pi, so a value beyond
    (2/pi)(1 + 1e-9), NaN included, raises IonSeriesError naming its point.

    The displaced amplitudes come from the column recurrence
    D(g)|j> = (a^dag - conj(g)) D(g)|j-1> / sqrt(j), seeded with the coherent
    column D(g)|0>, accumulating only the Fock components where v has support.
    The grid points, padded with fewer copies of the origin than there are
    tiles (their values are dropped), are split into the fewest equal tiles of
    at most max(1, _TILE_BYTES // (16 * cutoff)) points: the whole recurrence
    and the parity sum run on one tile before the next, so the recurrence
    buffers stay in cache and memory does not grow with the grid. Chunks of
    _CHUNK_TILES tiles share one seed computation; the even-numbered chunks
    and the odd-numbered ones are ``_run_pair``'s two jobs, and numpy releases
    the interpreter lock inside each ufunc, so the two threads overlap. Each grid point gets the same arithmetic
    whatever the tile, chunk or thread, so W does not depend on any of them.

    When the normalized amplitudes satisfy conj(v_n) = (-1)^n v_n exactly, as
    every cat_state's do (both lobes lie on the p axis), W(-x, p) = W(x, p):
    only the distinct |x| columns are computed, and each is copied to x and
    -x. The mirror maps g to -conj(g) and every recurrence term to
    (-1)^n conj(term), and each step (complex products, real scalings,
    differences, moduli) commutes exactly with those sign flips, as does
    round-to-nearest, so the copy holds the bits the mirrored point would
    get. Any other state takes the full grid.
    """
    _require_spin(v.basis, 1, "wigner_grid")
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.ndim != 1 or ps.ndim != 1 or xs.size == 0 or ps.size == 0:
        raise ValueError("xs and ps must be nonempty 1-D grids")
    amps = _normalized(v.amplitudes)
    cutoff = v.basis.cutoff

    # trim trailing numerically-zero support of v
    support = np.nonzero(np.abs(amps) > 1e-14)[0]
    j_max = int(support[-1]) if support.size else 0

    level_signs = np.where(np.arange(cutoff) % 2 == 0, 1.0, -1.0)
    if np.array_equal(np.conj(amps), level_signs * amps):  # W(-x, p) = W(x, p)
        cols, back = np.unique(np.abs(xs), return_inverse=True)
    else:
        cols, back = xs, None
    gamma = -(cols[None, :] + 1j * ps[:, None]).ravel()  # grid points, row-major
    G = gamma.size
    tiles = -(-G // max(1, _TILE_BYTES // (16 * cutoff)))
    tile = -(-G // tiles)
    chunk = min(tiles, _CHUNK_TILES) * tile
    gamma = np.concatenate([gamma, np.zeros(tiles * tile - G, dtype=complex)])
    starts = range(0, gamma.size, chunk)

    inv_root = [0.0] + [1.0 / math.sqrt(n) for n in range(1, cutoff)]
    root_n = np.repeat(np.sqrt(np.arange(1, cutoff))[:, None], 2 * tile, axis=1)  # a tile's float columns
    signs = np.repeat(level_signs[:, None], tile, axis=1)
    W = np.empty(gamma.size)

    def run_share(share):
        for start in share:
            _wigner_chunk(W, gamma, start, chunk, tile, amps, j_max, inv_root, root_n, signs)

    _run_pair(lambda: run_share(starts[0::2]), lambda: run_share(starts[1::2]),
              serial=len(starts) < 2)
    W = W[:G].reshape(ps.size, cols.size)
    if back is not None:
        W = W[:, back]
    # Far from the state the recurrence amplifies rounding error without bound.
    i, j = divmod(int(np.argmax(np.abs(W))), xs.size)
    if not abs(W[i, j]) <= (2.0 / math.pi) * (1.0 + 1e-9):  # NaN fails too
        alpha = (xs[j:j + 1] + 1j * ps[i:i + 1])[0]  # as the full grid's point, signed zeros too
        raise IonSeriesError(
            f"Wigner value {W[i, j]:.6g} at x={alpha.real:.6g}, p={alpha.imag:.6g} "
            "exceeds 2/pi in size, which no state reaches: the displacement "
            "recurrence has lost its accuracy this far from the state"
        )
    return W
