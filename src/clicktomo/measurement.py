"""Measurement settings, exact no-click probabilities and click sampling.

A *setting* is one beam-splitter configuration: the signal state meets a
coherent probe ``beta`` on a splitter rotated by ``alpha``; two on/off
detectors with efficiencies ``nu_c`` (transmitted port) and ``nu_d``
(reflected port) watch the outputs.  Averaging the probe out leaves a
three-parameter description of the joint no-click probability:

    nu_bar = nu_c cos^2(alpha) + nu_d sin^2(alpha)
    gamma  = beta (nu_d - nu_c) cos(alpha) sin(alpha) / nu_bar
    y      = -|beta|^2 nu_c nu_d / nu_bar
    p      = e^y sum_n (1 - nu_bar)^n R_n(gamma)

The attenuation exponent carries no angular factor: with it, the probe-only
probability factorises exactly into the per-detector coherent no-click
factors exp(-nu_c |beta sin a|^2 - nu_d |beta cos a|^2), and it vanishes when
either detector is blind.  Both identities are pinned by tests.
"""
import math
from typing import NamedTuple

import numpy as np

from .fock import DensityMatrix, TruncationConfig, displaced_diagonals

__all__ = [
    "DetectorPair",
    "SingleDetectorRecipe",
    "DualDetectorRecipe",
    "Schedule",
    "derive_settings",
    "homogeneous_efficiencies",
    "ClickArrays",
    "no_click_powers",
    "no_click_probabilities",
    "binomial_counts",
    "simulate",
]

GAMMA_MATCH_TOL = 1e-12


class DetectorPair(NamedTuple("DetectorPair", [("nu_c", float), ("nu_d", float)])):
    """Efficiencies of the two on/off detectors; either may be zero."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, nu_c: float, nu_d: float):
        for name, nu in (("nu_c", nu_c), ("nu_d", nu_d)):
            if not 0.0 <= nu <= 1.0:
                raise ValueError(f"{name} = {nu} outside [0, 1]")
        return super().__new__(cls, nu_c, nu_d)


def derive_settings(alpha, beta, nu_c, nu_d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nu_bar, gamma, y) of M settings, the package's one derivation of them.

    ``alpha``, ``nu_c`` and ``nu_d`` are (M,); ``beta`` broadcasts against
    them, (P, M) for P points.  nu_bar is (M,), gamma and y take beta's shape.
    The arithmetic is real, on beta's parts, and the trigonometry is ``math``'s,
    one setting at a time: numpy's vectorised trigonometry may round otherwise.
    """
    alpha, nu_c, nu_d = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, nu_c, nu_d)))
    c = np.array([math.cos(a) for a in alpha.tolist()])
    s = np.array([math.sin(a) for a in alpha.tolist()])
    nu_bar = nu_c * c * c + nu_d * s * s
    if np.any(nu_bar <= 0.0):
        j = int(np.argmax(nu_bar <= 0.0))
        raise ValueError(
            "nu_bar vanishes: no detector sees the signal "
            f"(alpha={alpha[j]}, nu_c={nu_c[j]}, nu_d={nu_d[j]})"
        )
    br, bi = np.real(beta), np.imag(beta)
    gamma = complex_array(br * (nu_d - nu_c) * c * s / nu_bar, bi * (nu_d - nu_c) * c * s / nu_bar)
    y = -np.float_power(np.hypot(br, bi), 2.0) * nu_c * nu_d / nu_bar
    return nu_bar, gamma, y


class Schedule:
    """M settings at each of P points: ``nu_bar`` (M,) is shared, ``beta`` and ``y`` are (P, M)."""

    __slots__ = ("nu_bar", "beta", "y")

    def __init__(self, nu_bar: np.ndarray, beta: np.ndarray, y: np.ndarray) -> None:
        for name, value in (("nu_bar", nu_bar), ("beta", beta), ("y", y)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return self.nu_bar.size


def _schedule(gammas: np.ndarray, alpha, beta: np.ndarray, nu_c, nu_d) -> Schedule:
    """Derive the settings of probes ``beta`` (P, M) and check that they land on ``gammas`` (P,)."""
    nu_bar, gamma, y = derive_settings(alpha, beta, nu_c, nu_d)
    stray = np.abs(gamma - gammas[:, None]).max(axis=1)
    if np.any(stray > GAMMA_MATCH_TOL):
        i = int(np.argmax(stray))
        raise ValueError(f"derived gamma strays {stray[i]:.3e} from target {complex(gammas[i])}")
    return Schedule(nu_bar, np.broadcast_to(beta, y.shape), y)


class SingleDetectorRecipe(NamedTuple):
    """Blind second detector: gamma = -beta tan(alpha), no attenuation.

    The effective displacement does not depend on the efficiency, so one
    sweeps ``efficiencies`` at fixed geometry to collect a schedule.
    """

    alpha: float
    efficiencies: tuple[float, ...]

    def build(self, gammas) -> Schedule:
        """The schedule at every point of ``gammas`` (a scalar is one point): one probe per point."""
        a = float(self.alpha)
        if abs(math.sin(a)) < 1e-12 or abs(math.cos(a)) < 1e-12:
            raise ValueError(f"alpha = {a} is degenerate (multiple of pi/2)")
        effs = tuple(float(v) for v in self.efficiencies)
        if not effs:
            raise ValueError("efficiencies must be non-empty")
        for nu in effs:
            if not 0.0 < nu <= 1.0:
                raise ValueError(f"efficiency {nu} outside (0, 1]")
        g = np.asarray(gammas, dtype=complex).ravel()
        t = math.tan(a)
        beta = complex_array(-g.real[:, None] / t, -g.imag[:, None] / t)
        return _schedule(g, [a] * len(effs), beta, effs, 0.0)


class DualDetectorRecipe(NamedTuple):
    """Two live detectors: the probe amplitude is retuned per angle."""

    detectors: DetectorPair
    angles: tuple[float, ...]

    def build(self, gammas) -> Schedule:
        """The schedule at every point of ``gammas`` (a scalar is one point)."""
        nu_c, nu_d = self.detectors.nu_c, self.detectors.nu_d
        if nu_c == nu_d:
            raise ValueError("dual-detector mode needs nu_c != nu_d")
        angs = tuple(float(v) for v in self.angles)
        if not angs:
            raise ValueError("angles must be non-empty")
        for a in angs:
            if abs(math.sin(2.0 * a)) < 1e-12:
                raise ValueError(f"angle {a} is degenerate (sin(2 alpha) = 0)")
        # beta_j = 2 gamma nu_bar_j / ((nu_d - nu_c) sin(2 alpha_j)) lands every angle
        # on gamma.  nb squares cos and sin by pow, which rounds unlike derive_settings'
        # products for a third of angles: the probes keep the bits tests/oracles.py pins
        nb = np.array([nu_c * math.cos(a) ** 2 + nu_d * math.sin(a) ** 2 for a in angs])
        den = np.array([(nu_d - nu_c) * math.sin(2.0 * a) for a in angs])
        g = np.asarray(gammas, dtype=complex).ravel()
        beta = complex_array(2.0 * g.real[:, None] * nb / den, 2.0 * g.imag[:, None] * nb / den)
        return _schedule(g, angs, beta, nu_c, nu_d)


def homogeneous_efficiencies(count: int, lo: float = 0.1, hi: float = 0.9) -> tuple[float, ...]:
    """Evenly spaced detector efficiencies on [lo, hi]."""
    if count < 2:
        raise ValueError("need at least two efficiencies")
    return tuple(float(v) for v in np.linspace(lo, hi, count))


Recipe = SingleDetectorRecipe | DualDetectorRecipe


class ClickArrays(NamedTuple):
    """Click data of P points x M settings: ``gammas`` (P,), ``nu_bar`` (M,), ``y`` and ``noclick`` (P, M).

    Sampled counts are the int64 that were drawn; in exact mode ``noclick``
    holds the expected counts ``p * n_runs``.
    ``truncation_leak`` (P,) is each point's 1 - sum_{n < n_trunc} R_n(gamma),
    the mass the EM's retained block cannot hold: known to :func:`simulate`,
    None for clicks read from a file.  Compared by identity.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    gammas: np.ndarray
    nu_bar: np.ndarray
    y: np.ndarray
    noclick: np.ndarray
    n_runs: int
    truncation_leak: np.ndarray | None = None


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + 1j * im`` with the signs of zero parts kept, as ``complex(re, im)`` keeps them."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def no_click_probabilities(
    rho: DensityMatrix,
    gammas: np.ndarray,
    nu_bar: np.ndarray,
    y: np.ndarray,
    trunc: TruncationConfig,
) -> np.ndarray:
    """Exact joint no-click probabilities of P points x M settings, clipped to [0, 1].

    ``nu_bar`` (M,) is shared by every point and ``y`` is (P, M):
    p[i, j] = e^{y_ij} sum_n (1 - nu_bar_j)^n R_n(gamma_i).  The series runs
    over the full working dimension, so the values are exact to padding
    accuracy rather than reconstruction accuracy.
    """
    return _series_probabilities(displaced_diagonals(rho, gammas, trunc), nu_bar, y)


def no_click_powers(nu_bar: np.ndarray, n: int) -> np.ndarray:
    """(M, n) table (1 - nu_bar_j)^k, k < n: the weights of the no-click series."""
    x = 1.0 - np.asarray(nu_bar, dtype=float)
    return x[:, None] ** np.arange(n, dtype=float)[None, :]


def _series_probabilities(diag: np.ndarray, nu_bar: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The no-click series of (P, n_pad) displaced diagonals as one product with the (M, n_pad) powers."""
    powers = no_click_powers(nu_bar, diag.shape[1])
    return np.clip(np.exp(np.asarray(y, dtype=float)) * (diag @ powers.T), 0.0, 1.0)


def _seed_key(seed: "int | tuple[int, ...]") -> tuple[int, ...]:
    return (int(seed),) if np.isscalar(seed) else tuple(int(v) for v in seed)


# numpy's SeedSequence hash constants, and PCG64's multiplier
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative integer, least significant first."""
    if n < 0:
        raise ValueError(f"seed key value {n} is negative")
    return [(n >> s) & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(v: np.ndarray, k: int, init: int, mult: int) -> np.ndarray:
    """SeedSequence's k-th hash of ``v``, by the hash constants init * mult**k and init * mult**(k + 1)."""
    v = (v ^ np.uint32(init * pow(mult, k, 1 << 32) & _MASK32)) * np.uint32(init * pow(mult, k + 1, 1 << 32) & _MASK32)
    return v ^ (v >> np.uint32(16))


def _pcg64_states(entropy: np.ndarray) -> list[dict]:
    """The ``state`` and ``inc`` of ``PCG64(SeedSequence(row))`` for each row of an (R, L) uint32 table:
    SeedSequence's hash runs on columns, in uint32 arithmetic that wraps; PCG64's seeding on Python ints."""
    entropy = np.pad(entropy, ((0, 0), (0, max(0, 4 - entropy.shape[1]))))
    pool = [_hashmix(entropy[:, k], k, _INIT_A, _MULT_A) for k in range(4)]
    pairs = [(s, d) for s in range(entropy.shape[1]) for d in range(4) if s != d]
    for k, (src, dst) in enumerate(pairs, 4):
        v = _hashmix(pool[src] if src < 4 else entropy[:, src], k, _INIT_A, _MULT_A)
        v = pool[dst] * np.uint32(_MIX_L) - v * np.uint32(_MIX_R)
        pool[dst] = v ^ (v >> np.uint32(16))
    words = [_hashmix(pool[k % 4], k, _INIT_B, _MULT_B).tolist() for k in range(8)]
    states = []
    # the words are four little-endian uint64, seed then sequence (high, low): PCG64 takes
    # inc = 2 sequence + 1 and steps its LCG once before and once after adding the seed
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*words):
        inc = (w5 << 97 | w4 << 65 | w7 << 33 | w6 << 1 | 1) & _MASK128
        state = ((inc + (w1 << 96 | w0 << 64 | w3 << 32 | w2)) * _PCG_MULT + inc) & _MASK128
        states.append({"state": state, "inc": inc})
    return states


def binomial_counts(n_runs: int, probs: np.ndarray, key: "tuple[int, ...]", offset: int = 0) -> np.ndarray:
    """Binomial(n_runs, probs[i, j]) counts; row i comes from ``np.random.default_rng(key + (offset + i,))``.

    One stream per row keeps rows independent, so ``offset`` (the global
    index of the first row) makes any split of the rows draw the same counts.
    The rows' stream states are hashed in one pass per word count of the row
    index, then set in turn on one generator.
    """
    probs = np.asarray(probs, dtype=float)
    out = np.empty(probs.shape, dtype=np.int64)
    head = np.array([w for v in key for w in _words(int(v))], dtype=np.uint32)
    states, start, stop = [], int(offset), int(offset) + len(probs)
    while start < stop:
        shifts = range(0, 32 * len(_words(start)), 32)
        index = np.arange(start, min(stop, 1 << shifts.stop), dtype=object)
        entropy = np.column_stack([np.tile(head, (len(index), 1)), *(index >> s & _MASK32 for s in shifts)])
        states += _pcg64_states(entropy.astype(np.uint32))
        start += len(index)
    generator = np.random.Generator(np.random.PCG64(0))  # every row sets its own state
    for i, state in enumerate(states):
        generator.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        out[i] = generator.binomial(n_runs, probs[i])
    return out


def simulate(
    rho: DensityMatrix,
    gammas: np.ndarray,
    recipe: Recipe,
    trunc: TruncationConfig,
    n_runs: int,
    seed: "int | tuple[int, ...]",
    repetition: int,
    exact: bool,
    offset: int = 0,
) -> ClickArrays:
    """Measure every point's schedule: exact probabilities, then (optionally) sampling.

    Point i draws its M counts from the stream keyed (seed, repetition, offset + i),
    so ``offset`` (the global index of the first point) keeps a point's
    counts the same however a grid is split.
    """
    g = np.asarray(gammas, dtype=complex).ravel()
    sched = recipe.build(g)
    diag = displaced_diagonals(rho, g, trunc)
    probs = _series_probabilities(diag, sched.nu_bar, sched.y)
    if exact:
        noclick = probs * n_runs
    else:
        key = _seed_key(seed) + (int(repetition),)
        noclick = binomial_counts(int(n_runs), probs, key, offset)
    leak = 1.0 - diag[:, : trunc.n_trunc].sum(axis=1)
    return ClickArrays(g, sched.nu_bar, sched.y, noclick, int(n_runs), leak)
