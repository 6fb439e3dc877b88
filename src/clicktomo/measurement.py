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

from .fock import TruncationConfig, displaced_diagonals

__all__ = [
    "DetectorPair",
    "SingleDetectorRecipe",
    "DualDetectorRecipe",
    "Schedule",
    "derive_settings",
    "homogeneous_efficiencies",
    "no_click_powers",
    "binomial_counts",
    "forward_model",
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


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + 1j * im`` with the signs of zero parts kept, as ``complex(re, im)`` keeps them."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def no_click_powers(nu_bar: np.ndarray, n: int) -> np.ndarray:
    """(M, n) table (1 - nu_bar_j)^k, k < n: the coefficients of the no-click series."""
    x = 1.0 - np.asarray(nu_bar, dtype=float)
    return x[:, None] ** np.arange(n, dtype=float)[None, :]


# Points per sampling stream.  A generator and a ``binomial`` call cost about 35 us
# before their first draw and a draw well under 1 us, so one stream serves a group of
# points; cli.BLOCK_ALIGN is a multiple of this, so no block splits a group
STREAM_POINTS = 8


def binomial_counts(n_runs: int, probs: np.ndarray, key: "tuple[int, ...]", offset: int = 0) -> np.ndarray:
    """Binomial(n_runs, probs[i, j]) counts, STREAM_POINTS rows from each stream.

    Rows k to k + STREAM_POINTS - 1, for k a multiple of STREAM_POINTS, are
    ``np.random.default_rng(key + (offset + k,)).binomial(n_runs, probs[k:k + STREAM_POINTS])``,
    drawn in row order.  ``offset`` is the global index of the first row, so
    any split of the rows at multiples of STREAM_POINTS draws the same counts,
    and a lone row draws what the first row of its group draws.
    """
    probs = np.asarray(probs, dtype=float)
    out = np.empty(probs.shape, dtype=np.int64)
    for k in range(0, len(probs), STREAM_POINTS):
        rows = slice(k, k + STREAM_POINTS)
        out[rows] = np.random.default_rng(key + (int(offset) + k,)).binomial(n_runs, probs[rows])
    return out


def forward_model(amplitudes, gammas, recipe: Recipe, trunc: TruncationConfig) -> tuple[np.ndarray, np.ndarray]:
    """-> (no-click probabilities (P, M), truncation leak (P,)) of every point's schedule.

    The probabilities are the no-click series over the full working
    dimension, clipped to [0, 1], so they are exact to padding accuracy.
    The leak is each point's 1 - sum_{n < n_trunc} R_n(gamma), the mass the
    EM's retained block cannot hold.
    """
    g = np.asarray(gammas, dtype=complex).ravel()
    sched = recipe.build(g)
    diag = displaced_diagonals(amplitudes, g)
    probs = np.clip(np.exp(sched.y) * (diag @ no_click_powers(sched.nu_bar, trunc.n_pad).T), 0.0, 1.0)
    return probs, 1.0 - diag[:, : trunc.n_trunc].sum(axis=1)
