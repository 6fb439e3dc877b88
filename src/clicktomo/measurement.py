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
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, TruncationConfig, displaced_diagonals

__all__ = [
    "DetectorPair",
    "Setting",
    "SettingSchedule",
    "SingleDetectorRecipe",
    "DualDetectorRecipe",
    "derive_setting",
    "single_detector_schedule",
    "dual_detector_schedule",
    "homogeneous_efficiencies",
    "ClickArrays",
    "schedule_arrays",
    "no_click_probabilities",
    "binomial_counts",
    "simulate",
]

GAMMA_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class DetectorPair:
    """Efficiencies of the two on/off detectors; either may be zero."""

    nu_c: float
    nu_d: float

    def __post_init__(self) -> None:
        for name, nu in (("nu_c", self.nu_c), ("nu_d", self.nu_d)):
            if not 0.0 <= nu <= 1.0:
                raise ValueError(f"{name} = {nu} outside [0, 1]")


@dataclass(frozen=True)
class Setting:
    """One measurement configuration with its derived parameters.

    Instances come out of :func:`derive_setting` only, so the derived fields
    (nu_bar, gamma, y) always reproduce bit-for-bit when recomputed from
    (alpha, beta, detectors).
    """

    alpha: float
    beta: complex
    detectors: DetectorPair
    nu_bar: float
    gamma: complex
    y: float


def derive_setting(alpha: float, beta: complex, detectors: DetectorPair) -> Setting:
    """Populate a Setting from the physical knobs (single derivation path)."""
    a = float(alpha)
    b = complex(beta)
    c, s = math.cos(a), math.sin(a)
    nu_bar = detectors.nu_c * c * c + detectors.nu_d * s * s
    if nu_bar <= 0.0:
        raise ValueError(
            "nu_bar vanishes: no detector sees the signal "
            f"(alpha={a}, nu_c={detectors.nu_c}, nu_d={detectors.nu_d})"
        )
    gamma = b * (detectors.nu_d - detectors.nu_c) * c * s / nu_bar
    y = -abs(b) ** 2 * detectors.nu_c * detectors.nu_d / nu_bar
    return Setting(alpha=a, beta=b, detectors=detectors, nu_bar=nu_bar, gamma=gamma, y=y)


@dataclass(frozen=True)
class SingleDetectorRecipe:
    """Blind second detector: gamma = -beta tan(alpha), no attenuation.

    The effective displacement does not depend on the efficiency, so one
    sweeps ``efficiencies`` at fixed geometry to collect a schedule.
    """

    alpha: float
    efficiencies: tuple[float, ...]

    def build(self, target_gamma: complex) -> "SettingSchedule":
        return single_detector_schedule(target_gamma, self.alpha, self.efficiencies)


@dataclass(frozen=True)
class DualDetectorRecipe:
    """Two live detectors: the probe amplitude is retuned per angle."""

    detectors: DetectorPair
    angles: tuple[float, ...]

    def build(self, target_gamma: complex) -> "SettingSchedule":
        return dual_detector_schedule(target_gamma, self.detectors, self.angles)


@dataclass(frozen=True)
class SettingSchedule:
    """Settings sharing one effective displacement ``target_gamma``."""

    target_gamma: complex
    settings: tuple[Setting, ...]

    def __post_init__(self) -> None:
        if not self.settings:
            raise ValueError("schedule must contain at least one setting")
        worst = max(abs(s.gamma - self.target_gamma) for s in self.settings)
        if worst > GAMMA_MATCH_TOL:
            raise ValueError(
                f"derived gamma strays {worst:.3e} from target {self.target_gamma}"
            )

    def __len__(self) -> int:
        return len(self.settings)


def homogeneous_efficiencies(count: int, lo: float = 0.1, hi: float = 0.9) -> tuple[float, ...]:
    """Evenly spaced detector efficiencies on [lo, hi]."""
    if count < 2:
        raise ValueError("need at least two efficiencies")
    return tuple(float(v) for v in np.linspace(lo, hi, count))


def single_detector_schedule(
    target_gamma: complex, alpha: float, efficiencies: "tuple[float, ...] | list[float]"
) -> SettingSchedule:
    """Schedule for the one-detector mode: fixed alpha and probe, swept nu_c."""
    a = float(alpha)
    if abs(math.sin(a)) < 1e-12 or abs(math.cos(a)) < 1e-12:
        raise ValueError(f"alpha = {a} is degenerate (multiple of pi/2)")
    effs = tuple(float(v) for v in efficiencies)
    if not effs:
        raise ValueError("efficiencies must be non-empty")
    for nu in effs:
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"efficiency {nu} outside (0, 1]")
    beta = -complex(target_gamma) / math.tan(a)
    settings = tuple(derive_setting(a, beta, DetectorPair(nu, 0.0)) for nu in effs)
    return SettingSchedule(
        target_gamma=complex(target_gamma),
        settings=settings,
    )


def dual_detector_schedule(
    target_gamma: complex, detectors: DetectorPair, angles: "tuple[float, ...] | list[float]"
) -> SettingSchedule:
    """Schedule for the two-detector mode: fixed efficiencies, swept angle.

    Per angle the probe amplitude
    beta_j = 2 gamma nu_bar_j / ((nu_d - nu_c) sin(2 alpha_j)) inverts the
    setting derivation, so every setting lands on the same gamma.
    """
    if detectors.nu_c == detectors.nu_d:
        raise ValueError("dual-detector mode needs nu_c != nu_d")
    angs = tuple(float(v) for v in angles)
    if not angs:
        raise ValueError("angles must be non-empty")
    settings = []
    g = complex(target_gamma)
    for a in angs:
        s2 = math.sin(2.0 * a)
        if abs(s2) < 1e-12:
            raise ValueError(f"angle {a} is degenerate (sin(2 alpha) = 0)")
        nu_bar = detectors.nu_c * math.cos(a) ** 2 + detectors.nu_d * math.sin(a) ** 2
        beta = 2.0 * g * nu_bar / ((detectors.nu_d - detectors.nu_c) * s2)
        settings.append(derive_setting(a, beta, detectors))
    return SettingSchedule(
        target_gamma=g,
        settings=tuple(settings),
    )


Recipe = SingleDetectorRecipe | DualDetectorRecipe


@dataclass(frozen=True, eq=False)
class ClickArrays:
    """Click data of P points x M settings: ``gammas`` is (P,), every other field (P, M).

    In exact mode ``noclick`` holds the expected counts ``p * n_runs``.
    ``truncation_leak`` (P,) is each point's 1 - sum_{n < n_trunc} R_n(gamma),
    the mass the EM's retained block cannot hold: known to :func:`simulate`,
    None for clicks read from a file.
    """

    gammas: np.ndarray
    nu_bar: np.ndarray
    y: np.ndarray
    noclick: np.ndarray
    n_runs: np.ndarray
    truncation_leak: np.ndarray | None = None


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + 1j * im`` with the signs of zero parts kept, as ``complex(re, im)`` keeps them."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _cmul(re, im, k):
    """CPython's ``complex * float``: the float enters as ``complex(k, 0.0)``."""
    return re * k - im * 0.0, im * k + re * 0.0


def _cdiv(re, im, k):
    """CPython's ``complex / float``: its quotient algorithm with a zero imaginary part."""
    ratio = 0.0 / k
    denom = k + 0.0 * ratio
    return (re + im * ratio) / denom, (im - re * ratio) / denom


def schedule_arrays(recipe: Recipe, gammas: np.ndarray) -> tuple[np.ndarray, ...]:
    """(alpha, beta, nu_c, nu_d, nu_bar, y) of every point's schedule as (P, M) arrays.

    Bit for bit what ``recipe.build(g).settings`` holds: nu_bar is derived once
    per schedule entry, and the per-point fields repeat the float and complex
    operations of the schedule builders and ``derive_setting`` in order.
    """
    g = np.asarray(gammas, dtype=complex).ravel()
    settings = recipe.build(g[0]).settings
    entries = [(s.alpha, s.detectors.nu_c, s.detectors.nu_d, s.nu_bar) for s in settings]
    alpha, nu_c, nu_d, nu_bar = (np.broadcast_to(v, (g.size, len(entries))) for v in zip(*entries))
    gr, gi = g.real[:, None], g.imag[:, None]
    if isinstance(recipe, SingleDetectorRecipe):
        # beta = -complex(target_gamma) / math.tan(alpha)
        br, bi = _cdiv(-gr, -gi, np.array([math.tan(a) for a, _, _, _ in entries]))
    else:
        # beta = 2.0 * g * nb / ((nu_d - nu_c) * sin(2 alpha)), nb as dual_detector_schedule has it
        nb = np.array([c * math.cos(a) ** 2 + d * math.sin(a) ** 2 for a, c, d, _ in entries])
        den = np.array([(d - c) * math.sin(2.0 * a) for a, c, d, _ in entries])
        br, bi = _cdiv(*_cmul(*_cmul(gr, gi, 2.0), nb), den)
    cos, sin = np.array([(math.cos(a), math.sin(a)) for a, _, _, _ in entries]).T
    re, im = _cdiv(*_cmul(*_cmul(*_cmul(br, bi, nu_d[0] - nu_c[0]), cos), sin), nu_bar[0])
    stray = np.hypot(re - gr, im - gi).max(axis=1)
    if np.any(stray > GAMMA_MATCH_TOL):
        i = int(np.argmax(stray))
        raise ValueError(f"derived gamma strays {stray[i]:.3e} from target {complex(g[i])}")
    y = -np.float_power(np.hypot(br, bi), 2.0) * nu_c * nu_d / nu_bar
    return alpha, complex_array(br, bi), nu_c, nu_d, nu_bar, y


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


def _series_probabilities(diag: np.ndarray, nu_bar: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The no-click series of (P, n_pad) displaced diagonals as one product with the (M, n_pad) powers."""
    x = 1.0 - np.asarray(nu_bar, dtype=float)
    powers = x[:, None] ** np.arange(diag.shape[1], dtype=float)[None, :]
    return np.clip(np.exp(np.asarray(y, dtype=float)) * (diag @ powers.T), 0.0, 1.0)


def _seed_key(seed: "int | tuple[int, ...]") -> tuple[int, ...]:
    return (int(seed),) if np.isscalar(seed) else tuple(int(v) for v in seed)


def binomial_counts(n_runs: int, probs: np.ndarray, key: "tuple[int, ...]", offset: int = 0) -> np.ndarray:
    """Binomial(n_runs, probs[i, j]) counts; row i comes from ``np.random.default_rng(key + (offset + i,))``.

    One generator per row keeps rows independent, so ``offset`` (the global
    index of the first row) makes any split of the rows draw the same counts.
    """
    probs = np.asarray(probs, dtype=float)
    out = np.empty(probs.shape, dtype=np.int64)
    for i, p in enumerate(probs):
        out[i] = np.random.default_rng(key + (int(offset) + i,)).binomial(n_runs, p)
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
    *_, nu_bar, y = schedule_arrays(recipe, g)
    diag = displaced_diagonals(rho, g, trunc)
    probs = _series_probabilities(diag, nu_bar[0], y)
    if exact:
        noclick = probs * n_runs
    else:
        key = _seed_key(seed) + (int(repetition),)
        noclick = binomial_counts(int(n_runs), probs, key, offset).astype(float)
    leak = 1.0 - diag[:, : trunc.n_trunc].sum(axis=1)
    return ClickArrays(g, nu_bar, y, noclick, np.full(y.shape, int(n_runs)), leak)
