"""Truncated Fock-space states and displacement algebra.

All operator work happens in a padded working dimension (``n_pad``) so that
the non-unitary edge of a truncated displacement matrix stays away from the
exposed ``n_trunc`` block.  Every function is pure and returned arrays are
read-only, so values can be shared freely between workers.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, TruncationLeakError

__all__ = [
    "TruncationConfig",
    "PureState",
    "DensityMatrix",
    "DisplacementMatrix",
    "DiagonalDistribution",
    "coherent_state",
    "squeezed_vacuum",
    "fock_state",
    "density_from_pure",
    "displacement_matrix",
    "displaced_diagonal",
    "displaced_diagonal_padded",
    "wigner_exact",
]

# Diagonal entries below -NEGATIVE_NOISE_TOL are an error, not rounding noise.
NEGATIVE_NOISE_TOL = 1e-12
SUM_TOL = 1e-9
HERMITICITY_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Cephes lgam: log sqrt(2 pi) and the Stirling-series coefficients for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorial(k: int) -> float:
    """log k! computed as Cephes ``lgam(k + 1)``, the routine behind
    ``scipy.special.gammaln``, so the two agree bit for bit."""
    x = k + 1.0
    if x < 13.0:
        return math.log(float(math.factorial(k)))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = 0.0
    for c in _STIRLING:
        series = series * p + c
    return q + series / x


@functools.lru_cache(maxsize=None)
def log_factorials(dim: int) -> np.ndarray:
    """Read-only table of log k! for k < dim, built once per dimension."""
    return _readonly(np.array([_log_factorial(k) for k in range(dim)], dtype=np.float64))


@dataclass(frozen=True)
class TruncationConfig:
    """Fock dimensions: ``n_trunc`` is exposed, ``n_pad`` is the working dimension.

    ``n_pad = 0`` resolves to the default padding ``2 * n_trunc + 20``, which
    keeps the retained block of a displacement matrix unitary to well below
    the tolerances used anywhere in the pipeline.
    """

    n_trunc: int
    n_pad: int = 0

    def __post_init__(self) -> None:
        if self.n_trunc < 2:
            raise ValueError("n_trunc must be at least 2")
        if self.n_pad == 0:
            object.__setattr__(self, "n_pad", 2 * self.n_trunc + 20)
        if self.n_pad < self.n_trunc:
            raise ValueError("n_pad must be >= n_trunc")


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector in the working Fock basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must be a vector of length >= 2")
        norm2 = float(np.real(np.vdot(amps, amps)))
        if norm2 > 1.0 + SUM_TOL:
            raise ValueError(f"squared norm {norm2} exceeds 1")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm_deficit(self) -> float:
        """Probability mass lost to truncation: 1 - sum |amplitudes|^2."""
        return 1.0 - float(np.real(np.vdot(self.amplitudes, self.amplitudes)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian density matrix in the Fock basis (trace may fall slightly
    below 1 for truncated states; the deficit is reported, never hidden)."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        rho = np.ascontiguousarray(self.elements, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = complex(np.trace(rho))
        if abs(tr.imag) > SUM_TOL or tr.real > 1.0 + SUM_TOL or tr.real <= 0.0:
            raise ValueError(f"trace {tr} outside (0, 1]")
        object.__setattr__(self, "elements", _readonly(rho))

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.elements)))

    @property
    def norm_deficit(self) -> float:
        return 1.0 - self.trace

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.elements)[0])


@dataclass(frozen=True, eq=False)
class DisplacementMatrix:
    """Matrix elements <m|D(gamma)|n> on the working dimension."""

    gamma: complex
    elements: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(
            self, "elements", _readonly(np.ascontiguousarray(self.elements, dtype=np.complex128))
        )

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True, eq=False)
class DiagonalDistribution:
    """Diagonal of the displaced state, R_n = <n|D^dag(gamma) rho D(gamma)|n>.

    At gamma = 0 this is the photon-number distribution.  ``truncation_leak``
    is the probability mass outside the retained block, 1 - sum(values).
    """

    gamma: complex
    values: np.ndarray
    truncation_leak: float = 0.0

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty vector")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("diagonal values must be finite and non-negative")
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def dim(self) -> int:
        return self.values.size


def coherent_state(amplitude: complex, cfg: TruncationConfig) -> PureState:
    """Coherent state with amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    a = complex(amplitude)
    if abs(a) ** 2 > 0.5 * cfg.n_pad:
        raise ValueError(
            f"|amplitude|^2 = {abs(a) ** 2:.3f} exceeds n_pad/2 = {0.5 * cfg.n_pad}; "
            "increase the working dimension"
        )
    amps = np.empty(cfg.n_pad, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * abs(a) ** 2)
    for n in range(cfg.n_pad - 1):
        amps[n + 1] = amps[n] * a / math.sqrt(n + 1)
    return PureState(amps)


def squeezed_vacuum(squeeze: float, cfg: TruncationConfig) -> PureState:
    """Squeezed vacuum exp{-s (a+^2 - a^2) / 2} |0>.

    Only even levels are occupied:
    c_{2k} = (-tanh s)^k sqrt((2k)!) / (2^k k! sqrt(cosh s)).
    The real-axis quadrature is squeezed, the imaginary one anti-squeezed.
    """
    s = float(squeeze)
    if s < 0.0:
        raise ValueError("squeeze parameter must be non-negative")
    if math.tanh(s) >= 0.95:
        raise ValueError("tanh(squeeze) >= 0.95: state too broad for a truncated basis")
    lam = math.tanh(s)
    amps = np.zeros(cfg.n_pad, dtype=np.complex128)
    amps[0] = 1.0 / math.sqrt(math.cosh(s))
    k = 0
    while 2 * k + 2 < cfg.n_pad:
        step = -lam * math.sqrt((2 * k + 1) * (2 * k + 2)) / (2.0 * (k + 1))
        amps[2 * k + 2] = amps[2 * k] * step
        k += 1
    return PureState(amps)


def fock_state(n: int, cfg: TruncationConfig) -> PureState:
    """Number state |n> in the working dimension."""
    if not 0 <= n < cfg.n_pad:
        raise ValueError(f"n = {n} outside [0, {cfg.n_pad})")
    amps = np.zeros(cfg.n_pad, dtype=np.complex128)
    amps[n] = 1.0
    return PureState(amps)


def density_from_pure(state: PureState) -> DensityMatrix:
    """Projector |psi><psi| of a pure state."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def _displacement_elements(gamma: complex, dim: int) -> np.ndarray:
    """Dense <m|D(gamma)|n> for D(gamma) = exp(gamma a+ - gamma* a).

    The closed-form series

        <m|D|n> = e^{-|g|^2/2} sqrt(m! n!)
                  sum_l g^{m-l} (-g*)^{n-l} / (l! (m-l)! (n-l)!)

    factors exactly into a product of two triangular matrices,
    L[m,k] = g^{m-k} sqrt(m!/k!) / (m-k)!  and
    U[k,n] = (-g*)^{n-k} sqrt(n!/k!) / (n-k)!, with the l-sum realised by the
    matrix product.  Factorials are handled in log space so dimensions of a
    few hundred stay finite.
    """
    g = complex(gamma)
    if g == 0:
        return np.eye(dim, dtype=np.complex128)
    idx = np.arange(dim)
    logfac = log_factorials(dim)
    diff = idx[:, None] - idx[None, :]
    lower = diff >= 0
    dclip = np.where(lower, diff, 0)
    # coeff[m, k] = sqrt(m!/k!) / (m-k)!  on the lower triangle
    coeff = np.exp(0.5 * (logfac[:, None] - logfac[None, :]) - logfac[dclip])
    pow_g = np.concatenate(([1.0 + 0.0j], np.cumprod(np.full(dim - 1, g))))
    pow_mg = np.concatenate(([1.0 + 0.0j], np.cumprod(np.full(dim - 1, -np.conjugate(g)))))
    lo = np.where(lower, pow_g[dclip] * coeff, 0.0)
    up = np.where(lower, pow_mg[dclip] * coeff, 0.0).T
    return math.exp(-0.5 * abs(g) ** 2) * (lo @ up)


def displacement_matrix(gamma: complex, cfg: TruncationConfig) -> DisplacementMatrix:
    """Displacement operator on the working dimension.

    Args:
        gamma: complex displacement; |gamma|^2 must not exceed n_pad / 2,
            otherwise the displaced vacuum itself would not fit the basis.
        cfg: truncation configuration; the matrix is built on ``n_pad``.

    Returns:
        DisplacementMatrix whose retained ``n_trunc`` block is unitary to
        high accuracy (see the group-property tests for the bound).
    """
    g = complex(gamma)
    if abs(g) ** 2 > 0.5 * cfg.n_pad:
        raise ValueError(
            f"|gamma|^2 = {abs(g) ** 2:.3f} exceeds n_pad/2 = {0.5 * cfg.n_pad}"
        )
    return DisplacementMatrix(g, _displacement_elements(g, cfg.n_pad))


def _embed(rho: np.ndarray, dim: int) -> np.ndarray:
    if rho.shape[0] > dim:
        raise ValueError("state dimension exceeds the working dimension")
    if rho.shape[0] == dim:
        return rho
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[: rho.shape[0], : rho.shape[0]] = rho
    return out


def displaced_diagonal_padded(rho: DensityMatrix, gamma: complex, cfg: TruncationConfig) -> np.ndarray:
    """Exact displaced diagonal on the full working dimension.

    This is the simulator's forward-model ingredient: summing the no-click
    series over all ``n_pad`` entries keeps probabilities exact far beyond
    the retained block.
    """
    dmat = displacement_matrix(gamma, cfg)
    rho_p = _embed(rho.elements, cfg.n_pad)
    shifted = rho_p @ dmat.elements
    diag = np.real(np.einsum("jn,jn->n", dmat.elements.conj(), shifted))
    lowest = float(diag.min())
    if lowest < -NEGATIVE_NOISE_TOL:
        raise NumericalError(
            f"displaced diagonal entry {lowest:.3e} below the noise tolerance"
        )
    np.clip(diag, 0.0, None, out=diag)
    total = float(diag.sum())
    if total > 1.0 + SUM_TOL:
        raise NumericalError(f"displaced diagonal sums to {total} > 1")
    return diag


def displaced_diagonal(
    rho: DensityMatrix,
    gamma: complex,
    cfg: TruncationConfig,
    max_leak: float | None = None,
) -> DiagonalDistribution:
    """Retained block of the displaced diagonal, with its truncation leak.

    ``max_leak``, when given, turns an excessive leak into a
    TruncationLeakError: the signal that ``n_trunc`` is too small for this
    displacement.
    """
    full = displaced_diagonal_padded(rho, gamma, cfg)
    values = full[: cfg.n_trunc].copy()
    leak = 1.0 - float(values.sum())
    if max_leak is not None and leak > max_leak:
        raise TruncationLeakError(
            f"truncation leak {leak:.3e} exceeds {max_leak:.3e} at gamma = {gamma}"
        )
    return DiagonalDistribution(gamma=gamma, values=values, truncation_leak=leak)


def wigner_exact(
    rho: DensityMatrix,
    gamma: complex,
    cfg: TruncationConfig,
    max_leak: float | None = None,
) -> float:
    """Wigner value of the truncated state at one phase-space point:
    W = (2/pi) sum_n (-1)^n R_n(gamma) over the retained block."""
    dist = displaced_diagonal(rho, gamma, cfg, max_leak=max_leak)
    signs = np.where(np.arange(cfg.n_trunc) % 2 == 0, 1.0, -1.0)
    return float(2.0 / math.pi * np.dot(signs, dist.values))
