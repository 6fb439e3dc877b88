"""Truncated Fock-space states and displacement algebra.

All operator work happens in a padded working dimension (``n_pad``) so that
the non-unitary edge of a truncated displacement matrix stays away from the
exposed ``n_trunc`` block.  :func:`displace` is the one place that evaluates
the displacement series; the forward model and the density-matrix quadrature
both build on its coefficient and power tables.  Every function is pure, and
states and cached tables are read-only, so values can be shared freely.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "TruncationConfig",
    "PureState",
    "DensityMatrix",
    "coherent_state",
    "squeezed_vacuum",
    "fock_state",
    "density_from_pure",
    "displace",
    "displaced_diagonals",
]

# Diagonal entries below -NEGATIVE_NOISE_TOL are an error, not rounding noise.
NEGATIVE_NOISE_TOL = 1e-12
SUM_TOL = 1e-9
HERMITICITY_TOL = 1e-12
# Density-matrix components at or below this fraction of the largest eigenvalue are dropped.
EIGEN_CUTOFF = 1e-14


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


@functools.lru_cache(maxsize=None)
def displacement_coefficients(dim: int) -> np.ndarray:
    """Read-only table c[d, k] = sqrt((k+d)!/k!) / d! for k + d < dim, zero elsewhere.

    Row d holds the d-th diagonal of both triangular factors of D(gamma)
    (see :func:`displace`).  Factorials are handled in log space so
    dimensions of a few hundred stay finite.
    """
    logfac = log_factorials(dim)
    k = np.arange(dim)
    top = k[:, None] + k[None, :]
    fits = top < dim
    top = np.where(fits, top, 0)
    table = np.exp(0.5 * (logfac[top] - logfac[None, :]) - logfac[:, None])
    return _readonly(np.where(fits, table, 0.0))


def power_table(z: np.ndarray, dim: int) -> np.ndarray:
    """(P, dim) powers z_p^j for j < dim, by cumulative products."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1, 1)
    out = np.ones((z.shape[0], dim), dtype=np.complex128)
    np.cumprod(np.broadcast_to(z, (z.shape[0], dim - 1)), axis=1, out=out[:, 1:])
    return out


def displacement_r2(gammas: np.ndarray, dim: int) -> np.ndarray:
    """|gamma|^2 of every displacement, after checking that each is at most dim / 2.

    The ValueError names the worst point.  numpy's complex abs is not
    correctly rounded, so the largest |gamma|^2 need not sit at the node with
    the largest parts; ``parse_config`` therefore runs this on every node of
    the grid's ``flat_gammas()``, the array the stages displace.
    """
    g = np.asarray(gammas, dtype=np.complex128).ravel()
    r2 = np.abs(g) ** 2
    worst = int(np.argmax(r2))
    if r2[worst] > 0.5 * dim:
        raise ValueError(
            f"|gamma|^2 = {float(r2[worst])!r} at gamma = {complex(g[worst])} exceeds n_pad/2 = {0.5 * dim}"
        )
    return r2


def displace(gammas: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """D(gamma_p) applied to vectors[p] for P displacements, as a (P, dim) array.

    ``vectors`` is (P, dim), or one (dim,) vector shared by every point.
    The closed-form series

        <m|D|n> = e^{-|g|^2/2} sqrt(m! n!)
                  sum_l g^{m-l} (-g*)^{n-l} / (l! (m-l)! (n-l)!)

    factors exactly into D = e^{-|g|^2/2} L U, with L[k+d, k] = g^d c[d, k]
    and U[k, k+d] = (-g*)^d c[d, k] from :func:`displacement_coefficients`.
    Each factor is applied one diagonal offset d at a time, as one
    (P, dim - d) multiply-add, so no (P, dim, dim) array is built.

    Every |gamma|^2 must be at most dim / 2, otherwise the displaced vacuum
    itself would not fit the basis (see :func:`displacement_r2`).
    """
    g = np.asarray(gammas, dtype=np.complex128).ravel()
    v = np.asarray(vectors, dtype=np.complex128)
    dim = v.shape[-1]
    r2 = displacement_r2(g, dim)
    coeff = displacement_coefficients(dim)
    up = np.array(np.broadcast_to(v, (g.size, dim)))
    pow_mg = power_table(-np.conj(g), dim)
    for d in range(1, dim):
        up[:, : dim - d] += pow_mg[:, d, None] * (coeff[d, : dim - d] * v[..., d:])
    out = up.copy()
    pow_g = power_table(g, dim)
    for d in range(1, dim):
        out[:, d:] += pow_g[:, d, None] * (coeff[d, : dim - d] * up[:, : dim - d])
    out *= np.exp(-0.5 * r2)[:, None]
    return out


def displaced_diagonals(rho: DensityMatrix, gammas: np.ndarray, cfg: TruncationConfig) -> np.ndarray:
    """Exact displaced diagonals R_n(gamma_p) = <n|D^dag(gamma_p) rho D(gamma_p)|n>, (P, n_pad).

    With rho = sum_k lam_k |psi_k><psi_k|, R(gamma) = sum_k lam_k |D(-gamma) psi_k|^2.
    Components with |lam_k| <= EIGEN_CUTOFF * lam_max are skipped, so a pure
    state costs one :func:`displace` call; a negative eigenvalue above the
    cutoff is kept, so an unphysical rho fails the noise check below.  The
    series runs over the full working dimension, which keeps the no-click
    probabilities exact far beyond the retained block.
    """
    if rho.dim > cfg.n_pad:
        raise ValueError("state dimension exceeds the working dimension")
    lam, vecs = np.linalg.eigh(rho.elements)
    keep = np.abs(lam) > EIGEN_CUTOFF * lam.max()
    g = -np.asarray(gammas, dtype=np.complex128).ravel()
    diag = np.zeros((g.size, cfg.n_pad))
    psi = np.zeros(cfg.n_pad, dtype=np.complex128)
    for lam_k, vec in zip(lam[keep], vecs.T[keep]):
        psi[: rho.dim] = vec
        amps = displace(g, psi)
        diag += lam_k * (amps.real**2 + amps.imag**2)
    lowest = float(diag.min())
    if lowest < -NEGATIVE_NOISE_TOL:
        raise NumericalError(f"displaced diagonal entry {lowest:.3e} below the noise tolerance")
    np.clip(diag, 0.0, None, out=diag)
    totals = diag.sum(axis=1)
    worst = int(np.argmax(totals))
    if totals[worst] > 1.0 + SUM_TOL:
        raise NumericalError(
            f"displaced diagonal sums to {totals[worst]} > 1 at gamma = {complex(-g[worst])}"
        )
    return diag
