"""Truncated Fock-space states and displacement algebra.

All operator work happens in a padded working dimension (``n_pad``) so that
the non-unitary edge of a truncated displacement matrix stays away from the
exposed ``n_trunc`` block.  :func:`displace` is the one place that evaluates
the displacement series; the forward model and the density-matrix quadrature
both build on its coefficient and power tables.  A state builder returns the
state's complex128 amplitudes over the working dimension.  Every function is
pure, and states and cached tables are read-only, so values can be shared
freely.
"""
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

__all__ = [
    "TruncationConfig",
    "DensityMatrix",
    "coherent_state",
    "squeezed_vacuum",
    "fock_state",
    "density_from_pure",
    "displace",
    "displaced_diagonals",
]

SUM_TOL = 1e-9
HERMITICITY_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Truncation(NamedTuple):  # TruncationConfig's fields: a NamedTuple body may not define __new__
    n_trunc: int
    n_pad: int = 0


class TruncationConfig(_Truncation):
    """Fock dimensions: ``n_trunc`` is exposed, ``n_pad`` is the working dimension.

    ``n_pad = 0`` resolves to the default padding ``2 * n_trunc + 20``, which
    keeps the retained block of a displacement matrix unitary to well below
    the tolerances used anywhere in the pipeline.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, n_trunc: int, n_pad: int = 0):
        if n_trunc < 2:
            raise ValueError("n_trunc must be at least 2")
        n_pad = n_pad or 2 * n_trunc + 20
        if n_pad < n_trunc:
            raise ValueError("n_pad must be >= n_trunc")
        return super().__new__(cls, n_trunc, n_pad)


class DensityMatrix(NamedTuple("DensityMatrix", [("elements", np.ndarray)])):
    """Hermitian density matrix in the Fock basis, or a leading block of one: its trace
    falls below 1 for a truncated state, to 0 for a block the state leaves empty (a
    Fock state above the block), and is never normalized up."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, elements: np.ndarray):
        rho = np.ascontiguousarray(elements, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = complex(np.trace(rho))
        if abs(tr.imag) > SUM_TOL or tr.real > 1.0 + SUM_TOL or tr.real < 0.0:
            raise ValueError(f"trace {tr} outside [0, 1]")
        return super().__new__(cls, _readonly(rho))


def coherent_state(amplitude: complex, cfg: TruncationConfig) -> np.ndarray:
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
    return _readonly(amps)


def squeezed_vacuum(squeeze: float, cfg: TruncationConfig) -> np.ndarray:
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
    return _readonly(amps)


def fock_state(n: int, cfg: TruncationConfig) -> np.ndarray:
    """Number state |n> in the working dimension."""
    if not 0 <= n < cfg.n_pad:
        raise ValueError(f"n = {n} outside [0, {cfg.n_pad})")
    amps = np.zeros(cfg.n_pad, dtype=np.complex128)
    amps[n] = 1.0
    return _readonly(amps)


def density_from_pure(amplitudes: np.ndarray) -> DensityMatrix:
    """Projector |psi><psi| of a state vector; DensityMatrix refuses a squared norm above 1."""
    return DensityMatrix(np.outer(amplitudes, np.conj(amplitudes)))


@functools.lru_cache(maxsize=None)
def displacement_coefficients(dim: int) -> np.ndarray:
    """Read-only table c[d, k] = sqrt((k+d)!/k!) / d! for k + d < dim, zero elsewhere.

    Row d holds the d-th diagonal of both triangular factors of D(gamma)
    (see :func:`displace`).  The recurrence c[0, k] = 1,
    c[d, k] = c[d-1, k] sqrt(k+d) / d fills the table row by row, in place:
    no factorial is formed, so every entry stays finite, and at dim 100
    every entry is within 4e-15 relative of its exact value.  Beyond the
    table itself it holds only a few rows' worth of memory.
    """
    root = np.sqrt(np.arange(dim, dtype=float))
    table = np.zeros((dim, dim))
    table[0] = 1.0
    for d in range(1, dim):
        np.multiply(table[d - 1, : dim - d], root[d:] / d, out=table[d, : dim - d])
    return _readonly(table)


def power_table(z: np.ndarray, dim: int) -> np.ndarray:
    """(dim, P) powers z_p^j for j < dim, component-major, by cumulative products."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    out = np.ones((dim, z.size), dtype=np.complex128)
    np.cumprod(np.broadcast_to(z, (dim - 1, z.size)), axis=0, out=out[1:])
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
    (dim - d, P) multiply-add on component-major arrays (the points on the
    contiguous axis), so no (P, dim, dim) array is built.  numpy's complex
    multiply takes a fused or a plain loop by its operands' strides, so one
    point runs as two copies of itself, the two-column rule: alone, it would
    round differently in the last bit than in a batch.

    Every |gamma|^2 must be at most dim / 2, otherwise the displaced vacuum
    itself would not fit the basis (see :func:`displacement_r2`).  The power
    tables hold g^d up to d = dim - 1, so they stay finite only while
    |gamma|^(dim - 1) is below 1.8e308: for |gamma| under 1.4145 at dim 2048,
    2.035 at dim 1000 and 10.72 at dim 300.  Past that the output holds inf
    or NaN, which :func:`displaced_diagonals` refuses.
    """
    g = np.asarray(gammas, dtype=np.complex128).ravel()
    v = np.asarray(vectors, dtype=np.complex128)
    dim, n_points = v.shape[-1], g.size
    r2 = displacement_r2(g, dim)
    if n_points == 1:  # the two-column rule
        g, r2, v = np.repeat(g, 2), np.repeat(r2, 2), v if v.ndim == 1 else np.repeat(v, 2, axis=0)
    coeff = displacement_coefficients(dim)[:, :, None]
    vt = np.ascontiguousarray(v.T) if v.ndim == 2 else v[:, None]
    up = np.array(np.broadcast_to(vt, (dim, g.size)))
    term = np.empty_like(up)  # each offset's product, pow * (coeff * x): the operand order fixes the rounding
    pow_mg = power_table(-np.conj(g), dim)
    for d in range(1, dim):
        np.multiply(pow_mg[d], coeff[d, : dim - d] * vt[d:], out=term[: dim - d])
        up[: dim - d] += term[: dim - d]
    out = up.copy()
    pow_g = power_table(g, dim)
    for d in range(1, dim):
        np.multiply(pow_g[d], coeff[d, : dim - d] * up[: dim - d], out=term[: dim - d])
        out[d:] += term[: dim - d]
    out *= np.exp(-0.5 * r2)
    return out.T[:n_points]


def displaced_diagonals(amplitudes: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Exact displaced diagonals R_n(gamma_p) = <n|D^dag(gamma_p) rho D(gamma_p)|n>, (P, dim).

    Every state is pure, rho = |psi><psi| with psi the ``amplitudes``, so
    R(gamma) = |D(-gamma) psi|^2: one :func:`displace` call.  The series runs
    over the state's full working dimension, which keeps the no-click
    probabilities exact far beyond the retained block.
    """
    g = -np.asarray(gammas, dtype=np.complex128).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends as inf or NaN, refused below
        amps = displace(g, amplitudes)
        diag = amps.real**2 + amps.imag**2
    bad = np.argwhere(~np.isfinite(diag))
    if bad.size:
        p, n = bad[0]
        raise NumericalError(f"displaced diagonal entry {diag[p, n]} at gamma = {complex(-g[p])} is not finite")
    totals = diag.sum(axis=1)
    worst = int(np.argmax(totals))
    if not totals[worst] <= 1.0 + SUM_TOL:
        raise NumericalError(
            f"displaced diagonal sums to {totals[worst]} > 1 at gamma = {complex(-g[worst])}"
        )
    return diag
