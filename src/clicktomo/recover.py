"""Density-matrix recovery from a Wigner map by phase-plane quadrature.

The matrix elements come from the overlap of the Wigner function with
displacement matrix elements taken at twice the phase-space argument:

    rho_mn = 2 integral d^2gamma (-1)^n W(gamma) K_mn(2 gamma),
    K_mn(b) = <m|D(b)|n> = e^{-|b|^2/2}
              sum_l c[m-l, l] c[n-l, l] b^{m-l} (-b*)^{n-l},

with c[d, k] = sqrt((k+d)!/k!) / d! the displacement coefficients of
``fock``.  The integral is a midpoint sum on the scan's own cell-centered
grid, so it factors through one weighted moment matrix
M[i, j] = sum_p w_p e^{-|b_p|^2/2} b_p^i (-b_p*)^j.  The kernel decays like
exp(-2|gamma|^2), so corners of the grid - exactly where the truncated
Wigner map is least trustworthy - contribute almost nothing; a test
quantifies this.
"""
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .fock import DensityMatrix, displacement_coefficients, power_table
from .wigner import WignerEstimate

__all__ = [
    "integrate_rho",
    "compare_states",
    "RecoveredDensity",
]

TRACE_WARN_TOL = 0.05


class RecoveredDensity(NamedTuple):
    """Quadrature-recovered matrix with its bookkeeping (compared by identity).

    Hermitized after integration; positivity is reported through
    ``min_eigenvalue`` rather than enforced, so reconstruction error stays
    visible instead of being projected away.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    elements: np.ndarray
    hermitization_residual: float
    trace_warning: bool = False

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.elements)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.elements)[0])


def integrate_rho(wigner: WignerEstimate, n_trunc: int) -> RecoveredDensity:
    """Midpoint quadrature of the Wigner map against the recovery kernel,
    as one moment matrix over the grid points (see the module docstring).

    Failed (non-finite) nodes are skipped; a trace further than 0.05 from 1
    sets ``trace_warning`` (grid too small or too coarse) without failing the
    result.
    """
    grid = wigner.grid
    area = grid.d_re * grid.d_im
    gammas, w = grid.flat_gammas(), wigner.w_values
    good = np.isfinite(w)
    gammas, w = gammas[good], w[good]
    if w.size == 0:
        raise DataError("Wigner map holds no finite values")

    b = 2.0 * gammas
    # (P, n_trunc) copies of the component-major tables: the moment product keeps its operand layout
    pow_b, pow_mb = (np.ascontiguousarray(power_table(z, n_trunc).T) for z in (b, -np.conj(b)))
    weighted = (w * np.exp(-0.5 * np.abs(b) ** 2))[:, None] * pow_b
    moments = weighted.T @ pow_mb
    coeff = displacement_coefficients(n_trunc)
    raw = np.zeros((n_trunc, n_trunc), dtype=complex)
    for l in range(n_trunc):
        c = coeff[: n_trunc - l, l]
        raw[l:, l:] += np.outer(c, c) * moments[: n_trunc - l, : n_trunc - l]
    raw *= 2.0 * area * (-1.0) ** np.arange(n_trunc)
    residual = float(np.max(np.abs(raw - raw.conj().T)))
    sym = 0.5 * (raw + raw.conj().T)
    trace = float(np.real(np.trace(sym)))
    return RecoveredDensity(sym, residual, abs(trace - 1.0) > TRACE_WARN_TOL)


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, (DensityMatrix, RecoveredDensity)):
        return np.asarray(state.elements)
    return np.asarray(state, dtype=complex)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    sym = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def compare_states(a, b) -> dict[str, float]:
    """``max_abs_diff`` (elementwise), ``trace_distance`` and ``fidelity`` (Uhlmann) of two states.

    Inputs may be DensityMatrix, RecoveredDensity or bare arrays; negative
    eigenvalues from reconstruction noise are clipped inside the fidelity
    only.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    diff = ma - mb
    max_abs = float(np.max(np.abs(diff)))
    herm_diff = 0.5 * (diff + diff.conj().T)
    trace_dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(herm_diff))))
    sq = _psd_sqrt(ma)
    inner = sq @ mb @ sq
    eigs = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    fidelity = float(np.sum(np.sqrt(eigs)) ** 2)
    return {"max_abs_diff": max_abs, "trace_distance": trace_dist, "fidelity": fidelity}
