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
import numpy as np

from .errors import NumericalError
from .fock import displacement_coefficients, power_table
from .wigner import PhaseGrid

__all__ = [
    "integrate_rho",
    "compare_states",
]

TRACE_WARN_TOL = 0.05


def integrate_rho(grid: PhaseGrid, w: np.ndarray, n_trunc: int) -> tuple[np.ndarray, float]:
    """Midpoint quadrature of the map ``w`` (one value per node of ``grid.flat_gammas()``) against
    the recovery kernel, as one moment matrix over the grid points (see the module docstring)
    -> (rho, hermitization residual).

    Failed (non-finite) nodes are skipped.  rho is the Hermitized (n_trunc, n_trunc)
    matrix and the residual is max |raw - raw^H| before that; positivity is left to be
    reported through the smallest eigenvalue rather than enforced, so reconstruction
    error stays visible instead of being projected away.  Elements that overflow to a
    non-finite value (the moments grow like |2 gamma|^(2 n_trunc)) are a NumericalError.
    """
    area = grid.d_re * grid.d_im
    good = np.isfinite(w)
    gammas, w = grid.flat_gammas()[good], w[good]
    b = 2.0 * gammas
    coeff = displacement_coefficients(n_trunc)
    raw = np.zeros((n_trunc, n_trunc), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends as inf or NaN, refused below
        # (P, n_trunc) copies of the component-major tables: the moment product keeps its operand layout
        pow_b, pow_mb = (np.ascontiguousarray(power_table(z, n_trunc).T) for z in (b, -np.conj(b)))
        weighted = (w * np.exp(-0.5 * np.abs(b) ** 2))[:, None] * pow_b
        moments = weighted.T @ pow_mb
        for l in range(n_trunc):
            c = coeff[: n_trunc - l, l]
            raw[l:, l:] += np.outer(c, c) * moments[: n_trunc - l, : n_trunc - l]
        raw *= 2.0 * area * (-1.0) ** np.arange(n_trunc)
    if not np.isfinite(raw).all():
        raise NumericalError(f"the quadrature at n_trunc = {n_trunc} left elements of rho that are not finite")
    return 0.5 * (raw + raw.conj().T), float(np.max(np.abs(raw - raw.conj().T)))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    sym = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def compare_states(ma: np.ndarray, mb: np.ndarray) -> dict[str, float]:
    """``max_abs_diff`` (elementwise), ``trace_distance`` and ``fidelity`` (Uhlmann) of two density matrices.

    Negative eigenvalues from reconstruction noise are clipped inside the
    fidelity only.
    """
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
