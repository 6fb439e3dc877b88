"""Phase-plane grid, Wigner read-off, map error and reference maps.

``reconstruct_clicks`` runs the batched EM on every point of a click table
and reads W(gamma) = (2/pi) sum_n (-1)^n R_n off each displaced diagonal.
Cell-centered nodes with the spacing recorded on the grid let the
density-matrix recovery reuse the same grid as a midpoint quadrature rule.
``delta_w`` is the mean absolute deviation between two maps; the exact map
(from the displaced diagonals themselves) and the analytic Wigner functions
are the references it is measured against.
"""
import math
from typing import NamedTuple

import numpy as np

from .em import EMConfig, run_em_batch
from .errors import DataError
from .fock import DensityMatrix, TruncationConfig, displaced_diagonals
from .measurement import ClickArrays, complex_array

__all__ = [
    "PhaseGrid",
    "WignerEstimate",
    "wigner_from_values",
    "reconstruct_clicks",
    "delta_w",
    "exact_wigner_map",
    "coherent_wigner",
    "squeezed_wigner",
    "fock_wigner",
]

W_BOUND_SLACK = 1e-6


class _Grid(NamedTuple):  # PhaseGrid's fields: a NamedTuple body may not define __new__
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    n_re: int
    n_im: int


class PhaseGrid(_Grid):
    """Uniform cell-centered grid on a phase-plane rectangle."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, re_min: float, re_max: float, im_min: float, im_max: float, n_re: int, n_im: int):
        if not (re_min < re_max and im_min < im_max):
            raise ValueError("grid bounds must satisfy min < max")
        if n_re < 1 or n_im < 1:
            raise ValueError("grid needs at least one node per axis")
        return super().__new__(cls, re_min, re_max, im_min, im_max, n_re, n_im)

    @property
    def d_re(self) -> float:
        return (self.re_max - self.re_min) / self.n_re

    @property
    def d_im(self) -> float:
        return (self.im_max - self.im_min) / self.n_im

    @property
    def re_centers(self) -> np.ndarray:
        return self.re_min + (np.arange(self.n_re) + 0.5) * self.d_re

    @property
    def im_centers(self) -> np.ndarray:
        return self.im_min + (np.arange(self.n_im) + 0.5) * self.d_im

    @property
    def n_points(self) -> int:
        return self.n_re * self.n_im

    def flat_gammas(self) -> np.ndarray:
        """The (n_points,) complex nodes, row-major in (im, re): re runs fastest."""
        return complex_array(np.tile(self.re_centers, self.n_im), np.repeat(self.im_centers, self.n_re))


class WignerEstimate(NamedTuple("WignerEstimate", [("grid", PhaseGrid), ("w_values", np.ndarray)])):
    """A Wigner map on its grid, one value per node of ``grid.flat_gammas()`` (compared by identity)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, grid: PhaseGrid, w_values: np.ndarray):
        w = np.asarray(w_values, dtype=float)
        if w.shape != (grid.n_points,):
            raise ValueError(f"w_values shape {w.shape} does not match the grid")
        return super().__new__(cls, grid, w)

    @property
    def bound_warning(self) -> str | None:
        """The warning for a finite |W| above 2/pi, which is left unclamped; None within the bound."""
        finite = self.w_values[np.isfinite(self.w_values)]
        peak = float(np.max(np.abs(finite))) if finite.size else 0.0
        if peak > 2.0 / math.pi + W_BOUND_SLACK:
            return f"Wigner magnitude {peak:.6f} exceeds 2/pi; leaving values unclamped"
        return None


def wigner_from_values(values: np.ndarray) -> "float | np.ndarray":
    """Alternating-sign sum (2/pi) sum_n (-1)^n R_n over the last axis."""
    values = np.asarray(values, dtype=float)
    signs = np.where(np.arange(values.shape[-1]) % 2 == 0, 1.0, -1.0)
    return 2.0 / math.pi * np.dot(values, signs)


def reconstruct_clicks(
    clicks: ClickArrays, n_trunc: int, em_cfg: EMConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched EM on every point -> (W values, R tables, final loglik, failed).

    Failed points get W = NaN.
    """
    values, loglik, failed = run_em_batch(
        clicks.noclick / clicks.n_runs, clicks.nu_bar, np.exp(clicks.y), n_trunc, em_cfg,
        noclick=clicks.noclick, n_runs=clicks.n_runs,
    )
    return np.where(failed, math.nan, wigner_from_values(values)), values, loglik, failed


def delta_w(w_ref: np.ndarray, w_rec: np.ndarray) -> float:
    """Mean |w_rec - w_ref| over the entries where both maps are finite (NaN if none)."""
    w_ref, w_rec = np.asarray(w_ref, dtype=float), np.asarray(w_rec, dtype=float)
    if w_ref.shape != w_rec.shape:
        raise DataError(f"Wigner maps of shapes {w_ref.shape} and {w_rec.shape} cannot be compared")
    finite = np.isfinite(w_rec) & np.isfinite(w_ref)
    return float(np.mean(np.abs(w_rec - w_ref)[finite])) if finite.any() else math.nan


def exact_wigner_map(rho: DensityMatrix, grid: PhaseGrid, trunc: TruncationConfig) -> WignerEstimate:
    """Truncated Wigner values computed from exact displaced diagonals.

    This is the ideal limit of the exact-probability pipeline: with exact
    no-click probabilities the displaced diagonals are known outright, so no
    iterative reconstruction enters.
    """
    diag = displaced_diagonals(rho, grid.flat_gammas(), trunc)
    w = wigner_from_values(diag[:, : trunc.n_trunc])
    return WignerEstimate(grid=grid, w_values=w)


def coherent_wigner(alpha0: complex):
    """Analytic Wigner of a coherent state: (2/pi) exp(-2 |g - alpha0|^2)."""
    a0 = complex(alpha0)

    def w(gammas: np.ndarray) -> np.ndarray:
        g = np.asarray(gammas, dtype=complex)
        return 2.0 / math.pi * np.exp(-2.0 * np.abs(g - a0) ** 2)

    return w


def squeezed_wigner(squeeze: float):
    """Analytic Wigner of the squeezed vacuum: a Gaussian squeezed along Re."""
    s = float(squeeze)
    narrow, wide = math.exp(2.0 * s), math.exp(-2.0 * s)

    def w(gammas: np.ndarray) -> np.ndarray:
        g = np.asarray(gammas, dtype=complex)
        return 2.0 / math.pi * np.exp(-2.0 * narrow * g.real**2 - 2.0 * wide * g.imag**2)

    return w


def laguerre(n: int, x) -> np.ndarray:
    """Laguerre polynomial L_n(x) for integer n, by the three-term ``d, p``
    recurrence that ``scipy.special.eval_laguerre`` runs for integer n, so the
    two agree bit for bit (including 0 for n < 0)."""
    x = np.asarray(x, dtype=np.float64)
    if n <= 0:
        return np.full_like(x, 1.0 if n == 0 else 0.0)
    d = -x
    p = d + 1.0
    for k in range(1, n):
        d = -x / (k + 1.0) * p + (k / (k + 1.0)) * d
        p = d + p
    return p


def fock_wigner(n: int):
    """Analytic Wigner of |n>: (2/pi) (-1)^n L_n(4|g|^2) exp(-2|g|^2)."""

    def w(gammas: np.ndarray) -> np.ndarray:
        g = np.asarray(gammas, dtype=complex)
        r2 = np.abs(g) ** 2
        return 2.0 / math.pi * (-1.0) ** n * laguerre(n, 4.0 * r2) * np.exp(-2.0 * r2)

    return w
