"""Phase-plane grid, Wigner read-off, map error and reference maps.

``reconstruct_clicks`` runs the batched EM on every point of a click table
and reads W(gamma) = (2/pi) sum_n (-1)^n R_n off each displaced diagonal.
Cell-centered nodes with the spacing recorded on the grid let the
density-matrix recovery reuse the same grid as a midpoint quadrature rule.
``delta_w`` is the mean absolute deviation between two maps; the exact map
(from the displaced diagonals themselves) and the analytic Wigner functions
are the references it is measured against.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .em import EMConfig, run_em_batch
from .errors import DataError
from .fock import DensityMatrix, TruncationConfig, displaced_diagonals
from .measurement import ClickArrays

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

log = logging.getLogger(__name__)

W_BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform cell-centered grid on a phase-plane rectangle."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    n_re: int
    n_im: int

    def __post_init__(self) -> None:
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid bounds must satisfy min < max")
        if self.n_re < 1 or self.n_im < 1:
            raise ValueError("grid needs at least one node per axis")

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

    def gammas(self) -> np.ndarray:
        """(n_im, n_re) complex nodes; flattening is row-major in (im, re)."""
        return self.re_centers[None, :] + 1j * self.im_centers[:, None]

    def flat_gammas(self) -> np.ndarray:
        return self.gammas().ravel()

    def farthest_node(self) -> complex:
        """The node farthest from the origin, computed as ``gammas()`` computes
        it; |gamma| grows with |re| and |im|, so it is a corner of the nodes."""

        def edge(lo: float, step: float, n: int) -> float:
            return max(lo + 0.5 * step, lo + (n - 0.5) * step, key=abs)

        return complex(edge(self.re_min, self.d_re, self.n_re), edge(self.im_min, self.d_im, self.n_im))


@dataclass(frozen=True, eq=False)
class WignerEstimate:
    """A Wigner map on its grid."""

    grid: PhaseGrid
    w_values: np.ndarray  # (n_im, n_re)

    def __post_init__(self) -> None:
        w = np.asarray(self.w_values, dtype=float)
        if w.shape != (self.grid.n_im, self.grid.n_re):
            raise ValueError(f"w_values shape {w.shape} does not match the grid")
        finite = w[np.isfinite(w)]
        if finite.size and float(np.max(np.abs(finite))) > 2.0 / math.pi + W_BOUND_SLACK:
            log.warning(
                "Wigner magnitude %.6f exceeds 2/pi; leaving values unclamped",
                float(np.max(np.abs(finite))),
            )
        object.__setattr__(self, "w_values", w)


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
    result = run_em_batch(
        clicks.noclick / clicks.n_runs, clicks.nu_bar, np.exp(clicks.y), n_trunc, em_cfg,
        noclick=clicks.noclick, n_runs=clicks.n_runs,
    )
    w = np.where(result.failed, math.nan, wigner_from_values(result.values))
    return w, result.values, result.final_loglik, result.failed


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
    return WignerEstimate(grid=grid, w_values=w.reshape(grid.n_im, grid.n_re))


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
