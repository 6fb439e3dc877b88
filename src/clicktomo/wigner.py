"""Phase-plane orchestration: simulate, reconstruct and map Wigner values.

Each grid node gets an independent simulate -> reconstruct pipeline; nodes
share nothing but the efficiency schedule, so the scan vectorizes the EM
across points and stays deterministic under a fixed seed.  Cell-centered
nodes with the spacing recorded on the grid let the density-matrix recovery
reuse the same grid as a midpoint quadrature rule.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .em import EMConfig, run_em_batch
from .errors import DataError, DegenerateModelError
from .fock import (
    DensityMatrix,
    DiagonalDistribution,
    TruncationConfig,
    displaced_diagonals,
)
from .measurement import ClickArrays, Recipe, simulate

__all__ = [
    "PhaseGrid",
    "WignerEstimate",
    "ErrorReport",
    "wigner_from_values",
    "reconstruct_clicks",
    "reconstruct_point",
    "scan_grid",
    "delta_w",
    "variance_map",
    "exact_wigner_map",
    "truncation_error_map",
    "recommend_truncation",
    "wigner_map_from_function",
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
    """Reconstructed Wigner map plus optional diagnostics."""

    grid: PhaseGrid
    w_values: np.ndarray  # (n_im, n_re)
    w_variance: np.ndarray | None = None
    r_tables: np.ndarray | None = None  # (n_points, n_trunc)
    final_loglik: np.ndarray | None = None  # (n_points,)
    failures: tuple[tuple[int, str], ...] = ()

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


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Mean absolute Wigner deviation over the compared points."""

    delta_w: float
    n_points: int
    abs_differences: np.ndarray


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


def reconstruct_point(
    rho: DensityMatrix,
    gamma: complex,
    recipe: Recipe,
    trunc: TruncationConfig,
    em_cfg: EMConfig,
    n_runs: int = 10_000,
    seed: "int | tuple[int, ...]" = 0,
    exact: bool = False,
    point_index: int = 0,
    repetition: int = 0,
) -> tuple[DiagonalDistribution, float]:
    """Simulate one schedule at ``gamma`` and reconstruct (R, W(gamma))."""
    clicks = simulate(
        rho, [gamma], recipe, trunc, n_runs, seed, repetition, exact, offset=point_index
    )
    w, values, _, failed = reconstruct_clicks(clicks, trunc.n_trunc, em_cfg)
    if failed[0]:
        raise DegenerateModelError(
            "every forward probability fell below the floor; model and data are incompatible"
        )
    return DiagonalDistribution(gamma=complex(gamma), values=values[0]), w[0]


def scan_grid(
    rho: DensityMatrix,
    grid: PhaseGrid,
    recipe: Recipe,
    trunc: TruncationConfig,
    em_cfg: EMConfig,
    n_runs: int = 10_000,
    seed: "int | tuple[int, ...]" = 0,
    exact: bool = False,
    repetition: int = 0,
    keep_r: bool = False,
) -> WignerEstimate:
    """Reconstruct the Wigner function on every grid node.

    Randomness is keyed by (seed, repetition, point_index), so points
    share no state and scans reproduce bit-for-bit for a fixed seed.  A
    failed node is recorded and left NaN; the scan continues.
    """
    clicks = simulate(rho, grid.flat_gammas(), recipe, trunc, n_runs, seed, repetition, exact)
    w, values, loglik, failed = reconstruct_clicks(clicks, trunc.n_trunc, em_cfg)
    failures = tuple(
        (int(i), "forward probabilities collapsed below the floor")
        for i in np.flatnonzero(failed)
    )
    if failures:
        log.warning("%d of %d grid points failed to reconstruct", len(failures), w.size)
    return WignerEstimate(
        grid=grid,
        w_values=w.reshape(grid.n_im, grid.n_re),
        r_tables=values if keep_r else None,
        final_loglik=loglik,
        failures=failures,
    )


def delta_w(exact: WignerEstimate, rec: WignerEstimate) -> ErrorReport:
    """Mean absolute deviation between two maps on the same grid."""
    if exact.grid != rec.grid:
        raise DataError("Wigner maps live on different grids")
    diff = np.abs(exact.w_values - rec.w_values).ravel()
    valid = np.isfinite(diff)
    if not np.any(valid):
        raise DataError("no finite points to compare")
    return ErrorReport(
        delta_w=float(diff[valid].mean()),
        n_points=int(valid.sum()),
        abs_differences=diff,
    )


def variance_map(
    rho: DensityMatrix,
    grid: PhaseGrid,
    recipe: Recipe,
    trunc: TruncationConfig,
    em_cfg: EMConfig,
    n_runs: int = 10_000,
    n_repetitions: int = 2,
    seed: "int | tuple[int, ...]" = 0,
    exact: bool = False,
) -> np.ndarray:
    """Per-point population variance of W over independent repetitions.

    With two repetitions this equals the squared half-difference of the two
    maps; in exact-probability mode it is identically zero.
    """
    if n_repetitions < 2:
        raise ValueError("variance needs at least two repetitions")
    maps = [
        scan_grid(
            rho, grid, recipe, trunc, em_cfg,
            n_runs=n_runs, seed=seed, exact=exact, repetition=rep,
        ).w_values
        for rep in range(n_repetitions)
    ]
    return np.var(np.stack(maps), axis=0)


def exact_wigner_map(rho: DensityMatrix, grid: PhaseGrid, trunc: TruncationConfig) -> WignerEstimate:
    """Truncated Wigner values computed from exact displaced diagonals.

    This is the ideal limit of the exact-probability pipeline: with exact
    no-click probabilities the displaced diagonals are known outright, so no
    iterative reconstruction enters.
    """
    diag = displaced_diagonals(rho, grid.flat_gammas(), trunc)
    w = wigner_from_values(diag[:, : trunc.n_trunc])
    return WignerEstimate(grid=grid, w_values=w.reshape(grid.n_im, grid.n_re))


def truncation_error_map(
    rho: DensityMatrix,
    grid: PhaseGrid,
    trunc: TruncationConfig,
    reference=None,
) -> np.ndarray:
    """|W_reference - W_truncated| per node.

    ``reference`` is a vectorized analytic Wigner function; when omitted the
    padded-dimension numeric value stands in for it.
    """
    gammas = grid.flat_gammas()
    diag = displaced_diagonals(rho, gammas, trunc)
    w_trunc = wigner_from_values(diag[:, : trunc.n_trunc])
    w_pad = wigner_from_values(diag)
    ref = np.asarray(reference(gammas), dtype=float) if reference is not None else w_pad
    return np.abs(ref - w_trunc).reshape(grid.n_im, grid.n_re)


def recommend_truncation(rho: DensityMatrix, threshold: float = 1e-4) -> int:
    """Smallest retained dimension holding all but ``threshold`` of the mass.

    Running this on a reconstructed photon-number distribution (the gamma=0
    diagonal) is the practical way to size a scan before committing to it.
    """
    occupation = np.real(np.diag(rho.elements))
    cumulative = np.cumsum(occupation)
    hits = np.flatnonzero(cumulative >= 1.0 - threshold)
    return int(hits[0]) + 1 if hits.size else rho.dim


def wigner_map_from_function(grid: PhaseGrid, fn) -> WignerEstimate:
    """Wrap a vectorized analytic Wigner function into an estimate."""
    return WignerEstimate(grid=grid, w_values=np.asarray(fn(grid.gammas()), dtype=float))


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
