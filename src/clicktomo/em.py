"""Expectation-maximization estimation of the displaced diagonal R_n(gamma).

Observed data are no-click frequencies p_j^exp at M >= N settings sharing one
effective displacement.  The forward model is linear and positive,

    p_j(R) = e^{y_j} sum_{n<N} (1 - nu_bar_j)^n R_n ,

and the iteration multiplies each component by a weighted back-projection of
the frequency ratios:

    R'_n = R_n * [sum_j (A_jn / f_j) p_j^exp / p_j(R)] / [sum_j A_jn / f_j]

with A_jn = (1 - nu_bar_j)^n and the per-setting weights
f_j = sum_{n<N} A_jn.  The sensitivity denominator sum_j A_jn / f_j makes
consistent data a true fixed point: dropping it sends every iterate to the
vacuum component regardless of the data (the tests pin this down), because
sum_j A_jn / f_j decreases strictly with n.

Positivity is preserved by construction.  The update is scale-free: scaling
R by c scales every p_j(R) by c and the bracketed gain by 1/c, so R' does not
change.  The ``renormalized`` iterates are therefore the ``literal`` iterates
divided by their sums, and one loop serves both modes: it iterates without
rescaling, and the default ``renormalized`` mode divides by the sums once,
after the last step.  In the ``literal`` mode the unit sum emerges only at
convergence.  Only the probability floor, ``FLOOR``, breaks the scale
invariance.

Whether the floor can bind is decided once per point.  As p_j(R) >=
e^{y_j} (min_n A_jn) sum_n R_n and the normalized iterate sums to 1 (to the
init's sum on the first step), a ``renormalized`` point with min(1, sum init)
min_j e^{y_j} min_n A_jn >= 2 floor (2 for rounding) never reaches it and
takes the bare step: forward product, divide, back product, multiply
(``bare_points`` makes this decision).  Other points, and all points in the
``literal`` mode (whose iterate sum the bound does not know), are guarded:
each step checks on their columns whether the floor could bind and, if so,
normalizes and clamps them.  A point that fails leaves the guard, so it
sends no other point to the clamped step.

The loop runs a fixed number of steps; the result holds each point's
values, final log-likelihood and whether it failed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import no_click_powers

__all__ = [
    "EMConfig",
    "EMBatchResult",
    "bare_points",
    "run_em_batch",
]

NORMALIZATION_MODES = ("renormalized", "literal")
FLOOR = 1e-12  # forward probabilities are clamped here; a point all under it fails


@dataclass(frozen=True)
class EMConfig:
    """Iteration count, normalization mode and initial vector."""

    n_iterations: int = 1000
    normalization: str = "renormalized"
    init: tuple[float, ...] | None = None  # None -> uniform 1/N

    def __post_init__(self) -> None:
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be non-negative")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"normalization must be one of {NORMALIZATION_MODES}")
        if self.init is not None:
            arr = np.asarray(self.init, dtype=float)
            if arr.ndim != 1 or np.any(arr <= 0.0):
                raise ValueError("custom init must be a strictly positive vector")


def _loglik_rows(p: np.ndarray, noclick: np.ndarray, n_runs: "int | np.ndarray") -> np.ndarray:
    pc = np.clip(p, FLOOR, 1.0 - FLOOR)
    return (noclick * np.log(pc) + (n_runs - noclick) * np.log1p(-pc)).sum(axis=1)


@dataclass(frozen=True, eq=False)
class EMBatchResult:
    """Row-wise EM output for a batch of independent inverse problems."""

    values: np.ndarray  # (P, N); failed rows are NaN
    final_loglik: np.ndarray  # (P,)
    failed: np.ndarray  # (P,) bool


def _normalize(r: np.ndarray, sums: np.ndarray, failed: np.ndarray) -> None:
    """Divide each point's column of r by its sum; a point whose sum is not positive fails (NaN)."""
    dead = ~failed & ~(sums > 0.0)
    failed |= dead
    r[:, dead] = np.nan
    r /= np.where(dead, 1.0, sums)


def _start(cfg: EMConfig, n_trunc: int, p_count: int) -> np.ndarray:
    """The initial iterate, component-major (N, P): the faster layout for both GEMMs."""
    if cfg.init is None:
        return np.full((n_trunc, p_count), 1.0 / n_trunc)
    init = np.asarray(cfg.init, dtype=float)
    if init.size != n_trunc:
        raise ValueError(f"init length {init.size} != n_trunc {n_trunc}")
    return np.repeat(init[:, None], p_count, axis=1)


def bare_points(nu_bar: np.ndarray, ey: np.ndarray, n_trunc: int, cfg: EMConfig) -> np.ndarray:
    """(P,) whether each point of ``ey`` (P, M) meets the static bound and takes the bare step.

    A ``renormalized`` point's probabilities never fall below min(1, sum init)
    min_j e^{y_j} min_n A_jn; the bare step needs that to be at least twice
    the floor (2 for rounding).  No ``literal`` point takes it.
    """
    ey = np.asarray(ey, dtype=float)
    if cfg.normalization != "renormalized":
        return np.zeros(len(ey), dtype=bool)
    a = no_click_powers(nu_bar, n_trunc)
    reach = np.minimum(1.0, _start(cfg, n_trunc, len(ey)).sum(axis=0)) * np.min(ey * a.min(axis=1), axis=1)
    return reach >= 2.0 * FLOOR


def run_em_batch(
    freqs: np.ndarray,
    nu_bar: np.ndarray,
    ey: np.ndarray,
    n_trunc: int,
    cfg: EMConfig,
    noclick: np.ndarray | None = None,
    n_runs: "int | np.ndarray | None" = None,
) -> EMBatchResult:
    """Run the iteration for P independent points sharing one efficiency set.

    Args:
        freqs: (P, M) observed no-click frequencies.
        nu_bar: (M,) effective efficiencies, shared across rows.
        ey: (P, M) attenuation factors e^{y} per point and setting.
        n_trunc: model dimension N; requires M >= N.
        cfg: iteration configuration.
        noclick / n_runs: (P, M) counts and their runs (scalar or (P, M)) for
            the likelihood; frequencies are used with unit weight when omitted.

    Returns:
        EMBatchResult. Rows whose forward probabilities all collapse under
        the floor are marked failed and carry NaN instead of raising, so the
        other rows run on.
    """
    freqs = np.asarray(freqs, dtype=float)
    p_count, m = freqs.shape
    if m < n_trunc:
        raise ValueError(f"need at least n_trunc = {n_trunc} settings, got {m}")
    a = no_click_powers(nu_bar, n_trunc)  # A_jn = (1 - nu_bar_j)^n
    ey = np.broadcast_to(np.asarray(ey, dtype=float), (p_count, m))
    if noclick is None or n_runs is None:
        noclick, n_runs = freqs, 1

    r = _start(cfg, n_trunc, p_count)

    # A step is r * W'(G / q) with q = A r, G = F / e^y and W' the weighted
    # kernel over the sensitivity (zero for a component no setting sees).
    weighted = a / a.sum(axis=1)[:, None]
    sensitivity = weighted.sum(axis=0)
    back = np.zeros((n_trunc, m))
    np.divide(weighted.T, sensitivity[:, None], out=back, where=(sensitivity > 0.0)[:, None])
    forward = np.vstack([a, np.ones(n_trunc)])  # puts each point's sum in q's last row
    scaled_freqs = np.divide(freqs.T, ey.T, out=np.zeros((m, p_count)), where=ey.T > 0.0)

    # Points that meet the static bound take the bare step.  A guarded step skips
    # the floor only if e^y q / sum provably stays above it (sums count from the second
    # renormalized step on), else it normalizes, clamps and fails as tests/oracles.py does.
    renormalize = cfg.normalization == "renormalized"
    guarded = np.flatnonzero(~bare_points(nu_bar, ey, n_trunc, cfg))
    cols = slice(None) if guarded.size == p_count else guarded  # a view is faster to reduce
    e_min = np.min(ey[guarded], initial=np.inf)
    failed = np.zeros(p_count, dtype=bool)
    q = np.empty((m + 1, p_count))  # forward products and sums
    ratios = q[:m]  # then the ratios, in place
    gain = np.empty((n_trunc, p_count))
    # a bare step on a zero iterate divides 0 by 0; the final normalization fails the point
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(cfg.n_iterations):
            clamp = False
            if not guarded.size:
                np.matmul(a, r, out=ratios)
            else:
                np.matmul(forward, r, out=q)
                q_g, scaled = q[:, cols], renormalize and step > 0
                scale = np.maximum.reduce(q_g[m], initial=0.0) if scaled else 1.0
                q_min = np.minimum.reduce(q_g, axis=None, initial=np.inf)
                clamp = not (q_min > 0.0 and q_min * e_min >= FLOOR * scale)
            np.divide(scaled_freqs, ratios, out=ratios)
            if clamp:
                r_g, dead = r[:, cols], failed[cols]
                if scaled:
                    _normalize(r_g, q_g[m], dead)
                p = ey.T[:, cols] * (a @ r_g)
                dead |= np.all(p < FLOOR, axis=0)
                r_g[:, dead] = np.nan
                r[:, cols], failed[cols] = r_g, dead
                ratios[:, cols] = freqs.T[:, cols] / np.maximum(p, FLOOR)
                if dead.any():  # a failed point leaves the guard
                    guarded = cols = guarded[~dead]
                    e_min = np.min(ey[guarded], initial=np.inf)
            np.matmul(back, ratios, out=gain)
            np.multiply(r, gain, out=r)
        if renormalize and cfg.n_iterations > 0:  # zero iterations return init as given
            _normalize(r, r.sum(axis=0), failed)

    r = np.ascontiguousarray(r.T)
    return EMBatchResult(
        values=r,
        final_loglik=_loglik_rows(ey * (r @ a.T), noclick, n_runs),
        failed=failed,
    )
