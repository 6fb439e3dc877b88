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

Each point meets the floor on its own: with q = A R and s the iterate's sum
(1 on the first step and in the ``literal`` mode), the clamp of e^{y_j} q_j / s
to the floor is q_j <- max(q_j, floor s / e^{y_j}).  As p_j(R) >= e^{y_j}
(min_n A_jn) sum_n R_n, a ``renormalized`` point with min(1, sum init) min_j
e^{y_j} min_n A_jn >= 2 floor (2 for rounding) never reaches it and takes the
bare step: forward product, divide, back product, multiply.  Other points,
and all ``literal`` points (whose sum the bound does not know), are guarded:
each step raises their q to their floors unless the group's smallest q
provably clears every floor.  A point whose q all fall under its floor, or
whose sum is not positive, fails and leaves the guard.  No point's values
depend on another's, so a batch split at the same products keeps its bits.

The loop runs a fixed number of steps; the result holds each point's
values, final log-likelihood and whether it failed.
"""
from typing import NamedTuple

import numpy as np

from .measurement import no_click_powers

__all__ = [
    "EMConfig",
    "run_em_batch",
]

NORMALIZATION_MODES = ("renormalized", "literal")
FLOOR = 1e-12  # forward probabilities are clamped here; a point all under it fails


class EMConfig(NamedTuple("EMConfig", [("n_iterations", int), ("normalization", str), ("init", tuple | None)])):
    """Iteration count, normalization mode and initial vector (a tuple of floats, or None: uniform 1/N)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, n_iterations: int = 1000, normalization: str = "renormalized", init=None):
        if n_iterations < 0:
            raise ValueError("n_iterations must be non-negative")
        if normalization not in NORMALIZATION_MODES:
            raise ValueError(f"normalization must be one of {NORMALIZATION_MODES}")
        if init is not None:
            arr = np.asarray(init, dtype=float)
            if arr.ndim != 1 or np.any(arr <= 0.0):
                raise ValueError("custom init must be a strictly positive vector")
        return super().__new__(cls, n_iterations, normalization, init)


def _loglik_rows(p: np.ndarray, noclick: np.ndarray, n_runs: "int | np.ndarray") -> np.ndarray:
    pc = np.clip(p, FLOOR, 1.0 - FLOOR)
    return (noclick * np.log(pc) + (n_runs - noclick) * np.log1p(-pc)).sum(axis=1)


def _start(cfg: EMConfig, n_trunc: int, p_count: int) -> np.ndarray:
    """The initial iterate, component-major (N, P): the faster layout for both GEMMs."""
    if cfg.init is None:
        return np.full((n_trunc, p_count), 1.0 / n_trunc)
    init = np.asarray(cfg.init, dtype=float)
    if init.size != n_trunc:
        raise ValueError(f"init length {init.size} != n_trunc {n_trunc}")
    return np.repeat(init[:, None], p_count, axis=1)


def _bare_points(a: np.ndarray, ey: np.ndarray, start: np.ndarray, renormalize: bool) -> np.ndarray:
    """(P,) whether each point of ``ey`` (P, M) meets the static bound and takes the bare step.

    A ``renormalized`` point's probabilities never fall below min(1, sum
    start) min_j e^{y_j} min_n A_jn; the bare step needs that to be at least
    twice the floor (2 for rounding).  No ``literal`` point takes it.
    """
    if not renormalize:
        return np.zeros(len(ey), dtype=bool)
    reach = np.minimum(1.0, start.sum(axis=0)) * np.min(ey * a.min(axis=1), axis=1)
    return reach >= 2.0 * FLOOR


def run_em_batch(
    freqs: np.ndarray,
    nu_bar: np.ndarray,
    ey: np.ndarray,
    n_trunc: int,
    cfg: EMConfig,
    noclick: np.ndarray | None = None,
    n_runs: "int | np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
        (values (P, N), final log-likelihood (P,), failed (P,) bool).  Rows
        whose forward probabilities all collapse under the floor are marked
        failed and carry NaN values instead of raising, so the other rows run on.
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

    # Points that meet the static bound take the bare step.  A guarded step raises each
    # point's q to FLOOR s / e^y (sums count from the second renormalized step on),
    # unless the smallest q times the smallest e^y clears FLOOR times the largest sum.
    renormalize = cfg.normalization == "renormalized"
    guarded = np.flatnonzero(~_bare_points(a, ey, r, renormalize))
    cols = slice(None) if guarded.size == p_count else guarded  # a view is faster to reduce
    with np.errstate(divide="ignore", over="ignore"):  # a subnormal e^y takes either quotient to inf
        scaled_freqs = np.divide(freqs.T, ey.T, out=np.zeros((m, p_count)), where=ey.T > 0.0)
        floors = FLOOR / ey[guarded].T  # (M, G); inf where e^y = 0
    e_min = np.min(ey[guarded], initial=np.inf)
    unit = np.ones(1)  # the sum of a first-step or literal iterate
    failed = np.zeros(p_count, dtype=bool)
    q = np.empty((m, p_count))  # forward products, then the ratios in place
    gain = np.empty((n_trunc, p_count))
    # a bare step on a zero iterate divides 0 by 0 (the final normalization fails the point),
    # and a floor over a vanishing e^y may overflow to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(cfg.n_iterations):
            np.matmul(a, r, out=q)
            if guarded.size:
                q_g, scaled = q[:, cols], renormalize and step > 0
                sums = np.add.reduce(r[:, cols], axis=0) if scaled else unit
                q_min = np.minimum.reduce(q_g, axis=None, initial=np.inf)
                s_max = np.maximum.reduce(sums) if scaled else 1.0
                if not (q_min > 0.0 and q_min * e_min >= FLOOR * s_max):
                    bound = floors * sums if scaled else floors
                    dead = ~(sums > 0.0) | ~np.any(q_g >= bound, axis=0)  # a NaN point fails too
                    q[:, cols] = np.maximum(q_g, bound)
                    if dead.any():  # a failed point leaves the guard
                        r[:, guarded[dead]] = np.nan
                        failed[guarded[dead]] = True
                        guarded = cols = guarded[~dead]
                        floors = floors[:, ~dead]
                        e_min = np.min(ey[guarded], initial=np.inf)
            np.divide(scaled_freqs, q, out=q)
            np.matmul(back, q, out=gain)
            np.multiply(r, gain, out=r)
        if renormalize and cfg.n_iterations > 0:  # zero iterations return init as given
            sums = r.sum(axis=0)
            dead = ~failed & ~(sums > 0.0)  # a vanished iterate fails (NaN)
            failed |= dead
            r[:, dead] = np.nan
            r /= np.where(dead, 1.0, sums)

    r = np.ascontiguousarray(r.T)
    return r, _loglik_rows(ey * (r @ a.T), noclick, n_runs), failed
