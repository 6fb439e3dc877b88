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
change.  So the loop iterates without rescaling and divides by the sums
once, after the last step, which gives the iterates of renormalizing after
every step.  Only the probability floor, ``FLOOR``, breaks the scale
invariance.

Each point meets the floor on its own: with q = A R and s the iterate's sum
(1 on the first step), the clamp of e^{y_j} q_j / s to the floor is
q_j <- max(q_j, floor s / e^{y_j}).  As p_j(R) >= e^{y_j} (min_n A_jn) sum_n R_n,
a point with min(1, sum init) min_j e^{y_j} min_n A_jn >= 2 floor (2 for
rounding) never reaches it and takes the bare step: forward product, divide,
back product, multiply.  Other points are guarded: each step raises their q
to their floors unless the group's smallest q provably clears every floor.
A point whose q all fall under its floor, or whose sum is not positive,
fails and leaves the guard.  No point's values depend on another's, so a
batch split at the same products keeps its bits.

The loop runs a fixed number of steps; the result holds each point's
values, final log-likelihood and whether it failed.
"""
import math

import numpy as np

from .measurement import no_click_powers

__all__ = [
    "run_em_batch",
]

FLOOR = 1e-12  # forward probabilities are clamped here; a point all under it fails


def _loglik_rows(p: np.ndarray, noclick: np.ndarray, n_runs: "int | np.ndarray") -> np.ndarray:
    pc = np.clip(p, FLOOR, 1.0 - FLOOR)
    return (noclick * np.log(pc) + (n_runs - noclick) * np.log1p(-pc)).sum(axis=1)


def _aligned(shape: tuple, value) -> np.ndarray:
    """float64 ``shape`` set to ``value`` (broadcast) from a 64-byte boundary: numpy promises 16 bytes,
    and a step whose arrays straddle cache lines takes 7-14% longer, with the same bits."""
    raw = np.empty(math.prod(shape) + 8)
    start = -raw.__array_interface__["data"][0] % 64 // 8
    out = raw[start : start + raw.size - 8].reshape(shape)
    out[...] = value
    return out


def _start(init, n_trunc: int, p_count: int) -> np.ndarray:
    """The initial iterate, component-major (N, P): the faster layout for both GEMMs."""
    if init is None:
        return _aligned((n_trunc, p_count), 1.0 / n_trunc)
    init = np.asarray(init, dtype=float)
    if init.ndim != 1 or not np.all(np.isfinite(init) & (init > 0.0)):
        raise ValueError("custom init must be a strictly positive finite vector")
    if init.size != n_trunc:
        raise ValueError(f"init length {init.size} != n_trunc {n_trunc}")
    return _aligned((n_trunc, p_count), init[:, None])


def _bare_points(a: np.ndarray, ey: np.ndarray, start: np.ndarray) -> np.ndarray:
    """(P,) whether each point of ``ey`` (P, M) meets the static bound and takes the bare step.

    A point's probabilities never fall below min(1, sum start) min_j e^{y_j}
    min_n A_jn; the bare step needs that to be at least twice the floor (2 for
    rounding).
    """
    reach = np.minimum(1.0, start.sum(axis=0)) * np.min(ey * a.min(axis=1), axis=1)
    return reach >= 2.0 * FLOOR


def run_em_batch(
    freqs: np.ndarray,
    nu_bar: np.ndarray,
    ey: np.ndarray,
    n_trunc: int,
    n_iterations: int,
    init=None,
    noclick: np.ndarray | None = None,
    n_runs: "int | np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the iteration for P independent points sharing one efficiency set.

    Args:
        freqs: (P, M) observed no-click frequencies.
        nu_bar: (M,) effective efficiencies, shared across rows.
        ey: (P, M) attenuation factors e^{y} per point and setting.
        n_trunc: model dimension N; requires M >= N.
        n_iterations: steps to run, >= 0.
        init: (N,) strictly positive finite start, returned as given by zero steps;
            None starts every point at uniform 1/N.
        noclick / n_runs: (P, M) counts and their runs (scalar or (P, M)) for
            the likelihood; frequencies are used with unit weight when omitted.

    Returns:
        (values (P, N), final log-likelihood (P,), failed (P,) bool).  Rows
        whose forward probabilities all collapse under the floor are marked
        failed and carry NaN values instead of raising, so the other rows run on.
    """
    if n_iterations < 0:
        raise ValueError("n_iterations must be non-negative")
    freqs = np.asarray(freqs, dtype=float)
    p_count, m = freqs.shape
    if m < n_trunc:
        raise ValueError(f"need at least n_trunc = {n_trunc} settings, got {m}")
    a = _aligned((m, n_trunc), no_click_powers(nu_bar, n_trunc))  # A_jn = (1 - nu_bar_j)^n
    ey = np.broadcast_to(np.asarray(ey, dtype=float), (p_count, m))
    if noclick is None or n_runs is None:
        noclick, n_runs = freqs, 1

    r = _start(init, n_trunc, p_count)

    # A step is r * W'(G / q) with q = A r, G = F / e^y and W' the weighted
    # kernel over the sensitivity (zero for a component no setting sees).
    weighted = a / a.sum(axis=1)[:, None]
    sensitivity = weighted.sum(axis=0)
    back = _aligned((n_trunc, m), 0.0)
    np.divide(weighted.T, sensitivity[:, None], out=back, where=(sensitivity > 0.0)[:, None])

    # Points that meet the static bound take the bare step.  A guarded step raises each
    # point's q to FLOOR s / e^y (sums count from the second step on),
    # unless the smallest q times the smallest e^y clears FLOOR times the largest sum.
    guarded = np.flatnonzero(~_bare_points(a, ey, r))
    cols = slice(None) if guarded.size == p_count else guarded  # a view is faster to reduce
    with np.errstate(divide="ignore", over="ignore"):  # a subnormal e^y takes either quotient to inf
        scaled_freqs = np.divide(freqs.T, ey.T, out=_aligned((m, p_count), 0.0), where=ey.T > 0.0)
        floors = FLOOR / ey[guarded].T  # (M, G); inf where e^y = 0
    e_min = np.min(ey[guarded], initial=np.inf)
    unit = np.ones(1)  # the sum of a first-step iterate
    failed = np.zeros(p_count, dtype=bool)
    q = _aligned((m, p_count), 0.0)  # forward products, then the ratios in place
    gain = _aligned((n_trunc, p_count), 0.0)
    matmul, divide, multiply = np.matmul, np.divide, np.multiply  # local, outputs by position: 0.3 us of a 10 us step
    # a bare step on a zero iterate divides 0 by 0 (the final normalization fails the point),
    # and a floor over a vanishing e^y may overflow to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(n_iterations):
            matmul(a, r, q)
            if guarded.size:
                q_g = q[:, cols]
                sums = np.add.reduce(r[:, cols], axis=0) if step else unit
                q_min = np.minimum.reduce(q_g, axis=None, initial=np.inf)
                s_max = np.maximum.reduce(sums)
                if not (q_min > 0.0 and q_min * e_min >= FLOOR * s_max):
                    bound = floors * sums
                    dead = ~(sums > 0.0) | ~np.any(q_g >= bound, axis=0)  # a NaN point fails too
                    q[:, cols] = np.maximum(q_g, bound)
                    if dead.any():  # a failed point leaves the guard
                        r[:, guarded[dead]] = np.nan
                        failed[guarded[dead]] = True
                        guarded = cols = guarded[~dead]
                        floors = floors[:, ~dead]
                        e_min = np.min(ey[guarded], initial=np.inf)
            divide(scaled_freqs, q, q)
            matmul(back, q, gain)
            multiply(r, gain, r)
        if n_iterations > 0:  # zero iterations return init as given
            sums = r.sum(axis=0)
            dead = ~failed & ~(sums > 0.0)  # a vanished iterate fails (NaN)
            failed |= dead
            r[:, dead] = np.nan
            r /= np.where(dead, 1.0, sums)

    r = np.ascontiguousarray(r.T)
    return r, _loglik_rows(ey * (r @ a.T), noclick, n_runs), failed
