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
convergence.  Only the probability floor breaks the scale invariance, so a
step whose probabilities could fall under it normalizes first and clamps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import no_click_powers

__all__ = [
    "EMConfig",
    "EMBatchResult",
    "run_em_batch",
]

NORMALIZATION_MODES = ("renormalized", "literal")


@dataclass(frozen=True)
class EMConfig:
    """Iteration count, normalization mode, probability floor, initial vector.

    ``early_stop_tol`` halts once no component moves by more than the
    tolerance in one step.  It is off by default: a fixed iteration budget is
    the reference behaviour, and over-iterating is a real failure mode worth
    observing rather than hiding.
    """

    n_iterations: int = 1000
    normalization: str = "renormalized"
    floor_epsilon: float = 1e-12
    init: tuple[float, ...] | None = None  # None -> uniform 1/N
    early_stop_tol: float | None = None

    def __post_init__(self) -> None:
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be non-negative")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"normalization must be one of {NORMALIZATION_MODES}")
        if not 0.0 < self.floor_epsilon <= 1e-6:
            raise ValueError("floor_epsilon must lie in (0, 1e-6]")
        if self.init is not None:
            arr = np.asarray(self.init, dtype=float)
            if arr.ndim != 1 or np.any(arr <= 0.0):
                raise ValueError("custom init must be a strictly positive vector")
        if self.early_stop_tol is not None and self.early_stop_tol <= 0.0:
            raise ValueError("early_stop_tol must be positive when set")


def _loglik_rows(
    p: np.ndarray, noclick: np.ndarray, n_runs: "int | np.ndarray", floor: float
) -> np.ndarray:
    pc = np.clip(p, floor, 1.0 - floor)
    return (noclick * np.log(pc) + (n_runs - noclick) * np.log1p(-pc)).sum(axis=1)


@dataclass(frozen=True, eq=False)
class EMBatchResult:
    """Row-wise EM output for a batch of independent inverse problems."""

    values: np.ndarray  # (P, N); failed rows are NaN
    final_loglik: np.ndarray  # (P,)
    final_residuals: np.ndarray  # (P, M)
    failed: np.ndarray  # (P,) bool
    trace_loglik: np.ndarray | None = None  # (iterations, P) when traced


def _normalize(r: np.ndarray, sums: np.ndarray, failed: np.ndarray) -> None:
    """Divide each point's column of r by its sum; a point whose sum is not positive fails (NaN)."""
    dead = ~failed & ~(sums > 0.0)
    failed |= dead
    r[:, dead] = np.nan
    r /= np.where(dead, 1.0, sums)


def run_em_batch(
    freqs: np.ndarray,
    nu_bar: np.ndarray,
    ey: np.ndarray,
    n_trunc: int,
    cfg: EMConfig,
    noclick: np.ndarray | None = None,
    n_runs: "int | np.ndarray | None" = None,
    record_trace: bool = False,
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
        record_trace: also keep the likelihood after every iteration.

    Returns:
        EMBatchResult. Rows whose forward probabilities all collapse under
        the floor are marked failed and carry NaN instead of raising, so a
        grid scan can keep going.
    """
    freqs = np.asarray(freqs, dtype=float)
    p_count, m = freqs.shape
    if m < n_trunc:
        raise ValueError(f"need at least n_trunc = {n_trunc} settings, got {m}")
    a = no_click_powers(nu_bar, n_trunc)  # A_jn = (1 - nu_bar_j)^n
    ey = np.broadcast_to(np.asarray(ey, dtype=float), (p_count, m))
    if noclick is None or n_runs is None:
        noclick, n_runs = freqs, 1

    # The iterate is component-major, (N, P): the faster layout for both GEMMs.
    if cfg.init is None:
        r = np.full((n_trunc, p_count), 1.0 / n_trunc)
    else:
        init = np.asarray(cfg.init, dtype=float)
        if init.size != n_trunc:
            raise ValueError(f"init length {init.size} != n_trunc {n_trunc}")
        r = np.repeat(init[:, None], p_count, axis=1)

    # A step is r * W'(G / q) with q = A r, G = F / e^y and W' the weighted
    # kernel over the sensitivity (zero for a component no setting sees).  A
    # row of ones in the forward kernel puts each point's sum in q's last row,
    # which the zero last column of W' drops from the gain.
    weighted = a / a.sum(axis=1)[:, None]
    sensitivity = weighted.sum(axis=0)
    back = np.zeros((n_trunc, m + 1))
    np.divide(weighted.T, sensitivity[:, None], out=back[:, :m], where=(sensitivity > 0.0)[:, None])
    forward = np.vstack([a, np.ones(n_trunc)])
    scaled_freqs = np.divide(freqs.T, ey.T, out=np.zeros((m, p_count)), where=ey.T > 0.0)

    # A step skips the floor only if the normalized iterate's probabilities
    # e^y q / sum provably stay above it and no sum is 0 or NaN (a failed point
    # is NaN; e^y = 0 fails the bound).  The sums count from the second
    # renormalized step on.  Otherwise the step normalizes, clamps and marks
    # failures as the per-step loop of tests/oracles.py does.
    floor = cfg.floor_epsilon
    e_min = float(np.min(ey, initial=np.inf))
    q_bound = floor / e_min if e_min > 0.0 else np.inf
    renormalize = cfg.normalization == "renormalized"
    watch = record_trace or cfg.early_stop_tol is not None
    failed = np.zeros(p_count, dtype=bool)
    trace: list[np.ndarray] = []
    q = np.empty((m + 1, p_count))  # forward products and sums, then ratios
    gain = np.empty((n_trunc, p_count))
    previous = None if cfg.early_stop_tol is None else np.empty_like(r)
    for step in range(cfg.n_iterations):
        if previous is not None:
            np.copyto(previous, r)
        np.matmul(forward, r, out=q)
        scaled = renormalize and step > 0
        scale = np.maximum.reduce(q[m], initial=0.0) if scaled else 1.0
        q_min = np.minimum.reduce(q, axis=None, initial=np.inf)
        if q_min > 0.0 and q_min >= q_bound * scale:
            np.divide(scaled_freqs, q[:m], out=q[:m])
        else:
            if scaled:
                _normalize(r, q[m], failed)
            p = ey.T * (a @ r)
            newly_dead = ~failed & np.all(p < floor, axis=0)
            failed |= newly_dead
            r[:, newly_dead] = np.nan
            np.divide(freqs.T, np.maximum(p, floor), out=q[:m])
        np.matmul(back, q, out=gain)
        np.multiply(r, gain, out=r)
        # per-step observers see normalized iterates; otherwise normalize once
        if renormalize and (watch or step == cfg.n_iterations - 1):
            _normalize(r, r.sum(axis=0), failed)
        if record_trace:
            trace.append(_loglik_rows(ey * (a @ r).T, noclick, n_runs, floor))
        if previous is not None:
            moved = np.abs(r[:, ~failed] - previous[:, ~failed])
            if moved.size == 0 or float(moved.max()) < cfg.early_stop_tol:
                break

    r = np.ascontiguousarray(r.T)
    p_final = ey * (r @ a.T)
    return EMBatchResult(
        values=r,
        final_loglik=_loglik_rows(p_final, noclick, n_runs, floor),
        final_residuals=np.abs(p_final - freqs),
        failed=failed,
        trace_loglik=(
            np.array(trace).reshape(len(trace), p_count) if record_trace else None
        ),
    )
