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

Positivity is preserved by construction.  The unit sum is exact in the
default ``renormalized`` mode and emerges only at convergence in the
``literal`` mode, which applies no per-step rescaling.
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
    f = a.sum(axis=1)
    ey = np.broadcast_to(np.asarray(ey, dtype=float), (p_count, m))
    if noclick is None or n_runs is None:
        noclick, n_runs = freqs, 1

    weighted = a / f[:, None]  # (M, N) row-normalized kernel
    sensitivity = weighted.sum(axis=0)  # (N,)
    live = sensitivity > 0.0  # all-blind settings leave components unconstrained

    if cfg.init is None:
        r = np.full((p_count, n_trunc), 1.0 / n_trunc)
    else:
        init = np.asarray(cfg.init, dtype=float)
        if init.size != n_trunc:
            raise ValueError(f"init length {init.size} != n_trunc {n_trunc}")
        r = np.tile(init, (p_count, 1))

    # The loop repeats the arithmetic of the plain one-array-per-step loop
    # (tests/oracles.py) bit for bit, in preallocated buffers.  Whole-array
    # guards skip only work that provably changes nothing: the per-row failure
    # scans and the floor clamp run once a row has failed, or when some
    # probability is under the floor or some sum is not positive (np.minimum
    # propagates NaN, so a NaN trips the guards too).
    # The GEMM operand layouts must stay as they are: OpenBLAS changes its
    # accumulation order with the layout, which moves results in the last bits.
    failed = np.zeros(p_count, dtype=bool)
    any_failed = False
    trace: list[np.ndarray] = []
    floor = cfg.floor_epsilon
    renormalize = cfg.normalization == "renormalized"
    all_live = bool(live.all())
    sensitivity_rows = np.broadcast_to(sensitivity, (p_count, n_trunc)).copy()
    a_t = a.T
    p = np.empty((p_count, m))  # forward probabilities, then frequency ratios
    gain = np.empty((p_count, n_trunc))
    s = np.empty(p_count)
    previous = None if cfg.early_stop_tol is None else np.empty_like(r)
    for _ in range(cfg.n_iterations):
        np.matmul(r, a_t, out=p)
        np.multiply(ey, p, out=p)
        if any_failed or not np.minimum.reduce(p, axis=None, initial=np.inf) >= floor:
            newly_dead = ~failed & np.all(p < floor, axis=1)
            if np.any(newly_dead):
                failed |= newly_dead
                any_failed = True
                r[newly_dead] = np.nan
            np.maximum(p, floor, out=p)
        np.divide(freqs, p, out=p)
        np.matmul(p, weighted, out=gain)
        if all_live:
            np.divide(gain, sensitivity_rows, out=gain)
        else:
            np.divide(gain, sensitivity, out=gain, where=live)
            gain[:, ~live] = 0.0
        if previous is not None:
            np.copyto(previous, r)
        np.multiply(r, gain, out=r)
        if renormalize:
            np.add.reduce(r, axis=1, out=s)
            if any_failed or not np.minimum.reduce(s, initial=np.inf) > 0.0:
                dead = ~failed & ~(s > 0.0)
                if np.any(dead):
                    failed |= dead
                    any_failed = True
                    r[dead] = np.nan
                    s[dead] = 1.0
            np.divide(r, s[:, None], out=r)
        if record_trace:
            trace.append(_loglik_rows(ey * (r @ a.T), noclick, n_runs, floor))
        if previous is not None:
            moved = np.abs(r[~failed] - previous[~failed])
            if moved.size == 0 or float(moved.max()) < cfg.early_stop_tol:
                break

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
