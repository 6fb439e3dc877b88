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

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateModelError
from .fock import DiagonalDistribution, TruncationConfig
from .measurement import ClickRecord, Setting

__all__ = [
    "EMConfig",
    "EMTrace",
    "forward_probability",
    "em_step",
    "run_em",
    "log_likelihood",
    "EMBatchResult",
    "run_em_batch",
]

log = logging.getLogger(__name__)

MONOTONE_SLACK = 1e-9
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


@dataclass(frozen=True, eq=False)
class EMTrace:
    """Per-iteration log-likelihood plus the final forward residuals."""

    log_likelihood: np.ndarray  # length = iterations actually run
    final_residuals: np.ndarray  # |p_j(R_final) - p_j^exp|
    initial_log_likelihood: float


def _kernel(nu_bar: np.ndarray, n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """A_jn = (1 - nu_bar_j)^n and the weights f_j = sum_n A_jn."""
    x = 1.0 - np.asarray(nu_bar, dtype=float)
    a = x[:, None] ** np.arange(n_trunc, dtype=float)[None, :]
    return a, a.sum(axis=1)


def _record_arrays(records: Sequence[ClickRecord]) -> tuple[np.ndarray, ...]:
    if not records:
        raise ValueError("records must be non-empty")
    gamma0 = records[0].setting.gamma
    for r in records:
        if abs(r.setting.gamma - gamma0) > 1e-12:
            raise ValueError(
                f"records mix displacements: {r.setting.gamma} vs {gamma0}"
            )
    nu_bar = np.array([r.setting.nu_bar for r in records])
    ey = np.exp(np.array([r.setting.y for r in records]))
    freq = np.array([r.freq for r in records])
    noclick = np.array([r.n_noclick for r in records], dtype=float)
    n_runs = np.array([r.n_runs for r in records], dtype=float)
    return nu_bar, ey, freq, noclick, n_runs


def forward_probability(r: DiagonalDistribution, setting: Setting) -> float:
    """Model no-click probability of a candidate diagonal at one setting."""
    powers = (1.0 - setting.nu_bar) ** np.arange(r.dim, dtype=float)
    p = float(np.exp(setting.y) * np.dot(powers, r.values))
    return min(max(p, 0.0), 1.0)


def log_likelihood(
    r: DiagonalDistribution,
    records: Sequence[ClickRecord],
    floor_epsilon: float = 1e-12,
) -> float:
    """Binomial log-likelihood of the records under a candidate diagonal.

    Probabilities are clamped to [floor, 1 - floor] so saturated frequencies
    stay finite.
    """
    total = 0.0
    for rec in records:
        p = forward_probability(r, rec.setting)
        p = min(max(p, floor_epsilon), 1.0 - floor_epsilon)
        total += rec.n_noclick * np.log(p) + (rec.n_runs - rec.n_noclick) * np.log1p(-p)
    return float(total)


def _loglik_rows(
    p: np.ndarray, noclick: np.ndarray, n_runs: np.ndarray, floor: float
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
    n_runs: np.ndarray | None = None,
    record_trace: bool = False,
) -> EMBatchResult:
    """Run the iteration for P independent points sharing one efficiency set.

    Args:
        freqs: (P, M) observed no-click frequencies.
        nu_bar: (M,) effective efficiencies, shared across rows.
        ey: (P, M) attenuation factors e^{y} per point and setting.
        n_trunc: model dimension N; requires M >= N.
        cfg: iteration configuration.
        noclick / n_runs: (P, M) counts for the likelihood; frequencies are
            used with unit weight when omitted.
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
    a, f = _kernel(np.asarray(nu_bar, dtype=float), n_trunc)
    ey = np.broadcast_to(np.asarray(ey, dtype=float), (p_count, m))
    if noclick is None or n_runs is None:
        noclick = freqs
        n_runs = np.ones_like(freqs)

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


def em_step(
    r: DiagonalDistribution, records: Sequence[ClickRecord], cfg: EMConfig
) -> DiagonalDistribution:
    """One iteration applied to a candidate diagonal."""
    nu_bar, ey, freq, _, _ = _record_arrays(records)
    if len(records) < r.dim:
        raise ValueError(f"need at least {r.dim} settings, got {len(records)}")
    one = EMConfig(
        n_iterations=1,
        normalization=cfg.normalization,
        floor_epsilon=cfg.floor_epsilon,
        init=tuple(np.maximum(r.values, np.finfo(float).tiny)),
    )
    out = run_em_batch(freq[None, :], nu_bar, ey[None, :], r.dim, one)
    if out.failed[0]:
        raise DegenerateModelError(
            "every forward probability fell below the floor; model and data are incompatible"
        )
    return DiagonalDistribution(gamma=r.gamma, values=out.values[0], truncation_leak=0.0)


def run_em(
    records: Sequence[ClickRecord], cfg: EMConfig, trunc: TruncationConfig
) -> tuple[DiagonalDistribution, EMTrace]:
    """Full reconstruction of R_n(gamma) from one schedule's click records.

    Starts from the uniform distribution (or ``cfg.init``), applies
    ``cfg.n_iterations`` steps and reports the likelihood trace.  A decrease
    beyond the tolerance is logged, not raised: the iteration is only
    empirically monotone on consistent data.
    """
    nu_bar, ey, freq, noclick, n_runs = _record_arrays(records)
    if len(records) < trunc.n_trunc:
        raise ValueError(
            f"need at least n_trunc = {trunc.n_trunc} settings, got {len(records)}"
        )
    gamma = records[0].setting.gamma

    init = np.full(trunc.n_trunc, 1.0 / trunc.n_trunc) if cfg.init is None else np.asarray(cfg.init)
    initial_ll = log_likelihood(
        DiagonalDistribution(gamma=gamma, values=init), records, cfg.floor_epsilon
    )

    out = run_em_batch(
        freq[None, :],
        nu_bar,
        ey[None, :],
        trunc.n_trunc,
        cfg,
        noclick=noclick[None, :],
        n_runs=n_runs[None, :],
        record_trace=True,
    )
    if out.failed[0]:
        raise DegenerateModelError(
            "every forward probability fell below the floor; model and data are incompatible"
        )
    trace_ll = out.trace_loglik[:, 0] if out.trace_loglik is not None else np.empty(0)
    drops = np.diff(np.concatenate(([initial_ll], trace_ll))) < -MONOTONE_SLACK
    if np.any(drops):
        log.warning("log-likelihood decreased on %d of %d iterations", int(drops.sum()), trace_ll.size)

    dist = DiagonalDistribution(gamma=gamma, values=out.values[0], truncation_leak=0.0)
    trace = EMTrace(
        log_likelihood=trace_ll,
        final_residuals=out.final_residuals[0],
        initial_log_likelihood=initial_ll,
    )
    return dist, trace
