"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own construction paths:
displacement operators come from a matrix exponential of the truncated
generator, state amplitudes from direct per-term formulas, and no-click
probabilities from beam-splitter output amplitudes in closed form.
"""
import math

import numpy as np
from scipy.linalg import expm


def displacement_expm(gamma: complex, dim: int) -> np.ndarray:
    """exp(gamma a+ - gamma* a) via scipy's matrix exponential."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return expm(gamma * a.conj().T - np.conjugate(gamma) * a)


def coherent_amps_direct(alpha: complex, dim: int) -> np.ndarray:
    """Term-by-term coherent amplitudes (no recurrence)."""
    out = np.empty(dim, dtype=complex)
    for n in range(dim):
        mag = math.exp(-0.5 * abs(alpha) ** 2 - 0.5 * math.lgamma(n + 1))
        out[n] = mag * alpha**n
    return out


def squeezed_amps_direct(s: float, dim: int) -> np.ndarray:
    """Term-by-term squeezed-vacuum amplitudes (no recurrence)."""
    lam = math.tanh(s)
    out = np.zeros(dim, dtype=complex)
    for k in range(0, (dim - 1) // 2 + 1):
        if 2 * k >= dim:
            break
        log_mag = (
            0.5 * math.lgamma(2 * k + 1)
            - k * math.log(2.0)
            - math.lgamma(k + 1)
            - 0.5 * math.log(math.cosh(s))
        )
        out[2 * k] = (-lam) ** k * math.exp(log_mag)
    return out


def poisson_pmf(lam: float, dim: int) -> np.ndarray:
    if lam == 0.0:
        out = np.zeros(dim)
        out[0] = 1.0
        return out
    n = np.arange(dim)
    return np.exp(-lam + n * math.log(lam) - np.array([math.lgamma(k + 1) for k in n]))


def coherent_signal_noclick(
    alpha0: complex, beta: complex, alpha: float, nu_c: float, nu_d: float
) -> float:
    """Exact joint no-click probability for coherent signal and probe.

    The beam splitter maps coherent inputs to coherent outputs with
    amplitudes alpha0 cos a + beta sin a and beta cos a - alpha0 sin a, and
    an on/off detector misses a coherent state |mu> with probability
    exp(-nu |mu|^2).
    """
    c, s = math.cos(alpha), math.sin(alpha)
    out_c = alpha0 * c + beta * s
    out_d = beta * c - alpha0 * s
    return math.exp(-nu_c * abs(out_c) ** 2 - nu_d * abs(out_d) ** 2)


def displaced_diagonal_expm(rho: np.ndarray, gamma: complex, dim: int) -> np.ndarray:
    """Diagonal of D^dag rho D using the expm route in dimension ``dim``."""
    d = displacement_expm(gamma, dim)
    rho_p = np.zeros((dim, dim), dtype=complex)
    rho_p[: rho.shape[0], : rho.shape[1]] = rho
    return np.real(np.diag(d.conj().T @ rho_p @ d))


def em_batch_reference(
    freqs, nu_bar, ey, n_trunc, cfg, noclick=None, n_runs=None, record_trace=False
):
    """The batched EM loop exactly as first written, one fresh array per step.

    ``clicktomo.em.run_em_batch`` reuses buffers and skips provably no-op
    work; tests require it to match this loop bit for bit.  Returns a
    namespace with the fields of ``EMBatchResult``.
    """
    from types import SimpleNamespace

    def _kernel(nu_bar, n_trunc):
        x = 1.0 - np.asarray(nu_bar, dtype=float)
        a = x[:, None] ** np.arange(n_trunc, dtype=float)[None, :]
        return a, a.sum(axis=1)

    def _loglik_rows(p, noclick, n_runs, floor):
        pc = np.clip(p, floor, 1.0 - floor)
        return (noclick * np.log(pc) + (n_runs - noclick) * np.log1p(-pc)).sum(axis=1)

    freqs = np.asarray(freqs, dtype=float)
    p_count, m = freqs.shape
    a, f = _kernel(np.asarray(nu_bar, dtype=float), n_trunc)
    ey = np.broadcast_to(np.asarray(ey, dtype=float), (p_count, m))
    if noclick is None or n_runs is None:
        noclick = freqs
        n_runs = np.ones_like(freqs)

    weighted = a / f[:, None]
    sensitivity = weighted.sum(axis=0)
    live = sensitivity > 0.0

    if cfg.init is None:
        r = np.full((p_count, n_trunc), 1.0 / n_trunc)
    else:
        r = np.tile(np.asarray(cfg.init, dtype=float), (p_count, 1))

    failed = np.zeros(p_count, dtype=bool)
    trace = []
    floor = cfg.floor_epsilon
    for _ in range(cfg.n_iterations):
        p = ey * (r @ a.T)
        newly_dead = ~failed & np.all(p < floor, axis=1)
        if np.any(newly_dead):
            failed |= newly_dead
            r[newly_dead] = np.nan
        ratio = freqs / np.maximum(p, floor)
        gain = ratio @ weighted
        np.divide(gain, sensitivity, out=gain, where=live)
        gain[:, ~live] = 0.0
        previous = r
        r = r * gain
        if cfg.normalization == "renormalized":
            s = r.sum(axis=1, keepdims=True)
            dead = ~failed & ~(s[:, 0] > 0.0)
            if np.any(dead):
                failed |= dead
                r[dead] = np.nan
                s[dead] = 1.0
            r = r / s
        if record_trace:
            trace.append(_loglik_rows(ey * (r @ a.T), noclick, n_runs, floor))
        if cfg.early_stop_tol is not None:
            moved = np.abs(r[~failed] - previous[~failed])
            if moved.size == 0 or float(moved.max()) < cfg.early_stop_tol:
                break

    p_final = ey * (r @ a.T)
    return SimpleNamespace(
        values=r,
        final_loglik=_loglik_rows(p_final, noclick, n_runs, floor),
        final_residuals=np.abs(p_final - freqs),
        failed=failed,
        trace_loglik=(
            np.array(trace).reshape(len(trace), p_count) if record_trace else None
        ),
    )
