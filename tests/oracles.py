"""Independent reference implementations used to pin expected test values.

Most of these avoid the package's own construction paths: displacement
operators come from a matrix exponential of the truncated generator or from
exact rational coefficients, state amplitudes from direct per-term formulas,
and no-click probabilities from beam-splitter output amplitudes in closed
form.  The exceptions are ``simulate`` (one repetition's click data by the
steps of the ``simulate`` stage, for the tests that feed the EM),
``reconstruct`` (the ``reconstruct`` stage's fit and read-off of those data)
and ``wigner_scan`` (a grid map through the package's own
simulate-and-reconstruct path, for the pipeline tests), the exact
no-click probabilities and exact Wigner map that no stage needs (both built
on the package's displaced diagonals), the row-major displacement kernel,
which reads the package's coefficient table so as to pin the
component-major kernel bit for bit, and the row formatters and the block of
scalar schedule builders that the integer click rows and the array
derivation replaced.  The block of dense displacement functions (the
per-point code the batched kernel replaced) shares no table with the kernel.
"""
import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.linalg import expm

from clicktomo.em import FLOOR, run_em_batch
from clicktomo.errors import NumericalError
from clicktomo.fock import (
    SUM_TOL,
    DensityMatrix,
    TruncationConfig,
    displaced_diagonals,
    displacement_coefficients,
    displacement_r2,
)
from clicktomo.measurement import (
    GAMMA_MATCH_TOL,
    DetectorPair,
    binomial_counts,
    forward_model,
    no_click_powers,
)
from clicktomo.wigner import wigner_from_values


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


def _amplitudes(state) -> np.ndarray:
    """A pure state's amplitudes, given as they are or as ``density_from_pure``'s projector.

    Column k of |psi><psi| is psi conj(psi_k); over |psi_k| = sqrt(rho_kk), at
    the largest diagonal entry, it is psi up to a global phase, which no
    displaced diagonal sees.  A mixed state is refused: the forward model
    has no path for one.
    """
    if not isinstance(state, DensityMatrix):
        return state
    rho = state.elements
    k = int(np.argmax(rho.diagonal().real))
    amps = rho[:, k] / math.sqrt(rho[k, k].real)
    if np.max(np.abs(np.outer(amps, amps.conj()) - rho)) > 1e-12:
        raise ValueError("not a pure state")
    return amps


Clicks = namedtuple("Clicks", "gammas nu_bar y noclick n_runs")  # P points' schedule and (P, M) counts


def simulate(amplitudes, gammas, recipe, trunc, n_runs, seed, repetition, exact, offset=0) -> Clicks:
    """Click data of repetition ``repetition`` at ``gammas`` as the ``simulate`` stage writes it, with their schedule.

    ``measurement.forward_model``'s probabilities, times ``n_runs`` if
    ``exact``, else drawn by ``measurement.binomial_counts`` from the streams
    keyed (seed, repetition, offset + index of each group's first point):
    ``offset`` is the global index of the first point.
    """
    g = np.asarray(gammas, dtype=complex).ravel()
    sched = recipe.build(g)
    probs, _ = forward_model(amplitudes, g, recipe, trunc)
    noclick = probs * n_runs if exact else binomial_counts(n_runs, probs, (seed, repetition), offset)
    return Clicks(g, sched.nu_bar, sched.y, noclick, n_runs)


def reconstruct(clicks: Clicks, n_trunc: int, n_iterations: int):
    """(W values, R tables, final loglik, failed) of every point of ``clicks`` by the ``reconstruct``
    stage's fit and read-off; failed points get W = NaN."""
    values, loglik, failed = run_em_batch(
        clicks.noclick / clicks.n_runs, clicks.nu_bar, np.exp(clicks.y), n_trunc, n_iterations,
        noclick=clicks.noclick, n_runs=clicks.n_runs,
    )
    return np.where(failed, np.nan, wigner_from_values(values)), values, loglik, failed


def wigner_scan(state, grid, recipe, trunc, n_iterations, n_runs, seed=0, exact=False):
    """W on every node of ``grid`` by the CLI's path, ``simulate`` then
    ``reconstruct``, one value per node of ``grid.flat_gammas()``;
    failed nodes are NaN."""
    clicks = simulate(_amplitudes(state), grid.flat_gammas(), recipe, trunc, n_runs, seed, 0, exact)
    return reconstruct(clicks, trunc.n_trunc, n_iterations)[0]


def no_click_probabilities(state, gammas, nu_bar, y, trunc: TruncationConfig) -> np.ndarray:
    """Exact joint no-click probabilities of P points x M settings, clipped to [0, 1]:
    what ``measurement.forward_model`` computes, from the package's public kernels.

    ``state`` is the amplitudes over ``trunc.n_pad`` (or their projector).
    ``nu_bar`` (M,) is shared by every point and ``y`` is (P, M):
    p[i, j] = e^{y_ij} sum_n (1 - nu_bar_j)^n R_n(gamma_i), the series over the
    full working dimension.
    """
    diag = displaced_diagonals(_amplitudes(state), gammas)
    powers = no_click_powers(nu_bar, trunc.n_pad)
    return np.clip(np.exp(np.asarray(y, dtype=float)) * (diag @ powers.T), 0.0, 1.0)


def exact_wigner_map(state, grid, trunc: TruncationConfig) -> np.ndarray:
    """The (P,) truncated Wigner map on ``grid.flat_gammas()``, read off exact displaced
    diagonals: the ideal limit of the exact-probability pipeline, with no EM."""
    diag = displaced_diagonals(_amplitudes(state), grid.flat_gammas())
    return wigner_from_values(diag[:, : trunc.n_trunc])


def embedded_config(path) -> str:
    """The configuration text between an output file's ``# config-begin`` and
    ``# config-end`` lines, each line's comment prefix removed."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    rows = lines[lines.index("# config-begin") + 1 : lines.index("# config-end")]
    return "\n".join(row[2:] if row.startswith("# ") else row.lstrip("#") for row in rows) + "\n"


def em_batch_reference(freqs, nu_bar, ey, n_trunc, n_iterations, init=None, noclick=None, n_runs=None):
    """The batched EM loop as first written, one fresh array per step.

    It renormalizes after every step and multiplies by e^y and divides by
    the sensitivity each time.  ``clicktomo.em.run_em_batch`` normalizes once
    at the end and folds both into constants, so tests hold it to this loop
    within a tolerance fixed from the dtype.  Returns (values, final
    log-likelihood, failed), as ``run_em_batch`` does.
    """

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

    if init is None:
        r = np.full((p_count, n_trunc), 1.0 / n_trunc)
    else:
        r = np.tile(np.asarray(init, dtype=float), (p_count, 1))

    failed = np.zeros(p_count, dtype=bool)
    floor = FLOOR
    for _ in range(n_iterations):
        p = ey * (r @ a.T)
        newly_dead = ~failed & np.all(p < floor, axis=1)
        if np.any(newly_dead):
            failed |= newly_dead
            r[newly_dead] = np.nan
        ratio = freqs / np.maximum(p, floor)
        gain = ratio @ weighted
        np.divide(gain, sensitivity, out=gain, where=live)
        gain[:, ~live] = 0.0
        r = r * gain
        s = r.sum(axis=1, keepdims=True)
        dead = ~failed & ~(s[:, 0] > 0.0)
        if np.any(dead):
            failed |= dead
            r[dead] = np.nan
            s[dead] = 1.0
        r = r / s

    return r, _loglik_rows(ey * (r @ a.T), noclick, n_runs, floor), failed


# Dense displacement references: the per-point displacement matrix, displaced
# diagonal and quadrature kernel that the batched ``fock.displace`` replaced,
# kept (with the names they use) to cross-check the batched code.  Their
# coefficients come from exact rationals, so they share no rounding with it.
DisplacementMatrix = namedtuple("DisplacementMatrix", "gamma elements")


@functools.lru_cache(maxsize=None)
def exact_coefficients(dim: int) -> np.ndarray:
    """Read-only coeff[m, k] = sqrt(m!/k!) / (m-k)! = sqrt(C(m, k) / (m-k)!) for k <= m < dim,
    zero above the diagonal: the square root of each exact rational, correctly rounded twice."""
    coeff = np.zeros((dim, dim))
    for m in range(dim):
        for k in range(m + 1):
            coeff[m, k] = math.sqrt(Fraction(math.comb(m, k), math.factorial(m - k)))
    coeff.setflags(write=False)
    return coeff


def _displacement_elements(gamma: complex, dim: int) -> np.ndarray:
    """Dense <m|D(gamma)|n> for D(gamma) = exp(gamma a+ - gamma* a).

    The closed-form series

        <m|D|n> = e^{-|g|^2/2} sqrt(m! n!)
                  sum_l g^{m-l} (-g*)^{n-l} / (l! (m-l)! (n-l)!)

    factors exactly into a product of two triangular matrices,
    L[m,k] = g^{m-k} sqrt(m!/k!) / (m-k)!  and
    U[k,n] = (-g*)^{n-k} sqrt(n!/k!) / (n-k)!, with the l-sum realised by the
    matrix product.  The coefficients are :func:`exact_coefficients`.
    """
    g = complex(gamma)
    if g == 0:
        return np.eye(dim, dtype=np.complex128)
    idx = np.arange(dim)
    diff = idx[:, None] - idx[None, :]
    lower = diff >= 0
    dclip = np.where(lower, diff, 0)
    coeff = exact_coefficients(dim)
    pow_g = np.concatenate(([1.0 + 0.0j], np.cumprod(np.full(dim - 1, g))))
    pow_mg = np.concatenate(([1.0 + 0.0j], np.cumprod(np.full(dim - 1, -np.conjugate(g)))))
    lo = np.where(lower, pow_g[dclip] * coeff, 0.0)
    up = np.where(lower, pow_mg[dclip] * coeff, 0.0).T
    return math.exp(-0.5 * abs(g) ** 2) * (lo @ up)


def displaced_diagonal_mp(amplitudes: np.ndarray, gamma: complex, digits: int = 60) -> np.ndarray:
    """R_n = |<n|D(-gamma)|psi>|^2 of the dim-level product, for n < dim = len(amplitudes).

    The matrix elements come from the column recurrence
    <m|D|0> = g <m-1|D|0> / sqrt(m),
    <m|D|n> = (-g* <m|D|n-1> + sqrt(m) <m-1|D|n-1>) / sqrt(n)
    with g = -gamma, in ``digits``-digit arithmetic; only the result is rounded to floats.
    """
    with mpmath.workdps(digits):
        g = -mpmath.mpc(complex(gamma))
        psi = [mpmath.mpc(complex(a)) for a in amplitudes]
        dim = len(psi)
        col = [mpmath.exp(-abs(g) ** 2 / 2)]
        for m in range(1, dim):
            col.append(col[-1] * g / mpmath.sqrt(m))
        out = [c * psi[0] for c in col]
        for n in range(1, dim):
            col = [-mpmath.conj(g) * col[0] / mpmath.sqrt(n)] + [
                (-mpmath.conj(g) * col[m] + mpmath.sqrt(m) * col[m - 1]) / mpmath.sqrt(n) for m in range(1, dim)
            ]
            out = [o + c * psi[n] for o, c in zip(out, col)]
        return np.array([float(abs(o) ** 2) for o in out])


def displacement_matrix(gamma: complex, cfg: TruncationConfig) -> DisplacementMatrix:
    """Displacement operator on the working dimension.

    Args:
        gamma: complex displacement; |gamma|^2 must not exceed n_pad / 2,
            otherwise the displaced vacuum itself would not fit the basis.
        cfg: truncation configuration; the matrix is built on ``n_pad``.

    Returns:
        DisplacementMatrix whose retained ``n_trunc`` block is unitary to
        high accuracy (see the group-property tests for the bound).
    """
    g = complex(gamma)
    if abs(g) ** 2 > 0.5 * cfg.n_pad:
        raise ValueError(
            f"|gamma|^2 = {abs(g) ** 2:.3f} exceeds n_pad/2 = {0.5 * cfg.n_pad}"
        )
    return DisplacementMatrix(g, _displacement_elements(g, cfg.n_pad))


# Diagonal entries below -NEGATIVE_NOISE_TOL are an error, not rounding noise.
NEGATIVE_NOISE_TOL = 1e-12


def _embed(rho: np.ndarray, dim: int) -> np.ndarray:
    if rho.shape[0] > dim:
        raise ValueError("state dimension exceeds the working dimension")
    if rho.shape[0] == dim:
        return rho
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[: rho.shape[0], : rho.shape[0]] = rho
    return out


def displaced_diagonal_padded(rho: DensityMatrix, gamma: complex, cfg: TruncationConfig) -> np.ndarray:
    """Exact displaced diagonal on the full working dimension.

    This is the simulator's forward-model ingredient: summing the no-click
    series over all ``n_pad`` entries keeps probabilities exact far beyond
    the retained block.
    """
    dmat = displacement_matrix(gamma, cfg)
    rho_p = _embed(rho.elements, cfg.n_pad)
    shifted = rho_p @ dmat.elements
    diag = np.real(np.einsum("jn,jn->n", dmat.elements.conj(), shifted))
    lowest = float(diag.min())
    if lowest < -NEGATIVE_NOISE_TOL:
        raise NumericalError(
            f"displaced diagonal entry {lowest:.3e} below the noise tolerance"
        )
    np.clip(diag, 0.0, None, out=diag)
    total = float(diag.sum())
    if total > 1.0 + SUM_TOL:
        raise NumericalError(f"displaced diagonal sums to {total} > 1")
    return diag


def dmn_kernel(m: int, n: int, gamma) -> "complex | np.ndarray":
    """Quadrature kernel K_mn evaluated at 2*gamma; vectorized over gamma.

    At gamma = 0 the kernel is the identity delta_mn; its one-index swap obeys
    K_mn = (-1)^{m-n} conj(K_nm), which keeps the recovered matrix Hermitian
    for any real Wigner map.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be non-negative")
    g = 2.0 * np.asarray(gamma, dtype=complex)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    total = np.zeros(g.shape, dtype=complex)
    for l in range(min(m, n) + 1):
        # sqrt(m! n!) / (l! (m-l)! (n-l)!), from the exact rational
        den = math.factorial(l) * math.factorial(m - l) * math.factorial(n - l)
        coeff = math.sqrt(Fraction(math.factorial(m) * math.factorial(n), den * den))
        total += coeff * g ** (m - l) * (-np.conjugate(g)) ** (n - l)
    out = np.exp(-0.5 * np.abs(g) ** 2) * total
    return complex(out[0]) if scalar else out


# Row-major references: the (P, dim) displacement kernel and the float-only
# row formatter that ``fock.displace`` (component-major) and the row writers
# of ``io_csv`` replaced, kept verbatim to pin the new code bit for bit and
# byte for byte.
def _power_table_row_major(z: np.ndarray, dim: int) -> np.ndarray:
    """(P, dim) powers z_p^j for j < dim, by cumulative products."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1, 1)
    out = np.ones((z.shape[0], dim), dtype=np.complex128)
    np.cumprod(np.broadcast_to(z, (z.shape[0], dim - 1)), axis=1, out=out[:, 1:])
    return out


def displace_row_major(gammas: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """D(gamma_p) applied to vectors[p] (or one shared vector), as a (P, dim) array, one
    (P, dim - d) multiply-add per diagonal offset d of the triangular factors."""
    g = np.asarray(gammas, dtype=np.complex128).ravel()
    v = np.asarray(vectors, dtype=np.complex128)
    dim = v.shape[-1]
    r2 = displacement_r2(g, dim)
    coeff = displacement_coefficients(dim)
    up = np.array(np.broadcast_to(v, (g.size, dim)))
    pow_mg = _power_table_row_major(-np.conj(g), dim)
    for d in range(1, dim):
        up[:, : dim - d] += pow_mg[:, d, None] * (coeff[d, : dim - d] * v[..., d:])
    out = up.copy()
    pow_g = _power_table_row_major(g, dim)
    for d in range(1, dim):
        out[:, d:] += pow_g[:, d, None] * (coeff[d, : dim - d] * up[:, : dim - d])
    out *= np.exp(-0.5 * r2)[:, None]
    return out


def indexed_rows_float(values: np.ndarray, start: int = 0):
    """``i,j,v_0,...`` rows of an (I, J, K) table from i = ``start``, every value as a float with ``.17g``."""
    n_i, n_j, n_k = values.shape
    cells = [",".join(f"{{{j * n_k + k + 1}:.17g}}" for k in range(n_k)) for j in range(n_j)]
    template = "\n".join(f"{{0}},{j},{c}" for j, c in enumerate(cells))
    return (template.format(i, *row) for i, row in enumerate(values.reshape(n_i, -1).tolist(), start))


def point_rows_float(values: np.ndarray, start: int = 0):
    """``i,v_0,...`` rows of a (P, M) table from i = ``start``, every value as a float with ``.17g``."""
    return (f"{i}," + ",".join(format(float(v), ".17g") for v in row) for i, row in enumerate(values.tolist(), start))


# Scalar schedule references: the per-setting objects and builders that the
# array derivation ``measurement.derive_settings`` and the recipes' ``build``
# replaced, kept verbatim to pin their results bit for bit.


@dataclass(frozen=True)
class Setting:
    """One measurement configuration with its derived parameters.

    Instances come out of :func:`derive_setting` only, so the derived fields
    (nu_bar, gamma, y) always reproduce bit-for-bit when recomputed from
    (alpha, beta, detectors).
    """

    alpha: float
    beta: complex
    detectors: DetectorPair
    nu_bar: float
    gamma: complex
    y: float


def derive_setting(alpha: float, beta: complex, detectors: DetectorPair) -> Setting:
    """Populate a Setting from the physical knobs (single derivation path)."""
    a = float(alpha)
    b = complex(beta)
    c, s = math.cos(a), math.sin(a)
    nu_bar = detectors.nu_c * c * c + detectors.nu_d * s * s
    if nu_bar <= 0.0:
        raise ValueError(
            "nu_bar vanishes: no detector sees the signal "
            f"(alpha={a}, nu_c={detectors.nu_c}, nu_d={detectors.nu_d})"
        )
    gamma = b * (detectors.nu_d - detectors.nu_c) * c * s / nu_bar
    y = -abs(b) ** 2 * detectors.nu_c * detectors.nu_d / nu_bar
    return Setting(alpha=a, beta=b, detectors=detectors, nu_bar=nu_bar, gamma=gamma, y=y)


@dataclass(frozen=True)
class SettingSchedule:
    """Settings sharing one effective displacement ``target_gamma``."""

    target_gamma: complex
    settings: tuple[Setting, ...]

    def __post_init__(self) -> None:
        if not self.settings:
            raise ValueError("schedule must contain at least one setting")
        worst = max(abs(s.gamma - self.target_gamma) for s in self.settings)
        if worst > GAMMA_MATCH_TOL:
            raise ValueError(
                f"derived gamma strays {worst:.3e} from target {self.target_gamma}"
            )

    def __len__(self) -> int:
        return len(self.settings)


def single_detector_schedule(
    target_gamma: complex, alpha: float, efficiencies: "tuple[float, ...] | list[float]"
) -> SettingSchedule:
    """Schedule for the one-detector mode: fixed alpha and probe, swept nu_c."""
    a = float(alpha)
    if abs(math.sin(a)) < 1e-12 or abs(math.cos(a)) < 1e-12:
        raise ValueError(f"alpha = {a} is degenerate (multiple of pi/2)")
    effs = tuple(float(v) for v in efficiencies)
    if not effs:
        raise ValueError("efficiencies must be non-empty")
    for nu in effs:
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"efficiency {nu} outside (0, 1]")
    beta = -complex(target_gamma) / math.tan(a)
    settings = tuple(derive_setting(a, beta, DetectorPair(nu, 0.0)) for nu in effs)
    return SettingSchedule(
        target_gamma=complex(target_gamma),
        settings=settings,
    )


def dual_detector_schedule(
    target_gamma: complex, detectors: DetectorPair, angles: "tuple[float, ...] | list[float]"
) -> SettingSchedule:
    """Schedule for the two-detector mode: fixed efficiencies, swept angle.

    Per angle the probe amplitude
    beta_j = 2 gamma nu_bar_j / ((nu_d - nu_c) sin(2 alpha_j)) inverts the
    setting derivation, so every setting lands on the same gamma.
    """
    if detectors.nu_c == detectors.nu_d:
        raise ValueError("dual-detector mode needs nu_c != nu_d")
    angs = tuple(float(v) for v in angles)
    if not angs:
        raise ValueError("angles must be non-empty")
    settings = []
    g = complex(target_gamma)
    for a in angs:
        s2 = math.sin(2.0 * a)
        if abs(s2) < 1e-12:
            raise ValueError(f"angle {a} is degenerate (sin(2 alpha) = 0)")
        nu_bar = detectors.nu_c * math.cos(a) ** 2 + detectors.nu_d * math.sin(a) ** 2
        beta = 2.0 * g * nu_bar / ((detectors.nu_d - detectors.nu_c) * s2)
        settings.append(derive_setting(a, beta, detectors))
    return SettingSchedule(
        target_gamma=g,
        settings=tuple(settings),
    )
