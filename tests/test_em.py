import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clicktomo import (
    DensityMatrix,
    DetectorPair,
    EMConfig,
    TruncationConfig,
    coherent_state,
    DualDetectorRecipe,
    density_from_pure,
    derive_settings,
    no_click_probabilities,
    run_em_batch,
    simulate,
)
from clicktomo import em as em_module
from clicktomo.config import build_recipe, build_state, load_config
from clicktomo.em import _loglik_rows
from clicktomo.measurement import no_click_powers

from oracles import em_batch_reference, poisson_pmf

CFG = TruncationConfig(12)


def kernel(nu_bar, n=12):
    """A_jn = (1 - nu_bar_j)^n: the forward model at unit attenuation is ``kernel @ R``."""
    return (1.0 - np.asarray(nu_bar, dtype=float))[:, None] ** np.arange(n)[None, :]


def diagonal_state(values):
    """Density matrix diag(values) on the working dimension of CFG."""
    rho = np.zeros((CFG.n_pad, CFG.n_pad))
    rho[range(len(values)), range(len(values))] = values
    return DensityMatrix(rho)


def one_step(values, freqs, nu_bar, normalization="renormalized"):
    """One iteration from ``values``; zero components start at the smallest normal float."""
    init = tuple(np.maximum(values, np.finfo(float).tiny))
    cfg = EMConfig(n_iterations=1, normalization=normalization, init=init)
    return run_em_batch(np.atleast_2d(freqs), nu_bar, 1.0, len(values), cfg).values[0]


def run_one(freqs, nu_bar, cfg, n_runs=10_000, n_trunc=12):
    """One point with counts ``freqs * n_runs`` -> (values, final loglik, loglik of the start)."""
    freqs = np.atleast_2d(freqs)
    counts = {"noclick": freqs * n_runs, "n_runs": np.full(freqs.shape, float(n_runs))}
    out = run_em_batch(freqs, nu_bar, 1.0, n_trunc, cfg, **counts)
    start = run_em_batch(freqs, nu_bar, 1.0, n_trunc, replace(cfg, n_iterations=0), **counts)
    return out.values[0], out.final_loglik[0], start.final_loglik[0]


def nu_bar_of(nu):
    """nu_bar of a gamma = 0, alpha = 0 setting with the second detector blind (= nu)."""
    return float(derive_settings([0.0], [[0.0]], [nu], [0.0])[0][0])


class TestForwardProbability:
    # the forward model p = e^y sum_n (1 - nu_bar)^n R_n, evaluated on a
    # diagonal state at gamma = 0, where the displaced diagonal is R itself
    def test_pure_vacuum(self):
        rho = diagonal_state(np.eye(12)[0])
        p = no_click_probabilities(rho, [0.0], [nu_bar_of(0.5)], [[0.0]], CFG)
        assert p[0, 0] == 1.0

    def test_uniform_geometric_sum(self):
        n = 12
        rho = diagonal_state(np.full(n, 1.0 / n))
        p = no_click_probabilities(rho, [0.0], [nu_bar_of(0.4)], [[0.0]], CFG)
        expected = (1.0 - 0.6**n) / (0.4 * n)
        assert p[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_unit_efficiency_sees_vacuum_only(self):
        rho = diagonal_state(np.full(4, 0.25))
        p = no_click_probabilities(rho, [0.0], [nu_bar_of(1.0)], [[0.0]], CFG)
        assert p[0, 0] == 0.25


class TestEmStep:
    def test_fixed_point_on_consistent_data(self):
        # when the model already reproduces the frequencies the update is
        # the identity, in both normalization modes
        values = poisson_pmf(1.0, 12)
        values = values / values.sum()
        nu_bar = np.linspace(0.1, 0.9, 30)
        freqs = kernel(nu_bar) @ values
        for mode in ("renormalized", "literal"):
            out = one_step(values, freqs, nu_bar, mode)
            np.testing.assert_allclose(out, values, atol=1e-12)

    def test_vacuum_fixed_point(self):
        values = np.zeros(12)
        values[0] = 1.0
        nu_bar = np.linspace(0.1, 0.9, 30)
        out = one_step(values, np.ones(30), nu_bar)  # always no-click
        np.testing.assert_allclose(out, values, atol=1e-15)

    def test_zero_frequency_contributes_nothing(self):
        values = poisson_pmf(0.5, 12)
        nu_bar = np.linspace(0.1, 0.9, 14)
        freqs = kernel(nu_bar) @ values
        # zeroing one setting's counts must equal dropping its contribution
        zeroed = freqs.copy()
        zeroed[3] = 0.0
        start = values / values.sum()
        stepped = one_step(start, zeroed, nu_bar, "literal")
        a = kernel(nu_bar)
        f = a.sum(axis=1)
        w = a / f[:, None]
        ratios = zeroed / (a @ start)
        expected = start * (ratios @ w) / w.sum(axis=0)
        np.testing.assert_allclose(stepped, expected, atol=1e-14)

    def test_requires_enough_settings(self):
        values = np.full(12, 1.0 / 12)
        nu_bar = np.linspace(0.1, 0.9, 5)
        with pytest.raises(ValueError):
            one_step(values, kernel(nu_bar) @ values, nu_bar)


class TestRunEm:
    def test_poisson_recovery_exact_data(self):
        # the flagship inverse problem: mean-one Poisson diagonal from 30
        # exact no-click probabilities, uniform start
        rho = density_from_pure(coherent_state(1.0, CFG))
        occupation = np.real(np.diag(rho.elements))
        nu_bar = np.linspace(0.1, 0.9, 30)
        freqs = kernel(nu_bar, CFG.n_pad) @ occupation
        values, final, initial = run_one(freqs, nu_bar, EMConfig(n_iterations=1000))
        assert np.max(np.abs(values - poisson_pmf(1.0, 12))) <= 1e-2
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert final >= initial

    def test_monotone_on_exact_data(self):
        # 400 steps of the shipped step map, each one started from the last
        # one's iterate: the log-likelihood never falls
        values = poisson_pmf(1.0, 12)
        values /= values.sum()
        nu_bar = np.linspace(0.1, 0.9, 30)
        freqs = kernel(nu_bar) @ values
        r, _, initial = run_one(freqs, nu_bar, EMConfig(n_iterations=0))
        trace = [initial]
        for _ in range(400):
            init = tuple(np.maximum(r, np.finfo(float).tiny))
            r, loglik, _ = run_one(freqs, nu_bar, EMConfig(n_iterations=1, init=init))
            trace.append(loglik)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_zero_iterations_returns_init(self):
        values = np.full(12, 1.0 / 12)
        nu_bar = np.linspace(0.1, 0.9, 14)
        out, _, _ = run_one(kernel(nu_bar) @ values, nu_bar, EMConfig(n_iterations=0))
        np.testing.assert_allclose(out, values, atol=1e-16)
        # a custom init is returned as given, not normalized
        init = tuple(np.linspace(0.1, 1.2, 12))
        out, _, _ = run_one(kernel(nu_bar) @ values, nu_bar, EMConfig(n_iterations=0, init=init))
        assert np.array_equal(out, init)

    def test_custom_init(self):
        target = poisson_pmf(1.0, 12)
        target /= target.sum()
        nu_bar = np.linspace(0.1, 0.9, 30)
        cfg = EMConfig(n_iterations=50, init=tuple(target))
        values, _, _ = run_one(kernel(nu_bar) @ target, nu_bar, cfg)
        np.testing.assert_allclose(values, target, atol=1e-10)

    def test_unit_efficiency_degenerate_case(self):
        # only the vacuum component is observable: the no-click channel
        # with nu_bar = 1 never sees n > 0
        nu_bar = np.ones(12)
        freqs = np.full(12, 0.7)
        literal, _, _ = run_one(freqs, nu_bar, EMConfig(n_iterations=200, normalization="literal"), 1000)
        assert literal[0] == pytest.approx(0.7, abs=1e-12)
        assert np.all(literal[1:] == 0.0)
        renorm, _, _ = run_one(freqs, nu_bar, EMConfig(n_iterations=200), 1000)
        assert renorm[0] == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        values = poisson_pmf(0.8, 12)
        nu_bar = np.linspace(0.1, 0.9, 20)
        freqs = kernel(nu_bar) @ values
        a, _, _ = run_one(freqs, nu_bar, EMConfig(n_iterations=300))
        b, _, _ = run_one(freqs, nu_bar, EMConfig(n_iterations=300))
        assert np.array_equal(a, b)

    def test_degenerate_model_raises(self):
        # a probe so bright that every forward probability underflows: the
        # point is marked failed and left NaN (``reconstruct`` then exits 4)
        sched = DualDetectorRecipe(DetectorPair(0.5, 0.9), tuple(np.linspace(0.3, 1.2, 12))).build(20.0)
        out = run_em_batch(np.zeros((1, 12)), sched.nu_bar, np.exp(sched.y), 4, EMConfig(n_iterations=5))
        assert out.failed[0]
        assert np.all(np.isnan(out.values[0]))


class TestSensitivityNormalization:
    def test_unnormalized_update_drains_to_vacuum(self):
        # without the sensitivity denominator the per-component gain
        # sum_j A_jn / f_j decreases strictly with n, so iterating the bare
        # weighted back-projection forgets the data and collapses onto the
        # vacuum component; this pins why the denominator is not optional
        target = poisson_pmf(1.0, 12)
        target /= target.sum()
        nu_bar = np.linspace(0.1, 0.9, 30)
        x = 1.0 - nu_bar
        a = x[:, None] ** np.arange(12)[None, :]
        f = a.sum(axis=1)
        p_exp = a @ target
        r = np.full(12, 1.0 / 12)
        for _ in range(300):
            ratio = p_exp / np.maximum(a @ r, 1e-300)
            r = r * ((a / f[:, None]).T @ ratio)
            r = r / r.sum()
        assert r[0] > 0.99
        assert np.max(np.abs(r - target)) > 0.5


class TestLogLikelihood:
    def test_direct_value(self):
        # forward p = 0.5 + 0.5 * 0.5 = 0.75; pick counts giving freq = p
        p = kernel([0.5]) @ np.array([0.5, 0.5] + [0.0] * 10)
        assert _loglik_rows(p[None, :], np.array([[3.0]]), np.array([[4.0]]))[0] == pytest.approx(
            3 * math.log(0.75) + 1 * math.log(0.25), rel=1e-12
        )

    def test_two_trials_half(self):
        p = kernel([1.0], 2) @ np.array([0.5, 0.5])
        assert _loglik_rows(p[None, :], np.array([[1.0]]), np.array([[2.0]]))[0] == pytest.approx(
            2.0 * math.log(0.5), rel=1e-14
        )

    def test_saturated_frequencies_finite(self):
        p = kernel([0.3]) @ np.eye(12)[0]
        assert np.isfinite(_loglik_rows(p[None, :], np.array([[10.0]]), np.array([[10.0]]))[0])
        assert np.isfinite(_loglik_rows(p[None, :], np.array([[0.0]]), np.array([[10.0]]))[0])

    def test_em_beats_uniform_init_across_seeds(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        occupation = np.real(np.diag(rho.elements))
        nu_bar = np.linspace(0.1, 0.9, 14)
        probs = kernel(nu_bar, CFG.n_pad) @ occupation
        rngs = [np.random.default_rng(seed) for seed in range(100)]
        noclick = np.array([[rng.binomial(500, p) for p in probs] for rng in rngs], dtype=float)
        counts = {"noclick": noclick, "n_runs": np.full(noclick.shape, 500.0)}
        fitted = run_em_batch(noclick / 500, nu_bar, 1.0, 12, EMConfig(n_iterations=60), **counts)
        uniform = run_em_batch(noclick / 500, nu_bar, 1.0, 12, EMConfig(n_iterations=0), **counts)
        wins = int(np.sum(fitted.final_loglik >= uniform.final_loglik))
        assert wins == 100


class TestBatchConsistency:
    def test_batch_matches_single(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        occupation = np.real(np.diag(rho.elements))
        nu_bar = np.linspace(0.1, 0.9, 30)
        probs = kernel(nu_bar, CFG.n_pad) @ occupation
        rng = np.random.default_rng(3)
        freqs = np.vstack([rng.binomial(1000, probs) / 1000.0 for _ in range(4)])
        cfg = EMConfig(n_iterations=250)
        batch = run_em_batch(freqs, nu_bar, np.ones_like(freqs), 12, cfg)
        for row in range(4):
            single, _, _ = run_one(freqs[row], nu_bar, cfg, 1000)
            np.testing.assert_allclose(batch.values[row], single, atol=1e-12)


def em_tolerance(n_iterations):
    """Agreement owed to the reference loop after ``n_iterations`` reordered steps."""
    return 64 * n_iterations * np.finfo(float).eps


def _em_batch_case(name):
    """(freqs, nu_bar, ey, cfg, extra kwargs) for one reference-loop case."""
    rng = np.random.default_rng(11)
    nu_bar = np.linspace(0.1, 0.9, 24)
    kernel = (1.0 - nu_bar)[:, None] ** np.arange(12)[None, :]
    rows = np.vstack([poisson_pmf(lam, 12) for lam in rng.uniform(0.0, 3.0, 96)])
    ey = np.exp(-rng.uniform(0.0, 2.0, (96, 1)) * nu_bar[None, :])
    probs = np.clip(ey * (rows @ kernel.T), 0.0, 1.0)
    n_runs = np.full(probs.shape, 200.0)
    noclick = rng.binomial(200, probs).astype(float)
    sampled = {"noclick": noclick, "n_runs": n_runs}
    if name == "sampled":
        return noclick / n_runs, nu_bar, ey, EMConfig(n_iterations=300), sampled
    if name == "exact":
        return probs, nu_bar, ey, EMConfig(n_iterations=300), {}
    if name == "literal":
        cfg = EMConfig(n_iterations=300, normalization="literal")
        return noclick / n_runs, nu_bar, ey, cfg, sampled
    if name in ("floor_renormalized", "floor_literal"):
        # the tiny-e^y rows fall under the floor on the first step or later
        # (renormalized: rows fail at steps 1, 2, 4 and 10); the all-zero row
        # fails through its vanishing sum (renormalized) or the floor (literal)
        nu_bar = np.linspace(0.1, 0.9, 14)
        faint = np.zeros((40, 14))
        faint[:, 0], faint[:, 1] = 0.3, 0.1
        freqs = np.vstack([faint, np.zeros((1, 14)), probs[:8, :14]])
        ey = np.vstack(
            [np.geomspace(1e-13, 1e-10, 40)[:, None] * np.ones((1, 14)), ey[:9, :14]]
        )
        mode = name.split("_")[1]
        return freqs, nu_bar, ey, EMConfig(n_iterations=300, normalization=mode), {}
    if name == "bright_data":
        # frequencies far above e^y = 1e-9: the unnormalized iterate sums to
        # about 1e9, and the normalized probabilities of the settings with
        # nu_bar near 1 fall under the floor although the unnormalized ones
        # do not, so the floor bound must use the sums
        nu_bar = np.linspace(0.1, 0.999, 14)
        return ((1.0 - nu_bar) ** 2)[None, :], nu_bar, 1e-9, EMConfig(n_iterations=300), {}
    if name in ("mixed_bound", "mixed_bound_literal"):
        # exact data on nu_bar <= 1/2, where every point meets the static bound
        # until e^y of the first 24 is scaled by 1e-14 ... 1e-4: those under
        # about 1e-8 are guarded, and the smallest fail
        nu_bar = np.linspace(0.1, 0.5, 24)
        ey = ey * np.concatenate([np.geomspace(1e-14, 1e-4, 24), np.ones(72)])[:, None]
        freqs = np.clip(ey * (rows @ ((1.0 - nu_bar)[:, None] ** np.arange(12)).T), 0.0, 1.0)
        mode = "literal" if name.endswith("literal") else "renormalized"
        return freqs, nu_bar, ey, EMConfig(n_iterations=300, normalization=mode), {}
    if name == "small_init":
        # a custom init summing to 1.2e-11 puts the first step's probabilities
        # near the floor, which clamps some of them although every point meets
        # the static bound on a unit sum
        cfg = EMConfig(n_iterations=300, init=(1e-12,) * 12)
        return noclick / n_runs, nu_bar, ey, cfg, sampled
    if name in ("blind", "blind_literal"):
        # nu_bar = 1 everywhere: only the vacuum component is live
        cfg = EMConfig(n_iterations=50, normalization="renormalized" if name == "blind" else "literal")
        return noclick[:5, :12] / n_runs[:5, :12], np.ones(12), 1.0, cfg, {}
    if name == "early_stop_trace_init":
        # a custom init over 8 rows
        cfg = EMConfig(n_iterations=2000, init=tuple(rows[0]))
        extra = {"noclick": noclick[:8], "n_runs": n_runs[:8]}
        return noclick[:8] / n_runs[:8], nu_bar, ey[:8], cfg, extra
    if name == "single_row":
        cfg = EMConfig(n_iterations=2000)
        extra = {"noclick": noclick[:1], "n_runs": n_runs[:1]}
        return noclick[:1] / n_runs[:1], nu_bar, ey[:1], cfg, extra
    raise KeyError(name)


class TestBatchBitIdentity:
    """``run_em_batch`` against the per-step reference loop of ``tests/oracles.py``.

    The batched loop skips the per-step renormalization and folds e^y and
    the sensitivity into constants, which changes the arithmetic order, so
    it is held to a tolerance fixed from the dtype: 64 ulps of 1.0 per step.
    """

    @pytest.mark.parametrize(
        "name",
        [
            "sampled",
            "exact",
            "literal",
            "floor_renormalized",
            "floor_literal",
            "bright_data",
            "mixed_bound",
            "mixed_bound_literal",
            "small_init",
            "blind",
            "blind_literal",
            "early_stop_trace_init",
            "single_row",
        ],
    )
    def test_matches_reference_loop(self, name):
        freqs, nu_bar, ey, cfg, extra = _em_batch_case(name)
        got = run_em_batch(freqs, nu_bar, ey, 12, cfg, **extra)
        want = em_batch_reference(freqs, nu_bar, ey, 12, cfg, **extra)
        tol = em_tolerance(cfg.n_iterations)
        assert np.array_equal(got.failed, want.failed)
        # values near one owe tol absolute; the literal floor case's iterates
        # grow to 3e11, where tol is below one ulp, so they owe tol relative
        np.testing.assert_allclose(got.values, want.values, rtol=tol, atol=tol)
        np.testing.assert_allclose(got.final_loglik, want.final_loglik, rtol=tol, atol=0.0)
        if name.startswith(("floor", "mixed")):
            assert 0 < want.failed.sum() < want.failed.size


@st.composite
def em_problems(draw):
    """Random positive kernels: nu_bar in (0, 1], e^y in (0, 1], frequencies in [0, 1]."""
    n_trunc = draw(st.integers(2, 12))
    m = draw(st.integers(n_trunc, n_trunc + 8))
    rows = draw(st.integers(1, 4))
    unit = st.floats(1e-3, 1.0)
    nu_bar = draw(arrays(float, m, elements=unit))
    ey = draw(arrays(float, (rows, m), elements=unit))
    freqs = draw(arrays(float, (rows, m), elements=st.floats(0.0, 1.0)))
    return freqs, nu_bar, ey, n_trunc, draw(st.integers(1, 60))


@settings(max_examples=150, deadline=None)
@given(problem=em_problems())
def test_batch_stays_positive_and_normalized(problem):
    freqs, nu_bar, ey, n_trunc, iterations = problem
    result = run_em_batch(freqs, nu_bar, ey, n_trunc, EMConfig(n_iterations=iterations))
    live = ~result.failed
    assert np.all(result.values[live] >= 0.0)
    np.testing.assert_allclose(result.values[live].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(np.isnan(result.values[result.failed]))


@st.composite
def unfloored_problems(draw):
    """Random positive kernels on which no probability can reach the floor.

    With nu_bar <= 1/2, e^y >= 1e-3 and frequencies >= 1e-2, every literal
    iterate after the first step sums to at least 1e-2 (the weighted kernel
    over the sensitivity has unit column sums), so each probability stays
    above 1e-3 * 2**-11 * 1e-2, far over the 1e-12 floor.
    """
    n_trunc = draw(st.integers(2, 12))
    m = draw(st.integers(n_trunc, n_trunc + 8))
    rows = draw(st.integers(1, 4))
    nu_bar = draw(arrays(float, m, elements=st.floats(1e-3, 0.5)))
    ey = draw(arrays(float, (rows, m), elements=st.floats(1e-3, 1.0)))
    freqs = draw(arrays(float, (rows, m), elements=st.floats(1e-2, 1.0)))
    return freqs, nu_bar, ey, n_trunc, draw(st.integers(1, 60))


@settings(max_examples=150, deadline=None)
@given(problem=unfloored_problems())
def test_renormalized_iterates_are_the_normalized_literal_ones(problem):
    # the update is scale-free, so renormalizing every step (the reference
    # loop) and normalizing the literal iterate once agree to rounding
    freqs, nu_bar, ey, n_trunc, iterations = problem
    cfg = EMConfig(n_iterations=iterations)
    literal = run_em_batch(freqs, nu_bar, ey, n_trunc, replace(cfg, normalization="literal")).values
    normalized = literal / literal.sum(axis=1, keepdims=True)
    tol = em_tolerance(iterations)
    stepwise = em_batch_reference(freqs, nu_bar, ey, n_trunc, cfg)
    assert not stepwise.failed.any()
    np.testing.assert_allclose(normalized, stepwise.values, rtol=0.0, atol=tol)
    np.testing.assert_allclose(run_em_batch(freqs, nu_bar, ey, n_trunc, cfg).values, stepwise.values, rtol=0.0, atol=tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["renormalized", "literal"])
def test_bounded_point_with_zero_frequencies_fails_quietly(mode):
    # e^y = 1 and nu_bar <= 1/2 put every point far above the floor; the
    # zero row's iterate vanishes after one step and must end NaN and failed
    nu_bar = np.linspace(0.1, 0.5, 14)
    freqs = np.vstack([kernel(nu_bar) @ poisson_pmf(0.7, 12), np.zeros(14), kernel(nu_bar) @ poisson_pmf(1.5, 12)])
    result = run_em_batch(freqs, nu_bar, 1.0, 12, EMConfig(n_iterations=50, normalization=mode))
    assert result.failed.tolist() == [False, True, False]
    assert np.all(np.isnan(result.values[1])) and np.all(np.isfinite(result.values[[0, 2]]))


REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.ini")) + sorted(REPO.glob("bench/configs/*.ini"))


def _static_bound(nu_bar, y, n_trunc):
    """min_j e^{y_j} min_n A_jn per point: its normalized probabilities never fall below this."""
    return np.min(np.exp(y) * no_click_powers(nu_bar, n_trunc).min(axis=1), axis=1)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.relative_to(REPO).as_posix() for p in SHIPPED_CONFIGS])
def test_shipped_configs_take_the_bare_step_everywhere(path):
    # every grid point must clear twice the floor, or the shipped and
    # benchmark runs fall back to the guarded step
    cfg = load_config(path)
    sched = build_recipe(cfg).build(cfg.grid.flat_gammas())
    assert np.all(_static_bound(sched.nu_bar, sched.y, cfg.trunc.n_trunc) >= 2.0 * em_module.FLOOR)


@pytest.fixture
def normalized_widths(monkeypatch):
    """The number of points each call of ``em._normalize`` divides, in call order."""
    widths = []
    normalize = em_module._normalize

    def spy(r, sums, failed):
        widths.append(r.shape[1])
        return normalize(r, sums, failed)

    monkeypatch.setattr(em_module, "_normalize", spy)
    return widths


def test_points_under_twice_the_floor_are_guarded(normalized_widths):
    # point 0 clears the floor itself but not twice it, point 1 has e^y = 1e-13
    # on all settings but one (so it clamps every step and never fails), and
    # point 2 is far above the floor: each clamped step normalizes points 0
    # and 1, and only the final normalization sees point 2
    nu_bar = np.linspace(0.1, 0.5, 14)
    ey = np.ones((3, 14))
    ey[0] = 1.5e-12 / 0.5**11
    ey[1, 1:] = 1e-13
    freqs = ey * (kernel(nu_bar) @ poisson_pmf(1.0, 12))
    bound = _static_bound(nu_bar, np.log(ey), 12)
    assert 1e-12 <= bound[0] < 2e-12 and bound[1] < 1e-12 and bound[2] >= 2e-12
    result = run_em_batch(freqs, nu_bar, ey, 12, EMConfig(n_iterations=20))
    assert not result.failed.any()
    assert normalized_widths == [2] * 19 + [3]


def test_failed_point_stops_clamping_the_other_guarded_points(normalized_widths):
    # point 0 is guarded (its bound is 1.5 floors) but its probabilities stay far
    # above the floor; point 1 has e^y = 1e-20 and fails on the first step.  Once
    # it has left the guard, point 0 takes no clamped step, so only the final
    # normalization runs
    nu_bar = np.linspace(0.1, 0.5, 14)
    ey = np.ones((3, 14))
    ey[0] = 1.5e-12 / 0.5**11
    ey[1] = 1e-20
    freqs = ey * (kernel(nu_bar) @ poisson_pmf(1.0, 12))
    result = run_em_batch(freqs, nu_bar, ey, 12, EMConfig(n_iterations=20))
    assert result.failed.tolist() == [False, True, False]
    assert normalized_widths == [3]


def test_failed_point_leaves_the_others_on_the_bare_step(normalized_widths):
    # on the fock_em_long inputs, a point whose e^y is 1e-20 fails on the first
    # step and leaves the guard, so only the final normalization runs; every
    # other point must keep the bits of the run without it
    cfg = load_config(REPO / "bench" / "configs" / "fock_em_long.ini")
    clicks = simulate(
        build_state(cfg), cfg.grid.flat_gammas(), build_recipe(cfg), cfg.trunc, cfg.n_runs, cfg.seed, 0, True
    )
    freqs, ey = clicks.noclick / clicks.n_runs, np.exp(clicks.y)
    em_cfg = EMConfig(n_iterations=cfg.n_iterations)
    dim = cfg.trunc.n_trunc
    clean = run_em_batch(freqs, clicks.nu_bar, ey, dim, em_cfg)
    ey[17] = 1e-20
    normalized_widths.clear()
    spoiled = run_em_batch(freqs, clicks.nu_bar, ey, dim, em_cfg)
    assert normalized_widths == [len(freqs)]
    others = np.arange(len(freqs)) != 17
    assert np.flatnonzero(spoiled.failed).tolist() == [17] and not clean.failed.any()
    assert np.array_equal(spoiled.values[others], clean.values[others])
    assert np.array_equal(spoiled.final_loglik[others], clean.final_loglik[others])
