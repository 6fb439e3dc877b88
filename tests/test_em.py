import math

import numpy as np
import pytest

from clicktomo import (
    ClickRecord,
    DetectorPair,
    DiagonalDistribution,
    EMConfig,
    TruncationConfig,
    coherent_state,
    density_from_pure,
    derive_setting,
    em_step,
    forward_probability,
    log_likelihood,
    run_em,
)
from clicktomo.em import run_em_batch
from clicktomo.errors import DegenerateModelError

from oracles import em_batch_reference, poisson_pmf

CFG = TruncationConfig(12)


def flat_settings(efficiencies):
    """Settings with nu_bar equal to the efficiency and gamma = 0."""
    return [derive_setting(0.0, 0.0, DetectorPair(nu, 0.0)) for nu in efficiencies]


def exact_records(values, settings, n_runs=10_000):
    dist = DiagonalDistribution(gamma=0.0, values=values)
    return [
        ClickRecord(s, n_runs, forward_probability(dist, s) * n_runs) for s in settings
    ]


class TestForwardProbability:
    def test_pure_vacuum(self):
        dist = DiagonalDistribution(0.0, np.eye(12)[0])
        s = derive_setting(0.0, 0.0, DetectorPair(0.5, 0.0))
        assert forward_probability(dist, s) == 1.0

    def test_uniform_geometric_sum(self):
        n = 12
        dist = DiagonalDistribution(0.0, np.full(n, 1.0 / n))
        s = derive_setting(0.0, 0.0, DetectorPair(0.4, 0.0))
        expected = (1.0 - 0.6**n) / (0.4 * n)
        assert forward_probability(dist, s) == pytest.approx(expected, rel=1e-14)

    def test_unit_efficiency_sees_vacuum_only(self):
        dist = DiagonalDistribution(0.0, np.full(4, 0.25))
        s = derive_setting(0.0, 0.0, DetectorPair(1.0, 0.0))
        assert forward_probability(dist, s) == 0.25


class TestEmStep:
    def test_fixed_point_on_consistent_data(self):
        # when the model already reproduces the frequencies the update is
        # the identity, in both normalization modes
        values = poisson_pmf(1.0, 12)
        values = values / values.sum()
        settings = flat_settings(np.linspace(0.1, 0.9, 30))
        records = exact_records(values, settings)
        start = DiagonalDistribution(0.0, values)
        for mode in ("renormalized", "literal"):
            out = em_step(start, records, EMConfig(normalization=mode))
            np.testing.assert_allclose(out.values, values, atol=1e-12)

    def test_vacuum_fixed_point(self):
        values = np.zeros(12)
        values[0] = 1.0
        settings = flat_settings(np.linspace(0.1, 0.9, 30))
        records = [ClickRecord(s, 100, 100) for s in settings]  # always no-click
        out = em_step(DiagonalDistribution(0.0, values), records, EMConfig())
        np.testing.assert_allclose(out.values, values, atol=1e-15)

    def test_zero_frequency_contributes_nothing(self):
        values = poisson_pmf(0.5, 12)
        settings = flat_settings(np.linspace(0.1, 0.9, 14))
        records = exact_records(values, settings)
        # zeroing one record's counts must equal dropping its contribution
        zeroed = records.copy()
        zeroed[3] = ClickRecord(settings[3], records[3].n_runs, 0.0)
        start = DiagonalDistribution(0.0, values / values.sum())
        stepped = em_step(start, zeroed, EMConfig(normalization="literal"))
        x = 1.0 - np.array([s.nu_bar for s in settings])
        a = x[:, None] ** np.arange(12)[None, :]
        f = a.sum(axis=1)
        w = a / f[:, None]
        ratios = np.array([r.freq for r in zeroed]) / np.array(
            [forward_probability(start, s) for s in settings]
        )
        expected = start.values * (ratios @ w) / w.sum(axis=0)
        np.testing.assert_allclose(stepped.values, expected, atol=1e-14)

    def test_requires_enough_settings(self):
        values = np.full(12, 1.0 / 12)
        records = exact_records(values, flat_settings(np.linspace(0.1, 0.9, 5)))
        with pytest.raises(ValueError):
            em_step(DiagonalDistribution(0.0, values), records, EMConfig())


class TestRunEm:
    def test_poisson_recovery_exact_data(self):
        # the flagship inverse problem: mean-one Poisson diagonal from 30
        # exact no-click probabilities, uniform start
        rho = density_from_pure(coherent_state(1.0, CFG))
        occupation = np.real(np.diag(rho.elements))
        settings = flat_settings(np.linspace(0.1, 0.9, 30))
        records = [
            ClickRecord(s, 10_000, 10_000 * float(np.dot((1 - s.nu_bar) ** np.arange(CFG.n_pad), occupation)))
            for s in settings
        ]
        dist, trace = run_em(records, EMConfig(n_iterations=1000), CFG)
        assert np.max(np.abs(dist.values - poisson_pmf(1.0, 12))) <= 1e-2
        assert dist.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert trace.log_likelihood.size == 1000
        assert trace.log_likelihood[-1] >= trace.initial_log_likelihood

    def test_monotone_on_exact_data(self):
        values = poisson_pmf(1.0, 12)
        values /= values.sum()
        settings = flat_settings(np.linspace(0.1, 0.9, 30))
        records = exact_records(values, settings)
        _, trace = run_em(records, EMConfig(n_iterations=400), CFG)
        steps = np.diff(np.concatenate(([trace.initial_log_likelihood], trace.log_likelihood)))
        assert np.all(steps >= -1e-9)

    def test_zero_iterations_returns_init(self):
        values = np.full(12, 1.0 / 12)
        records = exact_records(values, flat_settings(np.linspace(0.1, 0.9, 14)))
        dist, trace = run_em(records, EMConfig(n_iterations=0), CFG)
        np.testing.assert_allclose(dist.values, values, atol=1e-16)
        assert trace.log_likelihood.size == 0

    def test_custom_init(self):
        target = poisson_pmf(1.0, 12)
        target /= target.sum()
        settings = flat_settings(np.linspace(0.1, 0.9, 30))
        records = exact_records(target, settings)
        cfg = EMConfig(n_iterations=50, init=tuple(target))
        dist, _ = run_em(records, cfg, CFG)
        np.testing.assert_allclose(dist.values, target, atol=1e-10)

    def test_unit_efficiency_degenerate_case(self):
        # only the vacuum component is observable: the no-click channel
        # with nu_bar = 1 never sees n > 0
        settings = flat_settings([1.0] * 12)
        records = [ClickRecord(s, 1000, 700) for s in settings]
        literal, _ = run_em(records, EMConfig(n_iterations=200, normalization="literal"), CFG)
        assert literal.values[0] == pytest.approx(0.7, abs=1e-12)
        assert np.all(literal.values[1:] == 0.0)
        renorm, _ = run_em(records, EMConfig(n_iterations=200), CFG)
        assert renorm.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        values = poisson_pmf(0.8, 12)
        settings = flat_settings(np.linspace(0.1, 0.9, 20))
        records = exact_records(values, settings)
        a, _ = run_em(records, EMConfig(n_iterations=300), CFG)
        b, _ = run_em(records, EMConfig(n_iterations=300), CFG)
        assert np.array_equal(a.values, b.values)

    def test_early_stop_shortens_trace(self):
        # starting on the fixed point, the first step moves nothing and the
        # stopping rule fires immediately
        target = poisson_pmf(1.0, 12)
        target /= target.sum()
        settings = flat_settings(np.linspace(0.1, 0.9, 30))
        records = exact_records(target, settings)
        cfg = EMConfig(n_iterations=5000, early_stop_tol=1e-10, init=tuple(target))
        dist, trace = run_em(records, cfg, CFG)
        assert trace.log_likelihood.size == 1
        np.testing.assert_allclose(dist.values, target, atol=1e-12)

    def test_early_stop_off_by_default(self):
        target = poisson_pmf(1.0, 12)
        target /= target.sum()
        settings = flat_settings(np.linspace(0.1, 0.9, 30))
        records = exact_records(target, settings)
        _, trace = run_em(records, EMConfig(n_iterations=120, init=tuple(target)), CFG)
        assert trace.log_likelihood.size == 120

    def test_mixed_gamma_rejected(self):
        s1 = derive_setting(0.3, 1.0, DetectorPair(0.5, 0.0))
        s2 = derive_setting(0.3, 1.1, DetectorPair(0.5, 0.0))
        records = [ClickRecord(s1, 10, 5), ClickRecord(s2, 10, 5)]
        with pytest.raises(ValueError):
            run_em(records, EMConfig(), TruncationConfig(2))

    def test_degenerate_model_raises(self):
        # a probe so bright that every forward probability underflows
        from clicktomo import dual_detector_schedule

        sched = dual_detector_schedule(20.0, DetectorPair(0.5, 0.9), np.linspace(0.3, 1.2, 12))
        records = [ClickRecord(s, 100, 0) for s in sched.settings]
        with pytest.raises(DegenerateModelError):
            run_em(records, EMConfig(n_iterations=5), TruncationConfig(4))


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
        s = derive_setting(0.0, 0.0, DetectorPair(0.5, 0.0))
        dist = DiagonalDistribution(0.0, np.array([0.5, 0.5] + [0.0] * 10))
        # forward p = 0.5 + 0.5 * 0.5 = 0.75; pick counts giving freq = p
        rec = ClickRecord(s, 4, 3)
        assert log_likelihood(dist, [rec]) == pytest.approx(
            3 * math.log(0.75) + 1 * math.log(0.25), rel=1e-12
        )

    def test_two_trials_half(self):
        s = derive_setting(0.0, 0.0, DetectorPair(1.0, 0.0))
        dist = DiagonalDistribution(0.0, np.array([0.5, 0.5]))
        rec = ClickRecord(s, 2, 1)
        assert log_likelihood(dist, [rec]) == pytest.approx(2.0 * math.log(0.5), rel=1e-14)

    def test_saturated_frequencies_finite(self):
        s = derive_setting(0.0, 0.0, DetectorPair(0.3, 0.0))
        dist = DiagonalDistribution(0.0, np.eye(12)[0])
        assert np.isfinite(log_likelihood(dist, [ClickRecord(s, 10, 10)]))
        assert np.isfinite(log_likelihood(dist, [ClickRecord(s, 10, 0)]))

    def test_em_beats_uniform_init_across_seeds(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        occupation = np.real(np.diag(rho.elements))
        settings = flat_settings(np.linspace(0.1, 0.9, 14))
        probs = [
            float(np.dot((1 - s.nu_bar) ** np.arange(CFG.n_pad), occupation)) for s in settings
        ]
        uniform = DiagonalDistribution(0.0, np.full(12, 1.0 / 12))
        rng_cfg = EMConfig(n_iterations=60)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            records = [
                ClickRecord(s, 500, int(rng.binomial(500, p))) for s, p in zip(settings, probs)
            ]
            dist, _ = run_em(records, rng_cfg, CFG)
            wins += log_likelihood(dist, records) >= log_likelihood(uniform, records)
        assert wins == 100


class TestBatchConsistency:
    def test_batch_matches_single(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        occupation = np.real(np.diag(rho.elements))
        settings = flat_settings(np.linspace(0.1, 0.9, 30))
        nu_bar = np.array([s.nu_bar for s in settings])
        probs = np.array(
            [float(np.dot((1 - nb) ** np.arange(CFG.n_pad), occupation)) for nb in nu_bar]
        )
        rng = np.random.default_rng(3)
        freqs = np.vstack([rng.binomial(1000, probs) / 1000.0 for _ in range(4)])
        cfg = EMConfig(n_iterations=250)
        batch = run_em_batch(freqs, nu_bar, np.ones_like(freqs), 12, cfg)
        for row in range(4):
            records = [
                ClickRecord(s, 1000, int(round(f * 1000))) for s, f in zip(settings, freqs[row])
            ]
            single, _ = run_em(records, cfg, CFG)
            np.testing.assert_allclose(batch.values[row], single.values, atol=1e-12)


def _em_batch_case(name):
    """(freqs, nu_bar, ey, cfg, extra kwargs) for one bit-identity case."""
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
    if name in ("blind", "blind_literal"):
        # nu_bar = 1 everywhere: only the vacuum component is live
        cfg = EMConfig(n_iterations=50, normalization="renormalized" if name == "blind" else "literal")
        return noclick[:5, :12] / n_runs[:5, :12], np.ones(12), 1.0, cfg, {}
    if name == "early_stop_trace_init":
        cfg = EMConfig(n_iterations=2000, early_stop_tol=1e-4, init=tuple(rows[0]))
        extra = {"noclick": noclick[:8], "n_runs": n_runs[:8], "record_trace": True}
        return noclick[:8] / n_runs[:8], nu_bar, ey[:8], cfg, extra
    if name == "single_row":
        cfg = EMConfig(n_iterations=2000, early_stop_tol=1e-4)
        extra = {"noclick": noclick[:1], "n_runs": n_runs[:1], "record_trace": True}
        return noclick[:1] / n_runs[:1], nu_bar, ey[:1], cfg, extra
    raise KeyError(name)


class TestBatchBitIdentity:
    @pytest.mark.parametrize(
        "name",
        [
            "sampled",
            "exact",
            "literal",
            "floor_renormalized",
            "floor_literal",
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
        for field in ("values", "final_loglik", "final_residuals", "failed"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field
        if want.trace_loglik is None:
            assert got.trace_loglik is None
        else:
            assert np.array_equal(got.trace_loglik, want.trace_loglik, equal_nan=True)
        if name.startswith("floor"):
            assert 0 < want.failed.sum() < want.failed.size
        if cfg.early_stop_tol is not None:
            assert want.trace_loglik.shape[0] < cfg.n_iterations
