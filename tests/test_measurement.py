import math

import numpy as np
import pytest

from clicktomo import (
    DetectorPair,
    TruncationConfig,
    coherent_state,
    density_from_pure,
    DualDetectorRecipe,
    SingleDetectorRecipe,
    binomial_counts,
    derive_setting,
    dual_detector_schedule,
    fock_state,
    homogeneous_efficiencies,
    no_click_probabilities,
    schedule_arrays,
    simulate,
    single_detector_schedule,
)

from oracles import coherent_signal_noclick

CFG = TruncationConfig(12)


def no_click(rho, setting, cfg=CFG):
    """Exact no-click probability of one setting."""
    return no_click_probabilities(rho, [setting.gamma], [setting.nu_bar], [[setting.y]], cfg)[0, 0]


def schedule_noclick(rho, sched, cfg=CFG):
    """Exact no-click probabilities of a schedule's settings, all at its target gamma."""
    nu_bar = [s.nu_bar for s in sched.settings]
    return no_click_probabilities(rho, [sched.target_gamma], nu_bar, [[s.y for s in sched.settings]], cfg)[0]


class TestDeriveSetting:
    def test_blind_second_detector(self):
        # gamma = -beta tan(alpha) and no attenuation when nu_d = 0
        s = derive_setting(0.4, 1.2 + 0.3j, DetectorPair(0.6, 0.0))
        assert s.gamma == pytest.approx(-(1.2 + 0.3j) * math.tan(0.4), abs=1e-15)
        assert s.y == 0.0
        assert s.nu_bar == pytest.approx(0.6 * math.cos(0.4) ** 2, abs=1e-15)

    def test_zero_angle(self):
        s = derive_setting(0.0, 2.0, DetectorPair(0.7, 0.4))
        assert s.nu_bar == 0.7
        assert s.gamma == 0.0
        # the probe still floods the second detector at alpha = 0
        assert s.y == pytest.approx(-4.0 * 0.7 * 0.4 / 0.7, abs=1e-15)

    def test_equal_efficiencies(self):
        s = derive_setting(0.9, 1.0, DetectorPair(0.5, 0.5))
        assert s.gamma == 0.0
        assert s.nu_bar == pytest.approx(0.5, abs=1e-15)

    def test_rederivation_is_bitwise(self):
        s = derive_setting(0.37, 0.8 - 0.2j, DetectorPair(0.45, 0.8))
        again = derive_setting(s.alpha, s.beta, s.detectors)
        assert (again.nu_bar, again.gamma, again.y) == (s.nu_bar, s.gamma, s.y)

    def test_vanishing_nu_bar_rejected(self):
        with pytest.raises(ValueError):
            derive_setting(0.0, 1.0, DetectorPair(0.0, 0.9))
        with pytest.raises(ValueError):
            derive_setting(0.3, 1.0, DetectorPair(0.0, 0.0))

    def test_detector_pair_range(self):
        with pytest.raises(ValueError):
            DetectorPair(1.2, 0.3)
        with pytest.raises(ValueError):
            DetectorPair(0.3, -0.1)


class TestNoClickProbability:
    def test_vacuum_without_probe(self):
        rho = density_from_pure(fock_state(0, CFG))
        s = derive_setting(0.3, 0.0, DetectorPair(0.8, 0.5))
        assert no_click(rho, s, CFG) == 1.0

    def test_coherent_signal_closed_form(self):
        # beam-splitter outputs stay coherent, so the joint no-click
        # probability is a product of per-port factors; this pins gamma,
        # y and the displaced diagonal in one shot
        rng = np.random.default_rng(11)
        cfg = TruncationConfig(12, 60)
        for _ in range(40):
            alpha0 = complex(*rng.uniform(-1.0, 1.0, 2))
            beta = complex(*rng.uniform(-1.5, 1.5, 2))
            angle = rng.uniform(0.05, 1.5)
            nu_c, nu_d = rng.uniform(0.05, 0.95, 2)
            rho = density_from_pure(coherent_state(alpha0, cfg))
            setting = derive_setting(angle, beta, DetectorPair(nu_c, nu_d))
            expected = coherent_signal_noclick(alpha0, beta, angle, nu_c, nu_d)
            assert no_click(rho, setting, cfg) == pytest.approx(expected, abs=1e-9)

    def test_probe_only_factorization(self):
        rho = density_from_pure(fock_state(0, CFG))
        for angle in (0.2, 0.7, 1.3):
            for b in (0.5, 1.0 + 1.0j, -1.5j):
                s = derive_setting(angle, b, DetectorPair(0.25, 0.7))
                expected = math.exp(
                    -0.25 * abs(b * math.sin(angle)) ** 2 - 0.7 * abs(b * math.cos(angle)) ** 2
                )
                assert no_click(rho, s, CFG) == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_efficiency(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = np.linspace(0.05, 0.95, 10)
        for angle, beta in ((0.4, 0.7), (0.9, -0.5 + 0.3j)):
            p_c = [
                no_click(rho, derive_setting(angle, beta, DetectorPair(nu, 0.55)), CFG)
                for nu in grid
            ]
            p_d = [
                no_click(rho, derive_setting(angle, beta, DetectorPair(0.55, nu)), CFG)
                for nu in grid
            ]
            assert np.all(np.diff(p_c) <= 1e-12)
            assert np.all(np.diff(p_d) <= 1e-12)

    def test_unit_probability_only_for_dark_vacuum(self):
        vac = density_from_pure(fock_state(0, CFG))
        coh = density_from_pure(coherent_state(1.0, CFG))
        s_plain = derive_setting(0.3, 0.0, DetectorPair(0.8, 0.5))
        assert no_click(vac, s_plain, CFG) == 1.0
        # any signal photons or probe attenuation pull p below 1
        assert no_click(coh, s_plain, CFG) < 1.0
        s_probe = derive_setting(0.3, 0.7, DetectorPair(0.8, 0.5))
        assert no_click(vac, s_probe, CFG) < 1.0

    def test_schedule_probabilities_match_pointwise(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        sched = single_detector_schedule(0.7 + 0.2j, 0.15, homogeneous_efficiencies(10))
        batch = schedule_noclick(rho, sched)
        single = [no_click(rho, s) for s in sched.settings]
        np.testing.assert_allclose(batch, single, atol=1e-14)


class TestSchedules:
    def test_single_detector_fixed_probe(self):
        target = 0.6 - 0.8j
        sched = single_detector_schedule(target, 0.3, homogeneous_efficiencies(30))
        assert len(sched) == 30
        betas = {s.beta for s in sched.settings}
        assert betas == {-target / math.tan(0.3)}
        for s in sched.settings:
            assert abs(s.gamma - target) <= 1e-12
            assert s.detectors.nu_d == 0.0

    def test_single_detector_zero_target(self):
        sched = single_detector_schedule(0.0, 0.5, (0.3, 0.6))
        assert all(s.beta == 0.0 for s in sched.settings)

    def test_single_detector_degenerate_angle(self):
        with pytest.raises(ValueError):
            single_detector_schedule(1.0, 0.0, (0.5,))
        with pytest.raises(ValueError):
            single_detector_schedule(1.0, math.pi / 2, (0.5,))

    def test_single_detector_bad_efficiency(self):
        with pytest.raises(ValueError):
            single_detector_schedule(1.0, 0.3, (0.0, 0.5))

    def test_homogeneous_efficiencies(self):
        effs = homogeneous_efficiencies(30)
        assert effs[0] == 0.1 and effs[-1] == 0.9
        assert np.allclose(np.diff(effs), np.diff(effs)[0])

    def test_dual_detector_roundtrip(self):
        target = 1.1 + 0.4j
        pair = DetectorPair(0.45, 0.8)
        sched = dual_detector_schedule(target, pair, np.linspace(0.2, 1.3, 12))
        for s in sched.settings:
            assert abs(s.gamma - target) <= 1e-12

    def test_dual_detector_worked_example(self):
        # nu_c = 0.3, nu_d = 0.6, alpha = pi/4: nu_bar = 0.45 and beta = 3 gamma
        target = 0.5 + 0.2j
        sched = dual_detector_schedule(target, DetectorPair(0.3, 0.6), (math.pi / 4,))
        s = sched.settings[0]
        assert s.nu_bar == pytest.approx(0.45, abs=1e-15)
        assert s.beta == pytest.approx(3.0 * target, abs=1e-14)

    def test_dual_detector_zero_target(self):
        sched = dual_detector_schedule(0.0, DetectorPair(0.3, 0.6), (0.4, 0.9))
        assert all(s.beta == 0.0 and s.y == 0.0 for s in sched.settings)

    def test_dual_detector_rejects_degenerate(self):
        with pytest.raises(ValueError):
            dual_detector_schedule(1.0, DetectorPair(0.5, 0.5), (0.4,))
        with pytest.raises(ValueError):
            dual_detector_schedule(1.0, DetectorPair(0.3, 0.6), (0.0,))


class TestSampling:
    @staticmethod
    def draw(p, n_runs, seed, stream_id):
        key = (seed,) if isinstance(seed, int) else seed
        return int(binomial_counts(n_runs, np.array([[p]]), key, stream_id)[0, 0])

    def test_saturated_probabilities(self):
        assert self.draw(1.0, 100, 0, 0) / 100 == 1.0
        assert self.draw(0.0, 100, 0, 0) / 100 == 0.0

    def test_determinism(self):
        a = self.draw(0.37, 10_000, 42, 7)
        b = self.draw(0.37, 10_000, 42, 7)
        c = self.draw(0.37, 10_000, 42, 8)
        d = self.draw(0.37, 10_000, 43, 7)
        assert a == b
        assert not (a == c == d)

    def test_tuple_seed(self):
        a = self.draw(0.5, 1000, (5, 2), 3)
        b = self.draw(0.5, 1000, (5, 2), 3)
        assert a == b

    def test_integer_counts(self):
        counts = binomial_counts(1000, np.array([[0.5]]), (1,))
        assert counts.dtype.kind == "i"
        assert 0 <= counts[0, 0] <= 1000

    def test_five_sigma_band(self):
        # 5 sigma = 0.025 at p = 0.5, N = 1e4; each fixed seed is a frozen draw
        for seed in range(200):
            freq = self.draw(0.5, 10_000, seed, 0) / 10_000
            assert abs(freq - 0.5) <= 5.0 * math.sqrt(0.25 / 10_000)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            self.draw(1.5, 10, 0, 0)


class TestSimulateSchedule:
    def test_exact_mode_stores_expected_counts(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        recipe = SingleDetectorRecipe(0.15, homogeneous_efficiencies(12))
        probs = schedule_noclick(rho, recipe.build(0.3))
        clicks = simulate(rho, [0.3], recipe, CFG, 1000, 0, 0, exact=True)
        for freq, p in zip(clicks.noclick[0] / clicks.n_runs[0], probs):
            assert freq == pytest.approx(p, abs=1e-16)

    def test_sampled_mode_uses_streams(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        recipe = SingleDetectorRecipe(0.15, homogeneous_efficiencies(5))
        sched = recipe.build(0.3)
        probs = schedule_noclick(rho, sched)
        clicks = simulate(rho, [0.3], recipe, CFG, 500, 9, 0, exact=False, offset=3)
        ref = binomial_counts(500, probs[None, :], (9, 0), 3)[0]
        assert clicks.noclick[0].tolist() == ref.tolist()

    def test_offset_streams_match_default_rng(self):
        # point i of a slice starting at global index `offset` draws its M
        # counts from default_rng((seed, repetition, offset + i))
        rho = density_from_pure(coherent_state(1.0, CFG))
        recipe = SingleDetectorRecipe(0.15, homogeneous_efficiencies(6))
        gammas = np.array([0.3, -0.2 + 0.4j])
        clicks = simulate(rho, gammas, recipe, CFG, 700, 4, 2, exact=False, offset=11)
        for i, g in enumerate(gammas):
            probs = schedule_noclick(rho, recipe.build(g))
            rng = np.random.default_rng((4, 2, 11 + i))
            assert clicks.noclick[i].tolist() == rng.binomial(700, probs).tolist()


class TestKeyedBinomial:
    """Row i of ``binomial_counts`` is the generator keyed ``key + (offset + i,)``."""

    @pytest.mark.parametrize("seed", [0, 2**32 + 7, (3, 2**40, 5, 6)], ids=["zero", "wide", "five-words"])
    def test_matches_default_rng_bit_for_bit(self, seed):
        key = (seed,) if isinstance(seed, int) else seed
        p = np.array([[0.0, 1.0, 0.37], [0.5, 0.999, 1e-3]])
        for offset in (0, 17, 2**32 - 1, 2**45 + 3):
            got = binomial_counts(10_000, p, key, offset)
            ref = [np.random.default_rng(key + (offset + i,)).binomial(10_000, row) for i, row in enumerate(p)]
            assert got.tolist() == np.array(ref).tolist()


class TestScheduleArrays:
    @pytest.mark.parametrize(
        "recipe",
        [
            SingleDetectorRecipe(0.15, homogeneous_efficiencies(7)),
            DualDetectorRecipe(DetectorPair(0.3, 0.6), (0.2, 0.5, 0.9, 1.2)),
        ],
        ids=["single", "dual"],
    )
    def test_matches_derive_setting_bit_for_bit(self, recipe):
        rng = np.random.default_rng(3)
        signed_zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        gammas = np.array([*signed_zeros, -1.5, 2j, *(rng.normal(size=40) + 1j * rng.normal(size=40))])
        alpha, beta, nu_c, nu_d, nu_bar, y = schedule_arrays(recipe, gammas)

        def bits(values):
            return np.asarray(values, dtype=float).view(np.uint64).tolist()

        for i, g in enumerate(gammas):
            ss = recipe.build(g).settings
            assert bits(alpha[i]) == bits([s.alpha for s in ss])
            assert bits(beta[i].real) == bits([s.beta.real for s in ss])
            assert bits(beta[i].imag) == bits([s.beta.imag for s in ss])
            assert bits(nu_c[i]) == bits([s.detectors.nu_c for s in ss])
            assert bits(nu_d[i]) == bits([s.detectors.nu_d for s in ss])
            assert bits(nu_bar[i]) == bits([s.nu_bar for s in ss])
            assert bits(y[i]) == bits([s.y for s in ss])
