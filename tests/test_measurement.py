import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clicktomo import measurement
from clicktomo.fock import TruncationConfig, coherent_state, fock_state
from clicktomo.measurement import (
    DetectorPair,
    DualDetectorRecipe,
    SingleDetectorRecipe,
    binomial_counts,
    derive_settings,
    homogeneous_efficiencies,
)

from oracles import (
    coherent_signal_noclick,
    dual_detector_schedule,
    no_click_probabilities,
    simulate,
    single_detector_schedule,
)

CFG = TruncationConfig(12)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def group_draws(n_runs, probs, key, offset):
    """The sampling contract, spelled out: rows 8k to 8k + 7 of ``probs`` are
    ``default_rng(key + (offset + 8k,)).binomial(n_runs, probs[8k:8k + 8])``, as nested lists."""
    groups = [np.random.default_rng(key + (offset + k,)).binomial(n_runs, probs[k : k + 8]) for k in range(0, len(probs), 8)]
    return [row for group in groups for row in group.tolist()]


def derive(alpha, beta, detectors):
    """(nu_bar, gamma, y) of one setting."""
    nu_bar, gamma, y = derive_settings([alpha], [[beta]], [detectors.nu_c], [detectors.nu_d])
    return float(nu_bar[0]), complex(gamma[0, 0]), float(y[0, 0])


def no_click(state, setting, cfg=CFG):
    """Exact no-click probability of one setting (nu_bar, gamma, y)."""
    nu_bar, gamma, y = setting
    return no_click_probabilities(state, [gamma], [nu_bar], [[y]], cfg)[0, 0]


def schedule_noclick(state, gamma, sched, cfg=CFG):
    """Exact no-click probabilities of a one-point schedule's settings at ``gamma``."""
    return no_click_probabilities(state, [gamma], sched.nu_bar, sched.y, cfg)[0]


class TestDeriveSetting:
    def test_blind_second_detector(self):
        # gamma = -beta tan(alpha) and no attenuation when nu_d = 0
        nu_bar, gamma, y = derive(0.4, 1.2 + 0.3j, DetectorPair(0.6, 0.0))
        assert gamma == pytest.approx(-(1.2 + 0.3j) * math.tan(0.4), abs=1e-15)
        assert y == 0.0
        assert nu_bar == pytest.approx(0.6 * math.cos(0.4) ** 2, abs=1e-15)

    def test_zero_angle(self):
        nu_bar, gamma, y = derive(0.0, 2.0, DetectorPair(0.7, 0.4))
        assert nu_bar == 0.7
        assert gamma == 0.0
        # the probe still floods the second detector at alpha = 0
        assert y == pytest.approx(-4.0 * 0.7 * 0.4 / 0.7, abs=1e-15)

    def test_equal_efficiencies(self):
        nu_bar, gamma, _ = derive(0.9, 1.0, DetectorPair(0.5, 0.5))
        assert gamma == 0.0
        assert nu_bar == pytest.approx(0.5, abs=1e-15)

    def test_rederivation_is_bitwise(self):
        # a (P, M) batch derives each setting exactly as it derives alone
        alpha, nu_c, nu_d = [0.37, 1.1], [0.45, 0.2], [0.8, 0.0]
        beta = np.array([[0.8 - 0.2j, -1.5], [0.0, 2j]])
        nu_bar, gamma, y = derive_settings(alpha, beta, nu_c, nu_d)
        for (i, j), b in np.ndenumerate(beta):
            alone = derive(alpha[j], b, DetectorPair(nu_c[j], nu_d[j]))
            batch = (nu_bar[j], gamma[i, j].real, gamma[i, j].imag, y[i, j])
            assert bits(batch) == bits((alone[0], alone[1].real, alone[1].imag, alone[2]))

    def test_vanishing_nu_bar_rejected(self):
        with pytest.raises(ValueError):
            derive(0.0, 1.0, DetectorPair(0.0, 0.9))
        with pytest.raises(ValueError):
            derive(0.3, 1.0, DetectorPair(0.0, 0.0))

    def test_detector_pair_range(self):
        with pytest.raises(ValueError):
            DetectorPair(1.2, 0.3)
        with pytest.raises(ValueError):
            DetectorPair(0.3, -0.1)


class TestNoClickProbability:
    def test_vacuum_without_probe(self):
        state = fock_state(0, CFG)
        s = derive(0.3, 0.0, DetectorPair(0.8, 0.5))
        assert no_click(state, s, CFG) == 1.0

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
            state = coherent_state(alpha0, cfg)
            setting = derive(angle, beta, DetectorPair(nu_c, nu_d))
            expected = coherent_signal_noclick(alpha0, beta, angle, nu_c, nu_d)
            assert no_click(state, setting, cfg) == pytest.approx(expected, abs=1e-9)

    def test_probe_only_factorization(self):
        state = fock_state(0, CFG)
        for angle in (0.2, 0.7, 1.3):
            for b in (0.5, 1.0 + 1.0j, -1.5j):
                s = derive(angle, b, DetectorPair(0.25, 0.7))
                expected = math.exp(
                    -0.25 * abs(b * math.sin(angle)) ** 2 - 0.7 * abs(b * math.cos(angle)) ** 2
                )
                assert no_click(state, s, CFG) == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_efficiency(self):
        state = coherent_state(1.0, CFG)
        grid = np.linspace(0.05, 0.95, 10)
        for angle, beta in ((0.4, 0.7), (0.9, -0.5 + 0.3j)):
            p_c = [
                no_click(state, derive(angle, beta, DetectorPair(nu, 0.55)), CFG)
                for nu in grid
            ]
            p_d = [
                no_click(state, derive(angle, beta, DetectorPair(0.55, nu)), CFG)
                for nu in grid
            ]
            assert np.all(np.diff(p_c) <= 1e-12)
            assert np.all(np.diff(p_d) <= 1e-12)

    def test_unit_probability_only_for_dark_vacuum(self):
        vac = fock_state(0, CFG)
        coh = coherent_state(1.0, CFG)
        s_plain = derive(0.3, 0.0, DetectorPair(0.8, 0.5))
        assert no_click(vac, s_plain, CFG) == 1.0
        # any signal photons or probe attenuation pull p below 1
        assert no_click(coh, s_plain, CFG) < 1.0
        s_probe = derive(0.3, 0.7, DetectorPair(0.8, 0.5))
        assert no_click(vac, s_probe, CFG) < 1.0

    def test_schedule_probabilities_match_pointwise(self):
        state = coherent_state(1.0, CFG)
        effs = homogeneous_efficiencies(10)
        sched = SingleDetectorRecipe(0.15, effs).build(0.7 + 0.2j)
        batch = schedule_noclick(state, 0.7 + 0.2j, sched)
        single = [no_click(state, derive(0.15, b, DetectorPair(nu, 0.0))) for b, nu in zip(sched.beta[0], effs)]
        np.testing.assert_allclose(batch, single, atol=1e-14)


def derived_gammas(alpha, sched, nu_c, nu_d):
    """The effective displacement each setting of a schedule lands on, (P, M)."""
    return derive_settings(alpha, sched.beta, nu_c, nu_d)[1]


class TestSchedules:
    def test_single_detector_fixed_probe(self):
        target = 0.6 - 0.8j
        effs = homogeneous_efficiencies(30)
        sched = SingleDetectorRecipe(0.3, effs).build(target)
        assert len(sched) == 30
        betas = set(sched.beta[0].tolist())
        assert betas == {-target / math.tan(0.3)}
        assert np.all(np.abs(derived_gammas([0.3] * 30, sched, effs, 0.0) - target) <= 1e-12)
        # the second detector is blind: no attenuation
        assert np.all(sched.y == 0.0)

    def test_single_detector_zero_target(self):
        sched = SingleDetectorRecipe(0.5, (0.3, 0.6)).build(0.0)
        assert np.all(sched.beta == 0.0)

    def test_single_detector_degenerate_angle(self):
        with pytest.raises(ValueError):
            SingleDetectorRecipe(0.0, (0.5,)).build(1.0)
        with pytest.raises(ValueError):
            SingleDetectorRecipe(math.pi / 2, (0.5,)).build(1.0)

    def test_single_detector_bad_efficiency(self):
        with pytest.raises(ValueError):
            SingleDetectorRecipe(0.3, (0.0, 0.5)).build(1.0)

    def test_homogeneous_efficiencies(self):
        effs = homogeneous_efficiencies(30)
        assert effs[0] == 0.1 and effs[-1] == 0.9
        assert np.allclose(np.diff(effs), np.diff(effs)[0])

    def test_dual_detector_roundtrip(self):
        target = 1.1 + 0.4j
        angles = tuple(np.linspace(0.2, 1.3, 12))
        sched = DualDetectorRecipe(DetectorPair(0.45, 0.8), angles).build(target)
        assert np.all(np.abs(derived_gammas(angles, sched, 0.45, 0.8) - target) <= 1e-12)

    def test_dual_detector_worked_example(self):
        # nu_c = 0.3, nu_d = 0.6, alpha = pi/4: nu_bar = 0.45 and beta = 3 gamma
        target = 0.5 + 0.2j
        sched = DualDetectorRecipe(DetectorPair(0.3, 0.6), (math.pi / 4,)).build(target)
        assert sched.nu_bar[0] == pytest.approx(0.45, abs=1e-15)
        assert complex(sched.beta[0, 0]) == pytest.approx(3.0 * target, abs=1e-14)

    def test_dual_detector_zero_target(self):
        sched = DualDetectorRecipe(DetectorPair(0.3, 0.6), (0.4, 0.9)).build(0.0)
        assert np.all(sched.beta == 0.0) and np.all(sched.y == 0.0)

    def test_dual_detector_rejects_degenerate(self):
        with pytest.raises(ValueError):
            DualDetectorRecipe(DetectorPair(0.5, 0.5), (0.4,)).build(1.0)
        with pytest.raises(ValueError):
            DualDetectorRecipe(DetectorPair(0.3, 0.6), (0.0,)).build(1.0)


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
        state = coherent_state(1.0, CFG)
        recipe = SingleDetectorRecipe(0.15, homogeneous_efficiencies(12))
        probs = schedule_noclick(state, 0.3, recipe.build(0.3))
        clicks = simulate(state, [0.3], recipe, CFG, 1000, 0, 0, exact=True)
        for freq, p in zip(clicks.noclick[0] / clicks.n_runs, probs):
            assert freq == pytest.approx(p, abs=1e-16)

    def test_sampled_mode_uses_streams(self):
        state = coherent_state(1.0, CFG)
        recipe = SingleDetectorRecipe(0.15, homogeneous_efficiencies(5))
        sched = recipe.build(0.3)
        probs = schedule_noclick(state, 0.3, sched)
        clicks = simulate(state, [0.3], recipe, CFG, 500, 9, 0, exact=False, offset=3)
        ref = binomial_counts(500, probs[None, :], (9, 0), 3)[0]
        assert clicks.noclick[0].tolist() == ref.tolist()

    def test_offset_streams_match_default_rng(self):
        # points 8k to 8k + 7 of a slice starting at global index `offset` draw
        # their counts from default_rng((seed, repetition, offset + 8k))
        state = coherent_state(1.0, CFG)
        recipe = SingleDetectorRecipe(0.15, homogeneous_efficiencies(6))
        gammas = np.linspace(-0.5, 0.5, 11) + 0.4j
        clicks = simulate(state, gammas, recipe, CFG, 700, 4, 2, exact=False, offset=11)
        sched = recipe.build(gammas)
        probs = no_click_probabilities(state, gammas, sched.nu_bar, sched.y, CFG)
        assert clicks.noclick.tolist() == group_draws(700, probs, (4, 2), 11)


class TestScheduleArrays:
    """``recipe.build`` over many points reproduces the scalar builders of tests/oracles.py.

    Fixed recipes and gammas, signed zeros included; the hypothesis test below
    draws both.
    """

    @pytest.mark.parametrize(
        "recipe, oracle",
        [
            (
                SingleDetectorRecipe(0.15, homogeneous_efficiencies(7)),
                lambda g: single_detector_schedule(g, 0.15, homogeneous_efficiencies(7)),
            ),
            (
                DualDetectorRecipe(DetectorPair(0.3, 0.6), (0.2, 0.5, 0.9, 1.2)),
                lambda g: dual_detector_schedule(g, DetectorPair(0.3, 0.6), (0.2, 0.5, 0.9, 1.2)),
            ),
        ],
        ids=["single", "dual"],
    )
    def test_matches_derive_setting_bit_for_bit(self, recipe, oracle):
        rng = np.random.default_rng(3)
        signed_zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        gammas = np.array([*signed_zeros, -1.5, 2j, *(rng.normal(size=40) + 1j * rng.normal(size=40))])
        sched = recipe.build(gammas)
        for i, g in enumerate(gammas):
            ss = oracle(g).settings
            assert bits(sched.nu_bar) == bits([s.nu_bar for s in ss])
            assert bits(sched.y[i]) == bits([s.y for s in ss])
            # beta agrees up to the sign of a zero part
            assert sched.beta[i].real.tolist() == [s.beta.real for s in ss]
            assert sched.beta[i].imag.tolist() == [s.beta.imag for s in ss]


class TestKeyedBinomial:
    """Rows 8k to 8k + 7 of ``binomial_counts`` are one ``default_rng(key + (offset + 8k,))`` stream's draws."""

    @pytest.mark.parametrize("seed", [0, 2**32 + 7, (3, 2**40, 5, 6)], ids=["zero", "wide", "five-words"])
    def test_matches_default_rng_bit_for_bit(self, seed):
        key = (seed,) if isinstance(seed, int) else seed
        p = np.tile([[0.0, 1.0, 0.37], [0.5, 0.999, 1e-3]], (10, 1))[:19]  # two whole groups and three rows
        for offset in (0, 17, 2**32 - 1, 2**45 + 3):
            got = binomial_counts(10_000, p, key, offset)
            assert got.tolist() == group_draws(10_000, p, key, offset)
            assert got[:1].tolist() == binomial_counts(10_000, p[:1], key, offset).tolist()

    @pytest.mark.parametrize("n_points", [0, 1, 7, 8, 9, 16, 17, 1248])
    def test_one_generator_per_group(self, monkeypatch, n_points):
        keys, default_rng = [], np.random.default_rng

        def spy(key):
            keys.append(key)
            return default_rng(key)

        monkeypatch.setattr(np.random, "default_rng", spy)
        binomial_counts(100, np.full((n_points, 3), 0.5), (1, 0), 5)
        assert keys == [(1, 0, 5 + k) for k in range(0, n_points, 8)]
        assert len(keys) == -(-n_points // measurement.STREAM_POINTS)


# offsets just below 2**32 and 2**64, where the group index gains a uint32 word within one call
OFFSETS = st.sampled_from([2**32, 2**64]).flatmap(lambda edge: st.integers(edge - 20, edge - 1)) | st.integers(0, 2**70)
PROBS = arrays(float, st.tuples(st.integers(0, 24), st.integers(1, 4)), elements=st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    key=st.lists(st.integers(0, 2**70), min_size=1, max_size=6).map(tuple),
    offset=OFFSETS,
    probs=PROBS,
    n_runs=st.integers(0, 10**6),
)
@example(key=(1,), offset=2**32 - 2, probs=np.zeros((0, 3)), n_runs=10)
def test_binomial_counts_match_default_rng_bit_for_bit(key, offset, probs, n_runs):
    got = binomial_counts(n_runs, probs, key, offset)
    assert got.dtype == np.int64 and got.shape == probs.shape
    assert got.tolist() == group_draws(n_runs, probs, key, offset)


@settings(max_examples=60, deadline=None)
@given(offset=OFFSETS, probs=PROBS, data=st.data())
def test_cuts_at_multiples_of_8_draw_the_whole_batch(offset, probs, data):
    # the CLI's blocks start at multiples of cli.BLOCK_ALIGN, a multiple of STREAM_POINTS
    inner = data.draw(st.lists(st.sampled_from(range(8, len(probs), 8)), unique=True)) if len(probs) > 8 else []
    cuts = [0, *sorted(inner), len(probs)]
    pieces = [binomial_counts(1000, probs[a:b], (7, 1), offset + a) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(pieces).tolist() == binomial_counts(1000, probs, (7, 1), offset).tolist()


# real parts with both signed zeros among them
PARTS = st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0])
GAMMAS = st.lists(st.builds(complex, PARTS, PARTS), min_size=1, max_size=6)
ANGLES = st.floats(-4.0, 4.0)
EFFICIENCY = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def recipes(draw):
    """(recipe, scalar builder from tests/oracles.py taking one target gamma)."""
    if draw(st.booleans()):
        alpha = draw(ANGLES)
        effs = tuple(draw(st.lists(EFFICIENCY, min_size=1, max_size=8)))
        return SingleDetectorRecipe(alpha, effs), lambda g: single_detector_schedule(g, alpha, effs)
    nu_c, nu_d = draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda p: abs(p[0] - p[1]) > 1e-6))
    angles = tuple(draw(st.lists(ANGLES, min_size=1, max_size=8)))
    pair = DetectorPair(nu_c, nu_d)
    return DualDetectorRecipe(pair, angles), lambda g: dual_detector_schedule(g, pair, angles)


@settings(max_examples=300, deadline=None)
@given(drawn=recipes(), gammas=GAMMAS)
def test_build_matches_scalar_oracle_bit_for_bit(drawn, gammas):
    # the angles are drawn: a vectorised np.tan or np.cos would round
    # differently from math's for some of them
    recipe, oracle = drawn
    try:
        ref = [oracle(g).settings for g in gammas]
    except ValueError:
        with pytest.raises(ValueError):
            recipe.build(gammas)
        return
    sched = recipe.build(gammas)
    assert len(sched) == len(ref[0])
    assert bits(sched.nu_bar) == bits([s.nu_bar for s in ref[0]])
    for i, settings_i in enumerate(ref):
        assert bits(sched.y[i]) == bits([s.y for s in settings_i])
        # beta agrees up to the sign of a zero part
        assert sched.beta[i].real.tolist() == [s.beta.real for s in settings_i]
        assert sched.beta[i].imag.tolist() == [s.beta.imag for s in settings_i]
