import math

import numpy as np
import pytest

from clicktomo import io_csv
from clicktomo.fock import (
    TruncationConfig,
    coherent_state,
    displaced_diagonals,
    fock_state,
    squeezed_vacuum,
)
from clicktomo.measurement import SingleDetectorRecipe, homogeneous_efficiencies
from clicktomo.wigner import (
    PhaseGrid,
    coherent_wigner,
    delta_w,
    fock_wigner,
    laguerre,
    squeezed_wigner,
    wigner_from_values,
)
from clicktomo.cli import main
from clicktomo.errors import DataError

from oracles import exact_wigner_map, reconstruct, simulate, wigner_scan

CFG = TruncationConfig(12)
RECIPE = SingleDetectorRecipe(alpha=0.15, efficiencies=homogeneous_efficiencies(30))
EM = 1000  # EM steps
EM_FAST = 300


def wigner_exact(state, gamma: complex, cfg: TruncationConfig) -> float:
    """Truncated Wigner value at one point, from a one-point batch of displaced diagonals."""
    return wigner_from_values(displaced_diagonals(state, [gamma])[0, : cfg.n_trunc])


def reconstruct_at(state, gamma, n_iterations, n_runs=10_000, seed=0, exact=False, offset=0):
    """(R, W) at one point by the CLI's path: ``simulate`` then ``reconstruct``.

    ``offset`` is the point's index in a grid run, which keys its generator:
    the point draws what a grid run draws when it is the first of its group.
    """
    clicks = simulate(state, [gamma], RECIPE, CFG, n_runs, seed, 0, exact, offset=offset)
    w, values, _, failed = reconstruct(clicks, CFG.n_trunc, n_iterations)
    assert not failed[0]
    return values[0], w[0]


class TestPhaseGrid:
    def test_cell_centers(self):
        grid = PhaseGrid(-1.0, 1.0, 0.0, 2.0, 4, 2)
        assert grid.d_re == 0.5 and grid.d_im == 1.0
        np.testing.assert_allclose(grid.re_centers, [-0.75, -0.25, 0.25, 0.75])
        np.testing.assert_allclose(grid.im_centers, [0.5, 1.5])
        assert grid.n_points == 8

    def test_flat_order_is_im_major(self):
        grid = PhaseGrid(-1.0, 1.0, 0.0, 2.0, 2, 2)
        flat = grid.flat_gammas()
        assert flat[0] == complex(-0.5, 0.5)
        assert flat[1] == complex(0.5, 0.5)
        assert flat[2] == complex(-0.5, 1.5)

    def test_flat_nodes_equal_the_outer_sum_bit_for_bit(self):
        # the nodes the (n_im, n_re) outer sum gave, so every node column stays byte for byte
        for grid in (PhaseGrid(-1.2, 2.5, -1.2, 2.5, 50, 50), PhaseGrid(-3.0, 3.0, -1.0, 1.0, 7, 5)):
            outer = (grid.re_centers[None, :] + 1j * grid.im_centers[:, None]).ravel()
            flat = grid.flat_gammas()
            assert flat.shape == (grid.n_points,)
            assert np.array_equal(flat.view(np.uint64), outer.view(np.uint64))

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseGrid(1.0, -1.0, 0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            PhaseGrid(-1.0, 1.0, 0.0, 1.0, 0, 2)


class TestAnalyticWigner:
    def test_coherent_peak(self):
        w = coherent_wigner(1.0)
        assert w(np.array([1.0 + 0.0j]))[0] == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_squeezed_matches_truncated(self):
        s = math.atanh(0.5)
        state = squeezed_vacuum(s, TruncationConfig(40, 80))
        w = squeezed_wigner(s)
        for g in (0.0, 0.3 + 0.4j, -0.2 + 1.5j):
            numeric = wigner_exact(state, g, TruncationConfig(40, 80))
            assert w(np.array([g]))[0] == pytest.approx(numeric, abs=1e-8)

    def test_fock_matches_truncated(self):
        state = fock_state(2, TruncationConfig(30, 60))
        w = fock_wigner(2)
        for g in (0.0, 0.5, 0.8j):
            numeric = wigner_exact(state, g, TruncationConfig(30, 60))
            assert w(np.array([g]))[0] == pytest.approx(numeric, abs=1e-9)


class TestLaguerre:
    def test_matches_scipy_eval_laguerre_bit_for_bit(self):
        from scipy.special import eval_laguerre

        x = np.linspace(0.0, 200.0, 70_001)
        for n in range(-1, 61):
            assert np.array_equal(laguerre(n, x), eval_laguerre(n, x)), n


class TestReconstructPoint:
    # Saturated no-click data (p_j = 1) are a boundary case for the
    # multiplicative iteration: the non-vacuum residual decays like 1/k, so
    # 10^3 iterations leave a ~1e-2 deficit in W.  The tolerances below were
    # measured at that operating point; with 10x the iterations the deficit
    # shrinks by roughly 10x.
    def test_vacuum_origin_exact_mode(self):
        state = fock_state(0, CFG)
        _, w = reconstruct_at(state, 0.0, EM, exact=True)
        assert w == pytest.approx(2.0 / math.pi, abs=2e-2)
        assert w <= 2.0 / math.pi + 1e-12

    def test_coherent_at_its_peak(self):
        state = coherent_state(1.0, CFG)
        _, w = reconstruct_at(state, 1.0, EM, exact=True)
        assert w == pytest.approx(2.0 / math.pi, abs=2e-2)

    def test_sampled_reproducibility(self):
        state = coherent_state(1.0, CFG)
        a = reconstruct_at(state, 0.5, EM_FAST, n_runs=2000, seed=3)
        b = reconstruct_at(state, 0.5, EM_FAST, n_runs=2000, seed=3)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestScanGrid:
    def test_single_node_equals_reconstruct_point(self):
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(0.0, 1.0, -0.5, 0.5, 1, 1)
        w_map = wigner_scan(state, grid, RECIPE, CFG, EM_FAST, n_runs=2000, seed=11)
        _, w = reconstruct_at(state, grid.flat_gammas()[0], EM_FAST, n_runs=2000, seed=11)
        assert w_map[0] == w

    def test_determinism(self):
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 3, 3)
        a = wigner_scan(state, grid, RECIPE, CFG, EM_FAST, n_runs=1000, seed=2)
        b = wigner_scan(state, grid, RECIPE, CFG, EM_FAST, n_runs=1000, seed=2)
        assert np.array_equal(a, b)

    def test_matches_per_point_runs(self):
        # each point reconstructs alone from its row of its own group's draws:
        # the groups of 8 points start at offsets 0 and 8
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 3, 3)
        gammas = grid.flat_gammas()
        w_map = wigner_scan(state, grid, RECIPE, CFG, EM_FAST, n_runs=1500, seed=5)
        for k in range(gammas.size):
            start = k - k % 8
            clicks = simulate(state, gammas[start : start + 8], RECIPE, CFG, 1500, 5, 0, False, offset=start)
            row = slice(k - start, k - start + 1)
            point = clicks._replace(gammas=clicks.gammas[row], y=clicks.y[row], noclick=clicks.noclick[row])
            w, _, _, failed = reconstruct(point, CFG.n_trunc, EM_FAST)
            assert not failed[0] and abs(w_map[k] - w[0]) < 1e-12
        _, w = reconstruct_at(state, gammas[8], EM_FAST, n_runs=1500, seed=5, offset=8)  # a group's first point
        assert abs(w_map[8] - w) < 1e-12

    def test_keep_r_tables(self):
        # the fit returns the R table of every point beside W
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(-0.5, 0.5, -0.5, 0.5, 2, 2)
        clicks = simulate(state, grid.flat_gammas(), RECIPE, CFG, 10_000, 0, 0, True)
        _, r_tables, _, _ = reconstruct(clicks, CFG.n_trunc, EM_FAST)
        assert r_tables.shape == (4, 12)
        np.testing.assert_allclose(r_tables.sum(axis=1), 1.0, atol=1e-12)

    def test_photon_number_mode_at_origin(self):
        # gamma = 0 reconstructs the photon-number distribution itself
        state = coherent_state(1.0, CFG)
        values, _ = reconstruct_at(state, 0.0, EM, exact=True)
        occupation = np.abs(state[:12]) ** 2
        assert np.max(np.abs(values - occupation)) <= 1e-2


class TestReadOff:
    @pytest.mark.parametrize("failing", [False, True], ids=["sampled", "with_failures"])
    def test_batched_read_off_matches_the_per_point_sum(self, failing):
        # W comes from one batched dot over every point; it must agree with the
        # per-point sum to rounding, and failed points must read NaN
        from clicktomo.measurement import DetectorPair, DualDetectorRecipe

        state = coherent_state(0.3 if failing else 1.0, CFG)
        if failing:  # far nodes sit at e^y below the floor, as in TestScanFailures
            recipe = DualDetectorRecipe(DetectorPair(0.4, 0.5), tuple(np.linspace(0.3, 1.2, 14)))
            gammas = PhaseGrid(0.0, 2.0, -0.25, 0.25, 4, 1).flat_gammas()
        else:
            recipe, gammas = RECIPE, PhaseGrid(-1.2, 2.5, -1.2, 2.5, 6, 6).flat_gammas()
        clicks = simulate(state, gammas, recipe, CFG, 2000, 4, 0, exact=failing)
        w, values, _, failed = reconstruct(clicks, CFG.n_trunc, EM_FAST)
        per_point = [math.nan if bad else wigner_from_values(v) for v, bad in zip(values, failed)]
        np.testing.assert_allclose(w, per_point, rtol=0.0, atol=1e-15)
        assert failed.any() == failing and np.array_equal(np.isnan(w), failed)


class TestScanFailures:
    def test_failed_points_recorded_and_scan_continues(self):
        # nearly equal efficiencies need a huge probe; far nodes then sit at
        # e^y below the floor and collapse, near nodes still reconstruct
        from clicktomo.measurement import DetectorPair, DualDetectorRecipe

        recipe = DualDetectorRecipe(
            detectors=DetectorPair(0.4, 0.5), angles=tuple(np.linspace(0.3, 1.2, 14))
        )
        state = coherent_state(0.3, CFG)
        grid = PhaseGrid(0.0, 2.0, -0.25, 0.25, 4, 1)
        clicks = simulate(state, grid.flat_gammas(), recipe, CFG, 10_000, 0, 0, True)
        w, _, _, failed = reconstruct(clicks, CFG.n_trunc, EM_FAST)
        assert failed.any() and not failed.all()
        assert np.all(np.isnan(w[failed])) and np.all(np.isfinite(w[~failed]))


class TestExactVersusSampled:
    def test_exact_pipeline_never_worse(self):
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(-1.2, 2.5, -1.2, 2.5, 6, 6)
        analytic = coherent_wigner(1.0)(grid.flat_gammas())
        exact_d = delta_w(analytic, wigner_scan(state, grid, RECIPE, CFG, EM, n_runs=10_000, exact=True))
        sampled = [
            delta_w(analytic, wigner_scan(state, grid, RECIPE, CFG, EM, n_runs=1000, seed=s))
            for s in range(3)
        ]
        assert exact_d <= np.median(sampled)


class TestDeltaW:
    def test_identical_maps(self):
        grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
        w = coherent_wigner(0.0)(grid.flat_gammas())
        assert delta_w(w, w) == 0.0

    def test_constant_offset(self):
        grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
        a = coherent_wigner(0.0)(grid.flat_gammas())
        assert delta_w(a, a + 0.01) == pytest.approx(0.01, abs=1e-15)

    def test_grid_mismatch(self):
        a = coherent_wigner(0.0)(PhaseGrid(-1, 1, -1, 1, 5, 5).flat_gammas())
        b = coherent_wigner(0.0)(PhaseGrid(-1, 1, -1, 1, 4, 4).flat_gammas())
        with pytest.raises(DataError):
            delta_w(a, b)
        with pytest.raises(DataError):
            delta_w(a, a.reshape(5, 5))

    def test_only_finite_entries_count(self):
        # NaN in either map (a failed node, a missing reference) drops the entry
        ref = np.array([0.1, 0.2, np.nan, 0.4])
        rec = np.array([0.2, np.nan, 0.3, 0.1])
        assert delta_w(ref, rec) == pytest.approx(0.2, abs=1e-15)
        assert math.isnan(delta_w(ref, np.full(4, np.nan)))


REP_RUN = """
[state]
kind = coherent
re_amplitude = 1.0

[truncation]
n_trunc = 12

[detectors]
mode = single
alpha = 0.15
n_efficiencies = 30

[grid]
re_min = -0.5
re_max = 1.5
im_min = -1.0
im_max = 1.0
n_re = 2
n_im = 2

[run]
n_runs = 500
n_iterations = 300
seed = 4
repetitions = {repetitions}
"""


def reconstructed_variance(tmp_path, repetitions):
    """The ``w_variance`` column that ``reconstruct`` writes over every repetition of REP_RUN."""
    cfg = tmp_path / "rep.ini"
    cfg.write_text(REP_RUN.format(repetitions=repetitions))
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["clicks.csv"]
    assert main(["reconstruct", "--config", str(cfg), "--records", str(out / "clicks.csv"), "--out", str(out)]) == 0
    return io_csv.read_wigner_csv(out / "wigner.csv")[2]["w_variance"]


class TestVarianceMap:
    # the variance map is the w_variance column of ``reconstruct`` over repetitions
    def test_two_repetitions_equal_half_difference_squared(self, tmp_path):
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 2, 2)
        maps = [
            reconstruct(simulate(state, grid.flat_gammas(), RECIPE, CFG, 500, 4, r, False), CFG.n_trunc, EM_FAST)[0]
            for r in (0, 1)
        ]
        var = reconstructed_variance(tmp_path, 2)
        np.testing.assert_allclose(var, ((maps[0] - maps[1]) / 2.0) ** 2, atol=1e-16)

    def test_needs_two_repetitions(self, tmp_path):
        # one repetition has no variance: the column is NaN, not zero
        assert np.all(np.isnan(reconstructed_variance(tmp_path, 1)))


def truncation_error(state, grid, trunc, reference):
    """|W_reference - W_truncated| per node, W_truncated being ``exact_wigner_map``."""
    return np.abs(reference - exact_wigner_map(state, grid, trunc))


class TestTruncationErrorMap:
    def test_small_at_coherent_peak(self):
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(0.96, 1.04, -0.04, 0.04, 1, 1)
        err = truncation_error(state, grid, CFG, coherent_wigner(1.0)(grid.flat_gammas()))
        assert err[0] < 1e-8

    def test_grows_toward_corners(self):
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(-1.2, 2.5, -1.2, 2.5, 11, 11)
        err = truncation_error(state, grid, CFG, coherent_wigner(1.0)(grid.flat_gammas())).reshape(11, 11)
        corner = max(err[0, 0], err[0, -1], err[-1, 0], err[-1, -1])
        peak = err[6, 6]  # node nearest gamma = 1
        assert corner > peak

    def test_nested_truncation_never_worse(self):
        state = coherent_state(1.0, TruncationConfig(12, 64))
        grid = PhaseGrid(-1.2, 2.5, -1.2, 2.5, 8, 8)
        analytic = coherent_wigner(1.0)(grid.flat_gammas())
        coarse = truncation_error(state, grid, TruncationConfig(12, 64), analytic)
        fine = truncation_error(state, grid, TruncationConfig(24, 64), analytic)
        assert np.all(fine <= coarse + 1e-12)

    def test_numeric_reference_default(self):
        # the map over the whole working dimension stands in for the analytic one
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(-1.2, 2.5, -1.2, 2.5, 5, 5)
        padded = exact_wigner_map(state, grid, TruncationConfig(CFG.n_pad, CFG.n_pad))
        numeric = truncation_error(state, grid, CFG, padded)
        analytic = truncation_error(state, grid, CFG, coherent_wigner(1.0)(grid.flat_gammas()))
        np.testing.assert_allclose(numeric, analytic, atol=1e-6)


class TestExactWignerMap:
    def test_matches_pointwise_evaluation(self):
        state = coherent_state(1.0, CFG)
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 3, 2)
        w = exact_wigner_map(state, grid, CFG)
        for k, g in enumerate(grid.flat_gammas()):
            assert w[k] == pytest.approx(wigner_exact(state, g, CFG), abs=1e-14)
