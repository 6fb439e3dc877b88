import math

import numpy as np
import pytest

from clicktomo import (
    EMConfig,
    PhaseGrid,
    SingleDetectorRecipe,
    TruncationConfig,
    coherent_state,
    coherent_wigner,
    delta_w,
    density_from_pure,
    displaced_diagonals,
    exact_wigner_map,
    fock_state,
    fock_wigner,
    homogeneous_efficiencies,
    recommend_truncation,
    reconstruct_point,
    scan_grid,
    simulate,
    squeezed_vacuum,
    squeezed_wigner,
    truncation_error_map,
    variance_map,
    wigner_from_values,
    wigner_map_from_function,
)
from clicktomo.errors import DataError
from clicktomo.wigner import laguerre, reconstruct_clicks

CFG = TruncationConfig(12)
RECIPE = SingleDetectorRecipe(alpha=0.15, efficiencies=homogeneous_efficiencies(30))
EM = EMConfig(n_iterations=1000)
EM_FAST = EMConfig(n_iterations=300)


def wigner_exact(rho, gamma: complex, cfg: TruncationConfig) -> float:
    """Truncated Wigner value at one point, from a one-point batch of displaced diagonals."""
    return wigner_from_values(displaced_diagonals(rho, [gamma], cfg)[0, : cfg.n_trunc])


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
        rho = density_from_pure(squeezed_vacuum(s, TruncationConfig(40, 80)))
        w = squeezed_wigner(s)
        for g in (0.0, 0.3 + 0.4j, -0.2 + 1.5j):
            numeric = wigner_exact(rho, g, TruncationConfig(40, 80))
            assert w(np.array([g]))[0] == pytest.approx(numeric, abs=1e-8)

    def test_fock_matches_truncated(self):
        rho = density_from_pure(fock_state(2, TruncationConfig(30, 60)))
        w = fock_wigner(2)
        for g in (0.0, 0.5, 0.8j):
            numeric = wigner_exact(rho, g, TruncationConfig(30, 60))
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
        rho = density_from_pure(fock_state(0, CFG))
        _, w = reconstruct_point(rho, 0.0, RECIPE, CFG, EM, exact=True)
        assert w == pytest.approx(2.0 / math.pi, abs=2e-2)
        assert w <= 2.0 / math.pi + 1e-12

    def test_coherent_at_its_peak(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        _, w = reconstruct_point(rho, 1.0, RECIPE, CFG, EM, exact=True)
        assert w == pytest.approx(2.0 / math.pi, abs=2e-2)

    def test_sampled_reproducibility(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        a = reconstruct_point(rho, 0.5, RECIPE, CFG, EM_FAST, n_runs=2000, seed=3)
        b = reconstruct_point(rho, 0.5, RECIPE, CFG, EM_FAST, n_runs=2000, seed=3)
        assert np.array_equal(a[0].values, b[0].values) and a[1] == b[1]


class TestScanGrid:
    def test_single_node_equals_reconstruct_point(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(0.0, 1.0, -0.5, 0.5, 1, 1)
        est = scan_grid(rho, grid, RECIPE, CFG, EM_FAST, n_runs=2000, seed=11)
        _, w = reconstruct_point(
            rho, grid.flat_gammas()[0], RECIPE, CFG, EM_FAST, n_runs=2000, seed=11
        )
        assert est.w_values[0, 0] == w

    def test_determinism(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 3, 3)
        a = scan_grid(rho, grid, RECIPE, CFG, EM_FAST, n_runs=1000, seed=2)
        b = scan_grid(rho, grid, RECIPE, CFG, EM_FAST, n_runs=1000, seed=2)
        assert np.array_equal(a.w_values, b.w_values)

    def test_matches_per_point_runs(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 2, 2)
        est = scan_grid(rho, grid, RECIPE, CFG, EM_FAST, n_runs=1500, seed=5)
        for k, g in enumerate(grid.flat_gammas()):
            _, w = reconstruct_point(
                rho, g, RECIPE, CFG, EM_FAST, n_runs=1500, seed=5, point_index=k
            )
            assert abs(est.w_values.ravel()[k] - w) < 1e-12

    def test_keep_r_tables(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-0.5, 0.5, -0.5, 0.5, 2, 2)
        est = scan_grid(rho, grid, RECIPE, CFG, EM_FAST, exact=True, keep_r=True)
        assert est.r_tables.shape == (4, 12)
        np.testing.assert_allclose(est.r_tables.sum(axis=1), 1.0, atol=1e-12)

    def test_photon_number_mode_at_origin(self):
        # gamma = 0 reconstructs the photon-number distribution itself
        rho = density_from_pure(coherent_state(1.0, CFG))
        dist, _ = reconstruct_point(rho, 0.0, RECIPE, CFG, EM, exact=True)
        occupation = np.real(np.diag(rho.elements))[:12]
        assert np.max(np.abs(dist.values - occupation)) <= 1e-2


class TestReconstructClicks:
    @pytest.mark.parametrize("failing", [False, True], ids=["sampled", "with_failures"])
    def test_batched_read_off_matches_the_per_point_sum(self, failing):
        # W comes from one batched dot over every point; it must agree with the
        # per-point sum to rounding, and failed points must read NaN
        from clicktomo import DetectorPair, DualDetectorRecipe

        rho = density_from_pure(coherent_state(0.3 if failing else 1.0, CFG))
        if failing:  # far nodes sit at e^y below the floor, as in TestScanFailures
            recipe = DualDetectorRecipe(DetectorPair(0.4, 0.5), tuple(np.linspace(0.3, 1.2, 14)))
            gammas = PhaseGrid(0.0, 2.0, -0.25, 0.25, 4, 1).flat_gammas()
        else:
            recipe, gammas = RECIPE, PhaseGrid(-1.2, 2.5, -1.2, 2.5, 6, 6).flat_gammas()
        clicks = simulate(rho, gammas, recipe, CFG, 2000, 4, 0, exact=failing)
        w, values, _, failed = reconstruct_clicks(clicks, CFG.n_trunc, EM_FAST)
        per_point = [math.nan if bad else wigner_from_values(v) for v, bad in zip(values, failed)]
        np.testing.assert_allclose(w, per_point, rtol=0.0, atol=1e-15)
        assert failed.any() == failing and np.array_equal(np.isnan(w), failed)


class TestScanFailures:
    def test_failed_points_recorded_and_scan_continues(self):
        # nearly equal efficiencies need a huge probe; far nodes then sit at
        # e^y below the floor and collapse, near nodes still reconstruct
        from clicktomo import DetectorPair, DualDetectorRecipe

        recipe = DualDetectorRecipe(
            detectors=DetectorPair(0.4, 0.5), angles=tuple(np.linspace(0.3, 1.2, 14))
        )
        rho = density_from_pure(coherent_state(0.3, CFG))
        grid = PhaseGrid(0.0, 2.0, -0.25, 0.25, 4, 1)
        est = scan_grid(rho, grid, recipe, CFG, EM_FAST, exact=True)
        flat = est.w_values.ravel()
        assert len(est.failures) > 0
        failed_idx = {i for i, _ in est.failures}
        assert all(np.isnan(flat[i]) for i in failed_idx)
        ok_idx = set(range(flat.size)) - failed_idx
        assert ok_idx and all(np.isfinite(flat[i]) for i in ok_idx)


class TestExactVersusSampled:
    def test_exact_pipeline_never_worse(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-1.2, 2.5, -1.2, 2.5, 6, 6)
        analytic = wigner_map_from_function(grid, coherent_wigner(1.0))
        exact_d = delta_w(analytic, scan_grid(rho, grid, RECIPE, CFG, EM, exact=True)).delta_w
        sampled = [
            delta_w(
                analytic, scan_grid(rho, grid, RECIPE, CFG, EM, n_runs=1000, seed=s)
            ).delta_w
            for s in range(3)
        ]
        assert exact_d <= np.median(sampled)


class TestDeltaW:
    def test_identical_maps(self):
        grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
        est = wigner_map_from_function(grid, coherent_wigner(0.0))
        report = delta_w(est, est)
        assert report.delta_w == 0.0
        assert report.n_points == 25

    def test_constant_offset(self):
        grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
        a = wigner_map_from_function(grid, coherent_wigner(0.0))
        from clicktomo import WignerEstimate

        b = WignerEstimate(grid=grid, w_values=a.w_values + 0.01)
        assert delta_w(a, b).delta_w == pytest.approx(0.01, abs=1e-15)

    def test_grid_mismatch(self):
        a = wigner_map_from_function(PhaseGrid(-1, 1, -1, 1, 5, 5), coherent_wigner(0.0))
        b = wigner_map_from_function(PhaseGrid(-1, 1, -1, 1, 4, 4), coherent_wigner(0.0))
        with pytest.raises(DataError):
            delta_w(a, b)


class TestVarianceMap:
    def test_exact_mode_is_zero(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 2, 2)
        var = variance_map(rho, grid, RECIPE, CFG, EM_FAST, n_repetitions=2, exact=True)
        assert np.all(var == 0.0)

    def test_two_repetitions_equal_half_difference_squared(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 2, 2)
        maps = [
            scan_grid(rho, grid, RECIPE, CFG, EM_FAST, n_runs=500, seed=4, repetition=r).w_values
            for r in (0, 1)
        ]
        var = variance_map(rho, grid, RECIPE, CFG, EM_FAST, n_runs=500, n_repetitions=2, seed=4)
        np.testing.assert_allclose(var, ((maps[0] - maps[1]) / 2.0) ** 2, atol=1e-16)

    def test_needs_two_repetitions(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            variance_map(rho, grid, RECIPE, CFG, EM_FAST, n_repetitions=1)


class TestTruncationErrorMap:
    def test_small_at_coherent_peak(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(0.96, 1.04, -0.04, 0.04, 1, 1)
        err = truncation_error_map(rho, grid, CFG, reference=coherent_wigner(1.0))
        assert err[0, 0] < 1e-8

    def test_grows_toward_corners(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-1.2, 2.5, -1.2, 2.5, 11, 11)
        err = truncation_error_map(rho, grid, CFG, reference=coherent_wigner(1.0))
        corner = max(err[0, 0], err[0, -1], err[-1, 0], err[-1, -1])
        peak = err[6, 6]  # node nearest gamma = 1
        assert corner > peak

    def test_nested_truncation_never_worse(self):
        rho = density_from_pure(coherent_state(1.0, TruncationConfig(12, 64)))
        grid = PhaseGrid(-1.2, 2.5, -1.2, 2.5, 8, 8)
        coarse = truncation_error_map(rho, grid, TruncationConfig(12, 64), reference=coherent_wigner(1.0))
        fine = truncation_error_map(rho, grid, TruncationConfig(24, 64), reference=coherent_wigner(1.0))
        assert np.all(fine <= coarse + 1e-12)

    def test_numeric_reference_default(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-1.2, 2.5, -1.2, 2.5, 5, 5)
        numeric = truncation_error_map(rho, grid, CFG)
        analytic = truncation_error_map(rho, grid, CFG, reference=coherent_wigner(1.0))
        np.testing.assert_allclose(numeric, analytic, atol=1e-6)


class TestExactWignerMap:
    def test_matches_pointwise_evaluation(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        grid = PhaseGrid(-0.5, 1.5, -1.0, 1.0, 3, 2)
        est = exact_wigner_map(rho, grid, CFG)
        for k, g in enumerate(grid.flat_gammas()):
            assert est.w_values.ravel()[k] == pytest.approx(wigner_exact(rho, g, CFG), abs=1e-14)


class TestRecommendTruncation:
    def test_coherent_one(self):
        rho = density_from_pure(coherent_state(1.0, TruncationConfig(12, 64)))
        assert recommend_truncation(rho) == 7

    def test_fock_state(self):
        rho = density_from_pure(fock_state(3, CFG))
        assert recommend_truncation(rho) == 4
