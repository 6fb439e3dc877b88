import math
from pathlib import Path

import numpy as np
import pytest

from clicktomo.fock import (
    TruncationConfig,
    coherent_state,
    density_from_pure,
    displace,
    fock_state,
    squeezed_vacuum,
)
from clicktomo.recover import compare_states, integrate_rho
from clicktomo.wigner import PhaseGrid, WignerEstimate, coherent_wigner, exact_wigner_map, squeezed_wigner
from clicktomo.config import build_state, load_config

from oracles import displacement_expm, dmn_kernel as dmn_kernel_reference

CFG = TruncationConfig(12)
ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(ROOT.glob("configs/*.ini")) + sorted(ROOT.glob("bench/configs/*.ini"))


def dmn_kernel(m: int, n: int, gamma) -> "complex | np.ndarray":
    """Quadrature kernel K_mn(2 gamma) = <m|D(2 gamma)|n>, through the batched kernel."""
    g = 2.0 * np.asarray(gamma, dtype=complex)
    column = displace(np.atleast_1d(g), np.eye(80)[n])[:, m]
    return complex(column[0]) if g.ndim == 0 else column


def integrate_rho_reference(wigner: WignerEstimate, n_trunc: int) -> np.ndarray:
    """The element-by-element quadrature that the moment matrix replaced, before hermitization."""
    grid = wigner.grid
    gammas = grid.flat_gammas()
    w = wigner.w_values
    raw = np.empty((n_trunc, n_trunc), dtype=complex)
    for mm in range(n_trunc):
        for nn in range(n_trunc):
            kern = dmn_kernel_reference(mm, nn, gammas)
            raw[mm, nn] = 2.0 * (-1.0) ** nn * grid.d_re * grid.d_im * np.dot(w, kern)
    return 0.5 * (raw + raw.conj().T)


class TestDmnKernel:
    def test_zero_order(self):
        for g in (0.3, 0.5 - 0.7j, 1.2j):
            assert dmn_kernel(0, 0, g) == pytest.approx(math.exp(-2.0 * abs(g) ** 2), rel=1e-13)

    def test_identity_at_origin(self):
        for m in range(5):
            for n in range(5):
                expected = 1.0 if m == n else 0.0
                assert dmn_kernel(m, n, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_matches_displacement_elements(self):
        # the kernel is the displacement matrix evaluated at twice the argument
        g = 0.35 - 0.2j
        ref = displacement_expm(2.0 * g, 40)
        for m in range(7):
            for n in range(7):
                assert dmn_kernel(m, n, g) == pytest.approx(ref[m, n], abs=1e-11)

    def test_index_swap_symmetry(self):
        # discovered numerically: swapping indices conjugates and flips sign
        # with the parity of m - n
        rng = np.random.default_rng(2)
        for _ in range(30):
            m, n = rng.integers(0, 7, 2)
            g = complex(*rng.uniform(-1.0, 1.0, 2)) * 2.0
            lhs = dmn_kernel(int(m), int(n), g)
            rhs = (-1.0) ** (m - n) * np.conjugate(dmn_kernel(int(n), int(m), g))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        gs = np.array([0.1, 0.2 + 0.3j, -0.5j])
        vec = dmn_kernel(2, 4, gs)
        for k, g in enumerate(gs):
            assert vec[k] == dmn_kernel(2, 4, complex(g))


class TestIntegrateRho:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_matches_the_reference_quadrature_on_shipped_maps(self, path):
        cfg = load_config(path)
        est = exact_wigner_map(build_state(cfg), cfg.grid, cfg.trunc)
        ours = integrate_rho(est, cfg.trunc.n_trunc).elements
        ref = integrate_rho_reference(est, cfg.trunc.n_trunc)
        assert np.max(np.abs(ours - ref)) <= 1e-10

    def test_vacuum_quadrature(self):
        grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 80, 80)
        est = WignerEstimate(grid=grid, w_values=coherent_wigner(0.0)(grid.flat_gammas()))
        rec = integrate_rho(est, 6)
        assert rec.elements[0, 0].real == pytest.approx(1.0, abs=1e-3)
        off = np.abs(rec.elements).copy()
        off[0, 0] = 0.0
        assert np.max(off) < 1e-3
        assert rec.trace == pytest.approx(1.0, abs=2e-3)
        assert not rec.trace_warning

    def test_zero_map_gives_zero_matrix(self):
        grid = PhaseGrid(-2.0, 2.0, -2.0, 2.0, 20, 20)
        est = WignerEstimate(grid=grid, w_values=np.zeros(grid.n_points))
        rec = integrate_rho(est, 5)
        assert np.all(rec.elements == 0.0)

    def test_linearity(self):
        grid = PhaseGrid(-3.0, 3.0, -3.0, 3.0, 30, 30)
        w1 = WignerEstimate(grid=grid, w_values=coherent_wigner(0.5)(grid.flat_gammas()))
        w2 = WignerEstimate(grid=grid, w_values=coherent_wigner(-0.3j)(grid.flat_gammas()))
        both = WignerEstimate(grid=grid, w_values=w1.w_values + w2.w_values)
        lhs = integrate_rho(both, 6).elements
        rhs = integrate_rho(w1, 6).elements + integrate_rho(w2, 6).elements
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_complex_coherent_roundtrip(self):
        # pins the index order of the kernel: a complex-amplitude state
        # must come back as itself, not its transpose or parity twin
        alpha0 = 0.6 + 0.4j
        grid = PhaseGrid(-3.5, 3.5, -3.5, 3.5, 70, 70)
        est = WignerEstimate(grid=grid, w_values=coherent_wigner(alpha0)(grid.flat_gammas()))
        rec = integrate_rho(est, 10)
        exact = density_from_pure(coherent_state(alpha0, TruncationConfig(10, 40)))
        comp = compare_states(rec, exact.elements[:10, :10])
        assert comp["fidelity"] > 0.999
        assert comp["max_abs_diff"] < 1e-3

    def test_grid_refinement_cauchy(self):
        exact = density_from_pure(coherent_state(0.5, TruncationConfig(8, 40))).elements[:8, :8]
        diffs = []
        prev = None
        for n in (20, 40, 80):
            grid = PhaseGrid(-3.5, 3.5, -3.5, 3.5, n, n)
            w = coherent_wigner(0.5)(grid.flat_gammas())
            rec = integrate_rho(WignerEstimate(grid=grid, w_values=w), 8).elements
            if prev is not None:
                diffs.append(np.max(np.abs(rec - prev)))
            prev = rec
        assert diffs[1] <= diffs[0]

    def test_hermitization_residual_reported(self):
        grid = PhaseGrid(-3.0, 3.0, -3.0, 3.0, 40, 40)
        rng = np.random.default_rng(0)
        noisy = WignerEstimate(
            grid=grid, w_values=0.02 * rng.standard_normal(grid.n_points)
        )
        rec = integrate_rho(noisy, 6)
        assert rec.hermitization_residual >= 0.0
        np.testing.assert_allclose(rec.elements, rec.elements.conj().T, atol=1e-15)

    def test_trace_warning_flag(self):
        grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 10, 10)
        est = WignerEstimate(grid=grid, w_values=np.zeros(grid.n_points))
        assert integrate_rho(est, 4).trace_warning

    def test_skips_non_finite_nodes(self):
        grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 80, 80)
        w = coherent_wigner(0.0)(grid.flat_gammas())
        w[0] = np.nan
        rec = integrate_rho(WignerEstimate(grid=grid, w_values=w), 4)
        assert rec.elements[0, 0].real == pytest.approx(1.0, abs=2e-3)

    def test_corner_region_contribution_is_small(self):
        # the kernel kills the outer band, where a truncated Wigner map is
        # least reliable
        s = math.atanh(0.5)
        rho = density_from_pure(squeezed_vacuum(s, CFG))
        grid = PhaseGrid(-1.0, 1.0, -3.0, 3.0, 50, 50)
        est = exact_wigner_map(rho, grid, CFG)
        full = integrate_rho(est, 5).elements
        gam = grid.flat_gammas()
        outer = (np.abs(gam.real) > 0.8) & (np.abs(gam.imag) > 2.4)
        w_inner = est.w_values.copy()
        w_inner[outer] = 0.0
        inner = integrate_rho(WignerEstimate(grid=grid, w_values=w_inner), 5).elements
        scale = np.max(np.abs(full))
        assert np.max(np.abs(full - inner)) < 0.05 * scale


class TestCompareStates:
    def test_identical(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        comp = compare_states(rho, rho)
        assert comp["max_abs_diff"] == 0.0
        assert comp["trace_distance"] == pytest.approx(0.0, abs=1e-12)
        # the eigh-based Uhlmann chain carries a few 1e-8 of rounding
        assert comp["fidelity"] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_states(self):
        a = density_from_pure(fock_state(0, CFG))
        b = density_from_pure(fock_state(1, CFG))
        comp = compare_states(a, b)
        assert comp["fidelity"] == pytest.approx(0.0, abs=1e-12)
        assert comp["trace_distance"] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare_states(np.eye(3), np.eye(4))

    def test_coherent_roundtrip_fidelity(self):
        grid = PhaseGrid(-2.5, 4.5, -3.5, 3.5, 70, 70)
        est = WignerEstimate(grid=grid, w_values=coherent_wigner(1.0)(grid.flat_gammas()))
        rec = integrate_rho(est, 12)
        exact = density_from_pure(coherent_state(1.0, CFG)).elements[:12, :12]
        assert compare_states(rec, exact)["fidelity"] >= 0.99
