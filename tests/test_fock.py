import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clicktomo.fock import (
    DensityMatrix,
    TruncationConfig,
    coherent_state,
    density_from_pure,
    displace,
    displaced_diagonals,
    displacement_coefficients,
    fock_state,
    squeezed_vacuum,
)
from clicktomo.wigner import wigner_from_values
from clicktomo.errors import NumericalError

from oracles import (
    coherent_amps_direct,
    displaced_diagonal_expm,
    displaced_diagonal_mp,
    displaced_diagonal_padded,
    displacement_expm,
    displace_row_major,
    poisson_pmf,
    squeezed_amps_direct,
)

CFG = TruncationConfig(12)
WIDE = TruncationConfig(12, 2048)  # the largest n_pad a config accepts


def displacement_matrix(gamma: complex, cfg: TruncationConfig) -> np.ndarray:
    """Dense D(gamma) on n_pad: the kernel applied to every basis vector gives its columns."""
    return displace(np.full(cfg.n_pad, gamma), np.eye(cfg.n_pad)).T


def diagonal(amps: np.ndarray, gamma: complex) -> np.ndarray:
    return displaced_diagonals(amps, [gamma])[0]


def wigner_exact(amps: np.ndarray, gamma: complex, cfg: TruncationConfig) -> float:
    """W at gamma from the state zero-padded to ``cfg.n_pad`` levels, its first ``n_trunc`` diagonals."""
    return wigner_from_values(diagonal(np.pad(amps, (0, cfg.n_pad - amps.size)), gamma)[: cfg.n_trunc])


def norm_deficit(amps: np.ndarray) -> float:
    """Probability mass lost to truncation: 1 - sum |amplitudes|^2."""
    return 1.0 - float(np.real(np.vdot(amps, amps)))


class TestDisplacementCoefficients:
    @pytest.mark.parametrize("dim", [44, 100])
    def test_within_4e_15_of_the_exact_values(self, dim):
        table = displacement_coefficients(dim)
        worst = Fraction(0)
        for d in range(dim):
            assert not table[d, dim - d :].any()  # zero where k + d >= dim
            for k in range(dim - d):
                # c = sqrt(R) (1 + e) with R = (k+d)! / (k! d!^2) exactly, so (c^2 / R - 1) / 2 = e + e^2 / 2
                exact = Fraction(math.comb(k + d, d), math.factorial(d))
                worst = max(worst, abs(Fraction(float(table[d, k])) ** 2 / exact - 1) / 2)
        assert worst <= Fraction(4, 10**15)

    def test_cached_read_only(self):
        table = displacement_coefficients(44)
        assert displacement_coefficients(44) is table
        assert not table.flags.writeable

    def test_builds_the_largest_table_in_place(self):
        # the uncached function at config.MAX_PAD: no other (dim, dim) array is formed on the way
        tracemalloc.start()
        try:
            table = displacement_coefficients.__wrapped__(2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * table.nbytes


class TestTruncationConfig:
    def test_default_padding(self):
        assert TruncationConfig(12).n_pad == 44
        assert TruncationConfig(5).n_pad == 30

    def test_explicit_padding(self):
        assert TruncationConfig(12, 64).n_pad == 64

    def test_invalid(self):
        with pytest.raises(ValueError):
            TruncationConfig(1)
        with pytest.raises(ValueError):
            TruncationConfig(12, 11)


class TestCoherentState:
    def test_vacuum(self):
        amps = coherent_state(0.0, CFG)
        assert amps[0] == 1.0
        assert np.all(amps[1:] == 0.0)

    def test_poisson_coefficients(self):
        state = coherent_state(1.0, CFG)
        expected = np.exp(-1.0) / np.array([math.factorial(n) for n in range(CFG.n_pad)], dtype=float)
        np.testing.assert_allclose(np.abs(state) ** 2, expected, rtol=1e-13)

    def test_norm_deficit_tail(self):
        # tail of the mean-one Poisson distribution beyond n = 11
        state = coherent_state(1.0, TruncationConfig(12, 12))
        tail = sum(math.exp(-1.0) / math.factorial(n) for n in range(12, 60))
        assert norm_deficit(state) < 1e-9
        assert norm_deficit(state) == pytest.approx(tail, rel=1e-6)

    def test_matches_direct_formula(self):
        state = coherent_state(0.8 - 0.3j, CFG)
        np.testing.assert_allclose(state, coherent_amps_direct(0.8 - 0.3j, CFG.n_pad), atol=1e-14)

    def test_matches_displaced_vacuum(self):
        state = coherent_state(1.2 + 0.4j, CFG)
        ref = displacement_expm(1.2 + 0.4j, CFG.n_pad)[:, 0]
        np.testing.assert_allclose(state, ref, atol=1e-11)

    def test_amplitude_precondition(self):
        with pytest.raises(ValueError):
            coherent_state(math.sqrt(0.5 * CFG.n_pad) + 0.1, CFG)

    def test_amplitudes_read_only(self):
        state = coherent_state(1.0, CFG)
        with pytest.raises(ValueError):
            state[0] = 0.0


class TestSqueezedVacuum:
    def test_zero_squeeze_is_vacuum(self):
        amps = squeezed_vacuum(0.0, CFG)
        assert amps[0] == 1.0
        assert np.all(amps[1:] == 0.0)

    def test_odd_amplitudes_vanish(self):
        amps = squeezed_vacuum(0.7, CFG)
        assert np.all(amps[1::2] == 0.0)

    def test_two_photon_ratio(self):
        # |c_2 / c_0| = tanh(s) / sqrt(2)
        s = math.atanh(0.5)
        amps = squeezed_vacuum(s, CFG)
        assert abs(amps[2] / amps[0]) == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-15)

    def test_matches_direct_formula(self):
        s = 0.9
        np.testing.assert_allclose(
            squeezed_vacuum(s, CFG), squeezed_amps_direct(s, CFG.n_pad), atol=1e-14
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            squeezed_vacuum(-0.1, CFG)
        with pytest.raises(ValueError):
            squeezed_vacuum(math.atanh(0.96), CFG)

    def test_parity_of_density_matrix(self):
        rho = density_from_pure(squeezed_vacuum(math.atanh(0.5), CFG)).elements
        m, n = np.meshgrid(np.arange(CFG.n_pad), np.arange(CFG.n_pad), indexing="ij")
        assert np.all(rho[(m + n) % 2 == 1] == 0.0)


class TestFockState:
    def test_vacuum_and_excited(self):
        assert fock_state(0, CFG)[0] == 1.0
        amps = fock_state(3, CFG)
        assert amps[3] == 1.0 and np.sum(np.abs(amps)) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fock_state(CFG.n_pad, CFG)
        with pytest.raises(ValueError):
            fock_state(-1, CFG)

    def test_density_trace(self):
        assert np.trace(density_from_pure(fock_state(1, CFG)).elements).real == 1.0


class TestDensityMatrix:
    def test_outer_product_values(self):
        rho = density_from_pure(coherent_state(1.0, CFG))
        assert rho.elements[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert rho.elements[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_trace_equals_norm(self):
        state = coherent_state(1.5, CFG)
        rho = density_from_pure(state)
        assert np.trace(rho.elements).real == pytest.approx(1.0 - norm_deficit(state), abs=1e-15)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix(bad)

    def test_rejects_a_state_whose_norm_exceeds_one(self):
        with pytest.raises(ValueError, match="outside"):
            density_from_pure(1.01 * coherent_state(1.0, CFG))

    def test_positivity_check(self):
        rho = density_from_pure(squeezed_vacuum(0.5, CFG))
        assert np.linalg.eigvalsh(rho.elements)[0] >= -1e-10


class TestDisplacementMatrix:
    def test_zero_is_exact_identity(self):
        mat = displacement_matrix(0.0, CFG)
        assert np.array_equal(mat, np.eye(CFG.n_pad))

    def test_corner_element(self):
        g = 0.7 + 0.2j
        mat = displacement_matrix(g, CFG)
        assert mat[0, 0] == pytest.approx(math.exp(-0.5 * abs(g) ** 2), rel=1e-14)

    def test_matches_expm(self):
        g = 0.9 - 0.6j
        dim = 40
        ours = displacement_matrix(g, TruncationConfig(12, dim))
        ref = displacement_expm(g, dim)
        # compare away from the truncation edge, where both are exact
        np.testing.assert_allclose(ours[:20, :20], ref[:20, :20], atol=1e-10)

    def test_group_property_example(self):
        cfg = TruncationConfig(12, 40)
        fwd = displacement_matrix(1.0, cfg)
        back = displacement_matrix(-1.0, cfg)
        block = (fwd @ back)[:12, :12]
        assert np.max(np.abs(block - np.eye(12))) < 1e-10

    @pytest.mark.parametrize("gamma", [0.5, 1.5j, 1.0 + 1.0j, -2.0, 1.2 - 1.6j])
    def test_group_property_bound(self, gamma):
        n_trunc = 12
        n_pad = n_trunc + 8 * math.ceil(abs(gamma)) + 16
        cfg = TruncationConfig(n_trunc, n_pad)
        fwd = displacement_matrix(gamma, cfg)
        back = displacement_matrix(-gamma, cfg)
        block = (fwd @ back)[:n_trunc, :n_trunc]
        assert np.max(np.abs(block - np.eye(n_trunc))) < 1e-8

    def test_gamma_precondition(self):
        with pytest.raises(ValueError):
            displacement_matrix(10.0, CFG)


class TestDisplacedDiagonal:
    def test_zero_displacement_gives_occupation(self):
        state = coherent_state(1.0, CFG)
        values = diagonal(state, 0.0)[:12]
        np.testing.assert_allclose(values, np.abs(state[:12]) ** 2, atol=1e-15)

    def test_vacuum_gives_poisson(self):
        g = 0.8 + 0.5j
        values = diagonal(fock_state(0, CFG), g)[:12]
        np.testing.assert_allclose(values, poisson_pmf(abs(g) ** 2, 12), atol=1e-13)

    @pytest.mark.parametrize("alpha0,gamma", [(1.0, 0.5), (1.0, 1.0), (0.6 + 0.4j, -0.3 + 0.9j)])
    def test_coherent_gives_shifted_poisson(self, alpha0, gamma):
        values = diagonal(coherent_state(alpha0, CFG), gamma)[:12]
        np.testing.assert_allclose(values, poisson_pmf(abs(alpha0 - gamma) ** 2, 12), atol=1e-12)

    def test_matches_expm_brute_force(self):
        s = math.atanh(0.5)
        state = squeezed_vacuum(s, CFG)
        g = 0.4 - 1.1j
        ref = displaced_diagonal_expm(density_from_pure(state).elements, g, CFG.n_pad)
        ours = diagonal(state, g)
        np.testing.assert_allclose(ours[:20], ref[:20], atol=1e-10)

    def test_sum_bounds(self):
        state = coherent_state(1.0, CFG)
        for g in (0.0, 0.5, 1.0 + 0.5j):
            total = diagonal(state, g)[:12].sum()
            leak_bound = poisson_pmf(abs(1.0 - g) ** 2, 60)[12:].sum() + 1e-9
            assert 1.0 - leak_bound - 1e-12 <= total <= 1.0 + 1e-9

    # |gamma|^2047 passes 1.8e308 at |gamma| = 1.4145, the edge of the power tables at n_pad 2048
    @pytest.mark.parametrize(
        "state",
        [coherent_state(1.0, WIDE), fock_state(1, WIDE), squeezed_vacuum(math.atanh(0.5), WIDE)],
        ids=["coherent_1", "fock_1", "squeezed_0.5"],
    )
    def test_finite_up_to_the_edge_of_the_power_tables(self, state):
        phases = np.exp(0.25j * math.pi * np.arange(4))
        totals = displaced_diagonals(state, 1.4126 * phases).sum(axis=1)
        assert np.max(np.abs(totals - 1.0)) <= 1e-14
        with pytest.raises(NumericalError, match="is not finite"):
            displaced_diagonals(state, 1.4154 * phases)


# States whose displaced diagonals both kernels evaluate to ~1e-15 for every
# |gamma|^2 <= n_pad/2.  The truncated series loses about eps * e^{|gamma|^2}
# times the state's weight on high levels, in the dense and the batched kernel
# alike, so brighter or more squeezed states at the edge of the disc differ by
# more than rounding without either being wrong.
STATES = st.one_of(
    st.tuples(st.floats(0.0, 0.7), st.floats(0.0, 2 * math.pi)).map(
        lambda a: coherent_state(a[0] * np.exp(1j * a[1]), CFG)
    ),
    st.floats(0.0, math.atanh(0.15)).map(lambda s: squeezed_vacuum(s, CFG)),
    st.integers(0, 4).map(lambda n: fock_state(n, CFG)),
)
GAMMAS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)).map(
        lambda t: math.sqrt(t[0] * 0.5 * CFG.n_pad) * 0.999999 * complex(math.cos(t[1]), math.sin(t[1]))
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def displacements(draw, min_points: int, max_points: int):
    """(gammas, vectors) of ``min_points`` to ``max_points`` points in 2 to 80 dimensions,
    |gamma|^2 <= dim / 2, with one vector per point or one vector shared by all."""
    dim = draw(st.integers(2, 80))
    n_points = draw(st.integers(min_points, max_points))
    polar = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
    gammas = np.array(
        [math.sqrt(u * 0.5 * dim) * 0.999999 * complex(math.cos(t), math.sin(t))
         for u, t in draw(st.lists(polar, min_size=n_points, max_size=n_points))]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (dim,) if draw(st.booleans()) else (n_points, dim)
    return gammas, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDisplace:
    @settings(max_examples=150, deadline=None)
    @given(state=STATES, gammas=GAMMAS)
    def test_batched_diagonals_match_the_dense_oracle(self, state, gammas):
        ours = displaced_diagonals(state, gammas)
        ref = np.array([displaced_diagonal_padded(density_from_pure(state), g, CFG) for g in gammas])
        assert np.max(np.abs(ours - ref)) <= 1e-13

    # state, gamma, and the bound on max |Delta R_n| against 60 digits: the kernel's error
    # grows with |gamma|^2 and with the state's weight on high levels
    @pytest.mark.parametrize(
        "state, gamma, bound",
        [
            (coherent_state(1.0, CFG), math.sqrt(22.0) * 0.999999, 1e-13),
            (squeezed_vacuum(math.atanh(0.5), CFG), 1j * math.sqrt(19.2), 5e-8),
            (squeezed_vacuum(math.atanh(0.9), CFG), 1j * math.sqrt(15.0), 2e-4),
            (fock_state(4, CFG), math.sqrt(22.0) * 0.999999, 1e-13),
        ],
        ids=["coherent_1_at_22", "squeezed_0.5_at_19.2", "squeezed_0.9_at_15", "fock_4_at_22"],
    )
    def test_diagonals_match_60_digits(self, state, gamma, bound):
        ours = diagonal(state, gamma)
        assert np.max(np.abs(ours - displaced_diagonal_mp(state, gamma))) <= bound

    def test_batch_equals_point_by_point(self):
        rng = np.random.default_rng(7)
        gammas = rng.uniform(-2.0, 2.0, 9) + 1j * rng.uniform(-2.0, 2.0, 9)
        vecs = rng.standard_normal((9, 20)) + 1j * rng.standard_normal((9, 20))
        batch = displace(gammas, vecs)
        for g, v, row in zip(gammas, vecs, batch):
            assert np.array_equal(displace([g], v)[0], row)
        shared = displace(gammas, vecs[0])
        assert np.array_equal(shared, displace(gammas, np.broadcast_to(vecs[0], vecs.shape)))

    @settings(max_examples=100, deadline=None)
    @given(case=displacements(1, 40))
    def test_a_point_alone_equals_its_row_in_the_batch(self, case):
        # numpy's complex multiply picks a fused (FMA) loop or a plain one by the operands'
        # strides; a one-point call runs on two copies of the point, so it takes the batch's loop
        gammas, vecs = case
        batch = displace(gammas, vecs)
        for p, g in enumerate(gammas):
            assert np.array_equal(displace([g], vecs if vecs.ndim == 1 else vecs[p])[0], batch[p])

    @settings(max_examples=100, deadline=None)
    @given(case=displacements(2, 300))
    def test_component_major_kernel_equals_the_row_major_one(self, case):
        # every multiply and add, and its operand order, is the row-major kernel's: writing
        # (coeff * x) * pow for pow * (coeff * x) changed the bits in every one of 1,000 random
        # cases, since the fused loop rounds a different product of each complex multiply
        gammas, vecs = case
        assert np.array_equal(displace(gammas, vecs), displace_row_major(gammas, vecs))

    def test_precondition_names_the_worst_point(self):
        with pytest.raises(ValueError, match=r"\|gamma\|\^2 = 25.0 at gamma = \(3-4j\)"):
            displace([0.5, 3.0 - 4.0j, 1.0], np.eye(44)[0])


class TestWignerExact:
    def test_vacuum_peak(self):
        assert wigner_exact(fock_state(0, CFG), 0.0, CFG) == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_coherent_matches_gaussian(self):
        # certify the truncation bound with a high-dimension run first
        state_hi = coherent_state(1.0, TruncationConfig(60, 80))
        state = coherent_state(1.0, CFG)
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = 1.0 + complex(*rng.uniform(-0.7, 0.7, 2))
            if abs(g - 1.0) > 1.0:
                continue
            analytic = 2.0 / math.pi * math.exp(-2.0 * abs(g - 1.0) ** 2)
            hi = wigner_exact(state_hi, g, TruncationConfig(60, 80))
            assert abs(hi - analytic) < 1e-12
            assert abs(wigner_exact(state, g, CFG) - analytic) < 1e-6

    def test_squeezed_origin(self):
        # truncated value sits 4e-5 below 2/pi (even-tail mass beyond n=11)
        s = math.atanh(0.5)
        state = squeezed_vacuum(s, CFG)
        hi = wigner_exact(state, 0.0, TruncationConfig(60, 80))
        assert abs(hi - 2.0 / math.pi) < 1e-12
        assert abs(wigner_exact(state, 0.0, CFG) - 2.0 / math.pi) < 1e-4
