import numpy as np
import pytest
from scipy import sparse

from priceopt import (
    GenConfig,
    Instance,
    NumericError,
    StructuralError,
    ValidationError,
    generate,
    gradient_q,
    objective_q,
    profit_z,
    spectral_bounds,
    unconstrained_minimizer,
    validate,
    with_k,
)
from conftest import two_product_instance, random_instance


def scalar_instance():
    return Instance(n=1, k=1, a=[10.0], D=[[2.0]], c=[1.0], p0=[2.0], delta=[0.5])


def dense_instance(D, a, c, p0, delta, k=1, bounds=None):
    return Instance(n=len(a), k=k, a=a, D=D, c=c, p0=p0, delta=delta, bounds=bounds)


class TestConstruction:
    def test_vectors_must_match_n(self):
        with pytest.raises(StructuralError):
            Instance(n=2, k=1, a=[1.0], D=np.eye(2), c=[1, 1], p0=[1, 1], delta=[1, 1])

    def test_non_finite_entries_rejected(self):
        with pytest.raises(StructuralError):
            Instance(n=1, k=1, a=[np.nan], D=[[1.0]], c=[1.0], p0=[1.0], delta=[1.0])

    def test_zero_diagonal_rejected(self):
        with pytest.raises(StructuralError):
            Instance(n=2, k=1, a=[1, 1], D=[[1.0, 0.5], [0.5, 0.0]], c=[1, 1], p0=[5, 5], delta=[1, 1])

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValidationError):
            Instance(n=1, k=1, a=[1.0], D=[[1.0]], c=[1.0], p0=[1.0], delta=[0.0])

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Instance(
                n=1, k=1, a=[1.0], D=[[1.0]], c=[1.0], p0=[5.0], delta=[1.0],
                bounds=([4.5], [10.0]),
            )

    def test_k_range(self):
        with pytest.raises(StructuralError):
            Instance(n=2, k=3, a=[1, 1], D=np.eye(2), c=[1, 1], p0=[5, 5], delta=[1, 1])

    def test_explicit_zeros_dropped(self):
        from scipy import sparse

        D = sparse.coo_array(
            (np.array([2.0, 0.0, 2.0]), (np.array([0, 0, 1]), np.array([0, 1, 1]))),
            shape=(2, 2),
        )
        assert sparse.csr_array(D).nnz == 3  # explicit zero present on input
        inst = Instance(n=2, k=1, a=[1, 1], D=D, c=[1, 1], p0=[5, 5], delta=[1, 1])
        assert inst.D.nnz == 2


class TestValidate:
    def test_scalar_all_flags_true(self):
        report = validate(scalar_instance())
        assert report.all_ok

    def test_indefinite_s_detected(self):
        # S = [[2, -3], [-3, 2]] has eigenvalues 5 and -1
        inst = dense_instance(
            D=[[1.0, -1.5], [-1.5, 1.0]], a=[1, 1], c=[1, 1], p0=[5, 5], delta=[1, 1]
        )
        report = validate(inst)
        assert not report.a1_positive_definite
        assert report.a1_sign_pattern

    def test_positive_off_diagonals_fail_sign_pattern(self):
        inst = dense_instance(
            D=[[2.0, 0.1], [0.1, 2.0]], a=[10, 10], c=[1, 1], p0=[5, 5], delta=[1, 1]
        )
        report = validate(inst)
        assert not report.a1_sign_pattern
        assert report.a1_positive_definite

    def test_pure(self):
        inst = dense_instance(
            D=[[2.0, -0.1], [-0.2, 2.0]], a=[10, 10], c=[1, 1], p0=[5, 5], delta=[1, 1]
        )
        r1, r2 = validate(inst), validate(inst)
        assert r1 == r2


class TestCachedS:
    @pytest.mark.parametrize("n, seed", [(1, 0), (7, 1), (200, 2), (3000, 3)])
    def test_s_is_d_plus_dt(self, n, seed):
        inst = generate(GenConfig(n=n, seed=seed))
        want = sparse.csr_array(inst.D + sparse.csr_array(inst.D.T))
        S = inst.S
        assert S is inst.S
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(S, attr), getattr(want, attr))
        p = np.random.default_rng(seed).normal(0.0, 3.0, n)
        assert np.array_equal(inst.s_matvec(p), S @ p)
        dt = sparse.csr_array(inst.D.T)
        assert inst.f.tobytes() == (inst.a + dt @ inst.c).tobytes()


class TestWithK:
    @pytest.mark.parametrize("bounded", [False, True])
    def test_copy_shares_data_and_keeps_values(self, bounded):
        bounds = (1.0, 5.0, 8.0, 14.0) if bounded else None
        inst = generate(GenConfig(n=300, bounds_mode=bounds, seed=4))
        copy = with_k(inst, 7)
        assert copy.k == 7 and inst.k == GenConfig(n=300).k
        assert copy.S is inst.S and copy.f is inst.f and copy.D is inst.D
        assert copy.same_data(with_k(inst, 7)) and not copy.same_data(inst)
        rebuilt = Instance(n=inst.n, k=7, a=inst.a, D=inst.D, c=inst.c, p0=inst.p0,
                           delta=inst.delta, bounds=inst.bounds)
        assert copy.same_data(rebuilt)
        p = np.random.default_rng(4).normal(inst.p0, 2.0)
        assert objective_q(copy, p) == objective_q(rebuilt, p) == objective_q(inst, p)
        assert np.array_equal(gradient_q(copy, p), gradient_q(rebuilt, p))
        assert profit_z(copy, p) == profit_z(rebuilt, p)

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(StructuralError, match="k must satisfy"):
            with_k(generate(GenConfig(n=3, seed=0)), k)


class TestObjective:
    def test_zero_vector(self):
        assert objective_q(two_product_instance(), np.zeros(2)) == 0.0

    def test_worked_example_value(self):
        assert objective_q(two_product_instance(), np.array([0.0, 0.5])) == pytest.approx(-0.25, abs=1e-15)

    def test_profit_identity(self, rng):
        # Z(p) = -Q(p) - c^T a, compared against a dense re-derivation
        for _ in range(20):
            inst = random_instance(rng, 4, 4)
            p = rng.normal(0, 5, inst.n)
            q = objective_q(inst, p)
            z = profit_z(inst, p)
            assert q + z + float(inst.c @ inst.a) == pytest.approx(0.0, abs=1e-10)
            dense_d = inst.D.toarray()
            z_dense = float((p - inst.c) @ (inst.a - dense_d @ p))
            assert z == pytest.approx(z_dense, abs=1e-9)

    def test_profit_at_cost_prices(self, rng):
        inst = random_instance(rng, 5, 5)
        assert profit_z(inst, inst.c) == 0.0

    def test_scalar_profit(self):
        inst = Instance(n=1, k=1, a=[10.0], D=[[1.0]], c=[2.0], p0=[4.0], delta=[0.5])
        assert profit_z(inst, np.array([4.0])) == pytest.approx(12.0)


class TestGradient:
    def test_worked_example(self):
        g = gradient_q(two_product_instance(), np.array([0.0, 0.5]))
        assert np.allclose(g, [-6.0, 0.0], atol=1e-15)

    def test_zero_at_minimizer(self, rng):
        inst = random_instance(rng, 6, 6)
        p_hat, _ = unconstrained_minimizer(inst)
        assert np.max(np.abs(gradient_q(inst, p_hat))) <= 1e-7

    def test_finite_differences(self, rng):
        h = 1e-5
        for _ in range(10):
            inst = random_instance(rng, 3, 7)
            p = rng.uniform(-10, 10, inst.n)
            g = gradient_q(inst, p)
            for i in range(inst.n):
                e = np.zeros(inst.n)
                e[i] = h
                fd = (objective_q(inst, p + e) - objective_q(inst, p - e)) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6


class TestUnconstrainedMinimizer:
    def test_diagonal_solve(self):
        p_hat, q_hat = unconstrained_minimizer(two_product_instance())
        assert np.allclose(p_hat, [3.0, 0.5], atol=1e-9)
        assert q_hat == pytest.approx(-9.25, abs=1e-9)

    def test_identity_system(self):
        # D = I/2 so S = I and p_hat = f
        inst = Instance(n=3, k=1, a=[2.0, 3.0, 4.0], D=0.5 * np.eye(3), c=[1, 1, 1],
                        p0=[9, 9, 9], delta=[1, 1, 1])
        p_hat, _ = unconstrained_minimizer(inst)
        assert np.allclose(p_hat, np.asarray(inst.f), atol=1e-9)

    def test_profitable_when_assumptions_hold(self, rng):
        from priceopt import generate_profitable, GenConfig

        for seed in range(5):
            inst = generate_profitable(GenConfig(n=20, seed=seed))
            p_hat, _ = unconstrained_minimizer(inst)
            assert np.all(p_hat >= inst.c - 1e-8)

    def test_degenerate_s_raises(self):
        # S = [[2, -2], [-2, 2]] is singular and f = [1, 1] has no solution,
        # so the SPD solve cannot reach its residual target
        inst = dense_instance(
            D=[[1.0, -1.0], [-1.0, 1.0]], a=[1, 1], c=[1, 1], p0=[5, 5], delta=[1, 1]
        )
        with pytest.raises(NumericError):
            unconstrained_minimizer(inst)


class TestSpectralBounds:
    def test_diagonal(self):
        sb = spectral_bounds(two_product_instance(), mode="gershgorin", want_lambda_min=True)
        assert sb.L == pytest.approx(2.002)
        assert sb.lambdan_est == pytest.approx(2.0, rel=1e-6)

    def test_two_by_two(self):
        inst = dense_instance(
            D=[[1.0, -0.5], [-0.5, 1.0]], a=[1, 1], c=[1, 1], p0=[5, 5], delta=[1, 1]
        )
        sb = spectral_bounds(inst, mode="gershgorin", want_lambda_min=True)
        assert sb.L == pytest.approx(3.003)
        assert sb.lambdan_est == pytest.approx(1.0, rel=1e-6)
        sp = spectral_bounds(inst, mode="power")
        assert sp.lambda1_est == pytest.approx(3.0, rel=1e-6)

    def test_gershgorin_dominates_power(self, rng):
        # random 6x6 dense symmetric PD matrices
        for _ in range(10):
            M = rng.normal(0, 1, (6, 6))
            S = M @ M.T + 6 * np.eye(6)
            inst = dense_instance(D=S / 2, a=np.ones(6), c=np.ones(6), p0=np.full(6, 9),
                                  delta=np.ones(6))
            g = spectral_bounds(inst, mode="gershgorin")
            p = spectral_bounds(inst, mode="power")
            assert g.lambda1_est >= p.lambda1_est - 1e-9
            assert g.L > p.lambda1_est
            assert p.L > p.lambda1_est

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            spectral_bounds(two_product_instance(), mode="exact")


class TestPowerIterationFallback:
    def test_oscillating_spectrum_falls_back(self):
        # S = diag(1, -1): power iteration cannot settle, so the step
        # constant falls back to the guaranteed bound and says so
        inst = Instance(n=2, k=1, a=[1.0, 1.0], D=[[0.5, 0.0], [0.0, -0.5]],
                        c=[1, 1], p0=[5, 5], delta=[1, 1])
        sb = spectral_bounds(inst, mode="power")
        assert sb.used_fallback
        assert sb.L == pytest.approx(1.001)
