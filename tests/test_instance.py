import numpy as np
import pytest
from scipy import sparse

from priceopt import (
    GenConfig,
    Instance,
    NumericError,
    SolverParams,
    StructuralError,
    ValidationError,
    generate,
    gpa_solve,
    gradient_q,
    objective_q,
    profit_z,
    spectral_bounds,
    unconstrained_minimizer,
    validate,
    with_k,
)
from priceopt.instance import value_and_gradient
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

    def test_upper_bound_below_raised_threshold_rejected(self):
        with pytest.raises(ValidationError, match="u >= p0 \\+ delta"):
            Instance(
                n=1, k=1, a=[1.0], D=[[1.0]], c=[1.0], p0=[5.0], delta=[1.0],
                bounds=([1.0], [5.5]),
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

    def test_indefinite_s_detected_above_dense_limit(self):
        # n > 2000 skips the dense factorization: the CG solve must fail
        inst = generate(GenConfig(n=3000, dominance_fix=False, offdiag_rel_mag=3.0,
                                  allow_mixed_signs=True, seed=0))
        report = validate(inst)
        assert not report.a1_positive_definite
        assert "SPD solver did not converge" in " ".join(report.messages)

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


def _int64_copy(S):
    S64 = S.copy()
    S64.indices, S64.indptr = S.indices.astype(np.int64), S.indptr.astype(np.int64)
    return S64


class TestInt32Indices:
    @pytest.mark.parametrize("n, seed", [(1, 0), (40, 1), (3000, 2)])
    def test_products_match_int64_bytes(self, n, seed):
        inst = generate(GenConfig(n=n, seed=seed))
        S = inst.S
        assert S.indices.dtype == S.indptr.dtype == np.int32
        S64 = _int64_copy(S)
        assert S64.indices.dtype == S64.indptr.dtype == np.int64
        rng = np.random.default_rng(seed)
        C = np.flatnonzero(rng.random(n) < 0.3)
        # the refinement's rows and block, as it slices them
        rows, rows64 = S[C], S64[C]
        block, block64 = rows[:, C], rows64[:, C]
        for A in (rows, block):
            assert A.indices.dtype == A.indptr.dtype == np.int32
        for _ in range(5):
            p = rng.normal(0.0, 3.0, n)
            x = p[C]
            assert (S @ p).tobytes() == (S64 @ p).tobytes()
            assert (rows @ p).tobytes() == (rows64 @ p).tobytes()
            assert (block @ x).tobytes() == (block64 @ x).tobytes()

    @pytest.mark.parametrize("bounded", [False, True])
    def test_lp_export_unchanged(self, tmp_path, bounded):
        from priceopt.lpformat import export_mip_lp

        inst = generate(GenConfig(n=60, bounds_mode=(1.0, 5.0, 8.0, 14.0) if bounded else None, seed=3))
        export_mip_lp(inst, str(tmp_path / "int32.lp"))
        inst.__dict__["S"] = _int64_copy(inst.S)
        export_mip_lp(inst, str(tmp_path / "int64.lp"))
        assert (tmp_path / "int32.lp").read_bytes() == (tmp_path / "int64.lp").read_bytes()


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

    @pytest.mark.parametrize("bounded", [False, True])
    def test_copy_shares_branch_edges(self, bounded):
        bounds = (1.0, 5.0, 8.0, 14.0) if bounded else None
        inst = generate(GenConfig(n=300, bounds_mode=bounds, seed=4))
        copy = with_k(with_k(inst, 7), 9)
        assert all(mine is theirs for mine, theirs in zip(copy._edges, inst._edges))
        up, dn, half_dn, half_up = inst._edges
        half = 0.5 * inst.delta
        for got, want in ((up, inst.p0 + inst.delta), (dn, inst.p0 - inst.delta),
                          (half_dn, inst.p0 - half), (half_up, inst.p0 + half)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable

    def test_copies_share_the_constants(self):
        # a copy made before or after the original computes them reads the
        # shared value: the sentinels below would not survive a recomputation
        inst = generate(GenConfig(n=300, seed=4))
        early = with_k(inst, 7)
        L = spectral_bounds(inst).L
        base = gpa_solve(early, early.p0, SolverParams(), L=L).base_profit
        late = with_k(inst, 9)
        assert early._constants is inst._constants is late._constants
        gersh = float(np.max(np.abs(inst.S).sum(axis=1)))
        assert late._constants == {("_gershgorin",): gersh, ("_base_profit",): base}
        # the Lanczos estimates land in the same dict, one entry per end
        bounds = spectral_bounds(early, mode="power", want_lambda_min=True)
        assert inst._constants == {
            ("_gershgorin",): gersh,
            ("_base_profit",): base,
            ("_extreme_eigenvalue", "LA"): bounds.lambda1_est,
            ("_extreme_eigenvalue", "SA"): bounds.lambdan_est,
        }
        assert spectral_bounds(early).L == spectral_bounds(late).L == L
        inst._constants[("_gershgorin",)] = 123.0
        inst._constants[("_base_profit",)] = -4.5
        inst._constants[("_extreme_eigenvalue", "LA")] = 7.0
        assert spectral_bounds(early).L == spectral_bounds(with_k(late, 3)).L == 1.001 * 123.0
        assert spectral_bounds(with_k(late, 3), mode="power").L == 1.01 * 7.0
        report = gpa_solve(late, late.p0, SolverParams(), L=L)
        assert report.base_profit == -4.5

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(StructuralError, match="k must satisfy"):
            with_k(generate(GenConfig(n=3, seed=0)), k)


class TestOneBox:
    def test_unbounded_box_is_infinite_and_read_only(self):
        inst = two_product_instance()
        for view in (inst, with_k(inst, 2)):
            assert view.bounds is None
            for box, end in ((view.lower, -np.inf), (view.upper, np.inf)):
                assert box.shape == (2,) and np.all(box == end)
                assert not box.flags.writeable
                with pytest.raises(ValueError):
                    box[0] = 0.0

    def test_bounded_box_is_the_bounds(self):
        inst = random_instance(np.random.default_rng(3), bounded=True)
        assert inst.lower is inst.bounds[0] and inst.upper is inst.bounds[1]
        assert not inst.lower.flags.writeable and not inst.upper.flags.writeable

    def test_same_data_tells_the_models_apart(self):
        inst = random_instance(np.random.default_rng(4), bounded=True)
        bare = Instance(n=inst.n, k=inst.k, a=inst.a, D=inst.D, c=inst.c, p0=inst.p0, delta=inst.delta)
        assert not inst.same_data(bare) and not bare.same_data(inst)
        assert bare.same_data(with_k(bare, bare.k)) and inst.same_data(with_k(inst, inst.k))


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

    def test_preconditioner_breakdown_raises(self):
        # S = [[2, -1.5], [-1.5, -2]], f = [1, 1]: with a negative diagonal
        # entry the preconditioned r^T z reaches zero, which must end the
        # solve as a NumericError rather than a division by zero
        D = np.array([[1.0, -0.75], [-0.75, -1.0]])
        c = np.array([1.0, 1.0])
        inst = dense_instance(D=D, a=np.array([1.0, 1.0]) - D.T @ c, c=c, p0=[5, 5], delta=[1, 1])
        with pytest.raises(NumericError):
            unconstrained_minimizer(inst)


class TestSpectralBounds:
    def test_diagonal(self):
        sb = spectral_bounds(two_product_instance(), mode="gershgorin", want_lambda_min=True)
        assert sb.L == pytest.approx(2.002)
        assert sb.lambdan_est == pytest.approx(2.0, rel=1e-6)

    def test_two_by_two(self):
        # S = [[2, -1], [-1, 2]]: all-ones is the eigenvector of lambda_n = 1,
        # so a start there would see only the wrong end for lambda_1 = 3
        inst = dense_instance(
            D=[[1.0, -0.5], [-0.5, 1.0]], a=[1, 1], c=[1, 1], p0=[5, 5], delta=[1, 1]
        )
        sb = spectral_bounds(inst, mode="gershgorin", want_lambda_min=True)
        assert sb.L == pytest.approx(3.003)
        assert sb.lambdan_est == pytest.approx(1.0, rel=1e-12)
        sp = spectral_bounds(inst, mode="power")
        assert sp.lambda1_est == pytest.approx(3.0, rel=1e-12)

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

    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (50, 2), (3000, 3)])
    def test_gershgorin_matches_row_sums_bitwise(self, n, seed):
        inst = generate(GenConfig(n=n, seed=seed, diag_range=(0.01, 10.0), offdiag_rel_mag=0.9))
        gersh = float(np.max(np.abs(inst.S).sum(axis=1)))
        sb = spectral_bounds(inst)
        assert sb.L == 1.001 * gersh and sb.lambda1_est == gersh


class TestPowerIterationFallback:
    def test_oscillating_spectrum_falls_back(self):
        # S = diag(1, -1) stalls power iteration but not Lanczos, which
        # finds lambda_1 = 1; the estimate is usable, so no fallback
        inst = Instance(n=2, k=1, a=[1.0, 1.0], D=[[0.5, 0.0], [0.0, -0.5]],
                        c=[1, 1], p0=[5, 5], delta=[1, 1])
        sb = spectral_bounds(inst, mode="power")
        assert not sb.used_fallback
        assert sb.lambda1_est == pytest.approx(1.0, rel=1e-12)
        assert sb.L == pytest.approx(1.01)
        # S = diag(-1, -1) has no positive eigenvalue, so no L = 1.01 lambda_1
        # is a step constant: fall back to the guaranteed bound and say so
        inst = Instance(n=2, k=1, a=[1.0, 1.0], D=[[-0.5, 0.0], [0.0, -0.5]],
                        c=[1, 1], p0=[5, 5], delta=[1, 1])
        sb = spectral_bounds(inst, mode="power")
        assert sb.used_fallback
        assert sb.L == pytest.approx(1.001)

    def test_no_convergence_falls_back(self, monkeypatch):
        import scipy.sparse.linalg as linalg

        def no_convergence(*args, **kwargs):
            raise linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((2, 0)))

        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        inst = dense_instance(
            D=[[1.0, -0.5], [-0.5, 1.0]], a=[1, 1], c=[1, 1], p0=[5, 5], delta=[1, 1]
        )
        sb = spectral_bounds(inst, mode="power", want_lambda_min=True)
        assert sb.used_fallback
        assert sb.L == pytest.approx(3.003)
        assert isinstance(sb.lambda1_est, float)
        assert sb.lambdan_est is None


class TestLanczosEstimates:
    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_eigenvalues(self, n, seed):
        inst = generate(GenConfig(n=n, seed=seed))
        eig = np.linalg.eigvalsh(inst.S.toarray())
        sb = spectral_bounds(inst, mode="power", want_lambda_min=True)
        assert not sb.used_fallback
        assert sb.lambda1_est == pytest.approx(eig[-1], rel=1e-9)
        assert sb.lambdan_est == pytest.approx(eig[0], rel=1e-9)
        assert sb.L == 1.01 * sb.lambda1_est

    def test_single_product(self):
        # ARPACK refuses n = 1; S = [[4]] is its own eigenvalue
        sb = spectral_bounds(scalar_instance(), mode="power", want_lambda_min=True)
        assert sb.lambda1_est == 4.0
        assert sb.lambdan_est == 4.0
        assert not sb.used_fallback

    def test_indefinite_s_reports_no_lambda_n(self):
        inst = Instance(n=2, k=1, a=[1.0, 1.0], D=[[0.5, 0.0], [0.0, -0.5]],
                        c=[1, 1], p0=[5, 5], delta=[1, 1])
        assert spectral_bounds(inst, want_lambda_min=True).lambdan_est is None

    def test_reruns_agree(self):
        # two separately built instances, so the second run cannot read the
        # first one's cached estimates
        first = spectral_bounds(generate(GenConfig(n=500, seed=3)), mode="power", want_lambda_min=True)
        again = spectral_bounds(generate(GenConfig(n=500, seed=3)), mode="power", want_lambda_min=True)
        assert first == again

    def test_estimates_shared_with_budget_copies(self, monkeypatch):
        import scipy.sparse.linalg as linalg

        calls = []
        eigsh = linalg.eigsh
        monkeypatch.setattr(linalg, "eigsh", lambda *a, **kw: calls.append(kw["which"]) or eigsh(*a, **kw))
        inst = generate(GenConfig(n=300, seed=4))
        first = spectral_bounds(inst, mode="power", want_lambda_min=True)
        for k in (1, 30, 300):
            assert spectral_bounds(with_k(inst, k), mode="power", want_lambda_min=True) == first
        assert calls == ["LA", "SA"]


def _bytes(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestOneEvaluator:
    @pytest.mark.parametrize("bounded", [False, True])
    def test_objective_and_gradient_are_its_parts(self, rng, bounded):
        for _ in range(40):
            inst = random_instance(rng, n_hi=30, bounded=bounded)
            for scale in (0.0, 1.0, 50.0, 1e6):
                p = inst.p0 + scale * rng.normal(0.0, 1.0, inst.n)
                val, g = value_and_gradient(inst, p)
                assert _bytes(objective_q(inst, p)) == _bytes(val)
                assert _bytes(gradient_q(inst, p)) == _bytes(g)

    def test_one_overflow_policy(self):
        # Q overflows while S p - f is still finite: all three raise, and
        # none warns first (warnings are errors in this suite)
        inst = scalar_instance()
        p = np.array([1e160])
        for evaluate in (objective_q, gradient_q, value_and_gradient):
            with pytest.raises(NumericError):
                evaluate(inst, p)


class TestThresholdSpacing:
    @pytest.mark.parametrize("p0, delta", [(4.7, 1e-16), (4.7, 1e-160), (2.0**60, 76.8)])
    def test_threshold_below_spacing_rejected(self, p0, delta):
        # p0 + delta or p0 - delta rounds to p0 (at 2**60 only the raised
        # side does: the spacing above a power of two is twice the one below)
        with pytest.raises(ValidationError, match=r"delta\[1\] .* below the float spacing of p0\[1\]"):
            dense_instance(D=np.eye(2), a=[10, 10], c=[1, 1], p0=[5.0, p0], delta=[1.0, delta])

    @pytest.mark.parametrize("p0, delta", [(1.7e308, 1e308), (-1.7e308, 1e308)])
    def test_threshold_past_the_float_range_rejected(self, p0, delta):
        # the raised (or lowered) branch would start at inf: empty
        with pytest.raises(ValidationError, match=r"p0\[1\] = .* overflows"):
            dense_instance(D=np.eye(2), a=[10, 10], c=[1, 1], p0=[5.0, p0], delta=[1.0, delta])

    @pytest.mark.parametrize("p0, delta", [(1e17, 16.0), (4.7, 1e-14), (2.0**60, 192.0), (-3.0, 5e-16),
                                           (5.0, 1e308)])
    def test_threshold_that_moves_p0_accepted(self, p0, delta):
        inst = dense_instance(D=np.eye(2), a=[10, 10], c=[1, 1], p0=[5.0, p0], delta=[1.0, delta])
        up, dn, _, _ = inst._edges
        assert up[1] != p0 and dn[1] != p0
