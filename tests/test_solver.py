import dataclasses

import numpy as np
import pytest

from priceopt import (
    ContractError,
    GenConfig,
    Instance,
    Partition,
    SolverParams,
    certify_stationary,
    global_optimum,
    generate,
    gpa_solve,
    gradient_q,
    is_feasible,
    multi_start,
    objective_q,
    performance_bound,
    refine_on_partition,
    solve_restricted,
    spectral_bounds,
    unconstrained_minimizer,
    with_k,
)
from priceopt.instance import _pcg
from priceopt.solver import (
    _ARMIJO_C,
    _ARMIJO_TRIALS,
    _CG_FORCING,
    _CG_MAX_STEPS,
    _REFINE_MAX_ITERS,
    STATIONARITY_TOL,
    RefineResult,
    _partition_box,
    _random_feasible_start,
)
from conftest import instance_bytes, random_instance, reference_member_distance, traced_peak, two_product_instance


class TestSolverParams:
    def test_defaults_valid(self):
        SolverParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"L_mode": "exact"},
            {"max_iters": 0},
            {"seed": -1},
            {"eps": float("inf")},
            {"eps": float("nan")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ContractError):
            SolverParams(**kwargs)


class TestPartition:
    def test_from_prices(self):
        inst = two_product_instance(k=2)
        part = Partition.from_prices(inst, np.array([3.0, -0.5]))
        assert np.array_equal(part.beta, [0])
        assert np.array_equal(part.gamma, [1])
        assert part.n_changed == 2

    def test_in_between_price_rejected(self):
        inst = two_product_instance()
        with pytest.raises(ContractError):
            Partition.from_prices(inst, np.array([0.25, 0.0]))

    def test_budget_enforced(self):
        inst = two_product_instance(k=1)
        with pytest.raises(ContractError):
            Partition.from_prices(inst, np.array([3.0, -0.5]))

    def test_equality(self):
        a = Partition(alpha=[0], beta=[1], gamma=[])
        b = Partition(alpha=[0], beta=[1], gamma=[])
        c = Partition(alpha=[1], beta=[0], gamma=[])
        assert a == b and a != c

    def test_overlap_rejected(self):
        from priceopt import StructuralError

        with pytest.raises(StructuralError):
            Partition(alpha=[0, 1], beta=[1], gamma=[])
        with pytest.raises(StructuralError):
            Partition(alpha=[0], beta=[2], gamma=[])

    def test_from_status_matches_constructor(self, rng):
        for n in (1, 2, 9, 100):
            status = rng.integers(0, 3, size=n).astype(np.int8)
            part = Partition.from_status(status)
            indices = [np.flatnonzero(status == code) for code in range(3)]
            built = Partition(alpha=indices[0], beta=indices[1], gamma=indices[2])
            assert part == built
            for got, want in zip((part.alpha, part.beta, part.gamma), indices):
                assert np.array_equal(got, want)
            assert part.n_changed == built.n_changed == indices[1].size + indices[2].size


class TestGpaSolve:
    def test_worked_example_first_step_and_limit(self):
        inst = two_product_instance()
        report = gpa_solve(inst, np.array([0.0, 0.5]), SolverParams(), L=3.0)
        assert report.objective_trace[0] == pytest.approx(-0.25, abs=1e-15)
        assert report.objective_trace[1] == pytest.approx(-8.0, abs=1e-12)
        assert report.final_q_obj == pytest.approx(-9.0, abs=1e-9)
        assert np.allclose(report.final_p, [3.0, 0.0], atol=1e-8)
        assert report.converged and report.stationary

    @pytest.mark.parametrize("delta_mode, label", [(("const", 0.5), "const:0.5"), (("fraction", 0.1), "varied")])
    def test_report_names_the_delta_mode(self, delta_mode, label):
        inst = generate(GenConfig(n=20, seed=4, delta_mode=delta_mode))
        assert gpa_solve(inst, inst.p0, SolverParams()).delta_mode == label

    def test_trace_non_increasing_and_feasible(self, rng):
        for _ in range(10):
            inst = random_instance(rng, 5, 20)
            seen = []

            def check(t, p, p_next, q_val, q_next, step_sq):
                assert is_feasible(inst, p_next)
                seen.append(q_val - q_next)

            report = gpa_solve(inst, inst.p0, SolverParams(), on_iterate=check)
            assert np.all(np.diff(report.objective_trace) <= 1e-9)
            assert all(d >= -1e-9 for d in seen)

    def test_rising_step_stops_unconverged(self):
        # L below the curvature: from p0 the second step raises Q by about
        # 1.6e3, far above eps_abs; the run keeps the lower point before it
        inst = generate(GenConfig(n=200, seed=0))
        lam1 = spectral_bounds(inst, mode="power").lambda1_est
        report = gpa_solve(inst, inst.p0, SolverParams(), L=0.6 * lam1)
        assert report.iterations == 2
        assert not report.converged
        assert len(report.objective_trace) == 2
        assert report.final_q_obj == report.objective_trace[-1] == report.objective_trace.min()
        assert report.final_q_obj == objective_q(inst, report.final_p)

    def test_unconstrained_like_regime(self, rng):
        # k = n and tiny thresholds: behaves like plain gradient descent
        inst = random_instance(rng, 10, 10, k=10)
        inst = Instance(n=inst.n, k=inst.n, a=inst.a, D=inst.D, c=inst.c,
                        p0=inst.p0, delta=np.full(inst.n, 1e-6))
        p_hat, q_hat = unconstrained_minimizer(inst)
        report = gpa_solve(inst, p_hat, SolverParams())
        assert report.final_q_obj <= q_hat + 1e-6
        assert np.all(np.diff(report.objective_trace) <= 1e-9)

    def test_final_points_certify(self, rng):
        for _ in range(8):
            inst = random_instance(rng, 4, 10, k=int(rng.integers(1, 4)))
            report = gpa_solve(inst, inst.p0, SolverParams())
            ok, residual = certify_stationary(inst, report.final_p, report.L, 1e-8)
            assert ok, f"residual {residual}"

    def test_infeasible_start_projected(self):
        inst = two_product_instance()
        report = gpa_solve(inst, np.array([0.3, 0.2]), SolverParams())
        assert is_feasible(inst, report.final_p)

    def test_descent_inequality_with_power_lambda1(self, rng):
        for _ in range(5):
            inst = random_instance(rng, 10, 30)
            lam1 = spectral_bounds(inst, mode="power").lambda1_est
            L = spectral_bounds(inst).L
            violations = []

            def check(t, p, p_next, q_val, q_next, step_sq):
                lhs = q_val - q_next
                rhs = (L - lam1) / 2.0 * step_sq - 1e-7
                if lhs < rhs:
                    violations.append((lhs, rhs))

            gpa_solve(inst, inst.p0, SolverParams(), L=L, on_iterate=check)
            assert not violations

    def test_partition_stable_after_small_steps(self, rng):
        for _ in range(6):
            inst = random_instance(rng, 8, 25)
            thr = float(np.min(inst.delta)) ** 2 / 2.0
            state = {"stabilized": False, "status": None, "violated": False}

            def check(t, p, p_next, q_val, q_next, step_sq):
                status = np.where(p_next >= inst.p0 + inst.delta, 1,
                                  np.where(p_next <= inst.p0 - inst.delta, 2, 0))
                if state["stabilized"] and not np.array_equal(status, state["status"]):
                    state["violated"] = True
                state["status"] = status
                if step_sq <= thr:
                    state["stabilized"] = True

            gpa_solve(inst, inst.p0, SolverParams(refine=False, max_iters=2000), on_iterate=check)
            assert not state["violated"]

    def test_final_point_certified_once(self, rng, monkeypatch):
        import priceopt.solver as solver

        calls = []
        certify = solver.certify_stationary
        monkeypatch.setattr(solver, "certify_stationary", lambda *a: calls.append(a) or certify(*a))
        monkeypatch.setattr(solver, "_STAB_WINDOW", 1)
        inst = random_instance(rng, 12, 12, k=3)
        # a stabilization window of 1 and a decrease threshold no step meets:
        # the run can only end in the stabilization branch (or at max_iters)
        params = SolverParams(eps=1e-300)
        report = gpa_solve(inst, inst.p0, params)
        assert report.refined and report.converged and report.iterations < params.max_iters
        assert len(calls) == 1
        assert (report.stationary, report.stationarity_residual) == certify(*calls[0])

    def test_max_iters_flags_non_converged(self):
        inst = two_product_instance()
        report = gpa_solve(inst, np.array([0.0, 0.5]), SolverParams(max_iters=1, refine=False), L=3.0)
        assert not report.converged
        assert report.iterations == 1


class TestCertifyStationary:
    def test_global_optima_are_stationary(self, rng):
        L = None
        for _ in range(15):
            inst = random_instance(rng, 3, 7, k=int(rng.integers(1, 3)))
            p_star, _ = global_optimum(inst)
            L = spectral_bounds(inst).L
            ok, residual = certify_stationary(inst, p_star, L, 1e-8)
            assert ok, f"residual {residual}"

    def test_worked_example_not_stationary(self):
        inst = two_product_instance()
        ok, residual = certify_stationary(inst, np.array([0.0, 0.5]), 3.0)
        assert not ok
        assert residual >= 2.0 - 1e-12

    def test_baseline_with_small_gradient(self):
        # gradient at p0 fits inside the half-threshold window, so p0 is fixed
        inst = Instance(n=3, k=2, a=[3.1, 3.05, 2.95], D=np.eye(3), c=[1.0, 1.0, 1.0],
                        p0=[2.0, 2.0, 2.0], delta=[1.0, 1.0, 1.0])
        L = spectral_bounds(inst).L
        g = gradient_q(inst, inst.p0)
        assert np.max(np.abs(g)) <= L * np.min(inst.delta) / 2
        ok, residual = certify_stationary(inst, inst.p0, L, 1e-8)
        assert ok and residual == 0.0

    def test_two_valued_ties_do_not_fail(self):
        # stationary point with a changed coordinate exactly on its threshold
        inst = two_product_instance(k=2)
        report = gpa_solve(inst, inst.p0, SolverParams())
        assert np.allclose(report.final_p, [3.0, 0.5], atol=1e-9)
        ok, _ = certify_stationary(inst, report.final_p, report.L, 1e-8)
        assert ok


def _search_certify(instance, p, L, tol=STATIONARITY_TOL):
    """Reference certificate: bisection over the candidate radii.

    Tests each candidate radius (0, every finite in_cost and every out_cost)
    against the admissibility conditions written out one by one, and returns
    (flag, residual, branch) with branch one of "k>=n", "ties", "slack".
    """
    from priceopt.projection import score

    n, k = instance.n, instance.k
    q = p - gradient_q(instance, p) / L
    delta_score = score(instance, q).delta_score
    in_cost = reference_member_distance(instance, q, p, tol)
    out_cost = np.abs(p - instance.p0)
    tol_delta = 4.0 * tol * (1.0 + float(np.max(np.abs(instance.p0 - q))) + float(np.max(instance.delta)))

    if k >= n:
        cost = np.minimum(in_cost, np.where(delta_score <= tol_delta, out_cost, np.inf))
        residual = float(np.max(cost)) if n else 0.0
        return residual <= tol, residual, "k>=n"

    theta = float(np.partition(delta_score, n - k)[n - k])
    if theta > tol_delta:
        branch = "ties"
        must_in = delta_score > theta + tol_delta
        never_in = delta_score < theta - tol_delta
        tied = ~must_in & ~never_in
        slots = k - int(np.count_nonzero(must_in))

        def feasible(r):
            if np.any(in_cost[must_in] > r) or np.any(out_cost[never_in] > r):
                return False
            t_in, t_out = in_cost[tied], out_cost[tied]
            if np.any(np.minimum(t_in, t_out) > r):
                return False
            forced_in = int(np.count_nonzero(t_out > r))
            can_be_in = int(np.count_nonzero(t_in <= r))
            return forced_in <= slots <= can_be_in

    else:
        branch = "slack"
        must_in = delta_score > tol_delta
        free = ~must_in
        slots = k - int(np.count_nonzero(must_in))

        def feasible(r):
            if np.any(in_cost[must_in] > r):
                return False
            f_in, f_out = in_cost[free], out_cost[free]
            if np.any(np.minimum(f_in, f_out) > r):
                return False
            return int(np.count_nonzero(f_out > r)) <= slots

    candidates = np.unique(np.concatenate([[0.0], in_cost[np.isfinite(in_cost)], out_cost]))
    lo_i, hi_i = 0, candidates.size - 1
    if feasible(float(candidates[lo_i])):
        residual = float(candidates[lo_i])
    else:
        while hi_i - lo_i > 1:
            mid = (lo_i + hi_i) // 2
            if feasible(float(candidates[mid])):
                hi_i = mid
            else:
                lo_i = mid
        residual = float(candidates[hi_i])
    return residual <= tol, residual, branch


class TestCertifyAgainstSearch:
    """The closed-form certificate against the candidate search, bit for bit."""

    @staticmethod
    def _points(inst, params):
        """p0, the five starts, early iterates, max_iters cuts and converged points."""
        from priceopt.solver import build_starts

        L = spectral_bounds(inst).L
        points = [inst.p0.copy()]
        for start in build_starts(inst, params, L):
            points.append(start)
            seen = []
            gpa_solve(inst, start, SolverParams(refine=False), L=L,
                      on_iterate=lambda t, p, p_next, *_: seen.append(p_next) if t in (1, 3, 10) else None)
            points.extend(seen)
            for cut in (1, 3, 5):
                points.append(gpa_solve(inst, start, SolverParams(max_iters=cut), L=L).final_p)
            points.append(gpa_solve(inst, start, params, L=L).final_p)
        return L, points

    @pytest.mark.parametrize("family", range(12))
    def test_matches_search(self, family):
        # n and bounds vary by family; within one, k/n = 1 reaches the k >= n
        # branch and k/n = 0.5 with delta = 8 leaves fewer than k positive
        # gains at p0 and its neighbours, the slack branch
        n = (5, 20, 200)[family % 3]
        branches = set()
        for i, (k_frac, delta) in enumerate(((0.05, 1.0), (0.2, 4.0), (0.5, 8.0), (1.0, 2.0))):
            ill = (4 * family + i) % 3 == 2
            inst = generate(GenConfig(
                n=n,
                k_fraction=k_frac,
                delta_mode=("const", delta),
                bounds_mode=(1.0, 5.0, 8.0, 14.0) if family % 2 else None,
                diag_range=(0.01, 10.0) if ill else (1.0, 10.0),
                offdiag_rel_mag=0.9 if ill else 0.2,
                seed=1000 + 4 * family + i,
            ))
            L, points = self._points(inst, SolverParams(seed=family))
            for p in points:
                ok, residual = certify_stationary(inst, p, L)
                want_ok, want_residual, branch = _search_certify(inst, p, L)
                assert (ok, residual) == (want_ok, want_residual), (k_frac, branch)
                branches.add(branch)
        assert branches == {"k>=n", "ties", "slack"}


class TestMultiStart:
    def test_five_reports_and_best(self, rng):
        inst = random_instance(rng, 12, 12, k=3)
        best, reports = multi_start(inst, SolverParams(seed=5))
        assert len(reports) == 5
        assert [r.start_id for r in reports] == [1, 2, 3, 4, 5]
        assert best.final_q_obj == min(r.final_q_obj for r in reports)

    def test_worked_example_escapes_local_optimum(self):
        inst = two_product_instance()
        best, _ = multi_start(inst, SolverParams(seed=0))
        assert best.final_q_obj == pytest.approx(-9.0, abs=1e-8)

    def test_convex_like_instance_agrees(self, rng):
        inst = random_instance(rng, 12, 12, k=12)
        inst = Instance(n=inst.n, k=inst.n, a=inst.a, D=inst.D, c=inst.c,
                        p0=inst.p0, delta=np.full(inst.n, 1e-6))
        _, reports = multi_start(inst, SolverParams(seed=2))
        values = [r.final_q_obj for r in reports]
        assert max(values) - min(values) <= 1e-6 * max(1.0, abs(min(values)))

    def test_deterministic(self, rng):
        inst = random_instance(rng, 15, 15, k=4)
        best1, _ = multi_start(inst, SolverParams(seed=9))
        best2, _ = multi_start(inst, SolverParams(seed=9))
        assert np.array_equal(best1.final_p, best2.final_p)

    def test_fewer_starts_are_a_prefix(self, rng):
        inst = random_instance(rng, 15, 15, k=4)
        params = SolverParams(seed=3)
        _, five = multi_start(inst, params, n_starts=5)
        for m in range(1, 5):
            _, some = multi_start(inst, params, n_starts=m)
            assert len(some) == m
            for got, want in zip(some, five):
                assert got.start_id == want.start_id
                assert got.final_p.tobytes() == want.final_p.tobytes()
                assert np.float64(got.final_q_obj).tobytes() == np.float64(want.final_q_obj).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_builds_only_the_starts_that_run(self, rng, m):
        # starts 2-4 draw a random start each; only start 5 takes the long gradient step
        from unittest import mock

        from priceopt import solver

        inst = random_instance(rng, 15, 15, k=4)
        with (
            mock.patch.object(solver, "_random_feasible_start", wraps=solver._random_feasible_start) as draws,
            mock.patch.object(solver, "gradient_q", wraps=solver.gradient_q) as gradients,
        ):
            multi_start(inst, SolverParams(seed=3), n_starts=m)
        assert draws.call_count == min(m - 1, 3)
        assert gradients.call_count == (m == 5)

    @pytest.mark.parametrize("n_starts", [0, 6])
    def test_start_count_out_of_range(self, n_starts):
        with pytest.raises(ContractError, match="n_starts"):
            multi_start(two_product_instance(), SolverParams(), n_starts=n_starts)

    def test_starts_are_feasible(self, rng):
        from priceopt.solver import build_starts

        inst = random_instance(rng, 20, 20, k=5, bounded=True)
        L = spectral_bounds(inst).L
        for start in build_starts(inst, SolverParams(seed=4), L):
            assert is_feasible(inst, start)


def _reference_newton_direction(instance, g, free, d_inv, atol, max_steps=_CG_MAX_STEPS):
    """Jacobi-preconditioned CG on S_FF d_F = -g_F, zero outside F: the
    refinement's Newton direction written out on its own, as the reference
    that ``_pcg`` must match bit for bit when the refinement calls it."""
    r = np.where(free, -g, 0.0)
    rtol = max(_CG_FORCING * float(np.max(np.abs(r))), atol)
    z = d_inv * r
    d = z.copy()
    x = np.zeros_like(g)
    rz = float(r @ z)
    for _ in range(max_steps):
        if float(np.max(np.abs(r))) <= rtol:
            break
        sd = instance.s_matvec(d)
        sd *= free
        curv = float(d @ sd)
        if not curv > 0.0:
            break
        a = rz / curv
        x += a * d
        r -= a * sd
        z = d_inv * r
        rz_next = float(r @ z)
        d = z + (rz_next / rz) * d
        rz = rz_next
    return x


def _reference_refine_on_partition(instance, partition, p, tol=None, L=None, max_iters=_REFINE_MAX_ITERS):
    """The refinement's full-space loop: every gradient, CG step, Armijo
    trial and stopping test over all n coordinates, with full S products.
    The reference that the solve on the movable coordinates must agree with."""
    p = np.asarray(p, dtype=np.float64)
    lo, hi = _partition_box(instance, partition)
    p = np.clip(p, lo, hi)
    if partition.n_changed == 0:
        return RefineResult(p=instance.p0.copy(), converged=True, iterations=0)
    if L is None:
        L = spectral_bounds(instance).L
    if tol is None:
        tol = 1e-9 * L * max(1.0, float(np.max(np.abs(instance.p0))))
    d_inv = 1.0 / instance.S.diagonal()
    movable = lo < hi
    iterations = 0
    while True:
        g = instance.s_matvec(p) - instance.f
        pg_norm = L * float(np.max(np.abs(np.clip(p - g / L, lo, hi) - p)))
        if not pg_norm > tol or iterations >= max_iters:
            return RefineResult(p=p, converged=bool(pg_norm <= tol), iterations=iterations)
        iterations += 1
        free = movable & ~((p <= lo) & (g > 0.0)) & ~((p >= hi) & (g < 0.0))
        d = _reference_newton_direction(instance, g, free, d_inv, 0.1 * tol)
        t = 1.0
        for _ in range(_ARMIJO_TRIALS):
            p_next = np.clip(p + t * d, lo, hi)
            step = p_next - p
            slope = float(g @ step)
            if slope < 0.0 and slope + 0.5 * float(step @ instance.s_matvec(step)) <= _ARMIJO_C * slope:
                break
            t *= 0.5
        else:
            p_next = np.clip(p - g / L, lo, hi)
        p = p_next


class TestPcgMatchesReference:
    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("illcond", [False, True])
    def test_refinement_direction_bytes(self, illcond, bounded):
        rng = np.random.default_rng(7 + 2 * illcond + bounded)
        for _ in range(25):
            n = int(rng.integers(1, 400))
            cfg = GenConfig(
                n=n,
                bounds_mode=(1.0, 5.0, 8.0, 14.0) if bounded else None,
                diag_range=(0.01, 10.0) if illcond else (1.0, 10.0),
                offdiag_rel_mag=0.9 if illcond else 0.2,
                seed=int(rng.integers(0, 2**31)),
            )
            inst = generate(cfg)
            d_inv = 1.0 / inst.S.diagonal()
            free = rng.random(n) < rng.uniform(0.0, 1.0)
            g = gradient_q(inst, inst.p0 + rng.normal(0.0, 3.0, n))
            tol = 1e-9 * spectral_bounds(inst).L * max(1.0, float(np.max(np.abs(inst.p0))))
            # the refinement's 0.1 * tol, no floor, a floor that ends the solve
            # at once, and a step cap that cuts the solve short
            for atol, steps in ((0.1 * tol, _CG_MAX_STEPS), (0.0, _CG_MAX_STEPS), (1e3, _CG_MAX_STEPS),
                                (0.1 * tol, 3)):
                want = _reference_newton_direction(inst, g, free, d_inv, atol, steps)
                got, _ = _pcg(inst.S, -g, free, d_inv, _CG_FORCING, atol, steps)
                assert got.tobytes() == want.tobytes()


class TestRefineOnPartition:
    def test_all_fixed_returns_baseline(self):
        inst = two_product_instance()
        part = Partition(alpha=[0, 1], beta=[], gamma=[])
        result = refine_on_partition(inst, part, inst.p0)
        assert np.array_equal(result.p, inst.p0)
        assert result.converged

    def test_worked_example_partition(self):
        inst = two_product_instance()
        part = Partition(alpha=[0], beta=[1], gamma=[])
        result = refine_on_partition(inst, part, np.array([0.0, 0.7]))
        assert np.allclose(result.p, [0.0, 0.5], atol=1e-8)

    def test_matches_oracle_restricted_solve(self, rng):
        for _ in range(15):
            inst = random_instance(rng, 3, 8)
            n, k = inst.n, inst.k
            codes = rng.integers(0, 3, size=n)
            while np.count_nonzero(codes) > k:
                codes[rng.integers(0, n)] = 0
            part = Partition(
                alpha=np.flatnonzero(codes == 0),
                beta=np.flatnonzero(codes == 1),
                gamma=np.flatnonzero(codes == 2),
            )
            p = inst.p0.copy()
            p[part.beta] = inst.p0[part.beta] + inst.delta[part.beta]
            p[part.gamma] = inst.p0[part.gamma] - inst.delta[part.gamma]
            result = refine_on_partition(inst, part, p)
            _, q_oracle = solve_restricted(inst, part)
            assert objective_q(inst, result.p) == pytest.approx(q_oracle, abs=1e-7)

    def test_point_outside_piece_rejected(self):
        inst = two_product_instance()
        part = Partition(alpha=[0], beta=[1], gamma=[])
        with pytest.raises(ContractError):
            refine_on_partition(inst, part, np.array([1.0, 0.7]))


class TestRefineLineSearch:
    """A bad CG direction forces the Armijo halving (an overshoot) or the 1/L
    fallback step (an ascent direction, which no trial accepts)."""

    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("scale", [3.0, -1.0], ids=["overshoot", "ascent"])
    def test_bad_direction_never_raises_q(self, monkeypatch, bounded, scale):
        from priceopt import solver

        inst = generate(GenConfig(n=40, seed=11, bounds_mode=(1.0, 5.0, 8.0, 14.0) if bounded else None))
        status = np.zeros(inst.n, dtype=np.int8)
        status[: inst.k] = np.arange(inst.k) % 2 + 1  # raised and lowered in turn
        part = Partition.from_status(status)
        start = np.where(status == 1, inst.p0 + inst.delta, np.where(status == 2, inst.p0 - inst.delta, inst.p0))
        pcg = solver._pcg
        monkeypatch.setattr(solver, "_pcg", lambda *args: (scale * pcg(*args)[0], None))
        lo, hi = _partition_box(inst, part)
        q_prev = objective_q(inst, start)
        for iterations in range(1, 6):  # the first iterates of one run
            result = refine_on_partition(inst, part, start, max_iters=iterations)
            assert np.all((lo <= result.p) & (result.p <= hi))
            q = objective_q(inst, result.p)
            assert q <= q_prev
            q_prev = q
        if scale > 0:  # one halving makes every step 1.5 Newton steps, which still converge
            assert refine_on_partition(inst, part, start).converged


def _random_piece(rng, inst):
    """A random partition within the budget and a start in its piece: each
    changed price at its threshold, at the far end (a bound, or three
    thresholds out), or in between."""
    n = inst.n
    m = int(rng.integers(0, inst.k + 1))
    status = np.zeros(n, dtype=np.int8)
    status[rng.choice(n, size=m, replace=False)] = rng.integers(1, 3, size=m)
    p0, delta = inst.p0, inst.delta
    near = np.where(status == 1, p0 + delta, p0 - delta)
    if inst.bounds is None:
        far = near + np.where(status == 1, 3.0, -3.0) * delta
    else:
        far = np.where(status == 1, inst.upper, inst.lower)
    w = rng.integers(0, 3, size=n).astype(float)
    w[w == 2.0] = rng.random(int(np.count_nonzero(w == 2.0)))
    return Partition.from_status(status), np.where(status == 0, p0, near + w * (far - near))


class TestRefineMatchesFullSpace:
    """The solve on the movable coordinates against the full-space loop: the
    same iterations and outcome, Q equal up to the rounding of shorter dots."""

    @staticmethod
    def _assert_agree(inst, part, start, **kwargs):
        got = refine_on_partition(inst, part, start, **kwargs)
        want = _reference_refine_on_partition(inst, part, start, **kwargs)
        assert got.p.shape == (inst.n,)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        q_got, q_want = objective_q(inst, got.p), objective_q(inst, want.p)
        assert abs(q_got - q_want) <= 1e-12 * max(1.0, abs(q_want))
        lo, hi = _partition_box(inst, part)
        assert np.all(got.p >= lo) and np.all(got.p <= hi)
        return got

    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("illcond", [False, True])
    def test_random_pieces(self, illcond, bounded):
        rng = np.random.default_rng(31 + 2 * illcond + bounded)
        for _ in range(30):
            n = int(rng.integers(1, 300))
            inst = generate(GenConfig(
                n=n,
                k_fraction=float(rng.uniform(0.01, 1.0)),
                bounds_mode=(1.0, 5.0, 8.0, 14.0) if bounded else None,
                diag_range=(0.01, 10.0) if illcond else (1.0, 10.0),
                offdiag_rel_mag=0.9 if illcond else 0.2,
                seed=int(rng.integers(0, 2**31)),
            ))
            part, start = _random_piece(rng, inst)
            self._assert_agree(inst, part, start)

    def test_no_change(self):
        inst = generate(GenConfig(n=30, seed=2))
        result = self._assert_agree(inst, Partition.from_status(np.zeros(30, dtype=np.int8)), inst.p0)
        assert result.iterations == 0 and np.array_equal(result.p, inst.p0)

    @pytest.mark.parametrize("bounded", [False, True])
    def test_full_budget(self, bounded, rng):
        for _ in range(5):
            inst = random_instance(rng, 5, 60, bounded=bounded)
            inst = with_k(inst, inst.n)
            status = rng.integers(1, 3, size=inst.n).astype(np.int8)
            part = Partition.from_status(status)
            start = np.where(status == 1, inst.p0 + inst.delta, inst.p0 - inst.delta)
            assert self._assert_agree(inst, part, start).iterations > 0

    @pytest.mark.parametrize("status", [0, 1, 2])
    def test_single_product(self, status):
        inst = generate(GenConfig(n=1, seed=4))
        start = inst.p0 + np.array([0.0, 1.5, -1.5][status]) * inst.delta
        self._assert_agree(inst, Partition.from_status(np.array([status], dtype=np.int8)), start)

    def test_all_changed_prices_pinned(self, rng):
        # bounds at the thresholds: every changed price is fixed, so no
        # coordinate can move although the piece changes kappa > 0 prices
        base = generate(GenConfig(n=40, k_fraction=0.25, seed=6))
        inst = Instance(n=base.n, k=base.k, a=base.a, D=base.D, c=base.c, p0=base.p0,
                        delta=base.delta, bounds=(base.p0 - base.delta, base.p0 + base.delta))
        status = np.zeros(inst.n, dtype=np.int8)
        status[rng.choice(inst.n, size=inst.k, replace=False)] = rng.integers(1, 3, size=inst.k)
        part = Partition.from_status(status)
        start = np.where(status == 1, inst.upper, np.where(status == 2, inst.lower, inst.p0))
        result = self._assert_agree(inst, part, start)
        assert part.n_changed == inst.k > 0
        assert result.iterations == 0 and result.converged
        assert np.array_equal(result.p, start)


class TestMatvecCount:
    """Products with the instance's S are a noise-free measure of the work."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        matvec = Instance.s_matvec
        monkeypatch.setattr(Instance, "s_matvec", lambda self, p: calls.append(1) or matvec(self, p))
        return calls

    def test_refinement_makes_no_full_product(self, monkeypatch, rng):
        inst = generate(GenConfig(n=200, diag_range=(0.01, 10.0), offdiag_rel_mag=0.9, seed=8))
        part, start = _random_piece(rng, inst)
        L = spectral_bounds(inst).L
        calls = self._count(monkeypatch)
        assert refine_on_partition(inst, part, start, L=L).converged
        assert not calls

    def test_multi_start_ceiling(self, monkeypatch):
        # one product per value_and_gradient: each start's first point, its
        # 10-12 GPA steps and its refined point, plus the long-step start's
        # gradient at p0 (52 + 5 + 5 + 1); the refinement and the
        # certificates add none
        inst = generate(GenConfig(n=20_000, seed=0))
        calls = self._count(monkeypatch)
        multi_start(inst, SolverParams())
        assert len(calls) <= 63


class TestPerformanceBound:
    def test_reduced_form_when_budget_slack(self):
        # coordinate 2's gradient keeps its query inside the window, so the
        # optimum changes only one of two allowed coordinates
        inst = Instance(n=2, k=2, a=[5.0, -0.7], D=np.eye(2), c=[1.0, 1.0],
                        p0=[0.0, 0.0], delta=[0.5, 0.5])
        report = gpa_solve(inst, inst.p0, SolverParams())
        assert report.kappa == 1
        lam_n = 2.0
        bound_i, bound_ii = performance_bound(inst, report, lam_n)
        L = report.L
        expected_ii = L**2 * float(np.sum(inst.delta**2)) / (8 * lam_n)
        assert bound_ii == pytest.approx(expected_ii, rel=1e-12)
        grad_sq = float(np.sum(gradient_q(inst, report.final_p) ** 2))
        assert grad_sq <= bound_i + 1e-8

    def test_bounds_hold_against_oracle(self, rng):
        checked = 0
        for _ in range(25):
            inst = random_instance(rng, 3, 7, k=int(rng.integers(1, 4)), bounded=False)
            report = gpa_solve(inst, inst.p0, SolverParams())
            if not report.stationary:
                continue
            S = inst.S.toarray()
            lam_n = float(np.linalg.eigvalsh(S)[0])
            bound_i, bound_ii = performance_bound(inst, report, lam_n)
            _, q_star = global_optimum(inst)
            assert report.final_q_obj - q_star <= bound_ii + 1e-8
            grad_sq = float(np.sum(gradient_q(inst, report.final_p) ** 2))
            assert grad_sq <= bound_i + 1e-8
            checked += 1
        assert checked >= 15

    def test_same_bits_as_the_score_tail(self, rng, monkeypatch):
        # the tail used to come from score(q).delta_score; _gains gives the
        # same scores without the 1-D projections
        from priceopt import score, solver

        cases = []
        for trial in range(12):
            inst = random_instance(rng, 5, 60, bounded=False)
            report = gpa_solve(inst, _random_feasible_start(inst, rng), SolverParams())
            if report.stationary:
                cases.append((inst, report, performance_bound(inst, report, 0.5)))
        assert len(cases) >= 8
        monkeypatch.setattr(solver, "_gains", lambda inst, q: score(inst, q).delta_score)
        for inst, report, got in cases:
            want = performance_bound(inst, report, 0.5)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @staticmethod
    def _slack_budget_case(n, gain):
        # S = 2I, p0 = 0, delta = 1 and L = 2: at p = (f_0 / 2, 0, ...) the
        # query is q = (10, q_1, ...), coordinate 0 changed and each other
        # coordinate unchanged with gain 2 q_i - 1 = gain, below its branch
        L = 2.0
        f = np.array([10.0 * L] + [(0.5 + gain / 2.0) * L] * (n - 1))
        inst = Instance(n=n, k=n, a=f, D=np.eye(n), c=np.zeros(n), p0=np.zeros(n), delta=np.ones(n))
        p = np.zeros(n)
        p[0] = f[0] / 2.0
        report = dataclasses.replace(gpa_solve(inst, inst.p0, SolverParams()), final_p=p, kappa=1, L=L)
        return inst, report

    def test_slack_budget_tests_each_unselected_gain(self):
        # two unselected gains of 2.8e-6 sum past the margin 4.8e-6 = 4e-7 *
        # (1 + 10 + 1), but each one is a tie that certification admits
        inst, report = self._slack_budget_case(3, 2.8e-6)
        assert certify_stationary(inst, report.final_p, report.L) == (True, 0.0)
        bound_i, bound_ii = performance_bound(inst, report, 2.0)
        assert bound_i == 0.25 * 4.0 * 3.0
        assert bound_ii == 4.0 / 16.0 * 3.0

    def test_slack_budget_rejects_one_gain_past_the_margin(self):
        inst, report = self._slack_budget_case(2, 6e-6)
        assert not certify_stationary(inst, report.final_p, report.L)[0]
        with pytest.raises(ContractError, match="not stationary"):
            performance_bound(inst, report, 2.0)

    def test_unavailable_without_lambda_n(self):
        inst = two_product_instance()
        report = gpa_solve(inst, inst.p0, SolverParams())
        bound_i, bound_ii = performance_bound(inst, report, None)
        assert bound_ii is None
        assert bound_i > 0


class TestNumericFailure:
    def test_divergence_raises_numeric_error(self):
        from priceopt import NumericError

        # indefinite S: the two-coordinate direction has negative curvature,
        # so iterates race off to infinity once both coordinates may move
        inst = Instance(n=2, k=2, a=[1.0, 1.0], D=[[1.0, -1.5], [-1.5, 1.0]],
                        c=[1, 1], p0=[5.0, 5.0], delta=[1.0, 1.0])
        with pytest.raises(NumericError):
            gpa_solve(inst, inst.p0, SolverParams(refine=False))


class TestCertifyAgainstEnumeration:
    def _exact_residual(self, inst, p, q):
        """Min infinity-distance from p to the projection set, by enumeration."""
        import itertools

        from priceopt import project_1d, score

        sc = score(inst, q)
        delta = sc.delta_score
        n, k = inst.n, inst.k
        members_1d = []
        for i in range(n):
            b = None if inst.bounds is None else (inst.lower[i], inst.upper[i])
            primary, secondary = project_1d(inst.p0[i], inst.delta[i], b, q[i])
            members_1d.append([primary] if secondary is None else [primary, secondary])
        best = np.inf
        for m in range(0, k + 1):
            for combo in itertools.combinations(range(n), m):
                inside = np.zeros(n, dtype=bool)
                inside[list(combo)] = True
                if m == k:
                    min_in = delta[inside].min() if m else np.inf
                    max_out = delta[~inside].max() if m < n else -np.inf
                    if min_in < max_out:
                        continue
                elif np.any(delta[~inside] > 0):
                    continue
                pools = [members_1d[i] if inside[i] else [inst.p0[i]] for i in range(n)]
                for choice in itertools.product(*pools):
                    best = min(best, float(np.max(np.abs(p - np.array(choice)))))
        return best

    def test_residual_matches_enumeration(self, rng):
        for _ in range(40):
            inst = random_instance(rng, 2, 5)
            L = spectral_bounds(inst).L
            if rng.random() < 0.5:
                p = inst.p0 + 0.0
            else:
                from priceopt import project_feasible

                p = project_feasible(inst, inst.p0 + rng.normal(0, 2, inst.n))
            q = p - gradient_q(inst, p) / L
            tol = 1e-9
            _, res = certify_stationary(inst, p, L, tol)
            exact = self._exact_residual(inst, p, q)
            # the certificate minimizes over a tol-fuzzed superset, so it can
            # only be smaller; with no near-ties it matches exactly
            assert res <= exact + 1e-12
            sc_sorted = np.sort(
                (inst.p0 - q) ** 2
                - np.minimum.reduce(
                    [
                        (np.maximum(q, inst.p0 + inst.delta) - q) ** 2
                        if inst.bounds is None
                        else (np.clip(q, inst.p0 + inst.delta, inst.upper) - q) ** 2,
                        (np.minimum(q, inst.p0 - inst.delta) - q) ** 2
                        if inst.bounds is None
                        else (np.clip(q, inst.lower, inst.p0 - inst.delta) - q) ** 2,
                        (inst.p0 - q) ** 2,
                    ]
                )
            )
            gap = (
                sc_sorted[-inst.k] - sc_sorted[-inst.k - 1]
                if inst.k < inst.n
                else np.inf
            )
            if gap > 1e-3 and min(sc_sorted[-inst.k], 1.0) > 1e-3:
                assert res == pytest.approx(exact, abs=1e-9)


class TestPerformanceBoundScope:
    def test_bounded_instances_refused(self, rng):
        inst = random_instance(rng, 6, 6, k=2, bounded=True)
        report = gpa_solve(inst, inst.p0, SolverParams())
        with pytest.raises(ContractError, match="unbounded"):
            performance_bound(inst, report, 1.0)


class TestRefineIllConditioned:
    def test_piece_converges(self):
        # lambda_n ~ 5e-4 makes plain projected gradient hopeless; the Newton
        # step solves the piece in a handful of outer iterations
        inst = Instance(n=2, k=2, a=[4.0, 3.0], D=[[2.0, -1.9995], [-1.9995, 2.0]],
                        c=[0.5, 0.5], p0=[0.0, 0.0], delta=[0.5, 0.5])
        part = Partition(alpha=[], beta=[0, 1], gamma=[])
        result = refine_on_partition(inst, part, np.array([0.5, 0.5]), tol=1e-10)
        assert result.iterations <= 10
        assert result.converged
        _, q_oracle = solve_restricted(inst, part)
        q_ref = objective_q(inst, result.p)
        assert q_ref == pytest.approx(q_oracle, rel=1e-9)

    @staticmethod
    def _oracle_on_piece(inst, part):
        """solve_restricted on the piece's changed coordinates only.

        With the alpha coordinates fixed at p0, the piece is the QP in the
        changed coordinates C with matrix S_CC and linear term
        f_C - S_CA p0_A; it is posed as an instance with D = S_CC / 2 so that
        the oracle's size guard applies to |C|, not to n.
        """
        C, A = np.flatnonzero(part.status), np.flatnonzero(part.status == 0)
        S = inst.S.toarray()
        D = S[np.ix_(C, C)] / 2.0
        f = inst.f[C] - S[np.ix_(C, A)] @ inst.p0[A]
        bounds = None if inst.bounds is None else (inst.lower[C], inst.upper[C])
        reduced = Instance(n=C.size, k=C.size, a=f - D.T @ inst.c[C], D=D, c=inst.c[C],
                           p0=inst.p0[C], delta=inst.delta[C], bounds=bounds)
        status = part.status[C]
        p_c, _ = solve_restricted(reduced, Partition(alpha=[], beta=np.flatnonzero(status == 1),
                                                     gamma=np.flatnonzero(status == 2)))
        p = inst.p0.copy()
        p[C] = p_c
        return p

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pieces_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 41))
        bounded = seed % 2 == 0
        inst = generate(GenConfig(
            n=n,
            delta_mode=("const", float(rng.uniform(0.2, 1.2))),
            bounds_mode=(1.0, 5.0, 8.0, 14.0) if bounded else None,
            diag_range=(0.01, 10.0),
            offdiag_rel_mag=0.9,
            seed=seed,
        ))
        # the oracle enumerates 2 (unbounded) or 3 (bounded) patterns per
        # changed coordinate, so keep the changed set small
        m = int(rng.integers(1, min(n, 6 if bounded else 8) + 1))
        changed = rng.choice(n, size=m, replace=False)
        status = np.zeros(n, dtype=np.int8)
        status[changed] = rng.integers(1, 3, size=m)
        part = Partition(alpha=np.flatnonzero(status == 0), beta=np.flatnonzero(status == 1),
                         gamma=np.flatnonzero(status == 2))

        p0, delta = inst.p0, inst.delta
        near = np.where(status == 1, p0 + delta, p0 - delta)
        if bounded:
            far = np.where(status == 1, inst.upper, inst.lower)
        else:
            far = near + np.where(status == 1, 3.0, -3.0) * delta
        # per changed coordinate: at the threshold, at the far end, or between
        w = rng.integers(0, 3, size=n).astype(float)
        w[w == 2.0] = rng.random(int(np.count_nonzero(w == 2.0)))
        start = np.where(status == 0, p0, near + w * (far - near))

        result = refine_on_partition(inst, part, start)
        lo = np.where(status == 2, -np.inf if not bounded else inst.lower, near)
        hi = np.where(status == 1, np.inf if not bounded else inst.upper, near)
        lo[status == 0] = hi[status == 0] = p0[status == 0]
        assert np.all(result.p >= lo) and np.all(result.p <= hi)
        assert objective_q(inst, result.p) <= objective_q(inst, start)
        assert result.converged
        q_oracle = objective_q(inst, self._oracle_on_piece(inst, part))
        assert objective_q(inst, result.p) == pytest.approx(q_oracle, rel=1e-9)

    def test_sweep_budgets_all_certified(self):
        # ill-conditioned S: certifying every start needs an accurate
        # restricted solve on each frozen piece
        inst = generate(GenConfig(n=500, diag_range=(0.01, 10.0), offdiag_rel_mag=0.9, seed=0))
        for frac in (0.02, 0.05, 0.1, 0.2, 0.4, 1.0):
            _, reports = multi_start(with_k(inst, round(frac * inst.n)), SolverParams())
            for r in reports:
                assert r.stationary, (frac, r.start_id, r.stationarity_residual)


class TestCoupledWorkedExample:
    @pytest.mark.parametrize("coupling", [0.25, 0.5, 0.9])
    def test_local_optimum_not_stationary_for_small_coupling(self, coupling):
        # with S = [[2, -a], [-a, 2]] and 0 <= a < 1, the restricted optimum
        # on (alpha={0}, beta={1}) is [0, 0.5] and its projected-gradient
        # query moves coordinate 1 to (a/3) * 0.5 + 2, so the point fails
        # the fixed-point test
        inst = two_product_instance(coupling=coupling)
        p = np.array([0.0, 0.5])
        p_res, _ = solve_restricted(inst, Partition(alpha=[0], beta=[1], gamma=[]))
        assert np.allclose(p_res, p, atol=1e-12)
        q = p - gradient_q(inst, p) / 3.0
        assert q[0] == pytest.approx(coupling / 3.0 * 0.5 + 2.0, abs=1e-12)
        ok, _ = certify_stationary(inst, p, 3.0)
        assert not ok


_ILLCOND = {"diag_range": (0.01, 10.0), "offdiag_rel_mag": 0.9}
_BOUNDED = {"bounds_mode": (1, 5, 8, 14)}


class TestQualityFloor:
    """How often the five-start best reaches the exhaustive optimum.

    The solver guarantees stationarity, not global optimality, so this pins
    today's hit counts over seeds 0-39 as floors: a change that loses global
    optima on these small instances fails here even when every run still
    certifies.
    """

    @pytest.mark.parametrize(
        "family, floor",
        [
            ({}, 31),
            (_BOUNDED, 38),
            (_ILLCOND, 31),
            ({**_ILLCOND, **_BOUNDED}, 37),
        ],
        ids=["default", "bounded", "illcond", "illcond-bounded"],
    )
    def test_best_start_reaches_global_optimum(self, family, floor):
        hits = 0
        for seed in range(40):
            inst = generate(GenConfig(n=10, k_fraction=0.2, seed=seed, **family))
            _, q_star = global_optimum(inst)
            best, _ = multi_start(inst, SolverParams())
            hits += best.final_q_obj <= q_star + 1e-9 * max(1.0, abs(q_star))
        assert hits >= floor


class TestMemory:
    def test_multi_start_peak(self):
        # S is built inside (the Gershgorin bound reads it).  The traced peak,
        # over the bytes of the instance, read 2.74 when S kept the room of
        # D + D^T and the runs kept their steps, the long step and the
        # replaced points alive; 2.19 since
        inst = generate(GenConfig(n=20_000, seed=0))
        _, peak = traced_peak(lambda: multi_start(inst, SolverParams()))
        assert peak <= 2.5 * instance_bytes(inst)
