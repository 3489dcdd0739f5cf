import itertools

import numpy as np
import pytest

from priceopt import (
    CapacityError,
    ContractError,
    Partition,
    brute_projection,
    certify_stationary,
    count_partitions,
    global_optimum,
    is_feasible,
    objective_q,
    solve_restricted,
    spectral_bounds,
    unconstrained_minimizer,
    with_k,
)
from conftest import two_product_instance, random_instance


class TestCountPartitions:
    def test_two_products_one_change(self):
        assert count_partitions(2, 1) == 4

    def test_three_products_three_changes(self):
        assert count_partitions(3, 3) == 26

    def test_k_zero_rejected(self):
        with pytest.raises(ContractError):
            count_partitions(3, 0)

    def test_size_guard(self):
        with pytest.raises(ContractError):
            count_partitions(25, 2)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 4), (6, 3)])
    def test_matches_direct_enumeration(self, n, k):
        count = 0
        for m in range(1, k + 1):
            for _combo in itertools.combinations(range(n), m):
                count += 2**m
        assert count_partitions(n, k) == count


class TestSolveRestricted:
    def test_worked_example_partition(self):
        inst = two_product_instance()
        p, q = solve_restricted(inst, Partition(alpha=[0], beta=[1], gamma=[]))
        assert np.allclose(p, [0.0, 0.5], atol=1e-12)
        assert q == pytest.approx(-0.25, abs=1e-12)

    def test_all_fixed(self):
        inst = two_product_instance()
        p, q = solve_restricted(inst, Partition(alpha=[0, 1], beta=[], gamma=[]))
        assert np.array_equal(p, inst.p0)
        assert q == pytest.approx(objective_q(inst, inst.p0))

    def test_against_grid_search(self):
        # coupled two-product model, one raised and one lowered coordinate
        inst = two_product_instance(coupling=0.5, k=2)
        part = Partition(alpha=[], beta=[0], gamma=[1])
        _, q_oracle = solve_restricted(inst, part)

        S = inst.S.toarray()
        f = np.asarray(inst.f)
        xs = np.arange(0.5, 5.0 + 1e-9, 1e-3)
        ys = np.arange(-5.0, -0.5 + 1e-9, 1e-3)
        best = np.inf
        for chunk in np.array_split(xs, 10):
            X = chunk[:, None]
            Y = ys[None, :]
            Q = (
                0.5 * S[0, 0] * X**2
                + S[0, 1] * X * Y
                + 0.5 * S[1, 1] * Y**2
                - f[0] * X
                - f[1] * Y
            )
            best = min(best, float(Q.min()))
        assert abs(best - q_oracle) <= 1e-4

    def test_output_in_piece(self, rng):
        for _ in range(20):
            inst = random_instance(rng, 3, 7)
            codes = rng.integers(0, 3, size=inst.n)
            while np.count_nonzero(codes) > inst.k:
                codes[rng.integers(0, inst.n)] = 0
            part = Partition(
                alpha=np.flatnonzero(codes == 0),
                beta=np.flatnonzero(codes == 1),
                gamma=np.flatnonzero(codes == 2),
            )
            p, _ = solve_restricted(inst, part)
            assert np.array_equal(p[part.alpha], inst.p0[part.alpha])
            assert np.all(p[part.beta] >= inst.p0[part.beta] + inst.delta[part.beta] - 1e-9)
            assert np.all(p[part.gamma] <= inst.p0[part.gamma] - inst.delta[part.gamma] + 1e-9)
            if inst.bounds is not None:
                changed = np.concatenate([part.beta, part.gamma])
                assert np.all(p[changed] >= inst.lower[changed] - 1e-9)
                assert np.all(p[changed] <= inst.upper[changed] + 1e-9)

    def test_capacity_guard(self, rng):
        from priceopt import GenConfig, generate

        inst = generate(GenConfig(n=30, seed=0))
        with pytest.raises(CapacityError):
            solve_restricted(inst, Partition(alpha=np.arange(30), beta=[], gamma=[]))


class TestGlobalOptimum:
    def test_worked_example(self):
        p_star, q_star = global_optimum(two_product_instance())
        assert np.allclose(p_star, [3.0, 0.0], atol=1e-12)
        assert q_star == pytest.approx(-9.0, abs=1e-12)

    def test_near_unconstrained_when_thresholds_vanish(self, rng):
        from priceopt import Instance

        inst = random_instance(rng, 4, 4, k=4, bounded=False)
        inst = Instance(n=4, k=4, a=inst.a, D=inst.D, c=inst.c, p0=inst.p0,
                        delta=np.full(4, 1e-6))
        p_star, _ = global_optimum(inst)
        p_hat, _ = unconstrained_minimizer(inst)
        assert np.max(np.abs(p_star - p_hat)) <= 1e-4

    def test_optimum_is_stationary_and_dominates(self, rng):
        for _ in range(10):
            inst = random_instance(rng, 3, 6, k=int(rng.integers(1, 3)))
            p_star, q_star = global_optimum(inst)
            assert is_feasible(inst, p_star)
            L = spectral_bounds(inst).L
            ok, _ = certify_stationary(inst, p_star, L, 1e-8)
            assert ok
            # no feasible candidate beats it
            for _ in range(20):
                q = inst.p0 + rng.normal(0, 2.0, inst.n)
                from priceopt import project_feasible

                cand = project_feasible(inst, q)
                assert q_star <= objective_q(inst, cand) + 1e-9

    def test_capacity_guards(self):
        from priceopt import GenConfig, generate

        inst = generate(GenConfig(n=50, seed=1))
        with pytest.raises(CapacityError):
            global_optimum(inst)
        inst = generate(GenConfig(n=20, k_fraction=1.0, seed=1))
        with pytest.raises(CapacityError):
            global_optimum(inst)  # 3^20 - 1 partitions


class TestBruteProjection:
    def test_baseline_query(self):
        inst = two_product_instance()
        assert np.array_equal(brute_projection(inst, inst.p0), inst.p0)

    def test_worked_example(self):
        inst = two_product_instance()
        out = brute_projection(inst, np.array([2.0, 0.5]))
        assert np.array_equal(out, [2.0, 0.0])
        assert float(np.sum((out - np.array([2.0, 0.5])) ** 2)) == pytest.approx(0.25)

    def test_capacity_guard(self):
        from priceopt import GenConfig, generate

        inst = generate(GenConfig(n=11, seed=2))
        with pytest.raises(CapacityError):
            brute_projection(inst, inst.p0)

    def test_never_beaten_by_fast_projection(self, rng):
        from priceopt import project_feasible

        for _ in range(60):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 2.5, inst.n)
            d_brute = float(np.sum((brute_projection(inst, q) - q) ** 2))
            d_fast = float(np.sum((project_feasible(inst, q) - q) ** 2))
            assert d_brute <= d_fast + 1e-10
