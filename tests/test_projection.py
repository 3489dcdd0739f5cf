import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priceopt import (
    ContractError,
    GenConfig,
    brute_projection,
    certify_in_H,
    distance_sq_1d,
    generate,
    is_feasible,
    project_1d,
    project_feasible,
    score,
)
from conftest import two_product_instance, random_instance

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
positive = st.floats(min_value=0.05, max_value=5, allow_nan=False)


class TestProject1d:
    def test_window_keeps_baseline(self):
        assert project_1d(0.0, 1.0, None, 0.4) == (0.0, None)

    def test_tie_is_two_valued_with_baseline_primary(self):
        assert project_1d(0.0, 1.0, None, 0.5) == (0.0, 1.0)
        assert project_1d(0.0, 1.0, None, -0.5) == (0.0, -1.0)

    def test_feasible_query_is_fixed(self):
        assert project_1d(0.0, 1.0, None, 1.7) == (1.7, None)
        assert project_1d(0.0, 1.0, None, 0.0) == (0.0, None)

    def test_bands_snap_to_thresholds(self):
        assert project_1d(0.0, 1.0, None, 0.75) == (1.0, None)
        assert project_1d(0.0, 1.0, None, -0.6) == (-1.0, None)

    def test_bounded_clamps(self):
        assert project_1d(0.0, 1.0, (-2.0, 3.0), 5.0) == (3.0, None)
        assert project_1d(0.0, 1.0, (-2.0, 3.0), -2.5) == (-2.0, None)
        assert project_1d(0.0, 1.0, (-2.0, 3.0), 2.0) == (2.0, None)

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            project_1d(0.0, 0.0, None, 1.0)
        with pytest.raises(ContractError):
            project_1d(0.0, 1.0, (0.5, 3.0), 1.0)

    @given(p0=finite, delta=positive, q=finite)
    def test_primary_is_a_minimizer(self, p0, delta, q):
        primary, secondary = project_1d(p0, delta, None, q)
        # primary lies in the allowed set
        assert primary == p0 or primary >= p0 + delta or primary <= p0 - delta
        # no grid point of the allowed set is closer
        for candidate in (p0, p0 + delta, p0 - delta, q if abs(q - p0) >= delta or q == p0 else None):
            if candidate is None:
                continue
            assert (primary - q) ** 2 <= (candidate - q) ** 2 + 1e-12
        if secondary is not None:
            assert (secondary - q) ** 2 == pytest.approx((primary - q) ** 2, abs=1e-12)


class TestDistance:
    def test_upper_band_value(self):
        assert distance_sq_1d(0.0, 1.0, None, 0.75) == pytest.approx(0.0625, abs=1e-15)

    def test_baseline_query(self):
        assert distance_sq_1d(0.0, 1.0, None, 0.0) == 0.0

    @given(q=finite)
    def test_quarter_delta_sq_cap(self, q):
        assert distance_sq_1d(0.0, 1.0, None, q) <= 0.25 + 1e-12


class TestScore:
    def test_worked_example(self):
        inst = two_product_instance()
        sc = score(inst, np.array([2.0, 0.5]))
        assert sc.delta_score[0] == pytest.approx(4.0, abs=1e-15)
        assert sc.delta_score[1] == pytest.approx(0.25, abs=1e-15)

    def test_baseline_query_all_zero(self):
        inst = two_product_instance()
        sc = score(inst, inst.p0)
        assert np.all(sc.delta_score == 0.0)

    def test_zero_iff_in_window(self, rng):
        for _ in range(30):
            inst = random_instance(rng, 6, 6)
            q = inst.p0 + rng.normal(0, 1.5, inst.n)
            sc = score(inst, q)
            inside = np.abs(q - inst.p0) <= inst.delta / 2
            zero = sc.delta_score <= 1e-12
            assert np.array_equal(inside, zero)

    def test_matches_scalar_routines(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 2.0, inst.n)
            sc = score(inst, q)
            for i in range(inst.n):
                b = None if inst.bounds is None else (inst.lower[i], inst.upper[i])
                primary, secondary = project_1d(inst.p0[i], inst.delta[i], b, q[i])
                assert sc.proj[i] == primary
                assert sc.dist_sq[i] == distance_sq_1d(inst.p0[i], inst.delta[i], b, q[i])
                assert sc.tie_flags[i] == (secondary is not None)

    def test_score_bounds(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 3.0, inst.n)
            sc = score(inst, q)
            assert np.all(sc.delta_score >= 0.0)
            assert np.all(sc.delta_score <= (inst.p0 - q) ** 2 + 1e-12)
            if inst.bounds is None:
                assert np.all(sc.dist_sq <= inst.delta**2 / 4 + 1e-12)

    def test_tie_flag_and_exact_zero_at_half_threshold(self):
        inst = two_product_instance()
        q = np.array([0.25, 0.1])
        sc = score(inst, q)
        assert sc.tie_flags[0] and not sc.tie_flags[1]
        assert sc.delta_score[0] == 0.0


def _score_reference(instance, q):
    """The branch-by-branch score kept as the reference for the clamp kernel."""
    p0, delta = instance.p0, instance.delta
    lo, hi = p0 - delta, p0 + delta
    half_lo, half_hi = p0 - 0.5 * delta, p0 + 0.5 * delta

    if instance.bounds is None:
        feasible = (q == p0) | (q >= hi) | (q <= lo)
        below_l = np.zeros_like(feasible)
        above_u = np.zeros_like(feasible)
    else:
        l, u = instance.bounds
        feasible = (q == p0) | ((q >= hi) & (q <= u)) | ((q <= lo) & (q >= l))
        below_l = ~feasible & (q < l)
        above_u = ~feasible & (q > u)

    window = ~feasible & ~below_l & ~above_u & (q >= half_lo) & (q <= half_hi)
    upper_band = ~feasible & ~below_l & ~above_u & (q > half_hi)
    lower_band = ~feasible & ~below_l & ~above_u & (q < half_lo)

    proj = np.where(window, p0, q)
    proj = np.where(upper_band, hi, proj)
    proj = np.where(lower_band, lo, proj)
    if instance.bounds is not None:
        proj = np.where(below_l, instance.lower, proj)
        proj = np.where(above_u, instance.upper, proj)

    dist_sq = (proj - q) ** 2
    dist_sq = np.where(feasible, 0.0, dist_sq)
    base_sq = (p0 - q) ** 2
    delta_score = np.where(window, 0.0, base_sq - dist_sq)
    tie_flags = (q == half_hi) | (q == half_lo)
    return proj, dist_sq, delta_score, tie_flags


def _query_mix(rng, inst):
    """Queries at p0, p0 +- delta, the half-threshold ties, l and u, beyond, at random.

    The last three rows also carry +-inf and nan, which the CLI's ``project``
    accepts in a query file.
    """
    p0, delta, n = inst.p0, inst.delta, inst.n
    l, u = (p0 - 3 * delta, p0 + 3 * delta) if inst.bounds is None else inst.bounds
    points = [
        p0, p0 + delta, p0 - delta, p0 + 0.5 * delta, p0 - 0.5 * delta,
        l, u, l - delta, u + delta, p0 + rng.normal(0.0, 2.0, n) * delta,
    ]
    queries = [np.choose(row, points) for row in rng.integers(0, len(points), size=(7, n))]
    for q in queries[4:]:
        q[rng.integers(0, n, size=3)] = rng.choice([np.inf, -np.inf, np.nan], size=3)
    return queries


class TestScoreMatchesReference:
    def test_bit_identical(self, rng):
        for trial in range(200):
            n = int(rng.integers(2, 40))
            bounded = trial % 2 == 0
            mode = ("const", float(rng.uniform(0.2, 1.2))) if trial % 4 < 2 else ("fraction", 0.1)
            cfg = GenConfig(
                n=n, delta_mode=mode, seed=trial,
                bounds_mode=(1.0, 5.0, 8.0, 14.0) if bounded else None,
            )
            inst = generate(cfg)
            for q in _query_mix(rng, inst):
                with np.errstate(invalid="ignore"):
                    sc = score(inst, q)
                    ref = _score_reference(inst, q)
                for got, want in zip((sc.proj, sc.dist_sq, sc.delta_score, sc.tie_flags), ref):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestProjectFeasible:
    def test_worked_example(self):
        inst = two_product_instance()
        out = project_feasible(inst, np.array([2.0, 0.5]))
        assert np.array_equal(out, [2.0, 0.0])

    def test_baseline_fixed_point(self):
        inst = two_product_instance()
        assert np.array_equal(project_feasible(inst, inst.p0), inst.p0)

    def test_matches_brute_force(self, rng):
        for _ in range(120):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 2.0, inst.n)
            mine = project_feasible(inst, q)
            brute = brute_projection(inst, q)
            assert float(np.sum((mine - q) ** 2)) == pytest.approx(
                float(np.sum((brute - q) ** 2)), abs=1e-10
            )

    def test_output_feasible(self, rng):
        for _ in range(40):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 4.0, inst.n)
            out = project_feasible(inst, q)
            assert is_feasible(inst, out)

    def test_selected_scores_dominate(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 2.0, inst.n)
            out = project_feasible(inst, q)
            sc = score(inst, q)
            chosen = out != inst.p0
            if np.any(chosen) and np.any(~chosen):
                assert sc.delta_score[chosen].min() >= sc.delta_score[~chosen].max() - 1e-12

    def test_projection_of_feasible_point_is_identity(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 2.0, inst.n)
            out = project_feasible(inst, q)
            again = project_feasible(inst, out)
            assert np.array_equal(out, again)

    def test_lower_index_wins_ties(self):
        inst = two_product_instance()
        # symmetric query: both coordinates have the same score
        out = project_feasible(inst, np.array([1.0, 1.0]))
        assert np.array_equal(out, [1.0, 0.0])


class TestCertifyInH:
    def test_constructive_membership(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 2.0, inst.n)
            out = project_feasible(inst, q)
            assert certify_in_H(inst, q, out)

    def test_worked_example_rejected(self):
        inst = two_product_instance()
        assert not certify_in_H(inst, np.array([2.0, 0.5]), np.array([0.0, 0.5]))

    def test_perturbation_rejected(self, rng):
        tol = 1e-8
        for _ in range(20):
            inst = random_instance(rng)
            q = inst.p0 + rng.normal(0, 2.0, inst.n)
            out = project_feasible(inst, q)
            changed = np.flatnonzero(out != inst.p0)
            if changed.size == 0:
                continue
            bad = out.copy()
            bad[changed[0]] += 10 * tol
            assert not certify_in_H(inst, q, bad, tol)

    def test_too_many_changes_rejected(self):
        inst = two_product_instance()  # k = 1
        assert not certify_in_H(inst, np.array([2.0, 2.0]), np.array([2.0, 2.0]))


class TestBoundedTies:
    def test_two_valued_rows_with_bounds(self):
        bounds = (-3.0, 4.0)
        assert project_1d(0.0, 1.0, bounds, 0.5) == (0.0, 1.0)
        assert project_1d(0.0, 1.0, bounds, -0.5) == (0.0, -1.0)

    def test_band_rows_with_bounds(self):
        bounds = (-3.0, 4.0)
        assert project_1d(0.0, 1.0, bounds, 0.8) == (1.0, None)
        assert project_1d(0.0, 1.0, bounds, -0.7) == (-1.0, None)
        assert project_1d(0.0, 1.0, bounds, 0.2) == (0.0, None)

    def test_degenerate_interval_edges(self):
        # bounds may touch the thresholds exactly
        assert project_1d(0.0, 1.0, (-1.0, 1.0), 2.5) == (1.0, None)
        assert project_1d(0.0, 1.0, (-1.0, 1.0), -9.0) == (-1.0, None)
