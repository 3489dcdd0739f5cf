import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from priceopt import (
    ContractError,
    GenConfig,
    Instance,
    StructuralError,
    ValidationError,
    brute_projection,
    certify_in_H,
    distance_sq_1d,
    generate,
    is_feasible,
    project_1d,
    project_feasible,
    score,
    with_k,
)
from priceopt.solver import _classify, _random_feasible_start
from conftest import random_instance, reference_member_distance, two_product_instance

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

    @pytest.mark.parametrize("q", [np.inf, -np.inf])
    def test_infinite_query_lies_on_a_branch(self, q):
        assert distance_sq_1d(0.0, 1.0, None, q) == 0.0

    def test_far_query_overflows_to_inf(self):
        assert distance_sq_1d(0.0, 1.0, (-5.0, 5.0), 1e200) == np.inf
        assert distance_sq_1d(0.0, 1.0, (-5.0, 5.0), -1e200) == np.inf

    def test_score_of_infinite_query_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc = score(two_product_instance(), np.array([np.inf, -np.inf]))
        assert np.array_equal(sc.dist_sq, [0.0, 0.0])


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
            # infinite queries, and far ones whose squared distance overflows
            far = rng.random(inst.n) < 0.3
            q[far] = rng.choice([np.inf, -np.inf, 1e200, -1e200], size=int(np.count_nonzero(far)))
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


class TestHugeThresholds:
    @pytest.mark.parametrize("delta", [1e160, 1e200, 1e308])
    def test_window_scores_stay_zero_where_squares_overflow(self, rng, delta):
        inst = generate(GenConfig(n=20, k_fraction=0.3, delta_mode=("const", delta), seed=3))
        with np.errstate(over="ignore"):
            queries = [inst.p0, *_query_mix(rng, inst)]
        for q in queries:
            with np.errstate(over="ignore", invalid="ignore"):
                sc = score(inst, q)
                ref = _score_reference(inst, q)
                got, want = project_feasible(inst, q), _reference_project_feasible(inst, q)
            for g, w in zip((sc.proj, sc.dist_sq, sc.delta_score, sc.tie_flags), ref):
                assert g.tobytes() == w.tobytes()
            assert got.tobytes() == want.tobytes()
        assert not np.any(score(inst, inst.p0).delta_score)


class TestFarQueryBounded:
    """A finite query about 1e200 beyond a bound overflows both squares of
    its gain; the gain must still be the exact one, and the projection must
    move the coordinate to that bound."""

    @pytest.mark.parametrize("value", [1e200, -1e200])
    def test_gain_finite_and_projection_at_bound(self, value):
        inst = generate(GenConfig(n=6, seed=1, bounds_mode=(1.0, 5.0, 8.0, 14.0)))
        q = inst.p0.copy()
        q[0] = value
        bound = inst.upper[0] if value > 0 else inst.lower[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc = score(inst, q)
            p = project_feasible(inst, q)
        exact = (Fraction(inst.p0[0]) - Fraction(value)) ** 2 - (Fraction(bound) - Fraction(value)) ** 2
        assert np.isfinite(sc.delta_score[0])
        assert sc.delta_score[0] == pytest.approx(float(exact), rel=1e-12)
        assert p[0] == bound
        assert np.array_equal(p[1:], inst.p0[1:])
        assert sc.dist_sq[0] == np.inf


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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_price_is_infeasible(self, value):
        inst = generate(GenConfig(n=10, seed=1))
        assert is_feasible(inst, inst.p0)
        p = inst.p0.copy()
        p[0] = value
        assert not is_feasible(inst, p)

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


def _reference_select_top_k(delta_score, k):
    """The argpartition top-k that project_feasible ran before it took the
    k-th largest score by np.partition, kept as the reference."""
    positive = np.flatnonzero(delta_score > 0.0)
    if positive.size <= k:
        return positive
    part = np.argpartition(-delta_score, k - 1)[:k]
    thr = float(delta_score[part].min())
    strictly_above = np.flatnonzero(delta_score > thr)
    tied = np.flatnonzero(delta_score == thr)[: k - strictly_above.size]
    return np.sort(np.concatenate([strictly_above, tied]))


def _reference_positive_top_k(delta_score, k):
    """The top-k that ``_select_top_k`` ran before it tried the full gain
    vector first: the k-th largest among the positive scores only, kept as
    the reference."""
    positive = np.flatnonzero(delta_score > 0.0)
    m = positive.size
    if m <= k:
        return positive
    values = delta_score[positive]
    thr = np.partition(values, m - k)[m - k]
    keep = values >= thr
    if np.count_nonzero(keep) > k:
        keep = values > thr
        keep[np.flatnonzero(values == thr)[: k - np.count_nonzero(keep)]] = True
    return positive[np.flatnonzero(keep)]


class TestSelectTopKMatchesReference:
    def test_levels_ties_zeros_and_nan(self, rng):
        from priceopt.projection import _select_top_k

        seen = set()
        for trial in range(3000):
            n = int(rng.integers(1, 30))
            levels = np.array([0.0, 0.0, 1.0, 2.0, 2.0, 3.5, np.nan, 1e-300, np.inf])
            pick = levels[: int(rng.integers(2, levels.size + 1))]
            scores = rng.choice(pick, size=n)
            if trial % 2:
                # distinct positive scores mixed in
                scores = np.where(rng.random(n) < 0.5, rng.random(n), scores)
            k = n if trial % 7 == 0 else int(rng.integers(1, n + 1))
            got = _select_top_k(scores, k)
            want = _reference_positive_top_k(scores, k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # m positive scores; with m > k, either exactly k reach the k-th
            # largest score or the selection falls back (ties at it, nan)
            m = np.count_nonzero(scores > 0.0)
            seen.add("k=n" if k == n else "m<k" if m < k else "m=k" if m == k else "m>k")
            seen.add("nan" if np.isnan(scores).any() else "finite")
            if m > k:
                thr = np.partition(scores, n - k)[n - k]
                seen.add("k reach it" if thr > 0.0 and np.count_nonzero(scores >= thr) == k else "fallback")
        assert seen == {"k=n", "m<k", "m=k", "m>k", "nan", "finite", "k reach it", "fallback"}


def _reference_project_feasible(instance, q):
    """project_feasible as it was before the branch-free gains: every
    coordinate's 1-D projection from ``score`` (held to its reference bytes by
    TestScoreMatchesReference) and the argpartition top-k."""
    sc = score(instance, q)
    chosen = _reference_select_top_k(sc.delta_score, instance.k)
    p = instance.p0.copy()
    p[chosen] = sc.proj[chosen]
    return p


def _reference_classify(instance, p):
    """The masked-store status vector that ``solver._classify`` built before it
    used the cached edges and int8 views, kept as the reference."""
    status = np.zeros(instance.n, dtype=np.int8)
    status[p >= instance.p0 + instance.delta] = 1
    status[p <= instance.p0 - instance.delta] = 2
    return status


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _flat_instance(rng, n, bounded):
    """An instance whose p0 and delta are the same in every coordinate, so
    that queries at the same offset score exactly the same."""
    inst = generate(GenConfig(n=n, seed=int(rng.integers(0, 2**31))))
    p0, delta = np.full(n, 10.0), np.full(n, 0.5)
    bounds = (np.full(n, 8.25), np.full(n, 11.5)) if bounded else None
    return Instance(n=n, k=int(rng.integers(1, n + 1)), a=inst.a, D=inst.D, c=inst.c, p0=p0,
                    delta=delta, bounds=bounds)


_OFFSETS = np.array([0.0, 0.3, -0.3, 0.5, -0.5, 0.75, -0.75, 1.0, -1.0, 2.5, -2.5, 6.0, -6.0])


class TestProjectFeasibleMatchesReference:
    def test_query_mix(self, rng):
        for trial in range(200):
            n = int(rng.integers(2, 40))
            bounded = trial % 2 == 0
            mode = ("const", float(rng.uniform(0.2, 1.2))) if trial % 4 < 2 else ("fraction", 0.1)
            cfg = GenConfig(
                n=n, delta_mode=mode, seed=trial,
                bounds_mode=(1.0, 5.0, 8.0, 14.0) if bounded else None,
            )
            inst = with_k(generate(cfg), int(rng.integers(1, n + 1)))
            for q in _query_mix(rng, inst):
                with np.errstate(invalid="ignore"):
                    want = _reference_project_feasible(inst, q)
                    got = project_feasible(inst, q)
                assert _same_bytes(got, want)

    def test_ties_at_the_kth_score(self, rng):
        # many coordinates share each offset, so several scores tie exactly at
        # the k-th largest and the lower indices must win the remaining slots
        straddled = 0
        for trial in range(300):
            inst = _flat_instance(rng, int(rng.integers(4, 60)), bounded=trial % 2 == 0)
            levels = rng.choice(_OFFSETS, size=int(rng.integers(2, 5)), replace=False)
            q = inst.p0 + rng.choice(levels, size=inst.n) * inst.delta
            want = _reference_project_feasible(inst, q)
            assert _same_bytes(project_feasible(inst, q), want)
            gains = score(inst, q).delta_score
            positive = np.sort(gains[gains > 0.0])[::-1]
            if positive.size > inst.k:
                thr = positive[inst.k - 1]
                straddled += np.count_nonzero(positive == thr) > np.count_nonzero(positive[: inst.k] == thr)
        assert straddled >= 50


class TestClassifyMatchesReference:
    def _points(self, rng, inst):
        for q in _query_mix(rng, inst):
            yield q
            with np.errstate(invalid="ignore"):
                yield project_feasible(inst, q)
        yield _random_feasible_start(inst, rng)

    @pytest.mark.parametrize("bounded", [False, True])
    def test_bit_identical(self, rng, bounded):
        for trial in range(150):
            inst = random_instance(rng, n_hi=30, bounded=bounded)
            for p in self._points(rng, inst):
                assert _same_bytes(_classify(inst, p), _reference_classify(inst, p))
            flat = _flat_instance(rng, 20, bounded)
            p = flat.p0 + rng.choice(_OFFSETS, size=flat.n) * flat.delta
            assert _same_bytes(_classify(flat, p), _reference_classify(flat, p))

    def test_thresholds_below_the_baseline_spacing(self):
        # p0 + delta and p0 - delta would both round to p0, so the moved
        # branches would fall onto the baseline: construction refuses it
        with pytest.raises(ValidationError, match=r"delta\[0\] = 1.0 is below the float spacing"):
            Instance(n=3, k=1, a=np.ones(3), D=np.eye(3), c=np.ones(3), p0=np.full(3, 1e17),
                     delta=np.ones(3))


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

    def test_non_finite_inputs_rejected(self):
        # a nan in q made the tie margin nan and the residual 0, so p0 was
        # certified although the projection changes 2 coordinates
        inst = with_k(generate(GenConfig(n=10, seed=1)), 2)
        q = inst.p0 + 3 * inst.delta
        q[:3] = np.nan
        with pytest.raises(StructuralError, match="finite"):
            certify_in_H(inst, q, inst.p0)
        q = inst.p0 + 3 * inst.delta
        for bad in (np.nan, np.inf, -np.inf):
            p = project_feasible(inst, q)
            p[0] = bad
            with pytest.raises(StructuralError, match="finite"):
                certify_in_H(inst, q, p)
        with pytest.raises(StructuralError, match="length 10"):
            certify_in_H(inst, q[:9], inst.p0)


def _reference_certify_in_H(instance, q, p, tol=1e-8):
    """The exact changed-set test that certify_in_H ran before it shared the
    closed-form residual with certify_stationary, kept as the reference.

    sigma = {i : p_i != p0_i}: at most k changes, every changed coordinate
    within tol of a 1-D minimizer, and either gain dominance (|sigma| = k:
    every selected score at least every unselected one, within tol) or zero
    gain (|sigma| < k: every unselected score at most tol).
    """
    sigma = p != instance.p0
    n_changed = int(np.count_nonzero(sigma))
    if n_changed > instance.k:
        return False
    sc = score(instance, q)
    if n_changed and np.any(reference_member_distance(instance, q, p, tol)[sigma] > tol):
        return False
    outside = ~sigma
    max_out = float(sc.delta_score[outside].max()) if np.any(outside) else 0.0
    if n_changed == instance.k:
        min_in = float(sc.delta_score[sigma].min()) if n_changed else 0.0
        return min_in >= max_out - tol
    return max_out <= tol


def _certify_cases(rng, inst, tol):
    """(q, p) pairs the differential test compares: projections, a changed
    coordinate moved by 10 tol or reset to p0, a near-tied pair swapped,
    random feasible points, and exact half-threshold queries."""
    p0, delta = inst.p0, inst.delta
    q = p0 + rng.normal(0.0, 2.0, inst.n) * delta
    out = project_feasible(inst, q)
    yield q, out
    changed, unchanged = np.flatnonzero(out != p0), np.flatnonzero(out == p0)
    if changed.size:
        i = rng.choice(changed)
        moved = out.copy()
        moved[i] += rng.choice([-10.0, 10.0]) * tol
        yield q, moved
        yield q, np.where(np.arange(inst.n) == i, p0, out)
    if changed.size and unchanged.size:
        # j gets i's offset from p0 less a hair (thresholds are equal), so
        # their scores tie within tol where the bounds allow; p swaps them
        j = rng.choice(unchanged)
        q_near = q.copy()
        q_near[j] = p0[j] + (q[i] - p0[i]) * (1.0 - 1e-12)
        p_near = project_feasible(inst, q_near)
        yield q_near, p_near
        swapped = p_near.copy()
        swapped[[i, j]] = p0[i], score(inst, q_near).proj[j]
        yield q_near, swapped
    # the solver's random start, with a budget of at most k changes
    feasible = _random_feasible_start(with_k(inst, int(rng.integers(1, inst.k + 1))), rng)
    yield feasible, feasible
    yield q, feasible
    # exact half-threshold queries; p takes either tie value on any of them
    half = rng.random(inst.n) < 0.5
    q_tie = np.where(half, p0 + rng.choice([-0.5, 0.5], inst.n) * delta, q)
    p_tie = project_feasible(inst, q_tie)
    yield q_tie, p_tie
    flip = half & (rng.random(inst.n) < 0.5)
    other = np.where(p_tie == p0, np.where(q_tie > p0, p0 + delta, p0 - delta), p0)
    yield q_tie, np.where(flip, other, p_tie)


class TestCertifyMatchesReference:
    def test_agrees_on_random_cases(self, rng):
        tol = 1e-8
        verdicts = set()
        for trial in range(600):
            inst = random_instance(rng, n_hi=30, bounded=trial % 2 == 0)
            for q, p in _certify_cases(rng, inst, tol):
                want = _reference_certify_in_H(inst, q, p, tol)
                assert certify_in_H(inst, q, p, tol) == want
                verdicts.add(want)
        assert verdicts == {False, True}

    def test_sub_tol_noise_on_unchanged_coordinate(self):
        # the one intended difference: p is within tol of a member of H(q),
        # but the exact changed-set test counts the noisy coordinate as a
        # change beyond the budget
        inst = two_product_instance()  # k = 1
        q = np.array([2.0, 0.1])
        p = project_feasible(inst, q)
        assert p.tolist() == [2.0, 0.0]
        noisy = p + np.array([0.0, 0.5e-8])
        assert not _reference_certify_in_H(inst, q, noisy, 1e-8)
        assert certify_in_H(inst, q, noisy, 1e-8)
        assert not certify_in_H(inst, q, p + np.array([0.0, 2e-8]), 1e-8)


def _reference_full_budget_residual(instance, q, p, tol):
    """The k = n branch that _membership_residual ran before the general
    path covered it, kept as the reference."""
    delta_score = score(instance, q).delta_score
    in_cost = reference_member_distance(instance, q, p, tol)
    out_cost = np.abs(p - instance.p0)
    tied = delta_score <= _reference_tie_margin(instance, q, tol)
    return float(np.max(np.minimum(in_cost, np.where(tied, out_cost, np.inf))))


def _reference_tie_margin(instance, q, tol):
    return 4.0 * tol * (1.0 + float(np.max(np.abs(q - instance.p0))) + float(np.max(instance.delta)))


def _reference_membership_residual(instance, q, p, tol):
    """``_membership_residual`` as it was before it took its gains from
    ``_gains`` and computed the 1-D distances only where they count: every
    cost over all n coordinates, kept as the reference."""
    n, k = instance.n, instance.k
    delta_score = score(instance, q).delta_score
    in_cost = reference_member_distance(instance, q, p, tol)
    out_cost = np.abs(p - instance.p0)
    tol_delta = _reference_tie_margin(instance, q, tol)

    theta = float(np.partition(delta_score, n - k)[n - k])
    fill_slots = theta > tol_delta
    if fill_slots:
        must_in = delta_score > theta + tol_delta
        never_in = delta_score < theta - tol_delta
    else:
        must_in = delta_score > tol_delta
        never_in = np.zeros(n, dtype=bool)
    pool = ~must_in & ~never_in
    slots = k - int(np.count_nonzero(must_in))
    pool_in, pool_out = in_cost[pool], out_cost[pool]

    minima = [in_cost[must_in], out_cost[never_in], np.minimum(pool_in, pool_out)]
    m = pool_out.size
    if m > slots:
        minima.append(np.partition(pool_out, m - slots - 1)[m - slots - 1])
    if fill_slots:
        minima.append(np.partition(pool_in, slots - 1)[slots - 1])
    return max(float(np.max(r, initial=0.0)) for r in minima)


def _reference_is_feasible(instance, p):
    """is_feasible as it was before it classified p with ``_classify``,
    kept as the reference."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (instance.n,) or not np.all(np.isfinite(p)):
        return False
    p0, delta = instance.p0, instance.delta
    moved = p != p0
    if np.count_nonzero(moved) > instance.k:
        return False
    if not np.all(~moved | (p >= p0 + delta) | (p <= p0 - delta)):
        return False
    if instance.bounds is not None:
        l, u = instance.bounds
        if np.any(moved & ((p < l) | (p > u))):
            return False
    return True


class TestFullBudgetResidual:
    @pytest.mark.parametrize("tol", [1e-8, 1e-7, 1e-3])
    def test_general_path_matches_reference_bytes(self, rng, tol):
        from priceopt.projection import _membership_residual

        cases = 0
        for trial in range(120):
            inst = random_instance(rng, n_hi=30, bounded=trial % 2 == 0)
            inst = with_k(inst, inst.n)
            for q, p in _certify_cases(rng, inst, tol):
                got = _membership_residual(inst, q, p, tol)
                want = _reference_full_budget_residual(inst, q, p, tol)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                cases += 1
        assert cases > 1000


def _residual_bytes(fn, instance, q, p, tol):
    with np.errstate(invalid="ignore", over="ignore"):
        return np.float64(fn(instance, q, p, tol)).tobytes()


class TestMembershipResidualMatchesReference:
    @pytest.mark.parametrize("tol", [1e-8, 1e-7, 1e-3])
    def test_certify_cases(self, rng, tol):
        from priceopt.projection import _membership_residual

        cases, full_budget, slack = 0, 0, 0
        for trial in range(160):
            inst = random_instance(rng, n_hi=30, bounded=trial % 2 == 0)
            if trial % 4 >= 2:
                inst = with_k(inst, inst.n)
            for q, p in _certify_cases(rng, inst, tol):
                got = _residual_bytes(_membership_residual, inst, q, p, tol)
                assert got == _residual_bytes(_reference_membership_residual, inst, q, p, tol)
                cases += 1
                full_budget += inst.k == inst.n
                slack += np.frombuffer(got)[0] > tol
        assert cases >= 1000 and 0 < full_budget < cases and slack > 0

    def test_query_mix_with_infinite_and_nan_queries(self, rng):
        # the mix puts queries at p0, the thresholds, the half-threshold
        # ties, the bounds and beyond them, and +-inf and nan in some rows
        from priceopt.projection import _membership_residual

        for trial in range(150):
            inst = random_instance(rng, n_hi=30, bounded=trial % 2 == 0)
            for q in _query_mix(rng, inst):
                with np.errstate(invalid="ignore"):
                    points = (project_feasible(inst, q), _random_feasible_start(inst, rng), inst.p0)
                for p in points:
                    for tol in (1e-8, 1e-3):
                        want = _residual_bytes(_reference_membership_residual, inst, q, p, tol)
                        assert _residual_bytes(_membership_residual, inst, q, p, tol) == want

    @pytest.mark.parametrize("bounded", [False, True])
    def test_gpa_end_points(self, rng, bounded):
        from priceopt import SolverParams, gpa_solve, gradient_q, spectral_bounds
        from priceopt.projection import _membership_residual

        for trial in range(40):
            inst = random_instance(rng, n_lo=5, n_hi=60, bounded=bounded)
            if trial % 3 == 0:
                inst = with_k(inst, inst.n)
            L = spectral_bounds(inst).L
            start = _random_feasible_start(inst, rng)
            p = gpa_solve(inst, start, SolverParams(max_iters=int(rng.integers(1, 40))), L=L).final_p
            q = p - gradient_q(inst, p) / L
            for tol in (1e-8, 1e-7, 1e-3):
                want = _residual_bytes(_reference_membership_residual, inst, q, p, tol)
                assert _residual_bytes(_membership_residual, inst, q, p, tol) == want


class TestIsFeasibleMatchesReference:
    def _points(self, rng, inst):
        for q in _query_mix(rng, inst):
            yield q
            with np.errstate(invalid="ignore"):
                p = project_feasible(inst, q)
            yield p
            # a moved coordinate nudged into the gap between the branches
            moved = np.flatnonzero(p != inst.p0)
            if moved.size:
                gap = p.copy()
                i = rng.choice(moved)
                gap[i] = inst.p0[i] + rng.uniform(-0.99, 0.99) * inst.delta[i]
                yield gap
        yield _random_feasible_start(inst, rng)

    @pytest.mark.parametrize("bounded", [False, True])
    def test_same_verdicts(self, rng, bounded):
        verdicts = set()
        for trial in range(150):
            inst = random_instance(rng, n_hi=30, bounded=bounded)
            for p in self._points(rng, inst):
                want = _reference_is_feasible(inst, p)
                assert is_feasible(inst, p) == want
                verdicts.add(want)
        assert verdicts == {False, True}


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


# -- one box per price: the unbounded model is the bounded one with l = -inf
#    and u = +inf; the references below are the separate unbounded paths that
#    projection and solver kept before, held to the same bits


def _branchy_clamps(up, dn, bounds, q):
    """``projection._clamps`` with its own unbounded path, kept as the reference."""
    if bounds is None:
        return np.maximum(q, up), np.minimum(q, dn)
    l, u = bounds
    return np.clip(q, up, u), np.clip(q, l, dn)


def _branchy_bounds(instance, idx):
    return None if instance.bounds is None else (instance.bounds[0][idx], instance.bounds[1][idx])


def _branchy_proj(instance, q):
    """``score``'s 1-D projection through ``_branchy_clamps``."""
    p0, delta = instance.p0, instance.delta
    c_up, c_dn = _branchy_clamps(p0 + delta, p0 - delta, instance.bounds, q)
    window = (q >= p0 - 0.5 * delta) & (q <= p0 + 0.5 * delta)
    return np.where(window, p0, np.where(q > p0, c_up, c_dn))


def _branchy_project_feasible(instance, q):
    from priceopt.projection import _gains, _select_top_k

    chosen = _select_top_k(_gains(instance, q), instance.k)
    up, dn, _, _ = instance._edges
    q_c = q[chosen]
    c_up, c_dn = _branchy_clamps(up[chosen], dn[chosen], _branchy_bounds(instance, chosen), q_c)
    p = instance.p0.copy()
    p[chosen] = np.where(q_c > instance.p0[chosen], c_up, c_dn)
    return p


def _branchy_is_feasible(instance, p):
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (instance.n,) or not np.all(np.isfinite(p)):
        return False
    moved = p != instance.p0
    if np.count_nonzero(moved) > instance.k:
        return False
    off = _classify(instance, p) == 0
    if instance.bounds is not None:
        l, u = instance.bounds
        off |= (p < l) | (p > u)
    return not np.any(moved & off)


def _branchy_member_distance(instance, q, p, tol, idx):
    up, dn, _, _ = instance._edges
    q, p, p0 = q[idx], p[idx], instance.p0[idx]
    c_up, c_dn = _branchy_clamps(up[idx], dn[idx], _branchy_bounds(instance, idx), q)
    candidates = (c_up, c_dn, p0)
    d_cand = [np.abs(c - q) for c in candidates]
    d_best = np.minimum(np.minimum(d_cand[0], d_cand[1]), d_cand[2])
    dist = np.full(idx.size, np.inf)
    for c, d in zip(candidates, d_cand):
        dist = np.where(d <= d_best + tol, np.minimum(dist, np.abs(p - c)), dist)
    return dist


def _branchy_partition_box(instance, partition):
    p0 = instance.p0
    up, dn, _, _ = instance._edges
    raised, lowered = partition.status == 1, partition.status == 2
    l, u = (-np.inf, np.inf) if instance.bounds is None else instance.bounds
    lo = np.where(raised, up, np.where(lowered, l, p0))
    hi = np.where(raised, u, np.where(lowered, dn, p0))
    return lo, hi


def _branchy_random_feasible_start(instance, rng):
    n, k = instance.n, instance.k
    support = rng.choice(n, size=k, replace=False)
    sides = rng.integers(0, 2, size=k) * 2 - 1
    start = instance.p0.copy()
    with np.errstate(over="ignore"):
        moves = instance.delta[support] * (1.0 + rng.random(k))
        start[support] = instance.p0[support] + sides * moves
    if instance.bounds is not None:
        start[support] = np.clip(start[support], instance.lower[support], instance.upper[support])
    return start


# p0 = -delta puts the raised edge p0 + delta at +0.0, p0 = delta the lowered
# edge, and p0 = -+delta/2 an end of the half-threshold window; -0.0 is a
# baseline of its own
_SHIFTS = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.7]
_FAR = [1e155, -1e155, 1e200, -1e200, 1e300, -1e300]


@st.composite
def _boxed_cases(draw):
    """A small instance, bounded or not, with zero edges and bounds of
    either sign, and a query at its edges, at +-0.0 and beyond 1e154."""
    n = draw(st.integers(1, 6))
    delta = np.array([draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) for _ in range(n)])
    p0 = np.array([draw(st.sampled_from(_SHIFTS)) for _ in range(n)]) * delta
    up, dn = p0 + delta, p0 - delta
    bounds = None
    if draw(st.booleans()):
        lo = [draw(st.sampled_from([d, d - 1.0, d - 100.0] + [-0.0, 0.0] * (d >= 0.0))) for d in dn.tolist()]
        hi = [draw(st.sampled_from([u, u + 1.0, u + 100.0] + [-0.0, 0.0] * (u <= 0.0))) for u in up.tolist()]
        bounds = (np.array(lo), np.array(hi))
    inst = Instance(n=n, k=draw(st.integers(1, n)), a=np.ones(n), D=np.eye(n), c=np.ones(n),
                    p0=p0, delta=delta, bounds=bounds)
    edges = [p0, up, dn, p0 - 0.5 * delta, p0 + 0.5 * delta, inst.lower, inst.upper,
             p0 + 0.7 * delta, p0 - 1.3 * delta]
    q = np.array([
        draw(st.one_of(
            st.sampled_from([0.0, -0.0, *_FAR] + [float(e[i]) for e in edges if np.isfinite(e[i])]),
            st.floats(-1e300, 1e300),
        ))
        for i in range(n)
    ])
    return inst, q, draw(st.integers(0, 2**32 - 1))


def _signed_zero_case():
    """Lowered edge +0.0 with l = -0.0 and raised edge +0.0 with u = -0.0,
    queried at +0.0: the clamps must take the zero's sign as np.clip does."""
    inst = Instance(n=2, k=1, a=np.ones(2), D=np.eye(2), c=np.ones(2), p0=np.array([0.25, -0.25]),
                    delta=np.full(2, 0.25), bounds=(np.array([-0.0, -0.5]), np.array([0.5, -0.0])))
    return inst, np.zeros(2), 0


class TestOneBoxMatchesBranchyPaths:
    @settings(max_examples=400, deadline=None)
    @given(case=_boxed_cases())
    @example(case=_signed_zero_case())
    def test_bit_identical(self, case):
        from unittest import mock

        from priceopt import projection
        from priceopt.solver import Partition, _partition_box

        inst, q, seed = case
        sc = score(inst, q)
        want_proj = _branchy_proj(inst, q)
        assert _same_bytes(sc.proj, want_proj)
        assert _same_bytes(sc.dist_sq, projection._distance_sq(want_proj, q))

        p = project_feasible(inst, q)
        assert _same_bytes(p, _branchy_project_feasible(inst, q))

        start = _random_feasible_start(inst, np.random.default_rng(seed))
        assert _same_bytes(start, _branchy_random_feasible_start(inst, np.random.default_rng(seed)))

        for point in (q, p, start, inst.p0):
            assert is_feasible(inst, point) == _branchy_is_feasible(inst, point)
            assert all(
                _same_bytes(got, want)
                for got, want in zip(
                    _partition_box(inst, Partition.from_status(_classify(inst, point))),
                    _branchy_partition_box(inst, Partition.from_status(_classify(inst, point))),
                )
            )
            idx = np.arange(inst.n)
            for tol in (1e-8, 1e-3):
                got = projection._member_distance(inst, q, point, tol, idx)
                assert _same_bytes(got, _branchy_member_distance(inst, q, point, tol, idx))
                verdict = certify_in_H(inst, q, point, tol)
                with mock.patch.object(projection, "_member_distance", _branchy_member_distance):
                    assert verdict == certify_in_H(inst, q, point, tol)

