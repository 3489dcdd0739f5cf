import numpy as np
import pytest
from scipy import sparse

from priceopt import ContractError, GenConfig, generate, generate_profitable, benchmark_suite, validate
from priceopt.generator import _DOMINANCE_MARGIN, _apply_dominance_fix, _build_matrix

from conftest import instance_bytes, traced_peak


def _reference_row(rng, i, n, m, cap, mixed):
    """The recipe's definition of one off-diagonal row: redraw until valid."""
    while True:
        cols = rng.integers(0, n - 1, size=m)
        cols = np.where(cols >= i, cols + 1, cols)
        vals = -rng.uniform(0.0, cap, size=m)
        if mixed:
            flip = rng.random(m) < 0.5
            vals = np.where(flip, -vals, vals)
        if np.unique(cols).size == m and np.all(vals != 0.0):
            return cols, vals


def _reference_build_matrix(rng, cfg):
    """The row-by-row matrix draw that the block replay must reproduce."""
    n = cfg.n
    diag = rng.uniform(cfg.diag_range[0], cfg.diag_range[1], size=n)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diag]
    if n > 1 and cfg.offdiag_max_count > 0:
        counts = rng.integers(0, cfg.offdiag_max_count + 1, size=n)
        for i in range(n):
            m = min(int(counts[i]), n - 1)
            if m == 0:
                continue
            c, v = _reference_row(rng, i, n, m, cfg.offdiag_rel_mag * diag[i], cfg.allow_mixed_signs)
            rows.append(np.full(m, i))
            cols.append(c)
            vals.append(v)
    coo = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return sparse.csr_array(coo)


def _reference_dominance_fix(D):
    """The dominance fix through COO copies of S and D, which the CSR version must match."""
    n = D.shape[0]
    diag = D.diagonal()
    S = sparse.coo_array(D + sparse.csr_array(D.T))
    off = S.row != S.col
    if not np.any(off):
        return D
    row_sums = np.zeros(n)
    np.add.at(row_sums, S.row[off], np.abs(S.data[off]))
    target = 2.0 * diag * (1.0 - _DOMINANCE_MARGIN) * (1.0 - 1e-6)
    rho = row_sums / target
    if np.all(rho <= 1.0):
        return D
    coo = sparse.coo_array(D)
    keep = coo.row != coo.col
    scale = 1.0 / np.maximum(1.0, np.maximum(rho[coo.row], rho[coo.col]))
    data = np.where(keep, coo.data * scale, coo.data)
    return sparse.csr_array(sparse.coo_array((data, (coo.row, coo.col)), shape=(n, n)))


def _reference_apply_dominance_fix(D):
    """The CSR dominance fix before S came from ``instance._plus_transpose``:
    int64 indices, and the row sums by ``np.add.at`` over the off-diagonal
    entries only."""
    n = D.shape[0]
    diag = D.diagonal()
    S = D + sparse.csr_array(D.T)
    s_rows = np.repeat(np.arange(n), np.diff(S.indptr))
    off = s_rows != S.indices
    if not np.any(off):
        return D
    row_sums = np.zeros(n)
    np.add.at(row_sums, s_rows[off], np.abs(S.data[off]))  # in S's CSR order
    target = 2.0 * diag * (1.0 - _DOMINANCE_MARGIN) * (1.0 - 1e-6)
    rho = row_sums / target
    rows, cols = np.repeat(np.arange(n), np.diff(D.indptr)), D.indices
    scale = 1.0 / np.maximum(1.0, np.maximum(rho[rows], rho[cols]))
    data = np.where(rows != cols, D.data * scale, D.data)
    return sparse.csr_array((data, cols, D.indptr), shape=(n, n))


def _cancelling_draw(n, seed):
    """A mixed-sign draw in which every other off-diagonal d_ij gets a partner
    d_ji = -d_ij, so that s_ij = d_ij + d_ji cancels to zero."""
    cfg = GenConfig(n=n, seed=seed, allow_mixed_signs=True)
    D = _build_matrix(np.random.default_rng(seed), cfg).tocoo()
    off = D.row != D.col
    stored = set(zip(D.row.tolist(), D.col.tolist()))
    mirrored = [
        (j, i, -v)
        for i, j, v in zip(D.row[off][::2].tolist(), D.col[off][::2].tolist(), D.data[off][::2].tolist())
        if (j, i) not in stored
    ]
    rows, cols, vals = (np.array(x) for x in zip(*mirrored))
    return sparse.csr_array(sparse.coo_array(
        (np.concatenate([D.data, vals]), (np.concatenate([D.row, rows]), np.concatenate([D.col, cols]))),
        shape=(n, n),
    ))


def _pairwise_differs(D):
    """Whether some row of S = D + D^T sums its off-diagonal |s_ij| differently
    pairwise (``np.sum``, more than 8 terms) and one after another."""
    S = sparse.csr_array(D + D.T)
    for i in range(D.shape[0]):
        lo, hi = S.indptr[i], S.indptr[i + 1]
        w = np.abs(S.data[lo:hi][S.indices[lo:hi] != i])
        if w.size > 8 and np.sum(w) != np.add.accumulate(w)[-1]:
            return True
    return False


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate(GenConfig(n=200, seed=42, bounds_mode=(1, 5, 5, 10)))
        b = generate(GenConfig(n=200, seed=42, bounds_mode=(1, 5, 5, 10)))
        assert a.same_data(b)

    def test_different_seeds_differ(self):
        a = generate(GenConfig(n=50, seed=1))
        b = generate(GenConfig(n=50, seed=2))
        assert not a.same_data(b)

    def test_reference_outputs_seed_zero(self):
        # frozen PCG64 draws; a change here means reproducibility broke
        inst = generate(GenConfig(n=6, seed=0))
        np.testing.assert_allclose(
            inst.D.diagonal(),
            [6.73265519, 3.42808042, 1.36876172, 1.14874872, 8.31943215, 9.2148002],
            atol=1e-8,
        )
        np.testing.assert_allclose(
            inst.p0,
            [9.36193799, 1.59474247, 8.57185552, 1.60021008, 4.09878981, 4.87268859],
            atol=1e-8,
        )
        np.testing.assert_allclose(
            np.asarray(inst.f),
            [9.69455873, 6.06008658, 3.32978134, 3.17508143, 8.99306489, 3.03282486],
            atol=1e-8,
        )
        assert inst.D.nnz == 27


class TestBlockReplay:
    @pytest.mark.parametrize("n", [2, 3, 7, 200, 1000, 20000])
    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("max_count", [1, 5, 12])
    def test_bit_identical_to_row_loop(self, n, mixed, max_count):
        for seed in range(4) if n <= 1000 else (n + max_count,):
            cfg = GenConfig(n=n, seed=seed, allow_mixed_signs=mixed, offdiag_max_count=max_count)
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want, got = _reference_build_matrix(ref_rng, cfg), _build_matrix(rng, cfg)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.indices.dtype == want.indices.dtype
            assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
            # the generator is left where the row loop leaves it, 32-bit buffer included
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert rng.integers(0, 2**32, size=3).tolist() == ref_rng.integers(0, 2**32, size=3).tolist()
            assert rng.random() == ref_rng.random()

    def test_redrawn_rows_are_covered(self, monkeypatch):
        # Rows that NumPy draws again go through the fallback row.  At this n,
        # 2**32 mod (n - 1) makes Lemire rejections likely enough that this
        # seed has both kinds: a repeated column and a rejected column draw.
        import copy

        import priceopt.generator as gen_mod

        reasons = []
        row = gen_mod._draw_offdiag_row

        def classified(rng, i, n, m, *args):
            first_try = np.random.Generator(copy.deepcopy(rng.bit_generator))
            cols = first_try.integers(0, n - 1, size=m)  # with NumPy's own rejections
            reasons.append("repeat" if np.unique(cols).size < m else "rejected")
            return row(rng, i, n, m, *args)

        monkeypatch.setattr(gen_mod, "_draw_offdiag_row", classified)
        cfg = GenConfig(n=26421, seed=0, offdiag_max_count=12)
        want = _reference_build_matrix(np.random.default_rng(0), cfg)
        got = _build_matrix(np.random.default_rng(0), cfg)
        assert {"repeat", "rejected"} <= set(reasons)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    def test_zero_cap_rejected_instead_of_hanging(self):
        with pytest.raises(ContractError, match="offdiag_rel_mag"):
            GenConfig(n=10, offdiag_rel_mag=0.0)
        with pytest.raises(ContractError, match="diag_range"):
            GenConfig(n=10, diag_range=(0.0, 0.0))
        with pytest.raises(ContractError):
            GenConfig(n=10, diag_range=(-1.0, 2.0))
        # without off-diagonal entries there is nothing to redraw
        inst = generate(GenConfig(n=10, offdiag_max_count=0, offdiag_rel_mag=0.0))
        assert inst.D.nnz == 10

    def test_unreachable_row_rejected_instead_of_hanging(self):
        # 40 distinct columns of 49 by draws with replacement: about 2.4e10 draws per full row
        with pytest.raises(ContractError, match="offdiag_max_count=40 at n=50 needs about 10\\^10.4 draws"):
            GenConfig(n=50, offdiag_max_count=40)
        with pytest.raises(ContractError, match="offdiag_max_count"):
            GenConfig(n=10**9, offdiag_max_count=10**9)

    @pytest.mark.parametrize("n, max_count", [(50, 20), (7, 12), (10, 9), (10, 40)])
    def test_reachable_rows_still_generate(self, n, max_count):
        # about 93, 65, 1,068 and 1,068 expected draws of a full row
        inst = generate(GenConfig(n=n, seed=3, offdiag_max_count=max_count))
        assert inst.D.nnz > n


class TestRecipe:
    def test_k_is_fraction_of_n(self):
        assert generate(GenConfig(n=200, k_fraction=0.1, seed=0)).k == 20
        assert generate(GenConfig(n=5, k_fraction=0.01, seed=0)).k == 1

    def test_diag_in_range_offdiag_negative_and_small(self):
        inst = generate(GenConfig(n=300, seed=3, dominance_fix=False))
        diag = inst.D.diagonal()
        assert np.all((diag >= 1.0) & (diag <= 10.0))
        coo = inst.D.tocoo()
        off = coo.row != coo.col
        assert np.all(coo.data[off] < 0.0)
        assert np.all(np.abs(coo.data[off]) <= 0.2 * diag[coo.row[off]])
        per_row = np.bincount(coo.row[off], minlength=300)
        assert per_row.max() <= 5

    def test_mixed_signs_allowed(self):
        inst = generate(GenConfig(n=300, seed=3, allow_mixed_signs=True, dominance_fix=False))
        coo = inst.D.tocoo()
        off = coo.data[coo.row != coo.col]
        assert np.any(off > 0) and np.any(off < 0)

    def test_objective_coefficient_range(self):
        inst = generate(GenConfig(n=100, seed=5, dominance_fix=False))
        f = np.asarray(inst.f)
        assert np.all((f >= 1.0) & (f <= 10.0))

    def test_literal_sign_flag(self):
        inst = generate(GenConfig(n=100, seed=5, dominance_fix=False, literal_sign=True))
        f = np.asarray(inst.f)
        assert np.all((f <= -1.0) & (f >= -10.0))

    def test_delta_modes(self):
        const = generate(GenConfig(n=20, seed=1, delta_mode=("const", 0.5)))
        assert np.all(const.delta == 0.5)
        frac = generate(GenConfig(n=20, seed=1, delta_mode=("fraction", 0.1)))
        np.testing.assert_allclose(frac.delta, 0.1 * frac.p0)

    def test_bounds_repaired_to_consistency(self):
        inst = generate(GenConfig(n=500, seed=7, bounds_mode=(1, 5, 5, 10), delta_mode=("const", 1.0)))
        assert np.all(inst.lower <= inst.p0 - inst.delta)
        assert np.all(inst.upper >= inst.p0 + inst.delta)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ContractError):
            GenConfig(n=0)
        with pytest.raises(ContractError):
            GenConfig(n=5, k_fraction=0.0)
        with pytest.raises(ContractError):
            GenConfig(n=5, delta_mode=("const", -1.0))
        with pytest.raises(ContractError):
            GenConfig(n=5, f_range=(10.0, 1.0))
        with pytest.raises(ContractError):
            GenConfig(n=5, seed=-1)

    def test_overlapping_bound_ranges_rejected(self):
        # l_hi > u_lo lets some u_i fall below l_i; ranges that touch are fine
        with pytest.raises(ContractError, match=r"must not overlap: l in \[1, 5\] and u in \[3, 10\]$"):
            GenConfig(n=5, bounds_mode=(1.0, 5.0, 3.0, 10.0))
        GenConfig(n=5, bounds_mode=(1.0, 5.0, 5.0, 10.0))


class TestDominanceFix:
    def _row_margins(self, inst):
        S = inst.S.tocoo()
        off = S.row != S.col
        sums = np.zeros(inst.n)
        np.add.at(sums, S.row[off], np.abs(S.data[off]))
        return 2.0 * inst.D.diagonal() * (1.0 - 1e-3) - sums

    def test_strict_dominance_holds(self):
        for seed in range(4):
            inst = generate(GenConfig(n=400, seed=seed))
            assert np.all(self._row_margins(inst) > 0.0)

    def test_strict_dominance_with_mixed_signs(self):
        inst = generate(GenConfig(n=400, seed=9, allow_mixed_signs=True))
        assert np.all(self._row_margins(inst) > 0.0)

    def test_large_instance_positive_definite(self):
        inst = generate(GenConfig(n=10_000, seed=0))
        report = validate(inst)
        assert report.a1_positive_definite
        # independent evidence: dominance check plus a dense factorization of
        # a 2000-row principal submatrix
        assert np.all(self._row_margins(inst) > 0.0)
        sub = inst.S.tocsr()[:2000, :2000].toarray()
        np.linalg.cholesky(sub)


    @pytest.mark.parametrize("config", [
        GenConfig(n=2_000, seed=11, allow_mixed_signs=True),
        GenConfig(n=5_000, seed=101, diag_range=(0.01, 10), offdiag_rel_mag=0.9),  # ill-conditioned
        GenConfig(n=3_000, seed=90001, offdiag_max_count=40),
        GenConfig(n=2, seed=1),
        GenConfig(n=1, seed=1),
    ])
    def test_csr_fix_matches_coo_reference(self, config):
        D = _build_matrix(np.random.default_rng(config.seed), config)
        got, want = _apply_dominance_fix(D), _reference_dominance_fix(D)
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("draw", ["cancelling", "long rows", "default 0", "default 101"])
    def test_row_sums_match_the_add_at_fix(self, draw):
        # bincount over all of S's entries, the diagonal's weight zeroed, adds
        # what np.add.at added over the off-diagonal ones, in the same order
        if draw == "cancelling":
            D = _cancelling_draw(300, seed=5)
            union = sparse.csr_array(abs(D) + abs(D.T))
            assert sparse.csr_array(D + D.T).nnz < union.nnz  # some s_ij are zero, and not stored
        else:
            config = {
                "long rows": GenConfig(n=3_000, seed=90001, offdiag_max_count=40, allow_mixed_signs=True),
                "default 0": GenConfig(n=20_000, seed=0),
                "default 101": GenConfig(n=20_000, seed=101),
            }[draw]
            D = _build_matrix(np.random.default_rng(config.seed), config)
            if draw == "long rows":
                assert _pairwise_differs(D)
        got, want = _apply_dominance_fix(D), _reference_apply_dominance_fix(D)
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestProfitableVariant:
    def test_assumptions_hold(self):
        for seed in range(5):
            inst = generate_profitable(GenConfig(n=60, seed=seed))
            report = validate(inst)
            assert report.a1_sign_pattern
            assert report.a1_positive_definite
            assert report.a2_nonneg
            assert report.a3_profitable_baseline

    def test_fraction_mode(self):
        inst = generate_profitable(GenConfig(n=30, seed=2, delta_mode=("fraction", 0.1)))
        assert validate(inst).a3_profitable_baseline


class TestPaperSuite:
    def test_desk_grid(self):
        configs = benchmark_suite("desk")
        assert len(configs) == 24
        assert {c.n for c in configs} == {200, 1_000, 5_000}
        assert all(c.k_fraction == 0.10 for c in configs)

    def test_full_grid(self):
        configs = benchmark_suite("full")
        assert len(configs) == 40
        assert {c.n for c in configs} == {10_000, 25_000, 50_000, 75_000, 100_000}

    def test_seeds_derived_deterministically(self):
        a = benchmark_suite("desk", base_seed=5)
        b = benchmark_suite("desk", base_seed=5)
        assert [c.seed for c in a] == [c.seed for c in b]
        c = benchmark_suite("desk", base_seed=6)
        assert [x.seed for x in a] != [x.seed for x in c]

    def test_bad_scale(self):
        with pytest.raises(ContractError):
            benchmark_suite("huge")


class TestMemory:
    def test_generate_peak(self):
        # the traced peak, over the bytes of the instance it returns, read
        # 4.37 when S came with int64 indices, the matrix from COO lists and
        # the dominance fix held the vectors; 2.39 since
        inst, peak = traced_peak(lambda: generate(GenConfig(n=20_000, seed=0)))
        assert peak <= 3.2 * instance_bytes(inst)
