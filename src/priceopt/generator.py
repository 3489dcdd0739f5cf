"""Seeded synthetic instance generation.

All randomness comes from NumPy's ``default_rng`` (the PCG64 bit generator),
so a fixed seed reproduces instances bit-for-bit across runs and platforms.
Reference outputs for seed 0 are frozen in the test suite.

Recipe per instance (draws happen in this order):

1. price-effect matrix: diagonal entries uniform on ``diag_range``; per row
   up to ``offdiag_max_count`` distinct off-diagonal positions with values
   ``-U(0, offdiag_rel_mag * d_ii)`` (sign flipped with probability 1/2 when
   mixed signs are allowed);
2. optional bounds ``l ~ U[l_lo, l_hi]``, ``u ~ U[u_lo, u_hi]``;
3. baseline ``p0 ~ U[1, 10]`` (or ``U[l, u]`` when bounds are active);
4. objective coefficient target ``f ~ U[f_range]`` and costs
   ``c ~ U[cost_range]``; the demand intercept is derived as
   ``a = f - D^T c``;
5. thresholds per ``delta_mode``; bound repair widens any violating bound to
   exactly ``p0 -/+ delta``;
6. if ``dominance_fix``, off-diagonal entries are damped so that every row
   of S = D + D^T is strictly diagonally dominant, which guarantees S is
   positive definite.  Turning the fix off reproduces the raw recipe, which
   does not guarantee definiteness.  The fix draws nothing, so it is applied
   as soon as the matrix is drawn, before the vectors of steps 2-5 exist.

The off-diagonal draws of step 1 are defined by a row-by-row loop: row i
draws its columns with ``integers(0, n - 1)`` (shifted past the diagonal),
its values with ``uniform`` and, with mixed signs, its flips with
``random``, and draws the whole row again while a column repeats or a value
is zero (``_draw_offdiag_row``).  ``_draw_offdiag_rows`` produces the same
entries, and leaves the generator in the same state, without that loop: it
takes the raw 64-bit words for a block of rows at once and decodes them the
way NumPy does (Lemire's bounded integers on the buffered 32-bit halves for
the columns, ``(w >> 11) * 2**-53`` for values and flips).  A row that NumPy
would draw again, because a bounded-integer draw is rejected, a column
repeats or a value is zero, is the fallback row: the generator is rewound to
its start and the row is drawn by ``_draw_offdiag_row``, then the blocks go
on after it.  Such rows are rare (about ten per n = 100,000 instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import ContractError
from .instance import Instance, _plus_transpose

__all__ = ["GenConfig", "generate", "generate_profitable", "benchmark_suite"]

_DOMINANCE_MARGIN = 1e-3
_MAX_ROW_REDRAWS = 1e6  # expected draws of one full off-diagonal row that a config may need

_BLOCK_ROWS = 1024  # rows per block of the off-diagonal replay
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53, NumPy's next_double scale


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic recipe; see the module docstring for the order."""

    n: int
    k_fraction: float = 0.10
    delta_mode: tuple[str, float] = ("const", 1.0)
    bounds_mode: Optional[tuple[float, float, float, float]] = None
    f_range: tuple[float, float] = (1.0, 10.0)
    diag_range: tuple[float, float] = (1.0, 10.0)
    offdiag_max_count: int = 5
    offdiag_rel_mag: float = 0.2
    cost_range: tuple[float, float] = (1.0, 5.0)
    dominance_fix: bool = True
    allow_mixed_signs: bool = False
    literal_sign: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ContractError("n must be positive")
        if not 0.0 < self.k_fraction <= 1.0:
            raise ContractError("k_fraction must be in (0, 1]")
        mode, value = self.delta_mode
        if mode not in ("const", "fraction") or value <= 0.0:
            raise ContractError(f"delta_mode must be ('const', x>0) or ('fraction', r>0), got {self.delta_mode}")
        for name in ("f_range", "diag_range", "cost_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ContractError(f"{name} must be ordered")
        if self.bounds_mode is not None:
            l_lo, l_hi, u_lo, u_hi = self.bounds_mode
            if not (l_lo <= l_hi and u_lo <= u_hi):
                raise ContractError("bounds_mode ranges must be ordered")
            if l_hi > u_lo:  # else some u_i < l_i, and p0 ~ U[l, u] has no range
                raise ContractError(
                    f"bounds_mode ranges must not overlap: l in [{l_lo:g}, {l_hi:g}] and u in [{u_lo:g}, {u_hi:g}]"
                )
        if self.offdiag_max_count < 0 or self.offdiag_rel_mag < 0:
            raise ContractError("off-diagonal settings must be nonnegative")
        if self.offdiag_max_count > 0 and not (self.offdiag_rel_mag > 0 and self.diag_range[0] > 0):
            # a zero cap makes every off-diagonal value zero, which is drawn again forever
            raise ContractError("off-diagonal entries need offdiag_rel_mag > 0 and diag_range[0] > 0")
        if self.n > 1 and self.offdiag_max_count > 0:
            # a row draws its m columns from the n - 1 others with replacement,
            # again until they are distinct: 1 / P(distinct) draws expected,
            # P = (n-1)! / ((n-1-m)! (n-1)^m)
            m, others = min(self.offdiag_max_count, self.n - 1), self.n - 1
            log_draws = m * math.log(others) - math.lgamma(others + 1) + math.lgamma(others - m + 1)
            if log_draws > math.log(_MAX_ROW_REDRAWS):
                raise ContractError(
                    f"offdiag_max_count={self.offdiag_max_count} at n={self.n} needs about "
                    f"10^{log_draws / math.log(10):.1f} draws of a full row to find {m} distinct "
                    f"columns (at most {_MAX_ROW_REDRAWS:.0e}): lower offdiag_max_count"
                )
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")

    @property
    def k(self) -> int:
        return max(1, round(self.k_fraction * self.n))


def _draw_offdiag_row(rng: np.random.Generator, i: int, n: int, m: int, cap: float, mixed: bool):
    """Distinct off-diagonal columns and nonzero values for one row."""
    while True:
        cols = rng.integers(0, n - 1, size=m)
        cols = np.where(cols >= i, cols + 1, cols)
        vals = -rng.uniform(0.0, cap, size=m)
        if mixed:
            flip = rng.random(m) < 0.5
            vals = np.where(flip, -vals, vals)
        if np.unique(cols).size == m and np.all(vals != 0.0):
            return cols, vals


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over the (start, length) pairs."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def _draw_offdiag_rows(rng: np.random.Generator, m: np.ndarray, caps: np.ndarray, mixed: bool):
    """Off-diagonal entries of every row, as the loop over ``_draw_offdiag_row`` draws them.

    ``m`` is each row's entry count and ``caps`` its value cap.  Returns the
    column and value arrays of all entries in row order (row i's ``m[i]``
    entries follow row i - 1's), and leaves ``rng`` in the loop's state (see
    the module docstring).  Row i takes ``m[i]`` column draws from the
    buffered 32-bit stream, then ``m[i]`` value words and, with mixed signs,
    ``m[i]`` flip words.
    """
    n = m.size
    out_c = np.empty(int(m.sum()), dtype=np.int64)
    out_v = np.empty(out_c.size)
    done = 0  # entries written to out_c and out_v
    bitgen = rng.bit_generator
    span = n - 1  # columns other than the diagonal
    threshold = (2**32 - span) % span  # Lemire: reject a draw whose low half is below this
    halves_per_entry = 1 if span > 1 else 0  # integers(0, 1) draws nothing
    words_per_entry = 2 if mixed else 1
    start = 0
    while start < n:
        stop = min(n, start + _BLOCK_ROWS)
        mb = m[start:stop]
        kb = mb * halves_per_entry
        snapshot = bitgen.state
        has0, u0 = snapshot["has_uint32"], snapshot["uinteger"]
        halves_before = np.cumsum(kb) - kb
        buffered = (has0 + halves_before) & 1  # a 32-bit half is pending at row start
        col_words = (kb - buffered + 1) // 2
        words = col_words + words_per_entry * mb
        words_before = np.cumsum(words) - words
        raw = bitgen.random_raw(int(words_before[-1] + words[-1]))

        col_raw = raw[_segments(words_before, col_words)]
        halves = np.empty(has0 + 2 * col_raw.size, dtype=np.uint64)
        halves[:has0] = u0
        halves[has0::2] = col_raw & 0xFFFFFFFF
        halves[has0 + 1 :: 2] = col_raw >> 32
        rows = np.repeat(np.arange(start, stop), mb)
        if halves_per_entry:
            scaled = halves[: rows.size] * np.uint64(span)
            rejected = (scaled & 0xFFFFFFFF) < threshold
            cols = (scaled >> 32).astype(np.int64)
        else:
            rejected = np.zeros(rows.size, dtype=bool)
            cols = np.zeros(rows.size, dtype=np.int64)
        cols += cols >= rows

        value_at = _segments(words_before + col_words, mb)
        unit = (raw[value_at] >> 11).astype(np.float64) * _DOUBLE_UNIT
        mag = np.repeat(caps[start:stop], mb) * unit
        if mixed:
            vals = np.where(raw[value_at + np.repeat(mb, mb)] < 2**63, mag, -mag)
        else:
            vals = -mag

        bad = rows[rejected | (mag == 0.0)]
        keys = np.sort(rows * n + cols)
        repeated = keys[1:][keys[1:] == keys[:-1]] // n
        first_bad = int(min(bad.min(initial=stop), repeated.min(initial=stop)))
        j = first_bad - start
        kept = int(mb[:j].sum())
        out_c[done : done + kept] = cols[:kept]
        out_v[done : done + kept] = vals[:kept]
        done += kept

        if first_bad < stop:  # rewind to the start of that row
            bitgen.state = snapshot
            bitgen.advance(int(words_before[j]))
        # random_raw and advance skip the 32-bit buffer; restore what the
        # column draws of the kept rows leave in it
        drawn = int(col_words[:j].sum())
        state = bitgen.state
        state["has_uint32"] = int(has0 + kb[:j].sum()) & 1
        state["uinteger"] = int(halves[has0 + 2 * drawn - 1]) if drawn else u0
        bitgen.state = state
        if first_bad == stop:
            start = stop
            continue
        c, v = _draw_offdiag_row(rng, first_bad, n, int(m[first_bad]), caps[first_bad], mixed)
        out_c[done : done + c.size] = c
        out_v[done : done + c.size] = v
        done += c.size
        start = first_bad + 1
    return out_c, out_v


def _build_matrix(rng: np.random.Generator, cfg: GenConfig) -> sparse.csr_array:
    """The price-effect matrix of step 1, in canonical CSR with int64 indices.

    The rows come in order, so the CSR arrays are built directly: each row
    its diagonal entry, then its off-diagonal entries as drawn, then every
    row's columns sorted, which is what converting the entries from COO gives.
    """
    n = cfg.n
    diag = rng.uniform(cfg.diag_range[0], cfg.diag_range[1], size=n)
    m, cols, vals = np.zeros(n, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    if n > 1 and cfg.offdiag_max_count > 0:
        m = np.minimum(rng.integers(0, cfg.offdiag_max_count + 1, size=n), n - 1)
        cols, vals = _draw_offdiag_rows(rng, m, cfg.offdiag_rel_mag * diag, cfg.allow_mixed_signs)
    row_starts = np.cumsum(m) - m  # in cols and vals; a row's diagonal goes in before them
    indptr = np.concatenate(([0], np.cumsum(m + 1)))
    indices = np.insert(cols, row_starts, np.arange(n))
    data = np.insert(vals, row_starts, diag)
    D = sparse.csr_array((data, indices, indptr), shape=(n, n))
    D.sort_indices()
    return D


def _apply_dominance_fix(D: sparse.csr_array) -> sparse.csr_array:
    """Damp off-diagonal entries until every row of S is strictly dominant.

    Row i of S must satisfy sum_{j != i} |s_ij| < 2 d_ii (1 - margin).  Each
    off-diagonal s_ij is scaled by 1 / max(1, rho_i, rho_j), where rho is the
    row's violation ratio against a slightly tightened target, which fixes
    both of the rows an entry touches in a single pass.  S is
    ``Instance.S``'s construction, freed before the rescale.
    """
    n = D.shape[0]
    diag = D.diagonal()
    S = _plus_transpose(D)
    s_rows = np.repeat(np.arange(n), np.diff(S.indptr))
    on_diag = s_rows == S.indices
    if np.all(on_diag):
        return D
    # |s_ij| summed one after another in S's CSR order; the diagonal adds
    # +0.0, which changes no sum
    weights = np.abs(S.data, out=S.data)
    weights[on_diag] = 0.0
    row_sums = np.bincount(s_rows, weights, minlength=n)
    del S, s_rows, on_diag, weights
    target = 2.0 * diag * (1.0 - _DOMINANCE_MARGIN) * (1.0 - 1e-6)
    rho = row_sums / target
    rows, cols = np.repeat(np.arange(n), np.diff(D.indptr)), D.indices
    scale = 1.0 / np.maximum(1.0, np.maximum(rho[rows], rho[cols]))
    data = np.where(rows != cols, D.data * scale, D.data)
    return sparse.csr_array((data, cols, D.indptr), shape=(n, n))


def generate(config: GenConfig) -> Instance:
    """One synthetic instance from the seeded recipe."""
    rng = np.random.default_rng(config.seed)
    n = config.n

    D = _build_matrix(rng, config)
    if config.dominance_fix:  # draws nothing, so it runs before the vectors exist
        D = _apply_dominance_fix(D)

    bounds = None
    if config.bounds_mode is not None:
        l_lo, l_hi, u_lo, u_hi = config.bounds_mode
        lo = rng.uniform(l_lo, l_hi, size=n)
        hi = rng.uniform(u_lo, u_hi, size=n)
        bounds = (lo, hi)
        p0 = rng.uniform(lo, hi)
    else:
        p0 = rng.uniform(1.0, 10.0, size=n)

    f_target = rng.uniform(config.f_range[0], config.f_range[1], size=n)
    if config.literal_sign:
        f_target = -f_target
    c = rng.uniform(config.cost_range[0], config.cost_range[1], size=n)

    mode, value = config.delta_mode
    delta = np.full(n, value) if mode == "const" else value * p0
    if np.any(delta <= 0.0):
        raise ContractError("delta_mode produced non-positive thresholds (is p0 positive?)")

    if bounds is not None:
        lo, hi = bounds
        bounds = (np.minimum(lo, p0 - delta), np.maximum(hi, p0 + delta))

    a = f_target - D.T @ c
    return Instance(n=n, k=config.k, a=a, D=D, c=c, p0=p0, delta=delta, bounds=bounds)


def generate_profitable(config: GenConfig) -> Instance:
    """Variant construction that satisfies the profitability assumptions.

    Keeps the matrix recipe but chooses the intercepts so demand stays
    nonnegative at cost prices (``a >= D c``, ``a > 0``) and the baseline so
    that ``p0 - delta >= c``.  Used for experiments about profitable optima;
    the plain recipe makes no such promise.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n

    D = _build_matrix(rng, config)
    if config.dominance_fix:
        D = _apply_dominance_fix(D)

    c = rng.uniform(config.cost_range[0], config.cost_range[1], size=n)
    a = np.maximum(D @ c, 0.0) + rng.uniform(0.5, 2.0, size=n)

    mode, value = config.delta_mode
    if mode == "const":
        delta = np.full(n, value)
        p0 = c + delta + rng.uniform(0.0, 3.0, size=n)
    else:
        # delta depends on p0: p0 = (c + slack) / (1 - r) keeps p0 - delta >= c
        if value >= 1.0:
            raise ContractError("fraction mode requires r < 1 for a profitable baseline")
        p0 = (c + rng.uniform(0.0, 3.0, size=n)) / (1.0 - value)
        delta = value * p0
    return Instance(n=n, k=config.k, a=a, D=D, c=c, p0=p0, delta=delta, bounds=None)


_DESK_SIZES = (200, 1_000, 5_000)
_FULL_SIZES = (10_000, 25_000, 50_000, 75_000, 100_000)
_DELTAS = (0.5, 1.0)
_BOUND_REGIMES = (
    None,
    (1.0, 5.0, 5.0, 10.0),
    (1.0, 5.0, 10.0, 15.0),
    (1.0, 5.0, 15.0, 20.0),
)


def benchmark_suite(scale: str, base_seed: int = 0) -> list[GenConfig]:
    """Benchmark grid: sizes x thresholds {0.5, 1.0} x four bound regimes.

    ``desk`` uses sizes (200, 1000, 5000) for a 24-config grid that runs on a
    workstation; ``full`` uses the five production sizes (10k..100k, 40
    configs).  Every config gets 10% change budget and a seed derived
    deterministically from ``base_seed``.
    """
    if scale not in ("desk", "full"):
        raise ContractError(f"scale must be 'desk' or 'full', got {scale!r}")
    sizes = _DESK_SIZES if scale == "desk" else _FULL_SIZES
    configs = []
    idx = 0
    for n in sizes:
        for d in _DELTAS:
            for regime in _BOUND_REGIMES:
                configs.append(
                    GenConfig(
                        n=n,
                        k_fraction=0.10,
                        delta_mode=("const", d),
                        bounds_mode=regime,
                        seed=base_seed + 7919 * idx,
                    )
                )
                idx += 1
    return configs
