"""Exhaustive ground truth for small instances.

Every feasible price vector lives in exactly one polyhedral piece
F(alpha, beta, gamma): coordinates in alpha pinned at the baseline, beta
raised by at least their threshold, gamma lowered likewise.  Minimizing the
convex quadratic over one piece is a small QP with interval constraints, so
the global optimum can be found by enumerating all pieces with at most k
changed coordinates.  These routines are deliberately exhaustive and use
dense direct solves so they stay independent of the main solver's numerics;
hard capacity guards keep them from being misused at scale.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapacityError, ContractError, PriceOptError
from .instance import Instance, objective_q
from .solver import Partition

__all__ = [
    "count_partitions",
    "solve_restricted",
    "global_optimum",
    "brute_projection",
]

MAX_ORACLE_N = 20
MAX_PROJECTION_N = 10
MAX_PARTITIONS = 10**6

_FEAS_SLACK = 1e-9
_MULT_SLACK = 1e-9


def count_partitions(n: int, k: int) -> int:
    """Number of polyhedral pieces with between 1 and k changed coordinates.

    Equals sum over m = 1..k of C(n, m) * 2^m; the all-unchanged piece is
    handled separately as an extra candidate by global_optimum.
    """
    if not 1 <= k <= n <= MAX_ORACLE_N:
        raise ContractError(f"count_partitions requires 1 <= k <= n <= {MAX_ORACLE_N}, got n={n}, k={k}")
    return _count_partitions_unchecked(n, k)


def _count_partitions_unchecked(n: int, k: int) -> int:
    return sum(math.comb(n, m) * 2**m for m in range(1, k + 1))


def _dense_s(instance: Instance) -> np.ndarray:
    return instance.S.toarray()


def _pattern_values(instance: Instance, i: int, raised: bool) -> list[tuple[float, int]]:
    """Boundary values a changed coordinate may be pinned to.

    Each entry is ``(value, sign)`` where sign is the required gradient sign
    for the pattern to be KKT-consistent: +1 means grad >= 0 (active at the
    interval's lower end), -1 means grad <= 0 (upper end), 0 means no
    requirement (a degenerate single-point interval acts as an equality).
    """
    if raised:
        inner = instance.p0[i] + instance.delta[i]
        if instance.bounds is None:
            return [(inner, +1)]
        outer = instance.upper[i]
        if outer == inner:
            return [(inner, 0)]
        return [(inner, +1), (outer, -1)]
    inner = instance.p0[i] - instance.delta[i]
    if instance.bounds is None:
        return [(inner, -1)]
    outer = instance.lower[i]
    if outer == inner:
        return [(inner, 0)]
    return [(inner, -1), (outer, +1)]


def _solve_restricted_dense(
    instance: Instance,
    S: np.ndarray,
    changed: list[int],
    raised_mask: list[bool],
) -> tuple[np.ndarray, float]:
    """Exact minimizer over one piece by active-set pattern enumeration.

    For every assignment of each changed coordinate to "free" or one of its
    boundary values, the free coordinates solve a dense SPD system; a pattern
    is accepted when free coordinates respect their (strict) intervals and
    pinned coordinates carry sign-correct multipliers.  Exactly the true
    minimizer survives these checks (up to roundoff at degenerate boundaries,
    where several patterns yield the same point).
    """
    n = instance.n
    f = np.asarray(instance.f)
    p0, delta = instance.p0, instance.delta

    options: list[list[tuple[float, int] | None]] = []
    for i, raised in zip(changed, raised_mask):
        options.append([None] + _pattern_values(instance, i, raised))

    best: tuple[float, np.ndarray] | None = None
    for assignment in itertools.product(*options):
        p = p0.copy()
        free = [i for i, v in zip(changed, assignment) if v is None]
        for i, v in zip(changed, assignment):
            if v is not None:
                p[i] = v[0]
        if free:
            fixed_mask = np.ones(n, dtype=bool)
            fixed_mask[free] = False
            rhs = f[free] - S[np.ix_(free, np.flatnonzero(fixed_mask))] @ p[fixed_mask]
            try:
                p[free] = np.linalg.solve(S[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError as exc:
                raise PriceOptError(f"singular restricted system: {exc}") from exc

        ok = True
        for i, raised, v in zip(changed, raised_mask, assignment):
            if v is None:
                if raised:
                    if p[i] < p0[i] + delta[i] - _FEAS_SLACK:
                        ok = False
                        break
                    if instance.bounds is not None and p[i] > instance.upper[i] + _FEAS_SLACK:
                        ok = False
                        break
                else:
                    if p[i] > p0[i] - delta[i] + _FEAS_SLACK:
                        ok = False
                        break
                    if instance.bounds is not None and p[i] < instance.lower[i] - _FEAS_SLACK:
                        ok = False
                        break
        if not ok:
            continue

        grad = S @ p - f
        for i, v in zip(changed, assignment):
            if v is None:
                continue
            sign = v[1]
            if sign > 0 and grad[i] < -_MULT_SLACK:
                ok = False
                break
            if sign < 0 and grad[i] > _MULT_SLACK:
                ok = False
                break
        if not ok:
            continue

        q_val = 0.5 * float(p @ (S @ p)) - float(f @ p)
        if best is None or q_val < best[0]:
            best = (q_val, p)

    if best is None:
        raise PriceOptError(
            "no active-set pattern satisfied the optimality conditions; "
            "this indicates S is not positive definite or data is inconsistent"
        )
    return best[1], best[0]


def solve_restricted(instance: Instance, partition: Partition) -> tuple[np.ndarray, float]:
    """Exact minimizer of the objective over the piece F(alpha, beta, gamma)."""
    if instance.n > MAX_ORACLE_N:
        raise CapacityError(f"solve_restricted supports n <= {MAX_ORACLE_N}, got n={instance.n}")
    changed = np.flatnonzero(partition.status)
    raised = partition.status[changed] == 1
    return _solve_restricted_dense(instance, _dense_s(instance), list(changed), list(raised))


def global_optimum(instance: Instance) -> tuple[np.ndarray, float]:
    """Global minimizer over all pieces plus the all-unchanged candidate.

    Ties on the objective are broken toward the lexicographically smallest
    partition encoding (per-coordinate codes 0 = unchanged, 1 = raised,
    2 = lowered), so the result is independent of enumeration order.
    """
    n, k = instance.n, instance.k
    if n > MAX_ORACLE_N:
        raise CapacityError(f"global_optimum supports n <= {MAX_ORACLE_N}, got n={n}")
    n_parts = _count_partitions_unchecked(n, k)
    if n_parts > MAX_PARTITIONS:
        raise CapacityError(
            f"global_optimum would enumerate {n_parts} partitions (guard: {MAX_PARTITIONS})"
        )

    S = _dense_s(instance)
    best_p = instance.p0.copy()
    best_q = objective_q(instance, best_p)
    best_code = (0,) * n

    for m in range(1, k + 1):
        for combo in itertools.combinations(range(n), m):
            for signs in itertools.product((True, False), repeat=m):
                p, q_val = _solve_restricted_dense(instance, S, list(combo), list(signs))
                code = [0] * n
                for i, raised in zip(combo, signs):
                    code[i] = 1 if raised else 2
                code = tuple(code)
                if q_val < best_q or (q_val == best_q and code < best_code):
                    best_p, best_q, best_code = p, q_val, code
    return best_p, best_q


def brute_projection(instance: Instance, q: np.ndarray) -> np.ndarray:
    """Nearest feasible point to q by enumerating every change set.

    For each subset of at most k coordinates, a changed coordinate takes the
    best of the three interval clamps of q_i (into the raised interval, into
    the lowered interval, or the baseline itself); the others stay at the
    baseline.  Independent of the gain-score shortcut by construction.
    """
    n, k = instance.n, instance.k
    if n > MAX_PROJECTION_N:
        raise CapacityError(f"brute_projection supports n <= {MAX_PROJECTION_N}, got n={n}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (n,):
        raise ContractError(f"query must have length {n}")

    p0, delta = instance.p0, instance.delta
    if instance.bounds is None:
        c_up = np.maximum(q, p0 + delta)
        c_dn = np.minimum(q, p0 - delta)
    else:
        c_up = np.clip(q, p0 + delta, instance.upper)
        c_dn = np.clip(q, instance.lower, p0 - delta)

    # Per coordinate: value and squared distance of the best change.
    cand_vals = np.stack([c_up, c_dn, p0])
    cand_d = (cand_vals - q) ** 2
    best_idx = np.argmin(cand_d, axis=0)
    moved_val = cand_vals[best_idx, np.arange(n)]
    moved_d = cand_d[best_idx, np.arange(n)]
    base_d = (p0 - q) ** 2

    best_total = np.inf
    best_p = p0.copy()
    total_base = base_d.sum()
    for m in range(0, k + 1):
        for combo in itertools.combinations(range(n), m):
            idx = list(combo)
            total = total_base - base_d[idx].sum() + moved_d[idx].sum()
            if total < best_total:
                p = p0.copy()
                p[idx] = moved_val[idx]
                best_total = total
                best_p = p
    return best_p
