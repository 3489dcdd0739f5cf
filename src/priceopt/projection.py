"""Euclidean projection onto the constrained price set.

Per product the allowed prices form the nonconvex set

    P_i = {p0_i} U [p0_i + delta_i, inf) U (-inf, p0_i - delta_i]

(or, with bounds, ``{p0_i} U [p0_i + delta_i, u_i] U [l_i, p0_i - delta_i]``).
The projection of a query q onto the full feasible set (at most k
coordinates changed, each changed coordinate inside its P_i) reduces to a
per-coordinate projection plus a top-k selection on the gain scores

    Delta_i = (p0_i - q_i)^2 - d(q_i, P_i),

where d is the squared 1-D distance.  Delta_i is the reduction in squared
distance bought by spending one of the k change slots on coordinate i; it is
zero exactly when q_i lies within delta_i/2 of the baseline.

The 1-D projection is computed once, in ``_project`` (the clamps of q into
the raised and the lowered interval, and the half-threshold choice between
them and p0); ``score``, ``project_1d`` and the certificates all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, StructuralError
from .instance import Instance

__all__ = [
    "ProjectionScores",
    "project_1d",
    "distance_sq_1d",
    "score",
    "project_feasible",
    "certify_in_H",
    "is_feasible",
]

DEFAULT_CERT_TOL = 1e-8


def _project(p0, delta, bounds, q):
    """1-D projection of q onto P_i, elementwise on scalars or arrays.

    Returns ``(proj, c_up, c_dn, window)``: the clamps of q into
    [p0 + delta, u] and [l, p0 - delta] (unbounded without bounds), the
    closed half-threshold window |q - p0| <= delta / 2, and proj, which is
    p0 in the window and the clamp on q's side of p0 outside it.
    """
    if bounds is None:
        c_up = np.maximum(q, p0 + delta)
        c_dn = np.minimum(q, p0 - delta)
    else:
        l, u = bounds
        c_up = np.clip(q, p0 + delta, u)
        c_dn = np.clip(q, l, p0 - delta)
    window = (q >= p0 - 0.5 * delta) & (q <= p0 + 0.5 * delta)
    proj = np.where(window, p0, np.where(q > p0, c_up, c_dn))
    return proj, c_up, c_dn, window


def project_1d(
    p0_i: float,
    delta_i: float,
    bounds_i: Optional[tuple[float, float]],
    q_i: float,
) -> tuple[float, Optional[float]]:
    """All minimizers of (p - q_i)^2 over P_i.

    Returns ``(primary, secondary)``.  The projection is two-valued exactly
    when q_i sits half a threshold away from the baseline; at such a tie the
    deterministic primary choice is p0_i (no change) and the moved point is
    returned as secondary.  With bounds present, queries beyond u_i (resp.
    below l_i) project to the bound itself.
    """
    if delta_i <= 0.0:
        raise ContractError(f"delta must be positive, got {delta_i}")
    if bounds_i is not None:
        l_i, u_i = bounds_i
        if l_i > p0_i - delta_i or u_i < p0_i + delta_i:
            raise ContractError("bounds must satisfy l <= p0 - delta and u >= p0 + delta")

    proj, c_up, c_dn, _ = _project(p0_i, delta_i, bounds_i, q_i)
    if q_i == p0_i + 0.5 * delta_i:
        return float(proj), float(c_up)
    if q_i == p0_i - 0.5 * delta_i:
        return float(proj), float(c_dn)
    return float(proj), None


def distance_sq_1d(
    p0_i: float,
    delta_i: float,
    bounds_i: Optional[tuple[float, float]],
    q_i: float,
) -> float:
    """Squared distance from q_i to P_i; at most delta_i^2/4 when unbounded."""
    primary, _ = project_1d(p0_i, delta_i, bounds_i, q_i)
    return (primary - q_i) ** 2


@dataclass(frozen=True)
class ProjectionScores:
    """Per-coordinate 1-D projection results for one query point q.

    proj         deterministic 1-D projection values (ties resolved to p0)
    dist_sq      squared distances d(q_i, P_i)
    delta_score  gain scores Delta_i >= 0
    tie_flags    True where the 1-D projection is two-valued
    """

    q: np.ndarray
    proj: np.ndarray
    dist_sq: np.ndarray
    delta_score: np.ndarray
    tie_flags: np.ndarray


def score(instance: Instance, q: np.ndarray) -> ProjectionScores:
    """Vectorized per-coordinate projections, distances and gain scores.

    The score is computed from the same branch that selected the projection,
    so Delta_i is exactly zero on the closed half-threshold window
    |q_i - p0_i| <= delta_i / 2 and nonnegative everywhere.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (instance.n,):
        raise StructuralError(f"query must have length {instance.n}, got shape {q.shape}")

    p0, half = instance.p0, 0.5 * instance.delta
    proj, _, _, window = _project(p0, instance.delta, instance.bounds, q)
    # exactly zero where q is already in P_i, an infinite q included
    dist_sq = np.where(proj == q, 0.0, (proj - q) ** 2)
    delta_score = np.where(window, 0.0, (p0 - q) ** 2 - dist_sq)
    tie_flags = (q == p0 + half) | (q == p0 - half)

    return ProjectionScores(q=q, proj=proj, dist_sq=dist_sq, delta_score=delta_score, tie_flags=tie_flags)


def _select_top_k(delta_score: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest positive scores; ties resolved to lower index.

    Coordinates with a zero score are never selected, so fewer than k indices
    may be returned.  Uses partial selection to stay O(n) expected.
    """
    positive = np.flatnonzero(delta_score > 0.0)
    if positive.size <= k:
        return positive
    neg = -delta_score
    part = np.argpartition(neg, k - 1)[:k]
    thr = float(delta_score[part].min())
    strictly_above = np.flatnonzero(delta_score > thr)
    remaining = k - strictly_above.size
    tied = np.flatnonzero(delta_score == thr)[:remaining]
    return np.sort(np.concatenate([strictly_above, tied]))


def project_feasible(instance: Instance, q: np.ndarray) -> np.ndarray:
    """Nearest feasible price vector to q (deterministic representative).

    Selects the k largest gain scores (lower index wins ties), changes those
    coordinates to their 1-D projections and keeps the baseline elsewhere.
    Coordinates whose score is zero are never selected, which biases the
    output toward fewer changes without losing optimality.
    """
    sc = score(instance, q)
    chosen = _select_top_k(sc.delta_score, instance.k)
    p = instance.p0.copy()
    p[chosen] = sc.proj[chosen]
    return p


def is_feasible(instance: Instance, p: np.ndarray, tol: float = 0.0) -> bool:
    """Whether p changes at most k coordinates and each lies in its P_i."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (instance.n,):
        return False
    p0, delta = instance.p0, instance.delta
    moved = p != p0
    if np.count_nonzero(moved) > instance.k:
        return False
    up = p >= p0 + delta - tol
    down = p <= p0 - delta + tol
    if not np.all(~moved | up | down):
        return False
    if instance.bounds is not None:
        l, u = instance.bounds
        if np.any(moved & ((p < l - tol) | (p > u + tol))):
            return False
    return True


def _member_distance(instance: Instance, q: np.ndarray, p: np.ndarray, tol: float) -> np.ndarray:
    """Per coordinate, the distance from p_i to the nearest admissible 1-D minimizer.

    Candidates are the two clamps of q_i and p0_i; one is admissible when its
    distance to q_i is within tol of the least, so both values of a tie count.
    """
    _, c_up, c_dn, _ = _project(instance.p0, instance.delta, instance.bounds, q)
    candidates = (c_up, c_dn, instance.p0)
    d_cand = [np.abs(c - q) for c in candidates]
    d_best = np.minimum(np.minimum(d_cand[0], d_cand[1]), d_cand[2])
    dist = np.full(instance.n, np.inf)
    for c, d in zip(candidates, d_cand):
        dist = np.where(d <= d_best + tol, np.minimum(dist, np.abs(p - c)), dist)
    return dist


def certify_in_H(
    instance: Instance,
    q: np.ndarray,
    p: np.ndarray,
    tol: float = DEFAULT_CERT_TOL,
) -> bool:
    """Whether p is (within tol) an optimal projection of q.

    Checks the exact optimality conditions on the changed set
    sigma = {i : p_i != p0_i}: at most k changes, every changed coordinate
    within tol of a 1-D minimizer of its coordinate problem, and either the
    gain-dominance condition (|sigma| = k: every selected score at least
    every unselected score, within tol) or the zero-gain condition
    (|sigma| < k: every unselected score at most tol).
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != (instance.n,) or p.shape != (instance.n,):
        raise StructuralError("q and p must both have length n")

    sigma = p != instance.p0
    n_changed = int(np.count_nonzero(sigma))
    if n_changed > instance.k:
        return False

    sc = score(instance, q)
    if n_changed and np.any(_member_distance(instance, q, p, tol)[sigma] > tol):
        return False

    outside = ~sigma
    max_out = float(sc.delta_score[outside].max()) if np.any(outside) else 0.0
    if n_changed == instance.k:
        min_in = float(sc.delta_score[sigma].min()) if n_changed else 0.0
        return min_in >= max_out - tol
    return max_out <= tol
