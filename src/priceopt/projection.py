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

The gain scores are computed once, in ``_gains``, from the branch edges the
instance caches (``up = p0 + delta``, ``dn = p0 - delta`` and the window ends
``p0 -+ delta/2``).  With ``a`` the distance from q_i to the nearer moved
branch, ``min(max(up - q, 0), max(q - dn, 0))`` (with bounds, the clamped
distances ``|min(max(up - q, 0), u - q)|`` and ``|min(max(q - dn, 0), q - l)|``),
and ``outside`` the indicator of |q_i - p0_i| > delta_i / 2,

    Delta_i = ((p0_i - q_i) * outside)^2 - (a * outside)^2.

Outside the window the nearer branch is the one on q's side of p0, so this
is the same floating-point arithmetic as the branch-by-branch score, bit for
bit; inside it both terms are zero.  It is written with products instead of
``np.where`` because a select on a mask that changes every call costs
several times an elementwise ``maximum``, and the projection runs on every
gradient step.  ``project_feasible`` takes the top k of the gains
(``_select_top_k``) and runs the 1-D projection on those k coordinates only.

The branch of P_i that a price lies on is decided once, too, in
``_classify`` (lowered at or below ``p0 - delta``, else raised at or above
``p0 + delta``, else unchanged), from the same cached edges; ``is_feasible``
and the solver's ``Partition`` both use it.

The 1-D projection is computed once, in ``_project`` (the clamps of q into
the raised and the lowered interval, ``_clamps``, and the half-threshold
choice between them and p0); ``score`` and ``project_1d`` use it, and
``project_feasible`` and the certificate use its clamps on the coordinates
they need.  Membership in H(q) is decided once, too:
``_membership_residual`` is the closed-form distance from p to H(q), which
``certify_in_H`` and ``solver.certify_stationary`` (at q = p - grad Q(p) / L)
both use.  It reads the gains from ``_gains``; beyond them, their k-th
largest and the masks that sort the coordinates against it, its work is
proportional to the coordinates that can decide the residual, not to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, StructuralError
from .instance import Instance, _check_length

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


def _clamps(up, dn, bounds, q):
    """The clamps of q into [up, u] and [l, dn] (unbounded without bounds)."""
    if bounds is None:
        return np.maximum(q, up), np.minimum(q, dn)
    l, u = bounds
    return np.clip(q, up, u), np.clip(q, l, dn)


def _project(p0, delta, bounds, q):
    """1-D projection of q onto P_i, elementwise on scalars or arrays.

    Returns ``(proj, c_up, c_dn)``: the clamps of q into [p0 + delta, u]
    and [l, p0 - delta] (``_clamps``), and proj, which is p0 in the closed
    half-threshold window |q - p0| <= delta / 2 and the clamp on q's side of
    p0 outside it.
    """
    c_up, c_dn = _clamps(p0 + delta, p0 - delta, bounds, q)
    window = (q >= p0 - 0.5 * delta) & (q <= p0 + 0.5 * delta)
    proj = np.where(window, p0, np.where(q > p0, c_up, c_dn))
    return proj, c_up, c_dn


def _distance_sq(proj, q):
    """Squared distance from q to its projection: exactly 0 where q is in P_i,
    an infinite q included, and inf where it overflows, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(proj == q, 0.0, np.subtract(proj, q) ** 2)


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

    proj, c_up, c_dn = _project(p0_i, delta_i, bounds_i, q_i)
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
    return float(_distance_sq(primary, q_i))


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


def _gains(instance: Instance, q: np.ndarray) -> np.ndarray:
    """Gain scores Delta_i at q, with no data-dependent select.

    ``a`` is the distance from q_i to the nearer of its two moved branches
    (zero on a branch) and ``outside`` marks q_i beyond the half-threshold
    window.  Both terms are multiplied by ``outside`` before they are
    squared, so the window scores exactly +0.0 even where a square would
    overflow (thresholds beyond about 1e154), and a nan query keeps its nan.
    With bounds, a finite query far beyond one (about 1e154 away) overflows
    both squares to inf - inf = nan; there the gain is taken in the factored
    form, ``(u - p0)(2q - p0 - u)`` above u and ``(p0 - l)(p0 + l - 2q)``
    below l, which stays finite.  Every other gain is left as is.
    """
    up, dn, half_dn, half_up = instance._edges
    outside = (q < half_dn) | (q > half_up)
    # a diverging iterate, or a start past the float range, overflows the
    # distances or their squares to +inf: its gain is +inf and still chosen,
    # and the run then fails as a NumericError, not with a warning
    with np.errstate(over="ignore", invalid="ignore"):
        e_up = up - q
        np.maximum(e_up, 0.0, out=e_up)
        e_dn = q - dn
        np.maximum(e_dn, 0.0, out=e_dn)
        if instance.bounds is not None:
            l, u = instance.bounds
            np.minimum(e_up, u - q, out=e_up)
            np.minimum(e_dn, q - l, out=e_dn)
            np.abs(e_up, out=e_up)
            np.abs(e_dn, out=e_dn)
        a = np.minimum(e_up, e_dn, out=e_up)
        del e_dn  # before gain is made: the projection's peak holds three n-vectors, not four
        a *= outside
        a *= a
        gain = instance.p0 - q
        gain *= outside
        gain *= gain
        gain -= a
        if instance.bounds is not None:
            far = np.flatnonzero(np.isnan(gain))
            # an infinite or nan query keeps its nan
            far = far[np.isfinite(q[far])]
            if far.size:
                q_f, p0_f = q[far], instance.p0[far]
                l_f, u_f = l[far], u[far]
                above = (u_f - p0_f) * (2.0 * q_f - p0_f - u_f)
                below = (p0_f - l_f) * (p0_f + l_f - 2.0 * q_f)
                gain[far] = np.where(q_f > u_f, above, below)
    return gain


def _classify(instance: Instance, p: np.ndarray) -> np.ndarray:
    """Status vector of p (``solver.Partition``): 2 at or below p0 - delta,
    else 1 at or above p0 + delta, else 0; built from int8 views, with no
    masked store."""
    up, dn, _, _ = instance._edges
    status = (p <= dn).view(np.int8)
    status += status
    np.maximum(status, (p >= up).view(np.int8), out=status)
    return status


def score(instance: Instance, q: np.ndarray) -> ProjectionScores:
    """Vectorized per-coordinate projections, distances and gain scores.

    Delta_i is exactly zero on the closed half-threshold window
    |q_i - p0_i| <= delta_i / 2 and nonnegative everywhere (``_gains``).
    """
    q = _check_length(instance, q)
    p0, half = instance.p0, 0.5 * instance.delta
    proj = _project(p0, instance.delta, instance.bounds, q)[0]
    dist_sq = _distance_sq(proj, q)
    delta_score = _gains(instance, q)
    tie_flags = (q == p0 + half) | (q == p0 - half)

    return ProjectionScores(q=q, proj=proj, dist_sq=dist_sq, delta_score=delta_score, tie_flags=tie_flags)


def _select_top_k(delta_score: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest positive scores, in increasing order; ties
    resolved to lower index.

    Coordinates with a zero (or nan) score are never selected, so fewer than
    k indices may be returned.  The k-th largest score is found by partial
    selection, so the work stays O(n) expected.  With more than k positive
    scores it is taken over the whole vector first: when exactly k scores
    reach it, those k are the answer.  Otherwise (scores tied at it, or nan
    scores among the k largest) it is found again among the positive scores
    and ties are cut by index.
    """
    positive = delta_score > 0.0
    if np.count_nonzero(positive) <= k:
        return np.flatnonzero(positive)
    n = delta_score.size
    thr = np.partition(delta_score, n - k)[n - k]
    if thr > 0.0:
        chosen = np.flatnonzero(delta_score >= thr)
        if chosen.size == k:
            return chosen
    positive = np.flatnonzero(positive)
    values = delta_score[positive]
    m = positive.size
    thr = np.partition(values, m - k)[m - k]
    keep = values >= thr
    if np.count_nonzero(keep) > k:
        # more scores tie at the k-th largest than slots remain for them
        keep = values > thr
        keep[np.flatnonzero(values == thr)[: k - np.count_nonzero(keep)]] = True
    # indexing by the indices, not by the mask: a boolean index that changes
    # every call costs several times as much
    return positive[np.flatnonzero(keep)]


def project_feasible(instance: Instance, q: np.ndarray) -> np.ndarray:
    """Nearest feasible price vector to q (deterministic representative).

    Selects the k largest gain scores (lower index wins ties), changes those
    coordinates to their 1-D projections and keeps the baseline elsewhere.
    Coordinates whose score is zero are never selected, which biases the
    output toward fewer changes without losing optimality.  The 1-D
    projection runs on the chosen coordinates only.
    """
    q = _check_length(instance, q)
    chosen = _select_top_k(_gains(instance, q), instance.k)
    up, dn, _, _ = instance._edges
    bounds = instance.bounds
    if bounds is not None:
        bounds = (bounds[0][chosen], bounds[1][chosen])
    # a chosen coordinate scores above zero, so it lies outside its window
    # and moves to the clamp on its side of p0
    q_c = q[chosen]
    c_up, c_dn = _clamps(up[chosen], dn[chosen], bounds, q_c)
    p = instance.p0.copy()
    p[chosen] = np.where(q_c > instance.p0[chosen], c_up, c_dn)
    return p


def is_feasible(instance: Instance, p: np.ndarray) -> bool:
    """Whether p is finite, changes at most k coordinates and each lies in its P_i."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (instance.n,) or not np.all(np.isfinite(p)):
        return False
    moved = p != instance.p0
    if np.count_nonzero(moved) > instance.k:
        return False
    # moved coordinates lie on a branch (Partition.from_prices' rule), in bounds
    off = _classify(instance, p) == 0
    if instance.bounds is not None:
        l, u = instance.bounds
        off |= (p < l) | (p > u)
    return not np.any(moved & off)


def _member_distance(instance: Instance, q: np.ndarray, p: np.ndarray, tol: float, idx: np.ndarray) -> np.ndarray:
    """For each i in idx, the distance from p_i to the nearest admissible 1-D minimizer.

    Candidates are the two clamps of q_i (``_clamps``) and p0_i; one is
    admissible when its distance to q_i is within tol of the least, so both
    values of a tie count.
    """
    up, dn, _, _ = instance._edges
    bounds = instance.bounds
    if bounds is not None:
        bounds = (bounds[0][idx], bounds[1][idx])
    q, p, p0 = q[idx], p[idx], instance.p0[idx]
    c_up, c_dn = _clamps(up[idx], dn[idx], bounds, q)
    candidates = (c_up, c_dn, p0)
    d_cand = [np.abs(c - q) for c in candidates]
    d_best = np.minimum(np.minimum(d_cand[0], d_cand[1]), d_cand[2])
    dist = np.full(idx.size, np.inf)
    for c, d in zip(candidates, d_cand):
        dist = np.where(d <= d_best + tol, np.minimum(dist, np.abs(p - c)), dist)
    return dist


def _tie_margin(instance: Instance, q: np.ndarray, tol: float) -> float:
    """Margin within which two gain scores at q count as tied, for tolerance tol."""
    return 4.0 * tol * (1.0 + float(np.max(np.abs(q - instance.p0))) + float(np.max(instance.delta)))


def _membership_residual(instance: Instance, q: np.ndarray, p: np.ndarray, tol: float) -> float:
    """Smallest infinity-norm distance from p to a member of H(q), ties admitted.

    Either value of a two-valued 1-D projection counts, and scores tied
    within ``_tie_margin`` may swap in and out of the support.  The scores
    split the coordinates into must-in, never-in and a pool of ties (or, when
    the k-th largest is within the margin of zero, must-in and a free pool).
    Each condition on the radius is monotone in it, so the residual is the
    largest per-condition minimum, two of them order statistics; k = n is
    no special case (the k-th largest score is then the smallest).

    Only the gains, their k-th largest and the masks cost O(n).  A
    coordinate's distance to p0, ``out_cost = |p - p0|``, is zero unless p
    changed it, so the maxima and the order statistic that read it skip the
    unchanged coordinates (a dropped zero never exceeds a maximum, and the
    order statistic counts them).  The distance to a 1-D minimizer,
    ``in_cost``, is computed only where a condition reads it: on must-in
    coordinates, and on the pool where it fills slots, else on the changed
    pool coordinates (an unchanged one contributes min(in_cost, 0) = 0).
    """
    n, k = instance.n, instance.k
    p0 = instance.p0
    delta_score = _gains(instance, q)
    tol_delta = _tie_margin(instance, q, tol)
    changed = p != p0

    theta = float(np.partition(delta_score, n - k)[n - k])
    fill_slots = theta > tol_delta
    if fill_slots:
        must_in = delta_score > theta + tol_delta
        never_in = delta_score < theta - tol_delta
        need = ~never_in
        out_never = np.flatnonzero(never_in & changed)
        pool_size = n - int(np.count_nonzero(never_in))
    else:
        must_in = delta_score > tol_delta
        need = must_in | changed
        out_never = np.zeros(0, dtype=np.intp)
        pool_size = n
    n_must = int(np.count_nonzero(must_in))
    pool_size -= n_must
    slots = k - n_must

    # need is must-in plus the pool coordinates the conditions read
    idx = np.flatnonzero(need)
    in_cost = _member_distance(instance, q, p, tol, idx)
    in_must = must_in[idx]
    pool_in = in_cost[~in_must]
    pool = idx[~in_must]
    pool_out = np.abs(p[pool] - p0[pool])

    # must-in coordinates within r of a minimizer, never-in ones within r of
    # p0, pool ones within r of either
    minima = [in_cost[in_must], np.abs(p[out_never] - p0[out_never]), np.minimum(pool_in, pool_out)]
    # at most `slots` pool coordinates move in, the rest stay within r of p0:
    # r is at least the (slots+1)-th largest pool out_cost, zero when fewer
    # than slots+1 pool coordinates changed
    if pool_size > slots:
        pos = pool_out.size - slots - 1
        minima.append(np.partition(pool_out, pos)[pos] if pos >= 0 else 0.0)
    if fill_slots:
        # exactly k changes: `slots` pool coordinates within r of a minimizer
        minima.append(np.partition(pool_in, slots - 1)[slots - 1])
    return max(float(np.max(r, initial=0.0)) for r in minima)


def certify_in_H(
    instance: Instance,
    q: np.ndarray,
    p: np.ndarray,
    tol: float = DEFAULT_CERT_TOL,
) -> bool:
    """Whether p is within tol, in the infinity norm, of a member of H(q),
    ties admitted (``_membership_residual``).

    q and p must be finite: a nan in q would make the tie margin nan and
    the residual 0, so any p would pass.
    """
    q = _check_length(instance, q)
    p = _check_length(instance, p)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise StructuralError("q and p must hold finite numbers")
    return _membership_residual(instance, q, p, tol) <= tol
