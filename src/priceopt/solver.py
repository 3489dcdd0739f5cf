"""Gradient projection solver with stationarity certificates.

The solver iterates

    p_{t+1}  in  H(p_t - grad Q(p_t) / L),        L > lambda_1(S),

where H projects onto the feasible set (at most k changes, thresholds,
optional bounds).  Each step minimizes the quadratic upper model
``Q(p_t) + g^T (p - p_t) + L/2 ||p - p_t||^2`` over the feasible set, so the
objective never increases and drops by at least ``(L - lambda_1)/2`` times
the squared step.  Once steps shrink below ``delta_min^2 / 2`` the partition
of coordinates into unchanged / raised / lowered is frozen, and the run can
finish by solving the restricted convex QP on that piece exactly.  That
solve (``refine_on_partition``) is projected Newton-CG on the piece's box:
conjugate gradients on the free coordinates give the step, and a projected
Armijo search keeps it in the box and descending.

A point is first-order stationary when it is a fixed point of the map above;
``certify_stationary`` measures the distance to the projection set while
honoring its set-valued ties, so legitimate two-valued projections do not
fail certification.  Every condition on that distance is monotone in the
radius, so the residual is closed form: the largest of the per-condition
minimal radii, two of them order statistics (the L-stationarity view of
Beck & Eldar, SIAM J. Optim. 23(3), 2013).  Each run certifies its final
point once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ContractError, NumericError, StructuralError
from .instance import (
    Instance,
    gradient_q,
    objective_q,
    profit_z,
    spectral_bounds,
    value_and_gradient,
)
from .projection import _member_distance, is_feasible, project_feasible, score

__all__ = [
    "SolverParams",
    "Partition",
    "SolveReport",
    "RefineResult",
    "gpa_solve",
    "certify_stationary",
    "multi_start",
    "refine_on_partition",
    "performance_bound",
]

# Certification tolerance used for the stationarity flag in reports.
STATIONARITY_TOL = 1e-7

_REFINE_MAX_ITERS = 100_000

# Inner solve of refine_on_partition: CG steps per Newton direction, and the
# residual target relative to the largest free gradient entry.
_CG_MAX_STEPS = 500
_CG_FORCING = 1e-3

# Projected Armijo search: sufficient-decrease factor and halvings tried.
_ARMIJO_C = 1e-4
_ARMIJO_TRIALS = 30


def minimize(*args, **kwargs):
    """Lazy ``scipy.optimize.minimize``; nothing in priceopt calls it.

    The benchmark's tracer (perfbench/tracing.py) still wraps
    ``solver.minimize`` by name, so the binding stays, but importing
    ``scipy.optimize`` here would add about 0.25 s to every command's
    start-up.  Delete this shim together with that hook (ROADMAP item 1).
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class SolverParams:
    """Tuning knobs for one solver run.

    eps is a relative stopping factor by default: the run stops when the
    per-iteration decrease falls below ``eps * max(1, |Q(p_1)|)``.  Set
    ``absolute_eps`` to interpret it as an absolute threshold instead.
    """

    L_mode: str = "gershgorin"
    eps: float = 1e-9
    absolute_eps: bool = False
    max_iters: int = 50_000
    refine: bool = True
    stab_window: int = 5
    long_step_factor: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.L_mode not in ("gershgorin", "power"):
            raise ContractError(f"L_mode must be 'gershgorin' or 'power', got {self.L_mode!r}")
        if not self.eps > 0:
            raise ContractError("eps must be positive")
        if not self.long_step_factor > 1:
            raise ContractError("long_step_factor must exceed 1")
        if self.max_iters < 1 or self.stab_window < 1:
            raise ContractError("max_iters and stab_window must be positive")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")


class Partition:
    """Coordinates split into unchanged (alpha), raised (beta), lowered (gamma).

    Held as one int8 status vector: 0 unchanged, 1 raised, 2 lowered.  The
    constructor checks that its three index sets are disjoint and cover 0..n-1.
    """

    def __init__(self, alpha, beta, gamma):
        sets = [np.asarray(s, dtype=np.int64) for s in (alpha, beta, gamma)]
        union = np.concatenate(sets)
        n = union.size
        if n and (union.min() < 0 or union.max() >= n or np.bincount(union).max() > 1):
            raise StructuralError("alpha, beta, gamma must be disjoint and cover 0..n-1")
        status = np.zeros(n, dtype=np.int8)
        status[sets[1]] = 1
        status[sets[2]] = 2
        self.status = status

    @classmethod
    def from_status(cls, status: np.ndarray) -> "Partition":
        """Wrap a status vector as ``_classify`` builds it, without re-checking."""
        part = cls.__new__(cls)
        part.status = status
        return part

    @classmethod
    def from_prices(cls, instance: Instance, p: np.ndarray) -> "Partition":
        """Classify a feasible price vector; rejects in-between coordinates."""
        p = np.asarray(p, dtype=np.float64)
        status = _classify(instance, p)
        between = np.flatnonzero((status == 0) & (p != instance.p0))
        if between.size:
            bad = int(between[0])
            raise ContractError(f"price {p[bad]} at index {bad} is in no branch of its allowed set")
        part = cls.from_status(status)
        if part.n_changed > instance.k:
            raise ContractError(f"partition changes {part.n_changed} coordinates, budget is {instance.k}")
        return part

    @cached_property
    def alpha(self) -> np.ndarray:
        return np.flatnonzero(self.status == 0)

    @cached_property
    def beta(self) -> np.ndarray:
        return np.flatnonzero(self.status == 1)

    @cached_property
    def gamma(self) -> np.ndarray:
        return np.flatnonzero(self.status == 2)

    @property
    def n_changed(self) -> int:
        return int(np.count_nonzero(self.status))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.status, other.status)


@dataclass
class SolveReport:
    """Everything observable about one solver run."""

    final_p: np.ndarray
    final_q_obj: float
    final_profit: float
    iterations: int
    objective_trace: np.ndarray
    stationarity_residual: float
    stationary: bool
    partition: Partition
    kappa: int
    refined: bool
    converged: bool
    wall_time: float
    L: float
    n: int
    k: int
    base_profit: float
    delta_mode: str
    bounds_mode: str
    bound_i: Optional[float] = None
    bound_ii: Optional[float] = None
    instance_id: str = ""
    start_id: Optional[int] = None

    @property
    def improvement_pct(self) -> float:
        if self.base_profit == 0.0:
            return float("nan")
        return 100.0 * (self.final_profit - self.base_profit) / abs(self.base_profit)


class RefineResult(NamedTuple):
    p: np.ndarray
    converged: bool
    iterations: int


def _classify(instance: Instance, p: np.ndarray) -> np.ndarray:
    status = np.zeros(instance.n, dtype=np.int8)
    status[p >= instance.p0 + instance.delta] = 1
    status[p <= instance.p0 - instance.delta] = 2
    return status


def _delta_descriptor(instance: Instance) -> str:
    d = instance.delta
    if np.all(d == d[0]):
        return f"const:{d[0]:g}"
    return "varied"


def _bounds_descriptor(instance: Instance) -> str:
    return "none" if instance.bounds is None else "bounded"


def _partition_box(instance: Instance, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate interval [lo, hi] of the piece F(alpha, beta, gamma)."""
    p0, delta = instance.p0, instance.delta
    raised, lowered = partition.status == 1, partition.status == 2
    l, u = (-np.inf, np.inf) if instance.bounds is None else instance.bounds
    lo = np.where(raised, p0 + delta, np.where(lowered, l, p0))
    hi = np.where(raised, u, np.where(lowered, p0 - delta, p0))
    return lo, hi


def _newton_direction(
    instance: Instance, g: np.ndarray, free: np.ndarray, d_inv: np.ndarray, atol: float
) -> np.ndarray:
    """Jacobi-preconditioned CG on S_FF d_F = -g_F; zero outside the free set F.

    S_FF is applied as a masked product with the instance's S.  Stops once the
    infinity norm of the residual is at most max(_CG_FORCING * |g_F|_inf,
    atol), after _CG_MAX_STEPS steps, or on a direction of non-positive
    curvature (S not positive definite).
    """
    r = np.where(free, -g, 0.0)
    rtol = max(_CG_FORCING * float(np.max(np.abs(r))), atol)
    z = d_inv * r
    d = z.copy()
    x = np.zeros_like(g)
    rz = float(r @ z)
    for _ in range(_CG_MAX_STEPS):
        if float(np.max(np.abs(r))) <= rtol:
            break
        sd = instance.s_matvec(d)
        sd[~free] = 0.0
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


def refine_on_partition(
    instance: Instance,
    partition: Partition,
    p: np.ndarray,
    tol: Optional[float] = None,
    L: Optional[float] = None,
    max_iters: int = _REFINE_MAX_ITERS,
) -> RefineResult:
    """Solve the restricted strongly convex QP over one polyhedral piece.

    Coordinates in alpha stay at the baseline; raised/lowered coordinates are
    confined to their per-coordinate interval [lo, hi].  The solve is
    projected Newton-CG (Bertsekas, SIAM J. Control Optim. 20(2), 1982): each
    outer iteration frees the coordinates that are neither fixed nor held at
    a bound by the gradient, solves the Newton system on them by
    preconditioned CG, and searches along the projected arc
    ``clip(p + t d, lo, hi)`` with Armijo backtracking on the exact quadratic
    decrease.  When the search fails, one projected-gradient step of size
    1/L is taken instead, so the objective never increases.  The run stops
    once ``L * max|clip(p - g/L, lo, hi) - p| <= tol`` (converged) or after
    max_iters outer iterations.  The output stays in the piece.
    """
    p = np.asarray(p, dtype=np.float64)
    lo, hi = _partition_box(instance, partition)
    if np.any(p < lo - 1e-9) or np.any(p > hi + 1e-9):
        raise ContractError("p must lie in the piece identified by the partition")
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
        # "not >" so that a non-finite residual (S not positive definite,
        # piece unbounded below) stops the loop as well
        if not pg_norm > tol or iterations >= max_iters:
            return RefineResult(p=p, converged=bool(pg_norm <= tol), iterations=iterations)
        iterations += 1

        free = movable & ~((p <= lo) & (g > 0.0)) & ~((p >= hi) & (g < 0.0))
        d = _newton_direction(instance, g, free, d_inv, 0.1 * tol)

        t = 1.0
        for _ in range(_ARMIJO_TRIALS):
            p_next = np.clip(p + t * d, lo, hi)
            s = p_next - p
            slope = float(g @ s)
            if slope < 0.0 and slope + 0.5 * float(s @ instance.s_matvec(s)) <= _ARMIJO_C * slope:
                break
            t *= 0.5
        else:
            p_next = np.clip(p - g / L, lo, hi)
        p = p_next


def _tie_margin(instance: Instance, q: np.ndarray, tol: float) -> float:
    """Margin within which two gain scores at q count as tied, for tolerance tol."""
    return 4.0 * tol * (1.0 + float(np.max(np.abs(q - instance.p0))) + float(np.max(instance.delta)))


def certify_stationary(
    instance: Instance,
    p: np.ndarray,
    L: float,
    tol: float = STATIONARITY_TOL,
) -> tuple[bool, float]:
    """Fixed-point residual of p under the projected-gradient map.

    Computes q = p - grad Q(p) / L and the smallest infinity-norm distance
    from p to a member of the projection set of q, minimized over admissible
    tie-break choices: both values of a two-valued coordinate projection are
    accepted when within tol of optimal, and coordinates whose gain scores
    are tied within a tol-scaled margin may swap in and out of the selected
    support.  Returns (residual <= tol, residual).

    The residual is closed form.  With in_cost the distance from p_i to an
    admissible 1-D minimizer and out_cost = |p_i - p0_i|, the gain scores
    split the coordinates into must-in, never-in and a pool of ties (or, when
    the k-th largest score is within the margin of zero, must-in and a free
    pool that may leave the budget slack).  Each condition on the radius is
    monotone in it, so the residual is the largest per-condition minimum.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (instance.n,):
        raise StructuralError(f"p must have length {instance.n}")
    if not L > 0:
        raise ContractError("L must be positive")

    n, k = instance.n, instance.k
    q = p - gradient_q(instance, p) / L

    delta_score = score(instance, q).delta_score
    in_cost = _member_distance(instance, q, p, tol)
    out_cost = np.abs(p - instance.p0)

    tol_delta = _tie_margin(instance, q, tol)

    if k >= n:
        cost = np.minimum(in_cost, np.where(delta_score <= tol_delta, out_cost, np.inf))
        residual = float(np.max(cost)) if n else 0.0
        return residual <= tol, residual

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

    # must-in coordinates within r of a minimizer, never-in ones within r of
    # p0, pool ones within r of either
    minima = [in_cost[must_in], out_cost[never_in], np.minimum(pool_in, pool_out)]
    # at most `slots` pool coordinates move in, the rest stay within r of p0:
    # r is at least the (slots+1)-th largest pool out_cost
    m = pool_out.size
    if m > slots:
        minima.append(np.partition(pool_out, m - slots - 1)[m - slots - 1])
    if fill_slots:
        # exactly k changes: `slots` pool coordinates within r of a minimizer
        minima.append(np.partition(pool_in, slots - 1)[slots - 1])
    residual = max(float(np.max(r, initial=0.0)) for r in minima)
    return residual <= tol, residual


def gpa_solve(
    instance: Instance,
    start: np.ndarray,
    params: SolverParams,
    L: Optional[float] = None,
    on_iterate: Optional[Callable[[int, np.ndarray, np.ndarray, float, float, float], None]] = None,
) -> SolveReport:
    """Run the gradient projection iteration from one starting point.

    Infeasible starts are first projected onto the feasible set.  Iterates
    until the per-iteration decrease falls below the stopping threshold or
    the iteration budget runs out; when refinement is enabled and the
    partition has been stable for ``stab_window`` iterations while steps are
    below ``delta_min^2 / 2``, the run finishes by solving the restricted
    convex QP on the frozen piece.  ``on_iterate`` (if given) is called as
    ``(t, p_t, p_{t+1}, Q_t, Q_{t+1}, step_sq)`` for every projection step.

    An explicit ``L`` overrides the spectral-bound choice (useful for
    experiments with a prescribed step constant).
    """
    t0 = time.perf_counter()
    if L is None:
        L = spectral_bounds(instance, mode=params.L_mode).L
    if not np.isfinite(L) or L <= 0:
        raise NumericError(f"invalid step constant L={L}")

    p = np.asarray(start, dtype=np.float64)
    if p.shape != (instance.n,):
        raise StructuralError(f"start must have length {instance.n}")
    if not is_feasible(instance, p):
        p = project_feasible(instance, p)

    q_val, grad = value_and_gradient(instance, p)
    eps_abs = params.eps if params.absolute_eps else params.eps * max(1.0, abs(q_val))
    trace = [q_val]

    delta_min_sq_half = float(np.min(instance.delta)) ** 2 / 2.0
    status = _classify(instance, p)
    streak = 1
    stab_window = params.stab_window
    refine_attempts = 0
    refined = False
    converged = False
    certificate: Optional[tuple[bool, float]] = None
    iterations = 0

    while iterations < params.max_iters:
        iterations += 1
        p_next = project_feasible(instance, p - grad / L)
        q_next, grad_next = value_and_gradient(instance, p_next)
        step_sq = float(np.sum((p_next - p) ** 2))
        if on_iterate is not None:
            on_iterate(iterations, p, p_next, q_val, q_next, step_sq)
        trace.append(q_next)
        decrease = q_val - q_next

        status_next = _classify(instance, p_next)
        streak = streak + 1 if np.array_equal(status_next, status) else 1
        p, q_val, grad, status = p_next, q_next, grad_next, status_next

        stabilized = params.refine and step_sq <= delta_min_sq_half and streak >= stab_window
        if not (stabilized or decrease <= eps_abs):
            continue
        if params.refine:
            # solve the restricted QP on the current piece; keep it unless worse
            result = refine_on_partition(instance, Partition.from_status(status), p, L=L)
            q_ref = objective_q(instance, result.p)
            if q_ref <= q_val:
                p, q_val = result.p, q_ref
                trace.append(q_val)
            refined = True
        if not stabilized:
            converged = True
            break
        certificate = certify_stationary(instance, p, L, STATIONARITY_TOL)
        if certificate[0] or refine_attempts >= 2 or not result.converged:
            converged = certificate[0] or result.converged
            break
        # Premature stabilization: resume with a stricter window.
        certificate = None
        grad = gradient_q(instance, p)
        refine_attempts += 1
        stab_window *= 2
        status = _classify(instance, p)
        streak = 1

    if certificate is None:
        certificate = certify_stationary(instance, p, L, STATIONARITY_TOL)
    ok, residual = certificate
    partition = Partition.from_status(_classify(instance, p))
    kappa = int(np.count_nonzero(p != instance.p0))
    base_profit = profit_z(instance, instance.p0)

    return SolveReport(
        final_p=p,
        final_q_obj=q_val,
        final_profit=profit_z(instance, p),
        iterations=iterations,
        objective_trace=np.asarray(trace),
        stationarity_residual=residual,
        stationary=ok,
        partition=partition,
        kappa=kappa,
        refined=refined,
        converged=converged,
        wall_time=time.perf_counter() - t0,
        L=L,
        n=instance.n,
        k=instance.k,
        base_profit=base_profit,
        delta_mode=_delta_descriptor(instance),
        bounds_mode=_bounds_descriptor(instance),
    )


def _random_feasible_start(instance: Instance, rng: np.random.Generator) -> np.ndarray:
    """Random support of size k, random side, magnitude delta * (1 + U[0,1])."""
    n, k = instance.n, instance.k
    support = rng.choice(n, size=k, replace=False)
    sides = rng.integers(0, 2, size=k) * 2 - 1
    moves = instance.delta[support] * (1.0 + rng.random(k))
    start = instance.p0.copy()
    start[support] = instance.p0[support] + sides * moves
    if instance.bounds is not None:
        start[support] = np.clip(start[support], instance.lower[support], instance.upper[support])
    return start


def build_starts(instance: Instance, params: SolverParams, L: float) -> list[np.ndarray]:
    """The five canonical starting points.

    (1) the baseline, (2)-(4) seeded random feasible vectors, (5) one
    long-step projection of the baseline (step long_step_factor / L), which
    often escapes the baseline's own basin.
    """
    rng = np.random.default_rng(params.seed)
    starts = [instance.p0.copy()]
    for _ in range(3):
        starts.append(_random_feasible_start(instance, rng))
    g0 = gradient_q(instance, instance.p0)
    starts.append(project_feasible(instance, instance.p0 - params.long_step_factor * g0 / L))
    return starts


def multi_start(
    instance: Instance,
    params: SolverParams,
    n_starts: int = 5,
    parallel: int = 1,
) -> tuple[SolveReport, list[SolveReport]]:
    """Run the solver from up to five canonical starts and keep the best.

    Starts run sequentially by default (single-thread comparability);
    ``parallel`` > 1 opts into a thread pool over the independent runs, and
    ``parallel`` < 1 is a ContractError.
    Returns ``(best, all)`` with best = lowest final objective value, ties
    resolved toward the lower start id.
    """
    if not 1 <= n_starts <= 5:
        raise ContractError("n_starts must be between 1 and 5")
    if parallel < 1:
        raise ContractError("parallel must be at least 1")
    L = spectral_bounds(instance, mode=params.L_mode).L
    starts = build_starts(instance, params, L)[:n_starts]

    def run(idx_start: tuple[int, np.ndarray]) -> SolveReport:
        idx, start = idx_start
        report = gpa_solve(instance, start, params, L=L)
        report.start_id = idx
        return report

    jobs = list(enumerate(starts, start=1))
    if parallel > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallel) as pool:
            reports = list(pool.map(run, jobs))
    else:
        reports = [run(j) for j in jobs]

    best = min(reports, key=lambda r: (r.final_q_obj, r.start_id))
    return best, reports


def performance_bound(
    instance: Instance,
    report: SolveReport,
    lambda_n: Optional[float],
    tol: Optional[float] = None,
) -> tuple[float, Optional[float]]:
    """Suboptimality bounds at a certified stationary point.

    With kappa changed coordinates and tail = sum of the gain scores beyond
    the kappa largest, evaluated at q = p - grad Q(p) / L:

        (i)   ||grad Q(p)||_2^2        <=  L^2 tail + L^2/4 sum_i delta_i^2
        (ii)  Q(p) - Q(global optimum) <=  L^2/(2 lambda_n) tail
                                           + L^2/(8 lambda_n) sum_i delta_i^2

    When kappa < k every unselected score must vanish at stationarity, so the
    tail is required to be below tol and the bounds reduce to their
    threshold-only form.  Bound (ii) is unavailable without lambda_n.

    Only valid for the unbounded model: with price bounds, a coordinate
    pressed against its bound can carry an arbitrarily large gradient and the
    per-coordinate case analysis behind both bounds fails.
    """
    if instance.bounds is not None:
        raise ContractError("suboptimality bounds apply to the unbounded model only")
    L = report.L
    p = report.final_p
    q = p - gradient_q(instance, p) / L
    scores = np.sort(score(instance, q).delta_score)[::-1]
    kappa = report.kappa
    tail = float(scores[kappa:].sum())
    if tol is None:
        # a point certified at STATIONARITY_TOL can carry a residual tail of
        # this order; anything larger means the point is not stationary
        tol = _tie_margin(instance, q, STATIONARITY_TOL)
    if kappa < instance.k:
        if tail > tol:
            raise ContractError(
                f"point is not stationary: slack change budget but positive tail gain {tail:g}"
            )
        tail = 0.0
    sum_delta_sq = float(np.sum(instance.delta**2))
    bound_i = L * L * tail + 0.25 * L * L * sum_delta_sq
    if lambda_n is None:
        return bound_i, None
    if lambda_n <= 0:
        raise ContractError("lambda_n must be positive")
    bound_ii = L * L / (2.0 * lambda_n) * tail + L * L / (8.0 * lambda_n) * sum_delta_sq
    return bound_i, bound_ii
