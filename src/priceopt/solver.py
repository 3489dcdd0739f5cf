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
solve (``refine_on_partition``) is projected Newton-CG on the piece's box,
run in the coordinates of the kappa <= k prices that can move: their rows of
S give the gradient, their block S_CC the rest, conjugate gradients on the
free coordinates give the step, and a projected Armijo search keeps it in
the box and descending.  The rows and the block are SciPy slices of the
instance's S (``S[C]`` and its columns C), and the CG loop is
``instance._pcg``, shared with ``unconstrained_minimizer``, so this module
keeps no linear algebra of its own.  The piece's box reads the branch edges
``p0 +- delta`` that the instance caches.

A point is first-order stationary when it is a fixed point of the map above
(the L-stationarity of Beck & Eldar, SIAM J. Optim. 23(3), 2013):
``certify_stationary`` measures the distance from p to the projection set
of ``p - grad Q(p) / L`` with the closed-form residual that lives in
``projection.py`` and also decides ``certify_in_H``, so legitimate
two-valued projections and tied scores do not fail certification.  Each run
certifies its final point once, and the certificate computes the 1-D
distances only on the coordinates that can decide it.  The Gershgorin step
constant and the base profit ``Z(p0)`` that every run reports are computed
once per instance and its ``with_k`` copies (``instance._gershgorin``,
``instance._base_profit``).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import ContractError, NumericError, StructuralError
from .instance import (
    Instance,
    _base_profit,
    _check_length,
    _pcg,
    gradient_q,
    profit_z,
    spectral_bounds,
    value_and_gradient,
)
from .projection import _classify, _gains, _membership_residual, _tie_margin, is_feasible, project_feasible

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

# Iterations the partition must stay unchanged (with short steps) before the
# run refines on it; doubled after each premature stabilization.
_STAB_WINDOW = 5
# The fifth canonical start is one projected step of this many times 1/L
# from the baseline.
_LONG_STEP_FACTOR = 10.0

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

    eps is a relative stopping factor: the run stops when the per-iteration
    decrease falls below ``eps * max(1, |Q(p_1)|)``.
    """

    L_mode: str = "gershgorin"
    eps: float = 1e-9
    max_iters: int = 50_000
    refine: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.L_mode not in ("gershgorin", "power"):
            raise ContractError(f"L_mode must be 'gershgorin' or 'power', got {self.L_mode!r}")
        if not 0 < self.eps < math.inf:
            raise ContractError(f"eps must be positive and finite, got {self.eps}")
        if self.max_iters < 1:
            raise ContractError(f"max_iters must be positive, got {self.max_iters}")
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


def _delta_descriptor(instance: Instance) -> str:
    d = instance.delta
    if np.all(d == d[0]):
        return f"const:{d[0]:g}"
    return "varied"


def _bounds_descriptor(instance: Instance) -> str:
    return "none" if instance.bounds is None else "bounded"


def _partition_box(instance: Instance, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate interval [lo, hi] of the piece F(alpha, beta, gamma)."""
    p0 = instance.p0
    up, dn, _, _ = instance._edges
    raised, lowered = partition.status == 1, partition.status == 2
    l, u = (-np.inf, np.inf) if instance.bounds is None else instance.bounds
    lo = np.where(raised, up, np.where(lowered, l, p0))
    hi = np.where(raised, u, np.where(lowered, dn, p0))
    return lo, hi


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
    confined to their per-coordinate interval [lo, hi].  Only the movable
    ones, C = {i : lo_i < hi_i}, can change, so the solve runs in their
    coordinates x = p_C: the rows ``S_C.`` give the gradient
    ``g_C = S_C. p - f_C`` at the full point (the same numbers as
    ``(S p - f)_C``), and the block ``S_CC`` every other product.  It is
    projected Newton-CG (Bertsekas, SIAM J. Control Optim. 20(2), 1982): each
    outer iteration frees the coordinates of C not held at a bound by the
    gradient, solves the Newton system on them by preconditioned CG, and
    searches along the projected arc ``clip(x + t d, lo, hi)`` with Armijo
    backtracking on the exact quadratic decrease.  When the search fails, one
    projected-gradient step of size 1/L is taken instead, so the objective
    never increases.  The run stops once
    ``L * max|clip(x - g_C/L, lo, hi) - x| <= tol`` (converged) or after
    max_iters outer iterations.  The output is the full price vector, in the
    piece.
    """
    p = np.asarray(p, dtype=np.float64)
    lo, hi = _partition_box(instance, partition)
    if np.any(p < lo - 1e-9) or np.any(p > hi + 1e-9):
        raise ContractError("p must lie in the piece identified by the partition")
    p = np.clip(p, lo, hi)

    if L is None:
        L = spectral_bounds(instance).L
    if tol is None:
        tol = 1e-9 * L * max(1.0, float(np.max(np.abs(instance.p0))))

    # C is empty when nothing changes or bounds pin every changed price at
    # its threshold; the loop then stops at once, converged
    C = np.flatnonzero(lo < hi)
    lo, hi, f = lo[C], hi[C], instance.f[C]  # the n-sized boxes go before S's rows are gathered
    x = p[C]
    S_rows = instance.S[C]
    S_CC = S_rows[:, C]
    d_inv = 1.0 / S_CC.diagonal()
    iterations = 0
    while True:
        p[C] = x
        g = S_rows @ p - f
        pg_norm = L * float(np.max(np.abs(np.clip(x - g / L, lo, hi) - x), initial=0.0))
        # "not >" so that a non-finite residual (S not positive definite,
        # piece unbounded below) stops the loop as well
        if not pg_norm > tol or iterations >= max_iters:
            return RefineResult(p=p, converged=bool(pg_norm <= tol), iterations=iterations)
        iterations += 1

        free = ~((x <= lo) & (g > 0.0)) & ~((x >= hi) & (g < 0.0))
        d, _ = _pcg(S_CC, -g, free, d_inv, _CG_FORCING, 0.1 * tol, _CG_MAX_STEPS)

        t = 1.0
        for _ in range(_ARMIJO_TRIALS):
            x_next = np.clip(x + t * d, lo, hi)
            s = x_next - x
            slope = float(g @ s)
            if slope < 0.0 and slope + 0.5 * float(s @ (S_CC @ s)) <= _ARMIJO_C * slope:
                break
            t *= 0.5
        else:
            x_next = np.clip(x - g / L, lo, hi)
        x = x_next


def certify_stationary(
    instance: Instance,
    p: np.ndarray,
    L: float,
    tol: float = STATIONARITY_TOL,
    grad: Optional[np.ndarray] = None,
) -> tuple[bool, float]:
    """Fixed-point residual of p under the projected-gradient map.

    Computes q = p - grad Q(p) / L and the smallest infinity-norm distance
    from p to a member of the projection set H(q), honoring its set-valued
    ties (``projection._membership_residual``, the same closed form that
    ``certify_in_H`` decides).  Returns (residual <= tol, residual).  A
    caller that already holds grad Q(p) passes it as ``grad``, which saves
    one product with S.
    """
    p = _check_length(instance, p)
    if not L > 0:
        raise ContractError("L must be positive")
    if grad is None:
        grad = gradient_q(instance, p)
    residual = _membership_residual(instance, p - grad / L, p, tol)
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
    the iteration budget runs out; a step that raises the objective by more
    than the threshold (``L`` below the curvature) is not taken and ends the
    run unconverged.  When refinement is enabled and the partition has been
    stable for ``_STAB_WINDOW`` iterations while steps are below
    ``delta_min^2 / 2``, the run finishes by solving the restricted convex QP
    on the frozen piece.  ``on_iterate`` (if given) is called as
    ``(t, p_t, p_{t+1}, Q_t, Q_{t+1}, step_sq)`` for every projection step.

    An explicit ``L`` overrides the spectral-bound choice (useful for
    experiments with a prescribed step constant).
    """
    t0 = time.perf_counter()
    if L is None:
        L = spectral_bounds(instance, mode=params.L_mode).L
    if not np.isfinite(L) or L <= 0:
        raise NumericError(f"invalid step constant L={L}")

    p = _check_length(instance, start)
    if not is_feasible(instance, p):
        p = project_feasible(instance, p)

    q_val, grad = value_and_gradient(instance, p)
    eps_abs = params.eps * max(1.0, abs(q_val))
    trace = [q_val]

    # a product, not ** 2: a float power raises OverflowError past 1e154
    delta_min = float(np.min(instance.delta))
    delta_min_sq_half = delta_min * delta_min / 2.0
    status = _classify(instance, p)
    streak = 1
    stab_window = _STAB_WINDOW
    refine_attempts = 0
    refined = False
    converged = False
    certificate: Optional[tuple[bool, float]] = None
    iterations = 0

    while iterations < params.max_iters:
        iterations += 1
        # a tiny L overflows the step; value_and_gradient rejects the result
        with np.errstate(over="ignore", invalid="ignore"):
            p_next = project_feasible(instance, p - grad / L)
        q_next, grad_next = value_and_gradient(instance, p_next)
        step_sq = float(np.sum((p_next - p) ** 2))
        if on_iterate is not None:
            on_iterate(iterations, p, p_next, q_val, q_next, step_sq)
        decrease = q_val - q_next
        if decrease < -eps_abs:
            break  # keep the point before the rise; the run has not converged
        trace.append(q_next)

        status_next = _classify(instance, p_next)
        streak = streak + 1 if np.array_equal(status_next, status) else 1
        p, q_val, grad, status = p_next, q_next, grad_next, status_next
        del p_next, grad_next  # so that a refined point frees the point it replaces

        stabilized = params.refine and step_sq <= delta_min_sq_half and streak >= stab_window
        if not (stabilized or decrease <= eps_abs):
            continue
        if params.refine:
            # solve the restricted QP on the current piece; keep it unless
            # worse (it stays in the piece, so status still classifies p)
            result = refine_on_partition(instance, Partition.from_status(status), p, L=L)
            q_ref, g_ref = value_and_gradient(instance, result.p)
            if q_ref <= q_val:
                p, q_val, grad = result.p, q_ref, g_ref
                trace.append(q_val)
            refined = True
        if not stabilized:
            converged = True
            break
        # grad is the gradient at p, whichever point was kept
        certificate = certify_stationary(instance, p, L, STATIONARITY_TOL, grad)
        if certificate[0] or refine_attempts >= 2 or not result.converged:
            converged = certificate[0] or result.converged
            break
        # Premature stabilization: resume with a stricter window.
        certificate = None
        refine_attempts += 1
        stab_window *= 2
        streak = 1

    if certificate is None:
        certificate = certify_stationary(instance, p, L, STATIONARITY_TOL, grad)
    ok, residual = certificate
    partition = Partition.from_status(status)
    base_profit = _base_profit(instance)

    return SolveReport(
        final_p=p,
        final_q_obj=q_val,
        final_profit=profit_z(instance, p),
        iterations=iterations,
        objective_trace=np.asarray(trace),
        stationarity_residual=residual,
        stationary=ok,
        partition=partition,
        kappa=partition.n_changed,
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
    start = instance.p0.copy()
    # thresholds near the float maximum overflow to an infinite start, which
    # the run on it rejects as a NumericError
    with np.errstate(over="ignore"):
        moves = instance.delta[support] * (1.0 + rng.random(k))
        start[support] = instance.p0[support] + sides * moves
    if instance.bounds is not None:
        start[support] = np.clip(start[support], instance.lower[support], instance.upper[support])
    return start


def build_starts(instance: Instance, params: SolverParams, L: float) -> Iterator[np.ndarray]:
    """The five canonical starting points, each built when it is asked for.

    (1) the baseline, (2)-(4) seeded random feasible vectors, (5) one
    long-step projection of the baseline (step _LONG_STEP_FACTOR / L), which
    often escapes the baseline's own basin.
    """
    yield instance.p0.copy()
    rng = np.random.default_rng(params.seed)
    for _ in range(3):
        yield _random_feasible_start(instance, rng)
    # one expression: while the fifth start runs, the generator holds that
    # start alone, not the gradient at p0 and the step before its projection
    with np.errstate(over="ignore", invalid="ignore"):
        start = project_feasible(
            instance, instance.p0 - _LONG_STEP_FACTOR * gradient_q(instance, instance.p0) / L
        )
    yield start


def multi_start(
    instance: Instance,
    params: SolverParams,
    n_starts: int = 5,
) -> tuple[SolveReport, list[SolveReport]]:
    """Run the solver from the first ``n_starts`` canonical starts, one after
    another, and keep the best.

    Returns ``(best, all)`` with best = lowest final objective value, ties
    resolved toward the lower start id.
    """
    if not 1 <= n_starts <= 5:
        raise ContractError("n_starts must be between 1 and 5")
    L = spectral_bounds(instance, mode=params.L_mode).L
    reports = []
    for idx, start in enumerate(itertools.islice(build_starts(instance, params, L), n_starts), start=1):
        report = gpa_solve(instance, start, params, L=L)
        report.start_id = idx
        reports.append(report)
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
    largest of them is required to be below tol (a per-score tolerance) and
    the bounds reduce to their threshold-only form.  Bound (ii) is
    unavailable without lambda_n.

    Only valid for the unbounded model: with price bounds, a coordinate
    pressed against its bound can carry an arbitrarily large gradient and the
    per-coordinate case analysis behind both bounds fails.
    """
    if instance.bounds is not None:
        raise ContractError("suboptimality bounds apply to the unbounded model only")
    L = report.L
    p = report.final_p
    q = p - gradient_q(instance, p) / L
    scores = np.sort(_gains(instance, q))[::-1]
    kappa = report.kappa
    if tol is None:
        # a point certified at STATIONARITY_TOL can carry unselected scores
        # of this order; a larger one means the point is not stationary
        tol = _tie_margin(instance, q, STATIONARITY_TOL)
    if kappa < instance.k:
        if scores[kappa] > tol:
            raise ContractError(
                f"point is not stationary: slack change budget but positive gain {scores[kappa]:g}"
            )
        tail = 0.0
    else:
        tail = float(scores[kappa:].sum())
    sum_delta_sq = float(np.sum(instance.delta**2))
    bound_i = L * L * tail + 0.25 * L * L * sum_delta_sq
    if lambda_n is None:
        return bound_i, None
    if lambda_n <= 0:
        raise ContractError("lambda_n must be positive")
    bound_ii = L * L / (2.0 * lambda_n) * tail + L * L / (8.0 * lambda_n) * sum_delta_sq
    return bound_i, bound_ii
