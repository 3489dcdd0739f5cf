"""Problem data and the quadratic objective machinery.

A problem instance consists of a linear demand model ``v(p) = a - D p``,
unit costs ``c``, baseline prices ``p0``, per-product minimum change
thresholds ``delta``, a change budget ``k`` and optional per-product price
bounds ``(l, u)``.  Profit maximization of ``Z(p) = (p - c)^T (a - D p)``
is equivalent to minimizing the convex quadratic

    Q(p) = 1/2 p^T S p - f^T p,      S = D + D^T,  f = a + D^T c,

with ``Z(p) = -Q(p) - c^T a``.  ``S`` is built once per instance as a cached
sparse CSR matrix (``Instance.S``) and every product with it goes through
that one matrix; the dense ``S`` is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse

from .errors import NumericError, StructuralError, ValidationError

__all__ = [
    "Instance",
    "ValidationReport",
    "SpectralBounds",
    "validate",
    "objective_q",
    "gradient_q",
    "value_and_gradient",
    "profit_z",
    "unconstrained_minimizer",
    "spectral_bounds",
    "with_k",
]

# Dense Cholesky-based PD check is only attempted up to this size; beyond it
# positive definiteness is inferred from SPD-solver convergence ("probable").
_DENSE_PD_LIMIT = 2000

_CG_RTOL = 1e-10


def _as_vector(name: str, x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != n:
        raise StructuralError(f"{name} must be a vector of length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise StructuralError(f"{name} contains non-finite entries")
    v = v.copy()
    v.setflags(write=False)
    return v


def _check_k(n: int, k) -> int:
    k = int(k)
    if not 1 <= k <= n:
        raise StructuralError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    return k


@dataclass(frozen=True, eq=False)
class Instance:
    """One price optimization problem.

    Fields
    ------
    n        number of products
    k        maximum number of prices allowed to change (1 <= k <= n)
    a        demand intercepts, length n
    D        price-effect matrix, n x n sparse CSR; entry (i, j) is the
             (negated) effect of price j on demand i; the diagonal is stored
             and nonzero in every row, and no explicit zeros are kept
    c        unit costs, length n
    p0       baseline prices, length n
    delta    minimum change thresholds, length n, all > 0
    bounds   optional pair (l, u) of per-product price bounds with
             l <= p0 - delta and u >= p0 + delta
    """

    n: int
    k: int
    a: np.ndarray
    D: sparse.csr_array
    c: np.ndarray
    p0: np.ndarray
    delta: np.ndarray
    bounds: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise StructuralError(f"n must be positive, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", _check_k(n, self.k))

        D = sparse.csr_array(self.D, dtype=np.float64).copy()
        if D.shape != (n, n):
            raise StructuralError(f"D must be {n}x{n}, got {D.shape}")
        D.sum_duplicates()
        D.eliminate_zeros()
        D.sort_indices()
        if not np.all(np.isfinite(D.data)):
            raise StructuralError("D contains non-finite entries")
        diag = D.diagonal()
        if np.any(diag == 0.0):
            bad = int(np.flatnonzero(diag == 0.0)[0])
            raise StructuralError(f"D must store a nonzero diagonal entry in every row (row {bad})")
        for buf in (D.data, D.indices, D.indptr):
            buf.setflags(write=False)
        object.__setattr__(self, "D", D)

        for name in ("a", "c", "p0", "delta"):
            object.__setattr__(self, name, _as_vector(name, getattr(self, name), n))

        if np.any(self.delta <= 0.0):
            bad = int(np.flatnonzero(self.delta <= 0.0)[0])
            raise ValidationError(f"delta must be strictly positive (delta[{bad}] = {self.delta[bad]})")

        if self.bounds is not None:
            lo, hi = self.bounds
            lo = _as_vector("l", lo, n)
            hi = _as_vector("u", hi, n)
            if np.any(lo > self.p0 - self.delta):
                bad = int(np.flatnonzero(lo > self.p0 - self.delta)[0])
                raise ValidationError(f"l must satisfy l <= p0 - delta (violated at index {bad})")
            if np.any(hi < self.p0 + self.delta):
                bad = int(np.flatnonzero(hi < self.p0 + self.delta)[0])
                raise ValidationError(f"u must satisfy u >= p0 + delta (violated at index {bad})")
            object.__setattr__(self, "bounds", (lo, hi))

    # -- derived quantities (computed once, D is immutable) ------------------

    @cached_property
    def S(self) -> sparse.csr_array:
        """S = D + D^T in canonical CSR form (sparse, never dense)."""
        S = sparse.csr_array(self.D + self.D.T)
        for buf in (S.data, S.indices, S.indptr):
            buf.setflags(write=False)
        return S

    @cached_property
    def DT(self) -> sparse.csr_array:
        """Transpose of D in CSR form; unused by priceopt, but the benchmark's
        tracer (``perfbench/tracing.py``) reads it to model the matvec's work."""
        return sparse.csr_array(self.D.T)

    @cached_property
    def f(self) -> np.ndarray:
        """Linear coefficient f = a + D^T c of the minimization objective."""
        v = self.a + self.D.T @ self.c
        v.setflags(write=False)
        return v

    @property
    def lower(self) -> Optional[np.ndarray]:
        return None if self.bounds is None else self.bounds[0]

    @property
    def upper(self) -> Optional[np.ndarray]:
        return None if self.bounds is None else self.bounds[1]

    def s_matvec(self, p: np.ndarray) -> np.ndarray:
        """S @ p, one product with the cached sparse S."""
        return self.S @ p

    def same_data(self, other: "Instance") -> bool:
        """Exact structural equality, including sparse storage order."""
        if self.n != other.n or self.k != other.k:
            return False
        vecs = all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("a", "c", "p0", "delta")
        )
        if not vecs:
            return False
        if (self.bounds is None) != (other.bounds is None):
            return False
        if self.bounds is not None:
            if not (np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)):
                return False
        A, B = self.D, other.D
        return (
            np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data)
        )


def with_k(instance: Instance, k: int) -> Instance:
    """Copy of the instance with a different change budget.

    Nothing else depends on k, so the copy shares the validated data and the
    cached S and f of the original (built here if they were not yet), and
    only k is checked.
    """
    copy = object.__new__(Instance)
    copy.__dict__.update(instance.__dict__, S=instance.S, f=instance.f, k=_check_k(instance.n, k))
    return copy


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the model-assumption checks; failed flags never abort."""

    a1_sign_pattern: bool
    a1_positive_definite: bool
    a2_nonneg: bool
    a3_profitable_baseline: bool
    a4_positive_delta: bool
    bounds_consistent: bool
    messages: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (
            self.a1_sign_pattern
            and self.a1_positive_definite
            and self.a2_nonneg
            and self.a3_profitable_baseline
            and self.a4_positive_delta
            and self.bounds_consistent
        )


class SpectralBounds(NamedTuple):
    L: float
    lambda1_est: float
    lambdan_est: Optional[float]
    used_fallback: bool = False


def validate(instance: Instance) -> ValidationReport:
    """Check the standard demand-model assumptions and report per-flag results.

    * sign pattern: off-diagonal entries of S = D + D^T are all <= 0
    * positive definiteness of S: dense Cholesky attempt for n <= 2000,
      otherwise inferred from convergence of the SPD linear solver and
      reported as probable
    * nonnegativity: a > 0, c > 0 and a - D c >= 0 element-wise
    * profitable baseline: p0 - delta >= c element-wise
    * positive thresholds and bound consistency (re-checked defensively;
      the constructor already enforces both)
    """
    msgs: list[str] = []
    n = instance.n

    S = instance.S.tocoo()
    off = S.row != S.col
    a1_sign = bool(np.all(S.data[off] <= 0.0)) if np.any(off) else True
    if not a1_sign:
        msgs.append("sign pattern: some off-diagonal entries of S are positive")

    if n <= _DENSE_PD_LIMIT:
        dense = S.toarray()
        try:
            np.linalg.cholesky(dense)
            a1_pd = True
        except np.linalg.LinAlgError:
            a1_pd = False
            msgs.append("S is not positive definite (dense factorization failed)")
    else:
        try:
            unconstrained_minimizer(instance)
            a1_pd = True
            msgs.append(f"positive definiteness inferred from SPD solver convergence (probable, n > {_DENSE_PD_LIMIT})")
        except NumericError:
            a1_pd = False
            msgs.append("SPD solver did not converge; S is likely not positive definite")

    a2 = bool(np.all(instance.a > 0.0) and np.all(instance.c > 0.0) and np.all(instance.a - instance.D @ instance.c >= 0.0))
    if not a2:
        msgs.append("demand nonnegativity: requires a > 0, c > 0 and a - D c >= 0")

    a3 = bool(np.all(instance.p0 - instance.delta >= instance.c))
    if not a3:
        msgs.append("baseline profitability: requires p0 - delta >= c")

    a4 = bool(np.all(instance.delta > 0.0))

    if instance.bounds is None:
        bc = True
    else:
        bc = bool(
            np.all(instance.lower <= instance.p0 - instance.delta)
            and np.all(instance.upper >= instance.p0 + instance.delta)
        )
    if not bc:
        msgs.append("bounds: require l <= p0 - delta and u >= p0 + delta")

    return ValidationReport(
        a1_sign_pattern=a1_sign,
        a1_positive_definite=a1_pd,
        a2_nonneg=a2,
        a3_profitable_baseline=a3,
        a4_positive_delta=a4,
        bounds_consistent=bc,
        messages=msgs,
    )


def _check_length(instance: Instance, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (instance.n,):
        raise StructuralError(f"price vector must have length {instance.n}, got shape {p.shape}")
    return p


def objective_q(instance: Instance, p: np.ndarray) -> float:
    """Q(p) = 1/2 p^T S p - f^T p, via one product with the sparse S."""
    p = _check_length(instance, p)
    with np.errstate(over="ignore", invalid="ignore"):
        sp = instance.s_matvec(p)
        val = 0.5 * float(p @ sp) - float(instance.f @ p)
    if not np.isfinite(val):
        raise NumericError("objective evaluated to a non-finite value")
    return val


def gradient_q(instance: Instance, p: np.ndarray) -> np.ndarray:
    """grad Q(p) = S p - f, via one product with the sparse S."""
    p = _check_length(instance, p)
    g = instance.s_matvec(p) - instance.f
    if not np.all(np.isfinite(g)):
        raise NumericError("gradient evaluated to non-finite values")
    return g


def value_and_gradient(instance: Instance, p: np.ndarray) -> tuple[float, np.ndarray]:
    """Q(p) and grad Q(p) sharing a single S @ p product (solver hot path)."""
    p = _check_length(instance, p)
    with np.errstate(over="ignore", invalid="ignore"):
        sp = instance.s_matvec(p)
        val = 0.5 * float(p @ sp) - float(instance.f @ p)
        g = sp - instance.f
    if not (np.isfinite(val) and np.all(np.isfinite(g))):
        raise NumericError("objective/gradient evaluated to non-finite values")
    return val, g


def profit_z(instance: Instance, p: np.ndarray) -> float:
    """Profit Z(p) = (p - c)^T (a - D p)."""
    p = _check_length(instance, p)
    val = float((p - instance.c) @ (instance.a - instance.D @ p))
    if not np.isfinite(val):
        raise NumericError("profit evaluated to a non-finite value")
    return val


def _solve_spd(instance: Instance, b: np.ndarray, maxiter: int | None = None) -> np.ndarray:
    """Solve S x = b by preconditioned CG to relative residual <= 1e-10."""
    # imported on first use: no command on the solve path needs
    # scipy.sparse.linalg, and loading it costs every start-up ~80 ms
    from scipy.sparse.linalg import cg

    n = instance.n
    precond = sparse.diags_array(1.0 / instance.S.diagonal())
    if maxiter is None:
        maxiter = max(200, min(4 * n, 20_000))
    # breakdown on non-SPD systems surfaces as our NumericError, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        x, info = cg(instance.S, b, rtol=_CG_RTOL, atol=0.0, maxiter=maxiter, M=precond)
    if info != 0 or not np.all(np.isfinite(x)):
        raise NumericError(
            "SPD solve did not converge within the iteration cap; S is likely not positive definite"
        )
    return x


def unconstrained_minimizer(instance: Instance) -> tuple[np.ndarray, float]:
    """Unconstrained minimizer p_hat solving S p = f, and its objective value.

    Uses preconditioned conjugate gradients to relative residual <= 1e-10.
    Raises NumericError when the solve does not converge, which signals that
    S is likely not positive definite.
    """
    p_hat = _solve_spd(instance, np.asarray(instance.f))
    return p_hat, objective_q(instance, p_hat)


def _power_iteration(instance: Instance, tol: float = 1e-8, maxiter: int = 10_000) -> tuple[float, bool]:
    """Dominant eigenvalue of S by power iteration.

    Converged only when the Rayleigh quotient has settled (relative change
    <= tol) *and* the eigenpair residual ||S v - lam v|| is small; Rayleigh
    stagnation alone can certify a non-eigenvalue (e.g. on symmetric-spectrum
    matrices the quotient is constant from any start).
    """
    rng = np.random.default_rng(0xC0FFEE)
    v = rng.standard_normal(instance.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(maxiter):
        w = instance.s_matvec(v)
        lam_new = float(v @ w)
        wn = np.linalg.norm(w)
        if wn == 0.0:
            return 0.0, False
        settled = abs(lam_new - lam) <= tol * max(1.0, abs(lam_new))
        if settled:
            # the Rayleigh value settles quadratically, so a loose residual
            # gate suffices to reject stagnation at a non-eigenvector
            residual = float(np.linalg.norm(w - lam_new * v))
            if residual <= 1e-3 * max(1.0, abs(lam_new)):
                return lam_new, True
        v = w / wn
        lam = lam_new
    return lam, False


def _inverse_power_iteration(instance: Instance, tol: float = 1e-8, maxiter: int = 200) -> Optional[float]:
    rng = np.random.default_rng(0xBEEF)
    v = rng.standard_normal(instance.n)
    v /= np.linalg.norm(v)
    lam = None
    for _ in range(maxiter):
        try:
            w = _solve_spd(instance, v)
        except NumericError:
            return None
        wn = np.linalg.norm(w)
        if wn == 0.0 or not np.isfinite(wn):
            return None
        v = w / wn
        sv = instance.s_matvec(v)
        lam_new = float(v @ sv)
        if lam is not None and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            if lam_new <= 0.0:
                return None
            if float(np.linalg.norm(sv - lam_new * v)) <= 1e-3 * max(1.0, lam_new):
                return lam_new
        lam = lam_new
    return None


def spectral_bounds(
    instance: Instance,
    mode: str = "gershgorin",
    want_lambda_min: bool = False,
) -> SpectralBounds:
    """Step constant L > lambda_1(S) plus eigenvalue estimates.

    gershgorin   L = 1.001 * max_i sum_j |s_ij|  (guaranteed upper bound)
    power        L = 1.01 * lambda_1 estimate from power iteration
                 (relative change <= 1e-8, at most 10000 iterations); on
                 stagnation falls back to the gershgorin bound and flags it

    lambda_n is estimated by inverse power iteration through the SPD solver
    only when requested, and reported only if the estimate converged to a
    positive value.
    """
    if mode not in ("gershgorin", "power"):
        raise ValueError(f"mode must be 'gershgorin' or 'power', got {mode!r}")

    row_sums = np.abs(instance.S).sum(axis=1)
    gersh = float(np.max(row_sums))

    used_fallback = False
    if mode == "gershgorin":
        L = 1.001 * gersh
        lambda1_est = gersh
    else:
        lam, converged = _power_iteration(instance)
        lambda1_est = lam
        if converged and lam > 0.0:
            L = 1.01 * lam
        else:
            L = 1.001 * gersh
            used_fallback = True

    lambdan_est = _inverse_power_iteration(instance) if want_lambda_min else None
    return SpectralBounds(L=L, lambda1_est=lambda1_est, lambdan_est=lambdan_est, used_fallback=used_fallback)
