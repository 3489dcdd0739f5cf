"""Problem data and the quadratic objective machinery.

A problem instance consists of a linear demand model ``v(p) = a - D p``,
unit costs ``c``, baseline prices ``p0``, per-product minimum change
thresholds ``delta``, a change budget ``k`` and optional per-product price
bounds ``(l, u)``.  Profit maximization of ``Z(p) = (p - c)^T (a - D p)``
is equivalent to minimizing the convex quadratic

    Q(p) = 1/2 p^T S p - f^T p,      S = D + D^T,  f = a + D^T c,

with ``Z(p) = -Q(p) - c^T a``.  ``S`` is built once per instance as a cached
sparse CSR matrix (``Instance.S``, int32 indices when they fit) and every
product with it goes through that one matrix; the dense ``S`` is never
formed.  What does not depend on k (the Gershgorin bound of S, ``Z(p0)``
and the Lanczos estimates) is computed once, on first use, by a function
under ``_shared``, and kept in one dict that every ``with_k`` copy shares.
Q and its gradient are evaluated in one place, ``value_and_gradient``, under
one overflow policy (a non-finite value or gradient is a ``NumericError``);
``objective_q`` and ``gradient_q`` return its two parts.  Systems in ``S``
or in a principal block of it are solved by one Jacobi-preconditioned
conjugate gradient loop (``_pcg``), which takes the matrix:
``unconstrained_minimizer`` passes ``S`` and the solver's refinement the
block ``S_CC`` of its piece.  ``spectral_bounds`` gives the step constant
``L > lambda_1(S)`` from Gershgorin's bound or a Lanczos estimate of
``lambda_1``, and Lanczos also estimates ``lambda_n(S)``; Lanczos is the
only user of ``scipy.sparse.linalg``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

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

# unconstrained_minimizer: CG residual target relative to |f|_inf
_CG_RTOL = 1e-10

# Lanczos estimates of the extreme eigenvalues of S: ARPACK's relative
# accuracy target and the seed of its fixed start vector
_LANCZOS_TOL = 1e-10
_LANCZOS_SEED = 0


def _as_vector(name: str, x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != n:
        raise StructuralError(f"{name} must be a vector of length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise StructuralError(f"{name} contains non-finite entries")
    v = v.copy()
    v.setflags(write=False)
    return v


def _plus_transpose(D: sparse.csr_array) -> sparse.csr_array:
    """D + D^T in canonical CSR, as SciPy's sum gives it, in arrays of
    exactly nnz(S) entries: int32 indices whenever n and nnz(S) fit.

    The sum runs on int32 copies of D's index arrays when n and
    nnz(D) + nnz(D^T), the room SciPy makes for it, fit, so that no int64
    index array of that room is made and then cast.  SciPy keeps views of
    that room; the result copies out the nnz(S) entries and lets it go.
    """
    n, fits = D.shape[0], np.iinfo(np.int32).max
    if max(n, 2 * D.nnz) <= fits:
        D = sparse.csr_array(
            (D.data, D.indices.astype(np.int32, copy=False), D.indptr.astype(np.int32, copy=False)),
            shape=D.shape,
        )
    S = D + D.T
    del D
    index = np.int32 if max(n, S.nnz) <= fits else S.indices.dtype
    data, indices, indptr = S.data, S.indices, S.indptr
    del S  # each copy below then frees the room it copies from
    data = data.copy()
    indices = indices.astype(index)
    return sparse.csr_array((data, indices, indptr.astype(index, copy=False)), shape=(n, n))


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
    delta    minimum change thresholds, length n, all > 0, such that
             p0 + delta and p0 - delta are finite and differ from p0 in
             floating point
    bounds   optional pair (l, u) of per-product price bounds with
             l <= p0 - delta and u >= p0 + delta; None is the base model

    ``bounds`` is the flag of the model.  ``lower`` and ``upper`` are always
    read-only arrays of length n: l and u, or -inf and +inf (zero-byte views).
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

        # p0 +- delta must be finite prices other than p0: below the float
        # spacing of p0 a moved branch would fall onto p0, and past the
        # float range it would be empty
        with np.errstate(over="ignore"):
            up, dn = self.p0 + self.delta, self.p0 - self.delta
        unmoved = (up == self.p0) | (dn == self.p0)
        if np.any(unmoved):
            bad = int(np.flatnonzero(unmoved)[0])
            raise ValidationError(
                f"delta[{bad}] = {self.delta[bad]} is below the float spacing of "
                f"p0[{bad}] = {self.p0[bad]}: p0 + delta or p0 - delta rounds to p0"
            )
        overflow = np.isinf(up) | np.isinf(dn)
        if np.any(overflow):
            bad = int(np.flatnonzero(overflow)[0])
            raise ValidationError(
                f"p0[{bad}] = {self.p0[bad]} with delta[{bad}] = {self.delta[bad]}: "
                "p0 + delta or p0 - delta overflows"
            )

        if self.bounds is not None:
            lo, hi = self.bounds
            lo = _as_vector("l", lo, n)
            hi = _as_vector("u", hi, n)
            if np.any(lo > dn):
                bad = int(np.flatnonzero(lo > dn)[0])
                raise ValidationError(f"l must satisfy l <= p0 - delta (violated at index {bad})")
            if np.any(hi < up):
                bad = int(np.flatnonzero(hi < up)[0])
                raise ValidationError(f"u must satisfy u >= p0 + delta (violated at index {bad})")
            object.__setattr__(self, "bounds", (lo, hi))

    # -- derived quantities (computed once, D is immutable) ------------------

    @cached_property
    def S(self) -> sparse.csr_array:
        """S = D + D^T in canonical CSR form (sparse, never dense).

        Its index arrays are int32 whenever n and nnz(S) fit: the products
        are the same, bit for bit, and read less memory.
        """
        S = _plus_transpose(self.D)
        for buf in (S.data, S.indices, S.indptr):
            buf.setflags(write=False)
        return S

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Branch edges of every P_i, read-only: ``(p0 + delta, p0 - delta,
        p0 - delta/2, p0 + delta/2)``, the raised and lowered thresholds and
        the two ends of the half-threshold window."""
        half = 0.5 * self.delta
        edges = (self.p0 + self.delta, self.p0 - self.delta, self.p0 - half, self.p0 + half)
        for edge in edges:
            edge.setflags(write=False)
        return edges

    @cached_property
    def _constants(self) -> dict:
        """Values that do not depend on k, each computed on first use and
        shared with every ``with_k`` copy: the results of the functions
        under ``_shared`` (the Gershgorin bound of S, Z(p0) and the Lanczos
        eigenvalue estimates), keyed by function name and arguments."""
        return {}

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

    @cached_property
    def lower(self) -> np.ndarray:
        return np.broadcast_to(-np.inf, (self.n,)) if self.bounds is None else self.bounds[0]

    @cached_property
    def upper(self) -> np.ndarray:
        return np.broadcast_to(np.inf, (self.n,)) if self.bounds is None else self.bounds[1]

    def s_matvec(self, p: np.ndarray) -> np.ndarray:
        """S @ p, one product with the cached sparse S."""
        return self.S @ p

    def same_data(self, other: "Instance") -> bool:
        """Exact structural equality, including sparse storage order (bounds
        are finite, so ``lower``/``upper`` tell a bounded instance apart)."""
        if self.n != other.n or self.k != other.k:
            return False
        A, B = self.D, other.D
        pairs = [(getattr(self, name), getattr(other, name)) for name in ("a", "c", "p0", "delta", "lower", "upper")]
        pairs += [(A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)]
        return all(np.array_equal(x, y) for x, y in pairs)


def with_k(instance: Instance, k: int) -> Instance:
    """Copy of the instance with a different change budget.

    Nothing else depends on k, so the copy shares the validated data and the
    cached S, f and branch edges of the original (built here if they were not
    yet) and its ``_constants``: the Gershgorin bound, Z(p0) and eigenvalue
    estimates that any of them computes serve them all.  Only k is checked.
    """
    copy = object.__new__(Instance)
    shared = {
        "S": instance.S,
        "f": instance.f,
        "_edges": instance._edges,
        "_constants": instance._constants,
    }
    copy.__dict__.update(instance.__dict__, **shared, k=_check_k(instance.n, k))
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

    ``a4_positive_delta`` and ``bounds_consistent`` are true by construction:
    ``Instance`` rejects non-positive thresholds and inconsistent bounds, so
    they are reported without a check.
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

    return ValidationReport(
        a1_sign_pattern=a1_sign,
        a1_positive_definite=a1_pd,
        a2_nonneg=a2,
        a3_profitable_baseline=a3,
        a4_positive_delta=True,
        bounds_consistent=True,
        messages=msgs,
    )


def _check_length(instance: Instance, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (instance.n,):
        raise StructuralError(f"price vector must have length {instance.n}, got shape {p.shape}")
    return p


def objective_q(instance: Instance, p: np.ndarray) -> float:
    """Q(p) = 1/2 p^T S p - f^T p (``value_and_gradient``'s value)."""
    return value_and_gradient(instance, p)[0]


def gradient_q(instance: Instance, p: np.ndarray) -> np.ndarray:
    """grad Q(p) = S p - f (``value_and_gradient``'s gradient)."""
    return value_and_gradient(instance, p)[1]


def value_and_gradient(instance: Instance, p: np.ndarray) -> tuple[float, np.ndarray]:
    """Q(p) and grad Q(p) from one S @ p product: the one evaluator of Q.

    Raises NumericError when either is not finite.
    """
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


def _pcg(
    S: sparse.csr_array,
    rhs: np.ndarray,
    free: np.ndarray,
    d_inv: np.ndarray,
    forcing: float,
    atol: float,
    max_steps: int,
) -> tuple[np.ndarray, bool]:
    """Jacobi-preconditioned CG on S_FF x_F = rhs_F; x is zero outside the free set F.

    The one solver for systems in S.  ``S`` is the symmetric matrix of the
    system: the instance's S for ``unconstrained_minimizer``, the piece's
    block S_CC for the refinement.  S_FF is applied as a masked product with
    it, and ``d_inv`` is ``1 / diag(S)``, which callers compute once rather
    than on every call.  Returns ``(x, converged)``:
    converged once the infinity norm of the residual is at most
    ``max(forcing * |rhs_F|_inf, atol)``, not converged after ``max_steps``
    steps or on a breakdown (non-positive ``r^T z`` or curvature ``d^T S d``,
    so S is not positive definite on F).  Both breakdown tests follow the
    residual test, so they change no step of a positive definite solve.
    """
    r = np.where(free, rhs, 0.0)
    rtol = max(forcing * float(np.max(np.abs(r))), atol)
    z = d_inv * r
    d = z.copy()
    x = np.zeros_like(r)
    rz = float(r @ z)
    for _ in range(max_steps):
        if float(np.max(np.abs(r))) <= rtol:
            return x, True
        if not rz > 0.0:
            break
        sd = S @ d
        sd *= free
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
    return x, False


def unconstrained_minimizer(instance: Instance) -> tuple[np.ndarray, float]:
    """Unconstrained minimizer p_hat solving S p = f, and its objective value.

    Uses the Jacobi-preconditioned CG of ``_pcg`` on all coordinates, to an
    infinity-norm residual <= 1e-10 |f|_inf.  Raises NumericError when the
    solve does not converge, which signals that S is likely not positive
    definite.
    """
    n = instance.n
    max_steps = max(200, min(4 * n, 20_000))
    free = np.ones(n, dtype=bool)
    # a diverging solve on a non-SPD S ends in our NumericError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        p_hat, converged = _pcg(
            instance.S, instance.f, free, 1.0 / instance.S.diagonal(), _CG_RTOL, 0.0, max_steps
        )
    if not (converged and np.all(np.isfinite(p_hat))):
        raise NumericError(
            "SPD solve did not converge within the iteration cap; S is likely not positive definite"
        )
    return p_hat, objective_q(instance, p_hat)


def _shared(compute: Callable[..., Optional[float]]) -> Callable[..., Optional[float]]:
    """Compute ``compute(instance, *args)`` once per ``args`` and keep it in
    ``instance._constants`` under ``(name, *args)``; the instance shares that
    dict with its ``with_k`` copies."""
    name = compute.__name__

    @functools.wraps(compute)
    def cached(instance: Instance, *args) -> Optional[float]:
        cache = instance._constants
        key = (name, *args)
        if key not in cache:
            cache[key] = compute(instance, *args)
        return cache[key]

    return cached


@_shared
def _gershgorin(instance: Instance) -> float:
    """Gershgorin's bound on lambda_1(S), max_i sum_j |s_ij|, from one
    reduction over the rows of S (every row stores its diagonal, so none is
    empty)."""
    S = instance.S
    return float(np.max(np.add.reduceat(np.abs(S.data), S.indptr[:-1])))


@_shared
def _base_profit(instance: Instance) -> float:
    """Z(p0), the profit at the baseline prices (``profit_z``)."""
    return profit_z(instance, instance.p0)


@_shared
def _extreme_eigenvalue(instance: Instance, which: str) -> Optional[float]:
    """Largest (``which="LA"``) or smallest (``"SA"``) eigenvalue of S by
    Lanczos (ARPACK), or None when it does not converge.

    The start vector is a fixed Gaussian draw, so reruns agree bit for bit
    (a structured start such as all-ones can be an eigenvector of S).
    """
    if instance.n == 1:  # ARPACK needs n > 1, and S is its own eigenvalue
        return float(instance.S.diagonal()[0])
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(instance.n)
    try:
        lam = eigsh(instance.S, k=1, which=which, v0=v0, tol=_LANCZOS_TOL, return_eigenvectors=False)
    except ArpackNoConvergence:
        return None
    return float(lam[0])


def spectral_bounds(
    instance: Instance,
    mode: str = "gershgorin",
    want_lambda_min: bool = False,
) -> SpectralBounds:
    """Step constant L > lambda_1(S) plus eigenvalue estimates.

    gershgorin   L = 1.001 * max_i sum_j |s_ij|  (guaranteed upper bound)
    power        L = 1.01 * lambda_1 estimate from Lanczos (ARPACK, relative
                 tolerance 1e-10); when it does not converge or is not
                 positive, falls back to the gershgorin bound and flags it

    lambda_n is estimated by Lanczos only when requested, and reported only
    if the estimate converged to a positive value.  The Gershgorin sum and
    the Lanczos estimates are computed once per S (``_shared``).
    """
    if mode not in ("gershgorin", "power"):
        raise ValueError(f"mode must be 'gershgorin' or 'power', got {mode!r}")

    gersh = _gershgorin(instance)

    used_fallback = False
    if mode == "gershgorin":
        L = 1.001 * gersh
        lambda1_est = gersh
    else:
        lam = _extreme_eigenvalue(instance, "LA")
        lambda1_est = gersh if lam is None else lam
        used_fallback = lam is None or lam <= 0.0
        L = 1.001 * gersh if used_fallback else 1.01 * lam

    lam_n = _extreme_eigenvalue(instance, "SA") if want_lambda_min else None
    lambdan_est = lam_n if lam_n is not None and lam_n > 0.0 else None
    return SpectralBounds(L=L, lambda1_est=lambda1_est, lambdan_est=lambdan_est, used_fallback=used_fallback)
