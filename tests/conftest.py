import numpy as np
import pytest

from priceopt import GenConfig, Instance, generate, with_k


def two_product_instance(coupling: float = 0.0, k: int = 1) -> Instance:
    """Two-product instance with S = [[2, -a], [-a, 2]], f = [6, 1].

    Baseline at the origin, thresholds 0.5.  Costs are set to 1 and the
    demand intercept derived so that a + D^T c = [6, 1] exactly.
    """
    D = np.array([[1.0, -coupling / 2.0], [-coupling / 2.0, 1.0]])
    c = np.array([1.0, 1.0])
    f = np.array([6.0, 1.0])
    a = f - D.T @ c
    return Instance(
        n=2, k=k, a=a, D=D, c=c, p0=np.zeros(2), delta=np.array([0.5, 0.5])
    )


def huge_baseline_instance() -> Instance:
    """Two products whose baseline p0 = [1e308, 5] (delta = [1e300, 1]) is
    so large that 10 max(|p0| + delta) overflows."""
    return Instance(
        n=2, k=1, a=np.ones(2), D=np.eye(2), c=np.ones(2),
        p0=np.array([1e308, 5.0]), delta=np.array([1e300, 1.0]),
    )


def random_instance(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 8,
    k: int | None = None,
    bounded: bool | None = None,
) -> Instance:
    """Small random instance drawn through the generator recipe."""
    n = int(rng.integers(n_lo, n_hi + 1))
    if k is None:
        k = int(rng.integers(1, n + 1))
    if bounded is None:
        bounded = bool(rng.random() < 0.5)
    cfg = GenConfig(
        n=n,
        delta_mode=("const", float(rng.uniform(0.2, 1.2))),
        bounds_mode=(1.0, 5.0, 8.0, 14.0) if bounded else None,
        seed=int(rng.integers(0, 2**31)),
    )
    return with_k(generate(cfg), k)


def reference_member_distance(instance: Instance, q: np.ndarray, p: np.ndarray, tol: float) -> np.ndarray:
    """Per coordinate, the distance from p_i to the nearest admissible 1-D
    minimizer, over all n coordinates: the ``projection._member_distance``
    that the certificates ran before it took an index set, kept as the
    reference.

    Candidates are the two clamps of q_i and p0_i; one is admissible when its
    distance to q_i is within tol of the least, so both values of a tie count.
    """
    from priceopt.projection import _project

    _, c_up, c_dn = _project(instance.p0, instance.delta, instance.lower, instance.upper, q)
    candidates = (c_up, c_dn, instance.p0)
    d_cand = [np.abs(c - q) for c in candidates]
    d_best = np.minimum(np.minimum(d_cand[0], d_cand[1]), d_cand[2])
    dist = np.full(instance.n, np.inf)
    for c, d in zip(candidates, d_cand):
        dist = np.where(d <= d_best + tol, np.minimum(dist, np.abs(p - c)), dist)
    return dist


def instance_bytes(instance: Instance) -> int:
    """Bytes of the instance's arrays: D's three, a, c, p0, delta and any bounds."""
    arrays = [instance.D.data, instance.D.indices, instance.D.indptr]
    arrays += [instance.a, instance.c, instance.p0, instance.delta, *(instance.bounds or ())]
    return sum(a.nbytes for a in arrays)


def traced_peak(run):
    """``run()``'s result and the ``tracemalloc`` peak, in bytes, while it ran."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
