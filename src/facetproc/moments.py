"""Moment formulas for facet statistics.

Mixed moments of interaction counts expand over grouped partitions of
the factor indices, one correlation-weighted integral per partition;
the integrals are done by Monte Carlo against the reference intensity,
which keeps every closed-form special case exact because the integrand
is then constant.  Each integral scores all its draws as one batch:
kernels map the arrays (centers, extents, axes) of K facet tuples to K
values through geometry.canonical_content, and a correlation provider
maps the axes of K merged tuples to K correlations, so these integrals
need canonical models.  The module also carries the expected-increment
functional of a single extra facet, the asymptotic covariances built
from it, and the constants of the dilation scaling limit.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import Facet, canonical_content, facet_measure
from .model import ModelParams
from .sampler import batch_means_se, make_rng, sample_poisson
from .ustat import g_increment

__all__ = [
    "GroupedPartition",
    "enumerate_partitions",
    "MomentSpec",
    "mixed_moment",
    "centered_moment_leading",
    "expected_increment",
    "asymptotic_covariance",
    "i_k_integrals",
    "ScalingLimits",
    "scaling_limit_constants",
    "unit_kernel",
    "measure_kernel",
    "interaction_kernel",
]


# ---------------------------------------------------------------------------
# partitions with at most one index per group in any block


@dataclass(frozen=True)
class GroupedPartition:
    """Partition of m groups of indices, no block meeting a group twice.

    Indices are numbered globally: group i contributes the consecutive
    labels sum(sizes[:i]) .. sum(sizes[:i+1])-1.
    """

    group_sizes: tuple[int, ...]
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        total = sum(self.group_sizes)
        seen: set[int] = set()
        for blk in self.blocks:
            if not blk:
                raise ValueError("empty block")
            if blk & seen:
                raise ValueError("blocks must be disjoint")
            seen |= blk
            groups = [self.group_of(i) for i in blk]
            if len(set(groups)) != len(groups):
                raise ValueError("block meets a group more than once")
        if seen != set(range(total)):
            raise ValueError("blocks must cover every index")

    def group_of(self, index: int) -> int:
        upto = 0
        for g, k in enumerate(self.group_sizes):
            upto += k
            if index < upto:
                return g
        raise IndexError(index)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def enumerate_partitions(sizes) -> tuple[GroupedPartition, ...]:
    """All partitions of the given index groups in which every block
    contains at most one index from each group.

    sizes lists the group cardinalities.  The total index count is
    capped at 12; beyond that the partition lattice is too large for
    exhaustive moment expansion anyway.
    """
    sizes = tuple(int(k) for k in sizes)
    if not sizes or any(k < 1 for k in sizes):
        raise ValueError("group sizes must be positive")
    total = sum(sizes)
    if total > 12:
        raise ValueError("too many indices; at most 12 supported")
    label = [g for g, k in enumerate(sizes) for _ in range(k)]
    out: list[GroupedPartition] = []
    blocks: list[list[int]] = []

    def extend(i: int):
        if i == total:
            out.append(GroupedPartition(
                sizes, tuple(frozenset(b) for b in blocks)))
            return
        for blk in blocks:
            if all(label[j] != label[i] for j in blk):
                blk.append(i)
                extend(i + 1)
                blk.pop()
        blocks.append([i])
        extend(i + 1)
        blocks.pop()

    extend(0)
    return tuple(out)


# ---------------------------------------------------------------------------
# kernels driving the interaction counts as sums over ordered tuples


def unit_kernel(centers, extents, axes) -> np.ndarray:
    return np.ones(len(axes))


def measure_kernel(centers, extents, axes) -> np.ndarray:
    return canonical_content(centers[:, :1], extents[:, :1], axes[:, :1])


def interaction_kernel(j: int) -> Callable:
    """Ordered-tuple driver of the order-j interaction count: the
    intersection content divided by j!, so that the sum over ordered
    distinct j-tuples reproduces the unordered statistic."""
    norm = float(math.factorial(j))

    def kernel(centers, extents, axes) -> np.ndarray:
        return canonical_content(centers, extents, axes) / norm

    return kernel


# ---------------------------------------------------------------------------
# mixed moments


@dataclass(frozen=True)
class MomentSpec:
    """One product-moment request.

    factors are (order k, kernel) pairs.  A kernel scores a whole batch
    of K facet k-tuples at once: it takes centers (K, k, d), half-extents
    (K, k) and axes (K, k) and returns K floats, 0 for parallel tuples.
    provider evaluates the correlation function of the merged variables
    from their axes alone, (K, m) to K floats; None means the reference
    process, rho identically one.  max_draws caps the total Monte Carlo
    facet draws across all partitions."""

    factors: tuple
    provider: Callable | None = None
    n_samples: int = 10000
    seed: int = 0
    max_draws: int | None = None

    def __post_init__(self):
        if not self.factors:
            raise ValueError("at least one factor required")
        for k, kernel in self.factors:
            if int(k) < 1:
                raise ValueError("factor order must be positive")
            if not callable(kernel):
                raise ValueError("factor kernel must be callable")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")


def _weighted_integral(factors, provider, p: ModelParams, rng, count: int,
                       n: int, scale: float) -> tuple[float, float]:
    """scale times the mean and its standard error, over n draws of count
    facets, of the product of each factor's kernel at the facets its
    slots pick, times the provider at all count facets.  Each facet's
    d + 2 uniforms go through the model's laws as in sample_poisson."""
    u = rng.random((n, count, p.d + 2))
    centers = np.stack(p.center.sample_from_uniforms(
        np.moveaxis(u[..., 1:1 + p.d], -1, 0)), axis=-1)
    extents = p.size.sample_from_uniform(u[..., 1 + p.d])
    axes = p.orientation.sample_from_uniform(u[..., 0])
    vals = np.ones(n)
    for kernel, slots in factors:
        vals = vals * kernel(centers[:, slots], extents[:, slots],
                             axes[:, slots])
    if provider is not None:
        live = vals != 0.0
        vals[live] = vals[live] * provider(axes[live])
    return scale * float(vals.mean()), scale * batch_means_se(vals)


def mixed_moment(spec: MomentSpec, p: ModelParams) -> tuple[float, float]:
    """Expected product of the requested interaction statistics.

    Expands over grouped partitions; each partition contributes the
    correlation-weighted integral of the merged kernel product against
    the reference intensity, estimated by Monte Carlo on one batch of
    draws.  Returns value and a combined standard error, zero when every
    integrand is constant.  Canonical models only.
    """
    if not p.orientation.is_canonical:
        raise ValueError("Monte Carlo moments need axis-aligned orientations")
    parts = enumerate_partitions([k for k, _ in spec.factors])
    rng = make_rng(spec.seed)
    drawn = 0
    terms: list[float] = []
    errs: list[float] = []
    for part in parts:
        need = part.n_blocks * spec.n_samples
        if spec.max_draws is not None and drawn + need > spec.max_draws:
            raise ValueError(
                "draw budget exhausted after %d of %d partitions; "
                "partial sum %r" % (len(terms), len(parts),
                                    math.fsum(terms)))
        drawn += need
        # each factor's slots: the blocks its global indices fall in
        block_of = {i: bi for bi, blk in enumerate(part.blocks) for i in blk}
        starts = itertools.accumulate((k for k, _ in spec.factors), initial=0)
        factors = [(kernel, [block_of[s + off] for off in range(k)])
                   for (k, kernel), s in zip(spec.factors, starts)]
        v, e = _weighted_integral(factors, spec.provider, p, rng,
                                  part.n_blocks, spec.n_samples,
                                  (p.a * p.total_intensity) ** part.n_blocks)
        terms.append(v)
        errs.append(e)
    return math.fsum(terms), math.sqrt(math.fsum(e * e for e in errs))


def centered_moment_leading(kernel: Callable, k: int, m: int,
                            provider: Callable | None, p: ModelParams,
                            n_samples: int = 10000,
                            seed: int = 0) -> tuple[float, float]:
    """Leading coefficient, in the activity, of the m-th centered moment
    of the order-k statistic driven by the kernel (batch contract of
    MomentSpec; canonical models only).

    The coefficient of a^(mk) is the alternating binomial combination
    of the correlation integrals J_l over l*k variables, l = 0..m; it
    vanishes identically for m = 1 and whenever the correlation
    factorizes (reference process), which the combination reproduces by
    exact cancellation for constant kernels.
    """
    if not p.orientation.is_canonical:
        raise ValueError("Monte Carlo moments need axis-aligned orientations")
    if m < 1:
        raise ValueError("moment order must be positive")
    if m == 1:
        return 0.0, 0.0
    if m * k > 12:
        raise ValueError("too many variables; m*k at most 12 supported")
    rng = make_rng(seed)
    t_mass = p.total_intensity
    j_val, j_err = [1.0], [0.0]
    for l in range(1, m + 1):
        factors = [(kernel, list(range(g * k, (g + 1) * k)))
                   for g in range(l)]
        v, e = _weighted_integral(factors, provider, p, rng, l * k,
                                  n_samples, t_mass ** (l * k))
        j_val.append(v)
        j_err.append(e)
    terms = [math.comb(m, l) * (-1) ** (m - l) * j_val[l] * j_val[1] ** (m - l)
             for l in range(m + 1)]
    value = math.fsum(terms)
    sens = [math.comb(m, l) * j_val[1] ** (m - l) for l in range(m + 1)]
    lever = math.fsum(abs(math.comb(m, l) * (m - l) * j_val[l]
                          * j_val[1] ** max(m - l - 1, 0))
                      for l in range(m))
    err = math.sqrt(math.fsum((sens[l] * j_err[l]) ** 2
                              for l in range(2, m + 1))
                    + ((sens[1] + lever) * j_err[1]) ** 2)
    return value, err


# ---------------------------------------------------------------------------
# expected increment of one extra facet and asymptotic covariances


def _quad_increment(j: int, y: Facet, p: ModelParams,
                    resolution: int) -> float:
    d = p.d
    r = p.size.max_extent
    mass = p.total_intensity / d
    mids = [lo + (hi - lo) * (np.arange(resolution) + 0.5) / resolution
            for lo, hi in p.window.bounds]
    others = [c for c in range(d) if c != int(y.orientation)]
    y_c = np.asarray(y.center)
    total: list[float] = []
    for axes in itertools.combinations(others, j - 1):
        factor = 1.0
        for c in range(d):
            grids = list(np.meshgrid(*[mids[c]] * (j - 1), indexing="ij"))
            y_here = np.full_like(grids[0], y_c[c])
            if c == int(y.orientation):
                fixed, free = y_here, grids
            elif c in axes:
                t = axes.index(c)
                fixed = grids[t]
                free = [g for s, g in enumerate(grids) if s != t] + [y_here]
            else:
                fixed, free = None, grids + [y_here]
            if fixed is not None:
                ok = np.ones_like(fixed, dtype=bool)
                for g in free:
                    ok &= np.abs(fixed - g) <= r
                piece = ok.astype(float)
            else:
                top = np.minimum.reduce([g + r for g in free])
                bot = np.maximum.reduce([g - r for g in free])
                piece = np.clip(top - bot, 0.0, None)
            factor *= float(piece.mean())
        total.append(mass ** (j - 1) * factor)
    return math.fsum(total)


def expected_increment(j: int, y: Facet, p: ModelParams,
                       method: str = "auto", n_samples: int = 10000,
                       seed: int = 0,
                       resolution: int = 200) -> tuple[float, float]:
    """Expected growth of the order-j interaction count when the facet
    y joins a unit-activity reference process.

    j = 1 is the facet content itself, exactly.  For canonical models
    with constant center intensity the integral factorizes over
    coordinates and is done by midpoint tensor quadrature (error set by
    the resolution, standard error reported as zero); otherwise, and on
    request, plain Monte Carlo over reference patterns with batch-means
    errors.
    """
    if not 1 <= j <= p.d:
        raise ValueError("order out of range")
    if method not in ("auto", "quadrature", "mc"):
        raise ValueError("unknown method")
    if j == 1:
        return facet_measure(y), 0.0
    quad_ok = (p.orientation.kind == "canonical"
               and p.center.table is None and p.size.is_fixed)
    if method == "quadrature" and not quad_ok:
        raise ValueError("quadrature needs a canonical model with "
                         "constant center intensity and fixed size")
    if method == "auto":
        method = "quadrature" if quad_ok else "mc"
    if method == "quadrature":
        if int(y.orientation) < 0:
            raise ValueError("query facet must be axis aligned")
        return _quad_increment(j, y, p, resolution), 0.0
    unit = dataclasses.replace(p, a=1.0)
    rng = make_rng(seed)
    vals = np.empty(n_samples)
    for t in range(n_samples):
        x = sample_poisson(unit, rng)
        vals[t] = g_increment(x, y, orders=(j,))[j - 1]
    return float(vals.mean()), batch_means_se(vals)


def asymptotic_covariance(i: int, j: int, p: ModelParams,
                          n_samples: int = 1000, seed: int = 0,
                          method: str = "auto", resolution: int = 200,
                          mc_patterns: int = 2000) -> tuple[float, float]:
    """Covariance constant of the jointly normalized interaction counts
    at large activity: the integral over the reference intensity of the
    product of expected increments of orders i and j.

    Monte Carlo over the query facet; each increment is evaluated by
    expected_increment with the given method.  Returns value and the
    standard error of the outer average.
    """
    if not (1 <= i <= p.d and 1 <= j <= p.d):
        raise ValueError("order out of range")
    rng = make_rng(seed)
    u = rng.random((n_samples, p.d + 2))
    prods = np.empty(n_samples)
    for t in range(n_samples):
        y = p.sample_facet_from_uniforms(u[t, 0], u[t, 1:1 + p.d],
                                         u[t, 1 + p.d])
        vi, _ = expected_increment(i, y, p, method=method,
                                   n_samples=mc_patterns, seed=seed + 7 * t,
                                   resolution=resolution)
        if j == i:
            vj = vi
        else:
            vj, _ = expected_increment(j, y, p, method=method,
                                       n_samples=mc_patterns,
                                       seed=seed + 7 * t + 3,
                                       resolution=resolution)
        prods[t] = vi * vj
    t_mass = p.total_intensity
    return t_mass * float(prods.mean()), t_mass * batch_means_se(prods)


# ---------------------------------------------------------------------------
# scaling-limit constants


def _gauss(poly: Callable, lo: float, hi: float, nodes: int) -> float:
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.dot(w, poly(mid + half * x)))


def i_k_integrals(d: int, k: int, b: float = 1.0,
                  chi: float = 1.0) -> tuple[float, float]:
    """Geometric constants of the codimension-k intersection statistic
    under constant center intensity on the cube of side b.

    Both integrals factorize over coordinates; the free-coordinate
    factor reduces to one-dimensional integrals of powers of the
    overlap profile w(t) = |[0,b] ∩ [t-b, t+b]|, evaluated by Gauss
    quadrature that is exact on each polynomial piece.  The first value
    integrates the intersection content of d-k distinct-orientation
    facets; the second is its square-type analogue over two such
    families sharing one facet, which drives the limiting variance.
    """
    if not 1 <= k <= d - 1:
        raise ValueError("codimension out of range")
    m = d - k
    j_m = (_gauss(lambda t: (t + b) ** m, -b, 0.0, m // 2 + 2)
           + b ** m * b
           + _gauss(lambda t: (2 * b - t) ** m, b, 2 * b, m // 2 + 2))
    i_k = chi ** m * b ** (m * (d - k)) * j_m ** k

    def shared(t):
        return b ** m * (1 + 2 / m) - (t ** m + (b - t) ** m) / m

    k_m = _gauss(lambda t: shared(t) ** 2, 0.0, b, m + 1)
    i_prime = chi ** (2 * m - 1) * b ** ((2 * m - 1) * (d - k)) * k_m ** k
    return i_k, i_prime


class ScalingLimits(NamedTuple):
    mean: float
    variance: float
    variance_alt: float


def scaling_limit_constants(d: int, k: int, i_k: float,
                            i_prime_k: float) -> ScalingLimits:
    """Limit constants of the dilated codimension-k statistic.

    The mean constant multiplies the activity power; two variance
    normalizations are in circulation, differing by whether the shared
    facet's orientation factor enters squared as (d-k)^2 or as
    (d-k)!^2, and both are reported so empirical runs can discriminate.
    They agree precisely when d - k <= 2.
    """
    if not 1 <= k <= d - 1:
        raise ValueError("codimension out of range")
    mean = i_k * math.comb(d - 1, d - k) / d ** (d - k)
    base = ((d - 1) * math.comb(d - 2, d - k - 1) ** 2
            / d ** (2 * (d - k) - 1) * i_prime_k)
    return ScalingLimits(mean, (d - k) ** 2 * base,
                         float(math.factorial(d - k)) ** 2 * base)
