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
from it, and the constants of the dilation scaling limit.  A covariance
table evaluates each order once per stream however many (i, j) pairs
use it: by Monte Carlo per facet, or under a constant center intensity
by one batched midpoint quadrature over its query facets, of which one
expected_increment is the batch of one.  Resolutions, orders and group
sizes must be integers >= 1, sample and pattern counts integers >= 2,
and a quadrature below the top order has at most 2^23 grid points.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .geometry import Facet, canonical_content, facet_measure
from .model import ModelParams, _check_int, _facet_list
from .sampler import _poisson_arrays, batch_means_se, make_rng, sample_poisson
from .ustat import _CHUNK_ELEMENTS, _subset_sums, g_increment

__all__ = [
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


def enumerate_partitions(sizes) -> tuple[tuple[frozenset[int], ...], ...]:
    """All partitions of the given index groups in which every block
    contains at most one index from each group, each a tuple of
    frozenset blocks.

    sizes lists the group cardinalities.  Indices are numbered globally:
    group i holds the consecutive indices sum(sizes[:i]) to
    sum(sizes[:i+1]) - 1.  The total index count is capped at 12; beyond
    that the partition lattice is too large for exhaustive moment
    expansion anyway.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("at least one group required")
    for k in sizes:
        _check_int("group size", k, 1)
    total = sum(sizes)
    if total > 12:
        raise ValueError("too many indices; at most 12 supported")
    label = [g for g, k in enumerate(sizes) for _ in range(k)]
    out: list[tuple[frozenset[int], ...]] = []
    blocks: list[list[int]] = []

    def extend(i: int):
        if i == total:
            out.append(tuple(frozenset(b) for b in blocks))
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
    _check_int("order j", j, 1)
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
    process, rho identically one."""

    factors: tuple
    provider: Callable | None = None
    n_samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not self.factors:
            raise ValueError("at least one factor required")
        for k, kernel in self.factors:
            _check_int("factor order", k, 1)
            if not callable(kernel):
                raise ValueError("factor kernel must be callable")
        _check_int("n_samples", self.n_samples, 2)
        _check_int("seed", self.seed, 0)


def _weighted_integral(factors, provider, p: ModelParams, rng, count: int,
                       n: int, scale: float) -> tuple[float, float]:
    """scale times the mean and its standard error, over n draws of count
    facets, of the product of each factor's kernel at the facets its
    slots pick, times the provider at all count facets.  Each facet's
    d + 2 uniforms go through the model's laws as in sample_poisson."""
    centers, extents, axes = p.sample_facets_from_uniforms(
        rng.random((n, count, p.d + 2)))
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
    terms: list[float] = []
    errs: list[float] = []
    for part in parts:
        # each factor's slots: the blocks its global indices fall in
        block_of = {i: bi for bi, blk in enumerate(part) for i in blk}
        starts = itertools.accumulate((k for k, _ in spec.factors), initial=0)
        factors = [(kernel, [block_of[s + off] for off in range(k)])
                   for (k, kernel), s in zip(spec.factors, starts)]
        v, e = _weighted_integral(factors, spec.provider, p, rng,
                                  len(part), spec.n_samples,
                                  (p.a * p.total_intensity) ** len(part))
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
    for name, value, least in (("k", k, 1), ("m", m, 1),
                               ("n_samples", n_samples, 2), ("seed", seed, 0)):
        _check_int(name, value, least)
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


def _check_inputs(method: str, resolution, seed, **counts) -> None:
    """Refuse an unknown method, a resolution that is not an integer
    >= 1, a seed that is not an integer >= 0 and sample counts that are
    not integers >= 2."""
    if method not in ("auto", "quadrature", "mc"):
        raise ValueError("unknown method")
    for name, value, least in (("resolution", resolution, 1),
                               ("seed", seed, 0),
                               *((k, v, 2) for k, v in counts.items())):
        _check_int(name, value, least)


def _increment_method(p: ModelParams, method: str) -> str:
    """The method that serves orders above one: quadrature or mc."""
    quad_ok = (p.orientation.kind == "canonical"
               and p.center.table is None and p.size.is_fixed)
    if method == "quadrature" and not quad_ok:
        raise ValueError("quadrature needs a canonical model with "
                         "constant center intensity and fixed size")
    if method == "auto":
        return "quadrature" if quad_ok else "mc"
    return method


def _grid_size(j: int, d: int, resolution: int) -> int:
    """The resolution^(j-1) points of an order-j quadrature grid: at most
    2^53, where its counts stay exact, and 2^23 below the top order, where
    its overlap arrays take 8 bytes a point (a 763 MiB chunk at d = 6)."""
    size, most = resolution ** (j - 1), 23 if j < d else 53
    if size > 2 ** most:
        raise ValueError(f"order-{j} quadrature grid in d = {d}: {resolution} "
                         f"** {j - 1} points exceed 2 ** {most}")
    return size


def _quad_increments(j: int, p: ModelParams, centers: np.ndarray,
                     axes: np.ndarray, resolution: int) -> np.ndarray:
    """Order-j expected increments, j >= 2, of K axis-aligned query
    facets, centers (K, d) and axes (K,), by midpoint tensor quadrature.

    For each choice of j-1 further axes, distinct from the facet's, the
    integral factorizes over coordinates.  Coordinate c contributes the
    mean over the res^(j-1) midpoint grid points of: whether y_c lies
    within r of every point coordinate, if c is the facet's axis; whether
    the point coordinate on c lies within r of y_c and of the others, if
    c is one of the chosen axes; the overlap length of all the ranges
    otherwise.  The indicator means are exact counts over the grid, so
    they come from one-dimensional counts; the overlap means are
    row-wise means of (rows, res^(j-1)) arrays.  Rows go in chunks of
    at most _CHUNK_ELEMENTS grid points.  Factors multiply in coordinate
    order and the choices add up by fsum.
    """
    d = p.d
    r = p.size.max_extent
    scale = (p.total_intensity / d) ** (j - 1)
    size = _grid_size(j, d, int(resolution))
    own, chosen, free = [], [], []
    for c, (lo, hi) in enumerate(p.window.bounds):
        mids = lo + (hi - lo) * (np.arange(resolution) + 0.5) / resolution
        reach = (np.abs(mids[:, None] - mids) <= r).sum(axis=1) ** (j - 2)
        own.append(np.empty(len(axes)))
        chosen.append(np.empty(len(axes)))
        step = max(1, _CHUNK_ELEMENTS // resolution)
        for k in range(0, len(axes), step):
            near = (np.abs(mids - centers[k:k + step, c:c + 1]) <= r) \
                .astype(np.int64)
            own[c][k:k + step] = near.sum(axis=1) ** (j - 1) / size
            chosen[c][k:k + step] = (near * reach).sum(axis=1) / size
        free.append(np.zeros(len(axes)))
        if j == d:  # every coordinate is an axis
            continue
        top, bot = mids + r, mids - r  # over the grid in C order
        for _ in range(j - 2):
            top = np.minimum.outer(top, mids + r).reshape(-1)
            bot = np.maximum.outer(bot, mids - r).reshape(-1)
        rows = np.flatnonzero(axes != c)
        step = max(1, _CHUNK_ELEMENTS // size)
        for k in range(0, len(rows), step):
            y = centers[rows[k:k + step], c:c + 1]
            piece = np.minimum(top, y + r)
            piece -= np.maximum(bot, y - r)
            free[c][rows[k:k + step]] = np.clip(
                piece, 0.0, None, out=piece).mean(axis=1)
    out = np.empty(len(axes))
    for o in range(d):
        rows = np.flatnonzero(axes == o)
        terms = []
        for picked in itertools.combinations(
                [c for c in range(d) if c != o], j - 1):
            factor = np.ones(len(rows))
            for c in range(d):
                means = own if c == o else chosen if c in picked else free
                factor *= means[c][rows]
            terms.append(scale * factor)
        out[rows] = [math.fsum(t) for t in zip(*terms)]
    return out


def expected_increment(j: int, y: Facet, p: ModelParams,
                       method: str = "auto", n_samples: int = 10000,
                       seed: int = 0,
                       resolution: int = 200) -> tuple[float, float]:
    """Expected growth of the order-j interaction count when the facet
    y joins a unit-activity reference process.

    j = 1 is the facet content itself, exactly.  For canonical models
    with constant center intensity the integral factorizes over
    coordinates and is done by midpoint tensor quadrature, the batched
    quadrature of asymptotic_covariance on one facet (error set by the
    resolution, standard error reported as zero); otherwise, and on
    request, plain Monte Carlo over n_samples reference patterns with
    batch-means errors: the patterns are drawn from one generator in
    turn, and for a canonical law and facet all of them are scored
    against y by one ustat._subset_sums, the others one by one by
    g_increment.  A pattern holding y is refused.  resolution must be an
    integer >= 1 and n_samples an integer >= 2.
    """
    _check_int("order j", j, 1)
    if j > p.d:
        raise ValueError("order out of range")
    _check_inputs(method, resolution, seed, n_samples=n_samples)
    if y.d != p.d:
        raise ValueError("query facet dimension differs from the model's")
    if j == 1:
        return facet_measure(y), 0.0
    if _increment_method(p, method) == "quadrature":
        if not y.is_canonical:
            raise ValueError("query facet must be axis aligned")
        value = _quad_increments(j, p, np.array([y.center]),
                                 np.array([y.orientation]), resolution)
        return float(value[0]), 0.0
    unit = dataclasses.replace(p, a=1.0)
    rng = make_rng(seed)
    if not (unit.orientation.is_canonical and y.is_canonical):
        vals = np.array([g_increment(sample_poisson(unit, rng), y,
                                     orders=(j,))[j - 1]
                         for _ in range(n_samples)])
        return float(vals.mean()), batch_means_se(vals)
    centers, extents, axes, owner = _poisson_arrays(unit, [rng] * n_samples)
    if ((centers == y.center).all(axis=1) & (extents == y.half_extent)
            & (axes == y.orientation)).any():
        raise ValueError("facet already present")
    vals = _subset_sums(centers, extents, axes, owner, n_samples, (j - 1,),
                        (y.center, y.half_extent, y.orientation))[:, 0]
    return float(vals.mean()), batch_means_se(vals)


def _covariance_table(pairs, p: ModelParams, n_samples: int, seed: int,
                      method: str, resolution: int,
                      mc_patterns: int) -> dict:
    """asymptotic_covariance for every (i, j) in pairs, on one draw of
    query facets: the rows of one (n_samples, d + 2) uniform block,
    mapped through the model's laws as in sample_poisson.

    Each pair multiplies two entries of one table of per-facet
    increments, order i from stream 0 and order j from stream 3, so each
    order is evaluated once per stream however many pairs use it.  Order
    1 is the facet content.  Quadrature is one batched _quad_increments
    call per order that both streams share; Monte Carlo gives facet t of
    stream s the seed seed + 7t + s, so (i, i) multiplies two independent
    estimates: the square of one would add its variance to the product.
    """
    d = p.d
    for k in itertools.chain(*pairs):
        _check_int("order", k, 1)
        if k > d:
            raise ValueError("order out of range")
    _check_inputs(method, resolution, seed, n_samples=n_samples,
                  mc_patterns=mc_patterns)
    mapped = p.sample_facets_from_uniforms(
        make_rng(seed).random((n_samples, d + 2)))
    centers, extents, axes = mapped
    wanted = {(k, s) for pair in pairs for k, s in zip(pair, (0, 3))}
    quad = any(k > 1 for k, _ in wanted) \
        and _increment_method(p, method) == "quadrature"

    def key(k: int, s: int) -> tuple[int, int]:
        return (k, 0 if k == 1 or quad else s)

    inc = {(1, 0): np.array([(2.0 * r) ** (d - 1) for r in extents.tolist()])}
    for k, s in sorted({key(*ks) for ks in wanted} - inc.keys()):
        if quad:
            inc[k, s] = _quad_increments(k, p, centers, axes, resolution)
        else:
            inc[k, s] = np.array([expected_increment(
                k, y, p, method="mc", n_samples=mc_patterns,
                seed=seed + 7 * t + s)[0]
                for t, y in enumerate(_facet_list(*mapped))])
    t_mass = p.total_intensity
    out = {}
    for i, j in pairs:
        prods = inc[key(i, 0)] * inc[key(j, 3)]
        out[(i, j)] = (t_mass * float(prods.mean()),
                       t_mass * batch_means_se(prods))
    return out


def asymptotic_covariance(i: int, j: int, p: ModelParams,
                          n_samples: int = 1000, seed: int = 0,
                          method: str = "auto", resolution: int = 200,
                          mc_patterns: int = 2000) -> tuple[float, float]:
    """Covariance constant of the jointly normalized interaction counts
    at large activity: the integral over the reference intensity of the
    product of expected increments of orders i and j.

    Monte Carlo over n_samples query facets, drawn as arrays from one
    uniform block.  Each increment is expected_increment with the given
    method: under quadrature one batched evaluation per order over all
    the facets, which the two factors share; under Monte Carlo
    mc_patterns reference patterns per facet and factor, independent
    ones for the two.  n_samples and mc_patterns must be integers >= 2
    and resolution an integer >= 1.  Returns value and the standard
    error of the outer average.
    """
    return _covariance_table(((i, j),), p, n_samples, seed, method,
                             resolution, mc_patterns)[(i, j)]


# ---------------------------------------------------------------------------
# scaling-limit constants


def i_k_integrals(d: int, k: int, b: float = 1.0,
                  chi: float = 1.0) -> tuple[float, float]:
    """Geometric constants of the codimension-k intersection statistic
    under constant center intensity chi on the cube of side b (both
    positive and finite), with m = d - k.

    The first value, chi^m b^(m^2) J_m^k, integrates the intersection
    content of d-k distinct-orientation facets: J_m = ∫ w(t)^m dt =
    b^(m+1) (m+3)/(m+1) over the overlap profile w(t) = |[0,b] ∩ [t-b, t+b]|.
    The second, chi^(2m-1) b^((2m-1)m) K_m^k, is its square-type analogue
    over two such families sharing one facet, which drives the limiting
    variance: K_m = ∫_0^b s(t)^2 dt with s(t) = b^m A - (t^m + (b-t)^m)/m
    and A = (m+2)/m is b^(2m+1) [A^2 - 4A/(m(m+1)) + (2/(2m+1)
    + 2 m!^2/(2m+1)!)/m^2] by the Beta integral ∫_0^1 u^m (1-u)^m du =
    m!^2/(2m+1)!.  Both are exact rationals of b and chi, each rounded
    once to the nearest double.
    """
    _check_int("dimension d", d, 2)
    _check_int("codimension k", k, 1)
    if not 1 <= k <= d - 1:
        raise ValueError("codimension out of range")
    if not (0 < b < math.inf and 0 < chi < math.inf):
        raise ValueError("b and chi must be positive and finite")
    m = d - k
    b, chi, a = Fraction(b), Fraction(chi), Fraction(m + 2, m)
    j_m = b ** (m + 1) * Fraction(m + 3, m + 1)
    beta = Fraction(math.factorial(m) ** 2, math.factorial(2 * m + 1))
    k_m = b ** (2 * m + 1) * (a * a - 4 * a / (m * (m + 1))
                              + (Fraction(2, 2 * m + 1) + 2 * beta) / m ** 2)
    i_k = chi ** m * b ** (m * m) * j_m ** k
    i_prime = chi ** (2 * m - 1) * b ** ((2 * m - 1) * m) * k_m ** k
    return float(i_k), float(i_prime)


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
    _check_int("dimension d", d, 2)
    _check_int("codimension k", k, 1)
    if not 1 <= k <= d - 1:
        raise ValueError("codimension out of range")
    mean = i_k * math.comb(d - 1, d - k) / d ** (d - k)
    base = ((d - 1) * math.comb(d - 2, d - k - 1) ** 2
            / d ** (2 * (d - k) - 1) * i_prime_k)
    return ScalingLimits(mean, (d - k) ** 2 * base,
                         float(math.factorial(d - k)) ** 2 * base)
