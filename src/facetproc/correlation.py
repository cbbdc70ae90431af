"""Correlation functions of the finite-orientation facet family.

Four evaluators, by regime:

* exact truncated series when the top-order interaction is the only one
  active (any query size, certified truncation tail),
* certified upper bounds when a lower-order interaction is active, where
  the exact value depends on facet centers and only envelopes are
  available,
* an exponential decay-rate constant for those bounds,
* Monte Carlo estimation from chain output, valid for every submodel.

Closed-form large-activity limits are exposed as exact rationals keyed by
the orientation arrangement of the query facets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import poisson

from .geometry import Facet
from .model import ModelParams, conditional_intensity
from .sampler import batch_means_se

_MAX_CELLS = 20_000_000


def _require_special(p: ModelParams) -> None:
    if p.orientation.kind != "canonical":
        raise ValueError("correlation formulas need axis-aligned orientations")
    if not p.size.is_fixed or abs(p.size.max_extent - p.b) > 1e-9 * p.b:
        raise ValueError("correlation formulas need fixed half-extent b")
    for lo, hi in p.window.bounds:
        if hi - lo > p.b * (1 + 1e-12):
            raise ValueError("window sides must not exceed b")


def _single_active_order(p: ModelParams) -> tuple[int, float]:
    """The one interaction order j >= 2 with nonzero coupling, or (d, 0)."""
    active = [j for j in range(2, p.d + 1) if p.nu[j - 1] != 0.0]
    if len(active) > 1:
        raise ValueError("more than one interaction order is coupled")
    if not active:
        return p.d, 0.0
    return active[0], p.nu[active[0] - 1]


@dataclass(frozen=True)
class RhoQuery:
    """A correlation-function evaluation request.

    s is the order of the active interaction, not the number of query
    facets; nu is its coupling and nu_first the first-order coupling,
    which only tilts the per-orientation activity and contributes a
    constant factor per query facet.
    """

    facets: tuple[Facet, ...]
    s: int
    nu: float
    a: float
    d: int
    b: float
    total_intensity: float
    n_cap: int | None = None
    tol: float = 1e-8
    nu_first: float = 0.0

    def __post_init__(self):
        if len(set(self.facets)) != len(self.facets):
            raise ValueError("query facets must be pairwise distinct")
        if not 2 <= self.s <= self.d:
            raise ValueError("interaction order must lie in [2, d]")
        if self.n_cap is not None and self.n_cap < 1:
            raise ValueError("truncation cap must be >= 1")
        for f in self.facets:
            if f.d != self.d or not isinstance(f.orientation, (int, np.integer)):
                raise ValueError("query facets must be axis-aligned in dimension d")
            if abs(f.half_extent - self.b) > 1e-9 * self.b:
                raise ValueError("query facets must have half-extent b")

    @classmethod
    def from_model(cls, p: ModelParams, facets: Sequence[Facet],
                   n_cap: int | None = None, tol: float = 1e-8) -> "RhoQuery":
        _require_special(p)
        s, nu = _single_active_order(p)
        return cls(tuple(facets), s, nu, p.a, p.d, p.b, p.total_intensity,
                   n_cap=n_cap, tol=tol, nu_first=p.nu[0])

    def query_counts(self) -> tuple[int, ...]:
        counts = [0] * self.d
        for f in self.facets:
            counts[f.orientation] += 1
        return tuple(counts)

    def _beta(self) -> float:
        # first-order coupling tilts each orientation's Poisson activity
        return (self.a * self.total_intensity / self.d) * math.exp(
            self.nu_first * (2 * self.b) ** (self.d - 1))

    def _log_first_order_factor(self, n_query: int) -> float:
        return self.nu_first * n_query * (2 * self.b) ** (self.d - 1)


def rho_limit_from_counts(counts: Sequence[int]) -> Fraction:
    """Large-activity correlation limit for a query with the given
    orientation multiplicities: the fraction of orientations unused."""
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    return Fraction(sum(1 for c in counts if c == 0), len(counts))


_VARIANT_ALIASES = {"a": "distinct", "b": "two_groups", "c": "overlapping_groups"}


def rho_limit(d: int, k: int, variant: str = "distinct",
              l: int | None = None) -> Fraction:
    """Exact large-activity limit of the top-order-coupled correlation,
    for three standard query arrangements of facets with orientations
    drawn from the first d-k axes:

    distinct            d-k facets, one per orientation        -> k/d
    two_groups          two such groups sharing l orientations -> (2k-d+l)/d
    overlapping_groups  two groups sharing one facet plus l
                        further orientations                   -> (2k-d+l+1)/d

    The shared-facet arrangement counts l without the shared facet's own
    orientation; its admissible range follows from the group sizes.
    """
    variant = _VARIANT_ALIASES.get(variant, variant)
    if not 1 <= k <= d - 1:
        raise ValueError("need 1 <= k <= d-1")
    if variant == "distinct":
        if l is not None:
            raise ValueError("no shared-orientation count for this arrangement")
        return Fraction(k, d)
    if l is None:
        raise ValueError("this arrangement needs the shared-orientation count l")
    if variant == "two_groups":
        if not max(d - 2 * k, 0) <= l <= d - k:
            raise ValueError("shared count out of range")
        return Fraction(2 * k - d + l, d)
    if variant == "overlapping_groups":
        if not max(d - 2 * k - 1, 0) <= l <= d - k - 1:
            raise ValueError("shared count out of range")
        return Fraction(2 * k - d + l + 1, d)
    raise ValueError(f"unknown arrangement {variant!r}")


class RhoSeriesResult(NamedTuple):
    value: float
    tail: float          # absolute truncation bound on numerator and denominator
    numerator: float     # normalized: -> number of unused orientations
    denominator: float   # normalized: -> d
    n_max: int


def _count_grid(beta: float, dims: int, n: int):
    """Orientation counts 0..n on dims axes as open (broadcastable)
    grids, and the dense grid of their summed Poisson(beta) log weights.
    Only the sums and products built from the open grids are dense."""
    edge = np.arange(n + 1, dtype=float)
    log_pmf = edge * math.log(beta) - gammaln(edge + 1.0) - beta
    logw = sum(np.meshgrid(*([log_pmf] * dims), indexing="ij", sparse=True))
    return np.meshgrid(*([edge] * dims), indexing="ij", sparse=True), logw


def _series_sums(beta: float, nu: float, d: int, counts, n: int):
    bare, logw = _count_grid(beta, d - 1, n)
    shifted = [bare[i] + counts[i] for i in range(d - 1)]
    prod_q = math.prod(shifted[1:], start=shifted[0])
    prod_0 = math.prod(bare[1:], start=bare[0])
    log_num = logw + nu * counts[d - 1] * prod_q + beta * np.exp(nu * prod_q)
    log_den = logw + beta * np.exp(nu * prod_0)
    return float(logsumexp(log_num)), float(logsumexp(log_den))


def _series_core(beta: float, nu: float, d: int, counts,
                 n_cap: int | None, tol: float):
    n = n_cap if n_cap is not None else int(
        math.ceil(math.e * beta + 10 * math.sqrt(beta + 1) + 20))
    while True:
        if (n + 1) ** (d - 1) > _MAX_CELLS:
            raise ValueError("truncation grid too large; lower a or raise tol")
        log_a, log_b = _series_sums(beta, nu, d, counts, n)
        tail = math.exp(math.log(max(d - 1, 1)) + beta
                        + float(poisson.logsf(n, beta)))
        if n_cap is not None or tail <= tol * math.exp(log_a):
            return log_a, log_b, tail, n
        n = int(n * 1.5) + 5


def _series_result(q: RhoQuery, counts) -> RhoSeriesResult:
    log_a, log_b, tail, n = _series_core(q._beta(), q.nu, q.d, counts,
                                         q.n_cap, q.tol)
    value = math.exp(q._log_first_order_factor(sum(counts)) + log_a - log_b)
    return RhoSeriesResult(value, tail, math.exp(log_a), math.exp(log_b), n)


def rho_series_full_order(q: RhoQuery) -> RhoSeriesResult:
    """Exact correlation of a distinct-orientation query under the
    top-order interaction, as a ratio of truncated multinomial series.

    All but one orientation coordinate are summed on a grid after the
    last is eliminated in closed form; both sums run in log space.  The
    reported tail bounds the truncation error of either normalized sum
    through the Poisson tail of one coordinate, every discarded term
    being at most e^beta times its weight.
    """
    if q.s != q.d:
        raise ValueError("lower-order interaction: use rho_bounds")
    counts = q.query_counts()
    if any(c > 1 for c in counts):
        raise ValueError("query facets must have pairwise distinct orientations")
    return _series_result(q, counts)


def rho_series_counts(p: ModelParams, counts, n_cap: int | None = None,
                      tol: float = 1e-8) -> RhoSeriesResult:
    """Series evaluation keyed by the query's orientation multiplicities.

    The correlation of any query in the top-order-coupled model depends
    on its facets only through how many carry each axis, repeats
    included, so arrangement sweeps can skip constructing facets.  Same
    series and tail certificate as rho_series_full_order.
    """
    q = RhoQuery.from_model(p, (), n_cap=n_cap, tol=tol)
    if q.s != p.d:
        raise ValueError("counts series needs the top-order interaction only")
    counts = tuple(int(c) for c in counts)
    if len(counts) != p.d or any(c < 0 for c in counts) or sum(counts) == 0:
        raise ValueError("counts must be d nonnegative integers, not all zero")
    return _series_result(q, counts)


def correlation_provider(p: ModelParams, tol: float = 1e-8):
    """Exact correlation-function evaluator for moment integrals.

    Returns rho(axes) for the top-order-coupled model: axes (K, m) holds
    the orientations of K facet m-tuples, the result their K
    correlations.  Each distinct orientation count vector is evaluated
    once by rho_series_counts and cached.
    """
    _require_special(p)
    s, _ = _single_active_order(p)
    if s != p.d:
        raise ValueError("provider needs the top-order interaction only")

    @functools.lru_cache(maxsize=None)
    def rho_of_counts(counts: tuple[int, ...]) -> float:
        return rho_series_counts(p, counts, tol=tol).value

    def rho(axes) -> np.ndarray:
        counts = (np.asarray(axes)[..., None] == np.arange(p.d)).sum(axis=1)
        keys, inverse = np.unique(counts, axis=0, return_inverse=True)
        return np.array([rho_of_counts(tuple(key)) for key in keys.tolist()]
                        )[inverse.reshape(-1)]

    return rho


class RhoBoundResult(NamedTuple):
    bound: float
    rate: float   # certified exponential decay constant, < 0
    tail: float
    n_max: int


def _distinct_subset_count(values: list[np.ndarray], s: int) -> np.ndarray:
    """Elementary symmetric polynomial of degree s: the number of
    s-subsets touching s different orientations, given the counts."""
    e = [np.ones_like(values[0])] + [np.zeros_like(values[0]) for _ in range(s)]
    for v in values:
        for j in range(min(s, len(e) - 1), 0, -1):
            e[j] = e[j] + e[j - 1] * v
    return e[s]


def rho_bounds(q: RhoQuery) -> RhoBoundResult:
    """Certified upper bound on the correlation under a lower-order
    interaction, where the exact value is center-dependent.

    Any s facets with distinct orientations intersect in measure between
    b^(d-s) and (2b)^(d-s); bounding every subset's contribution by the
    matching extreme gives a numerator envelope from above and a
    denominator envelope from below, both functions of orientation
    counts alone.  Dropping the denominator's tail only lowers it, and
    the numerator integrand is at most one, so its tail is a bare
    Poisson tail.
    """
    if q.s >= q.d:
        raise ValueError("full-order interaction: use rho_series_full_order")
    counts = q.query_counts()
    if any(c > 1 for c in counts):
        raise ValueError("query facets must have pairwise distinct orientations")
    pref = math.exp(q._log_first_order_factor(len(q.facets)))
    k = q.d - q.s
    if q.nu == 0.0:
        return RhoBoundResult(pref, 0.0, 0.0, 0)
    rate = rho_decay_rate(q.d, k, q.b, q.total_intensity, q.nu)
    beta = q._beta()
    n = q.n_cap if q.n_cap is not None else int(
        math.ceil(beta + 10 * math.sqrt(beta + 1) + 20))
    while True:
        if (n + 1) ** q.d > _MAX_CELLS:
            raise ValueError("truncation grid too large; lower a or raise tol")
        bare, logw = _count_grid(beta, q.d, n)
        shifted = [bare[i] + counts[i] for i in range(q.d)]
        num_exp = q.nu * q.b ** k * _distinct_subset_count(shifted, q.s)
        den_exp = q.nu * (2 * q.b) ** k * _distinct_subset_count(bare, q.s)
        log_a = float(logsumexp(logw + num_exp))
        log_b = float(logsumexp(logw + den_exp))
        tail = q.d * float(poisson.sf(n, beta))
        if q.n_cap is not None or tail <= q.tol * math.exp(log_a):
            break
        n = int(n * 1.5) + 5
    bound = pref * (math.exp(log_a) + tail) / math.exp(log_b)
    return RhoBoundResult(bound, rate, tail, n)


def rho_decay_rate(d: int, k: int, b: float, total_intensity: float,
                   nu: float, cap: int = 10) -> float:
    """Negative constant R with correlation <= const * e^(R a) under a
    negative order-(d-k) coupling.  Minimizes over capped integer
    envelope exponents; feasible for every negative coupling because the
    leading exponentials vanish."""
    if nu >= 0:
        raise ValueError("coupling must be negative")
    if not 1 <= k <= d - 2:
        raise ValueError("need 1 <= k <= d-2")
    base = nu * b ** k
    best = math.inf
    for p_exp in range(1, cap + 1):
        for q_exp in range(1, cap + 1):
            r1 = (k * math.exp(base * p_exp) + (d - k - 1) * math.exp(base)
                  + math.exp(base * q_exp) - (d - k - 1))
            best = min(best, r1)
    if best >= 0:
        raise ValueError("no negative rate within the search cap")
    return total_intensity * best / d


def rho_mcmc(facets: Sequence[Facet], samples, p: ModelParams):
    """Ergodic correlation estimate: the average conditional intensity of
    the query facets over retained chain states, with batch-means SE.
    Valid for any submodel and orientation structure."""
    if not samples:
        raise ValueError("no samples")
    facets = list(facets)
    if len(set(facets)) != len(facets):
        raise ValueError("query facets must be pairwise distinct")
    vals = np.array([conditional_intensity(facets, x, p) for x in samples])
    return float(vals.mean()), batch_means_se(vals)
