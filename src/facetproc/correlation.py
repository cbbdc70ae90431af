"""Correlation functions of the finite-orientation facet family.

A query is keyed by its orientation counts: how many query facets lie on
each axis.  In a count-determined model (model._count_determined:
canonical axes, one half-extent r, window sides at most r), which the
evaluators require, the exact series, the certified envelope and the
large-activity limit depend on the query only through these counts.
Evaluators, by regime:

* exact truncated series when the top-order interaction is the only one
  active (any counts, repeats included, certified truncation tail),
* certified upper bounds when a lower-order interaction is active, where
  the exact value depends on facet centers and only envelopes are
  available,
* an exponential decay-rate constant for those bounds.

Many queries of one model share its series evaluator: the normalizing
sum is the same for every query, and the evaluator sums it once per
truncation n, and each distinct query's numerator once, without a
cache that outlives it.

Closed-form large-activity limits are exposed as exact rationals: the
fraction of unused orientations, and three standard arrangements of the
query facets as an independent check of it.

The truncation tails are Poisson survival functions, scipy.special.pdtrc,
the Poisson weights take scipy.special.gammaln, and the series sum in
logs through _logsumexp, so the module needs scipy.special alone.  It is
imported where a series or a tail is first evaluated, not with the
module: it took about 0.2 s, half of importing the package, and
simulations, moments and e1 and e4 never sum a series.  Importing
scipy.stats would add about 0.4 s and 45 MiB more.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .model import ModelParams, _check_int, _count_determined

_MAX_CELLS = 20_000_000


def _query(p: ModelParams, counts, n_cap: int | None, tol: float
           ) -> tuple[int, tuple[int, ...]]:
    """The model's coupled order and the query's orientation counts,
    after checking both, the truncation cap and the tolerance."""
    if not _count_determined(p):
        raise ValueError("correlation formulas need canonical axes, one "
                         "half-extent r and window sides at most r")
    s = p.coupled_order()
    if n_cap is not None:
        _check_int("truncation cap n_cap", n_cap, 1)
    _check_tol(tol)
    counts = tuple(counts)
    whole = tuple(_whole(c) for c in counts)
    if len(counts) != p.d or None in whole or any(c < 0 for c in whole) \
            or sum(whole) == 0:
        raise ValueError("counts must be d nonnegative integers, not all zero, "
                         f"got {counts!r}")
    return s, whole


def _check_tol(tol) -> None:
    """Refuse a truncation tolerance that is not a number >= 0: under a
    NaN or negative tol the truncation would grow n to the cell limit."""
    if isinstance(tol, (bool, np.bool_)) or not isinstance(
            tol, (int, float, np.integer, np.floating)) or not tol >= 0:
        raise ValueError(f"truncation tolerance tol must be a number >= 0, "
                         f"got {tol!r}")


def _whole(c) -> int | None:
    """c as an int if it has an integral value (1 and 1.0 alike), else
    None: truncating 1.7 to 1 would answer a different query, and a bool
    is not a count."""
    if isinstance(c, (bool, np.bool_)):
        return None
    try:
        k = int(c)
    except (TypeError, ValueError, OverflowError):
        return None
    return k if k == c else None


def _beta(p: ModelParams) -> float:
    # first-order coupling tilts each orientation's Poisson activity
    return (p.a * p.total_intensity / p.d) * math.exp(
        _log_first_order_factor(p, 1))


def _log_first_order_factor(p: ModelParams, n_query: int) -> float:
    # the first-order coupling also scales rho by a factor per query facet
    return p.nu[0] * n_query * (2 * p.size.max_extent) ** (p.d - 1)


def rho_limit_from_counts(counts: Sequence[int]) -> Fraction:
    """Large-activity correlation limit for a query with the given
    orientation multiplicities: the fraction of orientations unused."""
    counts = tuple(counts)
    whole = tuple(_whole(c) for c in counts)
    if not whole or None in whole or any(c < 0 for c in whole):
        raise ValueError(f"counts must be one or more nonnegative "
                         f"integers, got {counts!r}")
    return Fraction(whole.count(0), len(whole))


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
    _check_int("dimension d", d, 2)
    _check_int("codimension k", k, 1)
    if not 1 <= k <= d - 1:
        raise ValueError("need 1 <= k <= d-1")
    if variant == "distinct":
        if l is not None:
            raise ValueError("no shared-orientation count for this arrangement")
        return Fraction(k, d)
    if l is None:
        raise ValueError("this arrangement needs the shared-orientation count l")
    _check_int("shared-orientation count l", l, 0)
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
    from scipy.special import gammaln
    edge = np.arange(n + 1, dtype=float)
    log_pmf = edge * math.log(beta) - gammaln(edge + 1.0) - beta
    logw = sum(np.meshgrid(*([log_pmf] * dims), indexing="ij", sparse=True))
    return np.meshgrid(*([edge] * dims), indexing="ij", sparse=True), logw


def _logsumexp(a, axis=None):
    """scipy.special.logsumexp(a, axis) of a real array, bit for bit: the
    arithmetic of scipy 1.17 without its array-API dispatch.  The largest
    entries are taken out of the shifted sum and counted; a result that
    is not finite falls back to log(sum(exp(a)))."""
    a = np.atleast_1d(a)
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axes, keepdims=True)
        at_top = a == top
        m = np.sum(at_top, axis=axes, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=axes,
                   keepdims=True)
        out = np.log1p(s / m) + np.log(m) + top
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(
                np.exp(a), axis=axes, keepdims=True)))
    return np.squeeze(out, axis=axes)[()]


def _table_sum(beta: float, n: int, logw, v, term) -> float:
    """logsumexp over a grid of logw + T(v), with T(v) = logsumexp over
    x = 0..n of log Poisson(beta)(x) + term(v, x), once per distinct v."""
    (edge,), log_pmf = _count_grid(beta, 1, n)
    u, row = np.unique(v, return_inverse=True)
    table = _logsumexp(log_pmf + term(u[:, None], edge), axis=1)
    return float(_logsumexp(logw + table[row.reshape(np.shape(v))]))


def _truncated(sums, tail_at, dims: int, n: int, n_cap: int | None,
               tol: float):
    """Log numerator and denominator sums, their certified tail and the
    truncation n: n_cap when given, else n grown from its start value
    until the tail is at most tol times the numerator.  sums(n) adds up
    dims counts (the series d-1, its d-th being closed-form; the bounds
    d), the last through a table of at most (n+1)^(dims-1) rows of n+1,
    its largest array: past _MAX_CELLS for (n+1)^dims, n is refused."""
    if n_cap is not None:
        n = n_cap
    while True:
        if (n + 1) ** dims > _MAX_CELLS:
            raise ValueError("truncation grid too large; lower a or raise tol")
        log_a, log_b = sums(n)
        tail = tail_at(n)
        if n_cap is not None or tail <= tol * math.exp(log_a):
            return log_a, log_b, tail, n
        n = int(n * 1.5) + 5


def _series_evaluator(p: ModelParams):
    """rho_series_counts of one model as a function of (counts, n_cap,
    tol).  Each query runs its own truncation loop, so it stops at the
    same n as a lone call; the count grid of each truncation n and the
    log sum of each (n, shifted counts) pair, the denominator's (q = 0)
    among them, are summed once and kept while the evaluator lives."""
    d, nu = p.d, p.nu[p.d - 1]
    grids, log_sums = {}, {}

    def log_sum(beta: float, n: int, q: tuple[int, ...]) -> float:
        if (n, q) not in log_sums:
            if n not in grids:
                grids[n] = _count_grid(beta, d - 2, n)
            bare, logw = grids[n]
            log_sums[n, q] = _table_sum(
                beta, n, logw, math.prod(bare[i] + q[i] for i in range(d - 2)),
                lambda v, x: nu * q[-1] * (v * (x + q[-2]))
                + beta * np.exp(nu * (v * (x + q[-2]))))
        return log_sums[n, q]

    def evaluate(counts, n_cap: int | None = None,
                 tol: float = 1e-8) -> RhoSeriesResult:
        s, counts = _query(p, counts, n_cap, tol)
        if s != d:
            raise ValueError("lower-order interaction: use rho_bounds")
        beta = _beta(p)

        def tail_at(n):  # (d-1) e^beta P(X > n), X ~ Poisson(beta), in logs
            from scipy.special import pdtrc
            with np.errstate(divide="ignore"):
                log_sf = float(np.log(pdtrc(n, beta)))
            return math.exp(math.log(max(d - 1, 1)) + beta + log_sf)

        log_a, log_b, tail, n = _truncated(
            lambda n: (log_sum(beta, n, counts), log_sum(beta, n, (0,) * d)),
            tail_at, d - 1,
            math.ceil(math.e * beta + 10 * math.sqrt(beta + 1) + 20), n_cap,
            tol)
        value = math.exp(_log_first_order_factor(p, sum(counts))
                         + log_a - log_b)
        return RhoSeriesResult(value, tail, math.exp(log_a), math.exp(log_b),
                               n)

    return evaluate


def rho_series_counts(p: ModelParams, counts, n_cap: int | None = None,
                      tol: float = 1e-8) -> RhoSeriesResult:
    """Exact correlation under the top-order interaction of a query with
    the given orientation counts (repeats allowed), as a ratio of
    truncated multinomial series.

    The last count is eliminated in closed form; the others enter through
    P = v (x_(d-1) + q_(d-1)), v the product of the first d-2 counts (all
    shifted by the query's), summed through a table per distinct v.  The
    tail bounds either normalized sum's truncation error by one Poisson
    tail, every discarded term being at most e^beta times its weight;
    the tail P(X > n) is scipy.special.pdtrc(n, beta), taken in logs.
    n grows until the tail is at most tol (a number >= 0) times the
    numerator, or is n_cap when given.  This is a one-query call of the
    model's series evaluator; callers with many queries of one model
    share one evaluator, which sums the denominator once per n.
    """
    return _series_evaluator(p)(counts, n_cap, tol)


def correlation_provider(p: ModelParams, tol: float = 1e-8):
    """Exact correlation-function evaluator for moment integrals.

    Returns rho(axes) for the top-order-coupled model: axes (K, m) holds
    the orientations of K facet m-tuples, the result their K
    correlations.  Each call evaluates every distinct orientation count
    vector once, through one series evaluator for the provider's life:
    its truncation loop reruns per query, but every log sum it needs is
    summed once, the denominator's shared by all queries.
    """
    if _query(p, (1,) * p.d, None, tol)[0] != p.d:  # a query's checks
        raise ValueError("provider needs the top-order interaction only")
    series = _series_evaluator(p)

    def rho(axes) -> np.ndarray:
        counts = (np.asarray(axes)[..., None] == np.arange(p.d)).sum(axis=1)
        keys, inverse = np.unique(counts, axis=0, return_inverse=True)
        return np.array([series(tuple(key), tol=tol).value
                         for key in keys.tolist()])[inverse.reshape(-1)]

    return rho


class RhoBoundResult(NamedTuple):
    bound: float
    rate: float   # certified exponential decay constant, < 0
    tail: float
    n_max: int


def _distinct_subset_count(values: list[np.ndarray], s: int):
    """Elementary symmetric polynomials of the counts of degrees s-1 and
    s: the numbers of (s-1)- and s-subsets on distinct orientations."""
    e = [np.ones_like(values[0])] + [np.zeros_like(values[0]) for _ in range(s)]
    for v in values:
        for j in range(s, 0, -1):
            e[j] = e[j] + e[j - 1] * v
    return e[s - 1], e[s]


def rho_bounds(p: ModelParams, counts, n_cap: int | None = None,
               tol: float = 1e-8) -> RhoBoundResult:
    """Certified upper bound on the correlation under a lower-order
    interaction, where the exact value is center-dependent, for a query
    with at most one facet per orientation.

    Any s facets of half-extent r with distinct orientations intersect
    in measure between r^(d-s) and (2r)^(d-s); bounding every subset's
    contribution by the matching extreme gives a numerator envelope from
    above and a denominator envelope from below, both functions of
    orientation counts alone.  Dropping the denominator's tail only
    lowers it, and the numerator integrand is at most one, so its tail
    is a bare Poisson tail, d times scipy.special.pdtrc(n, beta).  The
    last count is summed in closed form: with y = x + q the counts
    shifted by the query's (q = 0 for the denominator) and y' all but y_d,
    e_s(y) = e_s(y') + y_d e_(s-1)(y'), so at a cell x' of the
    (n+1)^(d-1) grid the x_d-sum of e^(c e_s(y)) is e^(c e_s(y')) T(v),
    T(v) = sum over x_d = 0..n of pmf(x_d) e^(c (x_d + q_d) v), tabulated
    in logs once per distinct integer v = e_(s-1)(y').
    """
    s, counts = _query(p, counts, n_cap, tol)
    if s == p.d:
        raise ValueError("full-order interaction: use rho_series_counts")
    if any(c > 1 for c in counts):
        raise ValueError("query facets must have pairwise distinct orientations")
    d, nu, k, beta = p.d, p.nu[s - 1], p.d - s, _beta(p)
    r = p.size.max_extent
    rate = rho_decay_rate(d, k, r, p.total_intensity, nu)

    def sums(n):
        bare, logw = _count_grid(beta, d - 1, n)
        out = []
        for q, c in ((counts, nu * r ** k), ((0,) * d, nu * (2 * r) ** k)):
            below, top = _distinct_subset_count(
                [bare[i] + q[i] for i in range(d - 1)], s)
            out.append(_table_sum(beta, n, logw + c * top, below,
                                  lambda v, x: c * (v * (x + q[-1]))))
        return tuple(out)

    from scipy.special import pdtrc
    log_a, log_b, tail, n = _truncated(
        sums, lambda n: d * float(pdtrc(n, beta)),
        d, math.ceil(beta + 10 * math.sqrt(beta + 1) + 20), n_cap, tol)
    pref = math.exp(_log_first_order_factor(p, sum(counts)))
    bound = pref * (math.exp(log_a) + tail) / math.exp(log_b)
    return RhoBoundResult(bound, rate, tail, n)


def rho_decay_rate(d: int, k: int, b: float, total_intensity: float,
                   nu: float) -> float:
    """Negative constant R with correlation <= const * e^(R a) under a
    negative order-(d-k) coupling: T/d times the envelope
    k e^(p nu b^k) + (d-k-1) e^(nu b^k) + e^(q nu b^k) - (d-k-1) at its
    smallest over the integer exponents p, q in 1..10.  As nu b^k < 0 the
    envelope falls in both, so the cap p = q = 10 sets the value.  Refused
    when it is not negative."""
    _check_int("dimension d", d, 2)
    _check_int("codimension k", k, 1)
    if nu >= 0:
        raise ValueError("coupling must be negative")
    if not 1 <= k <= d - 2:
        raise ValueError("need 1 <= k <= d-2")
    base = nu * b ** k
    best = (k * math.exp(base * 10) + (d - k - 1) * math.exp(base)
            + math.exp(base * 10) - (d - k - 1))
    if best >= 0:
        raise ValueError("no negative rate within the exponents 1..10")
    return total_intensity * best / d
