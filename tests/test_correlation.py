import collections
import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import poisson

from facetproc import correlation, sampler
from facetproc.correlation import (
    correlation_provider,
    rho_bounds,
    rho_decay_rate,
    rho_limit,
    rho_limit_from_counts,
    rho_series_counts,
)
from facetproc.geometry import Facet, Window
from facetproc.harness import (_arrangements, build_experiment_config,
                               experiment_e3_rho_limits,
                               poisson_mean_interaction)
from facetproc.model import (CenterIntensity, ModelParams, OrientationLaw,
                             SizeLaw, _count_determined,
                             log_conditional_intensity)
from facetproc.sampler import ChainConfig, batch_means_se, run_chain


def _query(d, axes, b=1.0):
    # spread centers so nothing coincides
    return tuple(Facet(tuple((0.2 + 0.11 * i + 0.07 * j) % 1.0 * b for j in range(d)),
                       b, ax) for i, ax in enumerate(axes))


def _rho_mcmc(facets, samples, p):
    """Chain estimate of the correlation of the query facets: their
    conditional intensity averaged over retained states, with its
    batch-means SE.  Valid for every submodel."""
    vals = np.array([math.exp(log_conditional_intensity(facets, x, p))
                     for x in samples])
    return float(vals.mean()), batch_means_se(vals)


def test_rho_limit_values():
    assert rho_limit(3, 1, "distinct") == Fraction(1, 3)
    assert rho_limit(3, 2, "distinct") == Fraction(2, 3)
    assert rho_limit(3, 1, "two_groups", l=2) == Fraction(1, 3)
    assert rho_limit(4, 1, "two_groups", l=2) == Fraction(0, 1)  # l = d-2k
    assert rho_limit(3, 1, "overlapping_groups", l=0) == Fraction(0, 1)
    assert rho_limit(3, 1, "overlapping_groups", l=1) == Fraction(1, 3)


def test_rho_limit_matches_counts_rule():
    for d in (2, 3, 4, 5):
        for k in range(1, d):
            counts = [1] * (d - k) + [0] * k
            assert rho_limit(d, k) == rho_limit_from_counts(counts)
    assert rho_limit_from_counts((2, 0, 0)) == Fraction(2, 3)
    assert rho_limit_from_counts((1, 1, 1)) == 0


def test_rho_limit_range_checks():
    with pytest.raises(ValueError):
        rho_limit(3, 3)
    with pytest.raises(ValueError):
        rho_limit(3, 1, "two_groups", l=3)  # above d-k
    with pytest.raises(ValueError):
        rho_limit(4, 1, "two_groups", l=1)  # below d-2k
    with pytest.raises(ValueError):
        rho_limit(3, 1, "overlapping_groups", l=2)
    for variant in ("sideways", "a"):  # arrangements go by their full names
        with pytest.raises(ValueError):
            rho_limit(3, 1, variant)
    with pytest.raises(ValueError):
        rho_limit(3, 1, "distinct", l=1)


def test_series_is_one_without_interaction():
    p = ModelParams.special(3, (0.0, 0.0, 0.0), a=4.0)
    res = rho_series_counts(p, (1, 1, 0))
    assert res.value == 1.0
    assert res.tail < 1e-8


def test_series_approaches_limits():
    lim2 = float(rho_limit(3, 1))   # two facets -> 1/3
    lim1 = float(rho_limit(3, 2))   # one facet  -> 2/3
    gap2, gap1 = [], []
    for a in (4.0, 8.0, 16.0):
        p = ModelParams.special(3, (0.0, 0.0, -1.0), a=a)
        r2 = rho_series_counts(p, (1, 1, 0))
        r1 = rho_series_counts(p, (1, 0, 0))
        gap2.append(abs(r2.value - lim2))
        gap1.append(abs(r1.value - lim1))
        assert r2.tail < 1e-8 and r1.tail < 1e-8
    assert gap2[0] > gap2[1] > gap2[2]
    assert gap1[0] > gap1[1] > gap1[2]
    assert gap2[-1] < 0.05 and gap1[-1] < 0.05
    # normalized pieces approach their own limits
    p = ModelParams.special(3, (0.0, 0.0, -1.0), a=16.0)
    res = rho_series_counts(p, (1, 1, 0))
    assert abs(res.denominator - 3.0) < 0.1
    assert abs(res.numerator - 1.0) < 0.1


def test_series_symmetry():
    p = ModelParams.special(3, (0.0, 0.0, -0.7), a=5.0)
    r_fwd = rho_series_counts(p, (1, 1, 0))
    # relabeling the orientations only permutes the sums
    r_rot = rho_series_counts(p, (0, 1, 1))
    assert r_rot.value == pytest.approx(r_fwd.value, rel=1e-10)


def test_series_monotone_truncation():
    p = ModelParams.special(3, (0.0, 0.0, -1.0), a=8.0)
    prev_num = prev_den = 0.0
    prev_tail = math.inf
    for cap in (5, 10, 20, 40):
        res = rho_series_counts(p, (1, 1, 0), n_cap=cap)
        assert res.numerator >= prev_num and res.denominator >= prev_den
        assert res.tail <= prev_tail
        prev_num, prev_den, prev_tail = res.numerator, res.denominator, res.tail
    assert res.n_max == 40


def test_series_agrees_with_mcmc():
    p = ModelParams.special(3, (0.0, 0.0, -1.0), a=3.0)
    exact = rho_series_counts(p, (1, 1, 0)).value
    samples, _ = run_chain(p, ChainConfig(n_steps=300_000, seed=101, burn_in=30_000,
                                          thin=90, keep_samples=True))
    est, se = _rho_mcmc(_query(3, (0, 1)), samples, p)
    assert abs(est - exact) < 4 * se + 1e-3


def test_series_with_first_order_tilt():
    # nu_1 tilts the activity and scales rho by a constant; the chain
    # estimator sees the same physics without special-casing
    p = ModelParams.special(2, (0.3, -1.0), a=2.0)
    exact = rho_series_counts(p, (1, 1)).value
    samples, _ = run_chain(p, ChainConfig(n_steps=200_000, seed=7, burn_in=20_000,
                                          thin=60, keep_samples=True))
    est, se = _rho_mcmc(_query(2, (0, 1)), samples, p)
    assert abs(est - exact) < 4 * se + 1e-3


def test_series_rejects_lower_order_and_bad_queries():
    p = ModelParams.special(3, (0.0, -1.0, 0.0), a=2.0)
    with pytest.raises(ValueError, match="rho_bounds"):
        rho_series_counts(p, (1, 1, 0))
    p_full = ModelParams.special(3, (0.0, 0.0, -1.0), a=2.0)
    with pytest.raises(ValueError, match="counts"):
        rho_series_counts(p_full, (0, 0, 0))


def test_bound_certifies_mcmc():
    p = ModelParams.special(3, (0.0, -1.0, 0.0), a=2.0)
    res = rho_bounds(p, (1, 1, 0))
    assert res.rate < 0
    samples, _ = run_chain(p, ChainConfig(n_steps=40_000, seed=19, burn_in=4_000,
                                          thin=18, keep_samples=True))
    est, se = _rho_mcmc(_query(3, (0, 1)), samples, p)
    assert est - 3 * se <= res.bound


def test_bound_vanishes_for_hard_repulsion():
    p = ModelParams.special(3, (0.0, -50.0, 0.0), a=2.0)
    res = rho_bounds(p, (1, 1, 0))
    assert res.bound < 1e-8


def test_bound_rejects_full_order():
    p = ModelParams.special(3, (0.0, 0.0, -1.0), a=2.0)
    with pytest.raises(ValueError, match="rho_series"):
        rho_bounds(p, (1, 1, 0))


def test_decay_rate():
    # the envelope at its exponent cap p = q = 10
    expect = 2 * math.exp(-10) + math.exp(-1) - 1
    assert rho_decay_rate(3, 1, 1.0, 3.0, -1.0) == pytest.approx(expect, rel=1e-12)
    assert rho_decay_rate(3, 1, 1.0, 3.0, -1e9) == pytest.approx(-1.0)
    assert rho_decay_rate(4, 2, 1.0, 4.0, -2.0) < 0
    with pytest.raises(ValueError):
        rho_decay_rate(3, 1, 1.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        rho_decay_rate(3, 2, 1.0, 3.0, -1.0)


def test_decay_rate_is_the_minimum_over_the_envelope_exponents():
    # the envelope searched over every exponent pair 1..10 that the rate
    # allows, against the value at the cap
    rng = random.Random(26)
    for _ in range(400):
        d = rng.randrange(3, 9)
        k = rng.randrange(1, d - 1)
        b, t_mass = rng.uniform(0.05, 3.0), rng.uniform(0.01, 100.0)
        nu = -math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        base = nu * b ** k
        best = min(k * math.exp(base * p_exp) + (d - k - 1) * math.exp(base)
                   + math.exp(base * q_exp) - (d - k - 1)
                   for p_exp in range(1, 11) for q_exp in range(1, 11))
        if best < 0:
            assert rho_decay_rate(d, k, b, t_mass, nu) == t_mass * best / d
        else:
            with pytest.raises(ValueError, match="no negative rate"):
                rho_decay_rate(d, k, b, t_mass, nu)


def test_rho_mcmc_poisson_is_one():
    p = ModelParams.special(2, (0.0, 0.0), a=4.0)
    samples, _ = run_chain(p, ChainConfig(n_steps=100_000, seed=3, burn_in=10_000,
                                          thin=30, keep_samples=True))
    est, se = _rho_mcmc(_query(2, (0, 1)), samples, p)
    assert abs(est - 1.0) < 3 * se + 1e-3


def test_query_validation():
    two = ModelParams.special(3, (0.0, -0.5, -1.0), a=2.0)
    for evaluate, coupled in ((rho_series_counts, 3), (rho_bounds, 2)):
        p = ModelParams.submodel(3, coupled, -1.0, a=2.0)
        with pytest.raises(ValueError, match="cap"):
            evaluate(p, (1, 1, 0), n_cap=0)
        for counts in ((1, 1), (1, 1, 0, 0), (1, -1, 0), (0, 0, 0),
                       (1.7, 0, 0), (1, np.float64(0.5), 0), (0.5, 0.5, 0),
                       (1, math.nan, 0), (1, math.inf, 0), (1, "1", 0)):
            with pytest.raises(ValueError, match="counts"):
                evaluate(p, counts)
        # integral values of any numeric type are the query they equal
        assert evaluate(p, (1.0, np.int64(1), np.float64(0.0))) == \
            evaluate(p, (1, 1, 0))
        with pytest.raises(ValueError, match="more than one"):
            evaluate(two, (1, 1, 0))
        wide = dataclasses.replace(p, size=SizeLaw.fixed(0.4))
        with pytest.raises(ValueError, match="half-extent"):
            evaluate(wide, (1, 1, 0))
    # the envelope holds for one facet per orientation only
    p = ModelParams.submodel(3, 2, -1.0, a=2.0)
    with pytest.raises(ValueError, match="distinct orientations"):
        rho_bounds(p, (2, 0, 0))


def _dense_rho_bounds(p, counts):
    """Reference: rho_bounds with every orientation count summed on one
    dense d-dimensional grid, e_s summed over the s-subsets of axes."""
    s, d, b = p.coupled_order(), p.d, p.b
    nu, k, beta = p.nu[s - 1], d - s, correlation._beta(p)

    def e(values):
        return sum(math.prod(c) for c in itertools.combinations(values, s))

    def sums(n):
        bare, logw = correlation._count_grid(beta, d, n)
        shifted = [bare[i] + counts[i] for i in range(d)]
        return (float(logsumexp(logw + nu * b ** k * e(shifted))),
                float(logsumexp(logw + nu * (2 * b) ** k * e(bare))))

    log_a, log_b, tail, n = correlation._truncated(
        sums, lambda n: d * float(poisson.sf(n, beta)),
        d, math.ceil(beta + 10 * math.sqrt(beta + 1) + 20), None, 1e-8)
    pref = math.exp(correlation._log_first_order_factor(p, sum(counts)))
    return pref * (math.exp(log_a) + tail) / math.exp(log_b), tail, n


@pytest.mark.parametrize("d,s", [(3, 2), (4, 2), (4, 3)])
def test_bound_matches_dense_grid(d, s):
    # queries without and with a facet on the last axis, whose count is
    # summed through the table
    queries = [(1,) * (d - 1) + (0,), (0, 1) + (0,) * (d - 3) + (1,),
               (0,) * (d - 1) + (1,), (1,) * d]
    for a in (1.0, 4.0, 8.0):
        p = ModelParams.submodel(d, s, -1.0, a=a)
        for counts in queries:
            res = rho_bounds(p, counts)
            bound, tail, n = _dense_rho_bounds(p, counts)
            assert res.bound == pytest.approx(bound, rel=1e-13, abs=0)
            assert (res.tail, res.n_max) == (tail, n)
            assert res.rate == rho_decay_rate(d, d - s, p.b,
                                              p.total_intensity, -1.0)


def test_bound_memory_is_one_axis_short_of_the_grid():
    # d=4 at a=8 sums 41^3 cells; the dense 41^4 grid peaked near 197 MiB
    p = ModelParams.submodel(4, 2, -1.0, a=8.0)
    rho_bounds(p, (1, 1, 0, 0))
    tracemalloc.start()
    try:
        rho_bounds(p, (1, 1, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def _dense_rho_series(p, counts):
    """Reference: rho_series_counts with the first d-1 orientation counts
    summed on one dense (n+1)^(d-1) grid, the last in closed form."""
    d, nu, beta = p.d, p.nu[p.d - 1], correlation._beta(p)

    def sums(n):
        bare, logw = correlation._count_grid(beta, d - 1, n)
        shifted = [bare[i] + counts[i] for i in range(d - 1)]
        prod_q = math.prod(shifted[1:], start=shifted[0])
        prod_0 = math.prod(bare[1:], start=bare[0])
        log_num = logw + nu * counts[d - 1] * prod_q + beta * np.exp(nu * prod_q)
        log_den = logw + beta * np.exp(nu * prod_0)
        return float(logsumexp(log_num)), float(logsumexp(log_den))

    log_a, log_b, tail, n = correlation._truncated(
        sums, lambda n: math.exp(math.log(max(d - 1, 1)) + beta
                                 + float(poisson.logsf(n, beta))),
        d - 1, math.ceil(math.e * beta + 10 * math.sqrt(beta + 1) + 20),
        None, 1e-8)
    value = math.exp(correlation._log_first_order_factor(p, sum(counts))
                     + log_a - log_b)
    return value, math.exp(log_a), math.exp(log_b), tail, n


@pytest.mark.parametrize("a", [1.0, 4.0, 16.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_series_matches_dense_grid(d, a):
    # repeats, and zero and nonzero counts on the last two axes: the one
    # summed through the table and the one eliminated in closed form
    queries = {q[-d:] for q in [(1, 2, 2, 1), (2, 2, 2, 0), (0, 0, 0, 3),
                                (0, 0, 3, 0), (1,) * d]}
    p = ModelParams.submodel(d, d, -1.0, a=a)
    for counts in sorted(queries):
        res = rho_series_counts(p, counts)
        value, numerator, denominator, tail, n = _dense_rho_series(p, counts)
        assert res.value == pytest.approx(value, rel=1e-13, abs=0)
        assert res.numerator == pytest.approx(numerator, rel=1e-13, abs=0)
        assert res.denominator == pytest.approx(denominator, rel=1e-13, abs=0)
        assert (res.tail, res.n_max) == (tail, n)


def test_series_memory_is_two_axes_short_of_the_grid():
    # d=5 at a=8 sums 42^3 cells and a table of at most 42^4; the dense
    # 42^4 grid of each sum peaked near 240 MiB
    p = ModelParams.submodel(5, 5, -1.0, a=8.0)
    rho_series_counts(p, (1, 1, 0, 0, 0))
    tracemalloc.start()
    try:
        rho_series_counts(p, (1, 1, 0, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def _same_bits(x, y) -> bool:
    return type(x) is type(y) and np.shape(x) == np.shape(y) \
        and np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_logsumexp_is_scipys_bit_for_bit():
    rng = np.random.default_rng(5)
    arrays = [np.array([[0.0, 0.0, -1.0], [2.0, -np.inf, 2.0]]),  # ties
              np.array([[-np.inf] * 3, [1.0, -np.inf, -700.0]]),  # all -inf
              np.array([[3.0, 3.0], [-1e300, 1e-300]]), np.array(2.5),
              np.full((2, 4), -np.inf)]
    for _ in range(300):
        a = rng.normal(scale=rng.choice([1.0, 30.0, 800.0]),
                       size=tuple(rng.integers(1, 7, size=rng.integers(2, 4))))
        a = np.round(a) if rng.random() < 0.3 else a
        a[rng.random(a.shape) < rng.choice([0.0, 0.3, 0.9])] = -np.inf
        arrays.append(a)
    for a in arrays:
        for axis in (None, 1) if a.ndim > 1 else (None,):
            assert _same_bits(correlation._logsumexp(a, axis=axis),
                              logsumexp(a, axis=axis)), (a, axis)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tails_are_poisson_tails(d):
    # caps from a tail near one to a tail that underflows to zero; the
    # bounds need d >= 3, and a cap below 150 to keep their d-dimensional
    # grid under the cell limit at d = 4
    for a in (1.0, 4.0, 16.0):
        p = ModelParams.submodel(d, d, -1.0, a=a)
        beta = correlation._beta(p)  # nu_1 = 0: the bounds' beta too
        for n_cap in (None, 1, 5, 150):
            res = rho_series_counts(p, (1,) * d, n_cap=n_cap)
            log_sf = float(poisson.logsf(res.n_max, beta))
            assert res.tail.hex() == math.exp(
                math.log(max(d - 1, 1)) + beta + log_sf).hex()
            if d > 2 and n_cap != 150:
                res = rho_bounds(ModelParams.submodel(d, 2, -1.0, a=a),
                                 (1, 1) + (0,) * (d - 2), n_cap=n_cap)
                assert res.tail.hex() == (
                    d * float(poisson.sf(res.n_max, beta))).hex()


def _result_bits(res) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in res)


@pytest.mark.parametrize("d", [3, 4])
def test_shared_evaluator_gives_the_lone_call_bits(d):
    # every e3 arrangement twice, at three caps, in shuffled order: the
    # shared evaluator reuses log sums across queries and truncations
    # (d=3 has queries (1, 2, 0) and (1, 2, 1), equal but for q[-1])
    p = ModelParams.special(d, (0.2,) + (0.0,) * (d - 2) + (-1.0,), a=4.0)
    calls = [(counts, cap) for *_, counts in _arrangements(d) * 2
             for cap in (None, 1, 5)]
    random.Random(d).shuffle(calls)
    series = correlation._series_evaluator(p)
    for counts, cap in calls:
        assert _result_bits(series(counts, n_cap=cap)) == _result_bits(
            rho_series_counts(p, counts, n_cap=cap)), (counts, cap)


def _count_tables(monkeypatch) -> collections.Counter:
    """Counter of (beta, n) over every table summed from now on."""
    seen = collections.Counter()
    table_sum = correlation._table_sum

    def counting(beta, n, *rest):
        seen[beta, n] += 1
        return table_sum(beta, n, *rest)

    monkeypatch.setattr(correlation, "_table_sum", counting)
    return seen


def test_e3_sums_each_table_once_per_grid_point(monkeypatch, tmp_path):
    # 15 arrangements, 12 distinct count vectors, one shared denominator;
    # every query of a grid point stops at the same n here
    cfg = build_experiment_config(
        "e3", {"d": "4", "nu.4": "-1", "a.grid": "2,8,16"}, tmp_path, 0)
    distinct = {counts for *_, counts in _arrangements(4)}
    seen = _count_tables(monkeypatch)
    rows = experiment_e3_rho_limits(cfg)
    assert len(distinct) == 12
    assert sorted(n for _, n in seen) == sorted({row[-1] for row in rows})
    assert set(seen.values()) == {len(distinct) + 1}


def test_provider_sums_each_table_once(monkeypatch):
    p = ModelParams.submodel(3, 3, -1.0, a=4.0)
    seen = _count_tables(monkeypatch)
    rho = correlation_provider(p)
    axes = np.array([[0, 1, 2], [0, 0, 1], [2, 1, 0], [1, 1, 1]])
    first = rho(axes)
    assert sum(seen.values()) == 3 + 1  # (1,1,1), (2,1,0), (0,3,0); q = 0
    assert _result_bits(rho(axes[::-1])) == _result_bits(first[::-1])
    assert sum(seen.values()) == 4
    assert first.tolist() == [rho_series_counts(p, (1, 1, 1)).value,
                              rho_series_counts(p, (2, 1, 0)).value,
                              rho_series_counts(p, (1, 1, 1)).value,
                              rho_series_counts(p, (0, 3, 0)).value]


def test_tolerance_is_refused_where_it_enters():
    # a NaN or negative tol once grew n to the cell limit (2.6 s and
    # 468 MiB here) before the refusal
    full, lower = (ModelParams.submodel(3, s, -1.0, a=4.0) for s in (3, 2))
    for tol in (math.nan, -1e-8, -math.inf, None, "1e-8", True):
        with pytest.raises(ValueError, match="tolerance tol"):
            rho_series_counts(full, (1, 0, 0), tol=tol)
        with pytest.raises(ValueError, match="tolerance tol"):
            rho_bounds(lower, (1, 0, 0), tol=tol)
        with pytest.raises(ValueError, match="tolerance tol"):
            correlation_provider(full, tol=tol)
    # tol = 0 runs until the tail underflows
    res = rho_series_counts(full, (1, 0, 0), tol=0)
    assert (res.tail, res.n_max) == (0.0, 234)


def test_bool_counts_are_not_counts():
    p = ModelParams.submodel(3, 3, -1.0, a=2.0)
    for counts in ((True, 0, 0), (np.True_, 0, 0), (1, False, 0)):
        with pytest.raises(ValueError, match="counts"):
            rho_series_counts(p, counts)
    assert correlation._whole(1.0) == 1


def _model(d, size, side, kind="canonical", table=None, nu=None):
    """A model at scale b = 1 and a = 2, top-order coupled unless nu is
    given, with the size law size on the window [0, side]^d."""
    window = Window.cube(side, d)
    center = (CenterIntensity(window, level=1.0) if table is None
              else CenterIntensity(window, table=table))
    return ModelParams(d, 1.0, nu or (0.0,) * (d - 1) + (-1.0,), 2.0,
                       center, size, OrientationLaw(d, kind))


# each model and whether it is count-determined: canonical axes, one
# half-extent r and every window side at most r
_DOMAIN_MODELS = {
    **{f"special-d{d}": (ModelParams.special(
        d, (0.0,) * (d - 1) + (-1.0,), a=2.0), True) for d in (2, 3, 4)},
    **{f"r05-d{d}": (_model(d, SizeLaw.fixed(0.5), 0.5), True)
       for d in (3, 4)},
    "window-above-r": (_model(3, SizeLaw.fixed(0.5), 1.0), False),
    "two-atom": (_model(3, SizeLaw(((0.5, 0.3), (1.0, 0.7))), 0.5), False),
    "hemisphere": (_model(2, SizeLaw.fixed(1.0), 1.0, "hemisphere"), False),
    "table": (_model(3, SizeLaw.fixed(0.5), 0.5,
                     table=np.arange(1.0, 9.0).reshape(2, 2, 2)), True),
}


@pytest.mark.parametrize("name", list(_DOMAIN_MODELS))
def test_counts_rule_and_correlation_read_one_condition(name):
    # the counts rule's selection and the correlation evaluators' refusal
    # follow model._count_determined, with no tolerance of their own
    p, determined = _DOMAIN_MODELS[name]
    assert _count_determined(p) is determined
    assert sampler._counts_eligible(p) == (determined and p.d <= 3)
    if determined:
        assert rho_series_counts(p, (1,) * p.d).value > 0.0
    else:
        with pytest.raises(ValueError, match="half-extent"):
            rho_series_counts(p, (1,) * p.d)


@pytest.mark.parametrize("d", [3, 4])
def test_evaluators_read_the_half_extent_not_b(d):
    # b = 1 with half-extent and window side 0.5 differs from
    # ModelParams.special at b = 0.5 only in b: the series, the bounds
    # and the Poisson closed form give the same bits
    top = (0.0,) * (d - 1) + (-1.0,)
    p = _model(d, SizeLaw.fixed(0.5), 0.5)
    ref = ModelParams.special(d, top, a=2.0, b=0.5)
    assert _result_bits(rho_series_counts(p, (1,) * d)) \
        == _result_bits(rho_series_counts(ref, (1,) * d))
    for s in range(1, d + 1):
        assert poisson_mean_interaction(p, s).hex() \
            == poisson_mean_interaction(ref, s).hex()
    if d == 3:
        lower = (0.0, -1.0, 0.0)
        assert _result_bits(rho_bounds(
            _model(3, SizeLaw.fixed(0.5), 0.5, nu=lower), (1, 1, 0))) \
            == _result_bits(rho_bounds(ModelParams.special(
                3, lower, a=2.0, b=0.5), (1, 1, 0)))
