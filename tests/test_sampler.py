import dataclasses
import hashlib
import itertools
import logging
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from facetproc.correlation import _count_grid
from facetproc.geometry import (Facet, Window, canonical_content,
                                facet_measure, tuple_content)
from facetproc.harness import write_table
from facetproc.model import (
    CenterIntensity,
    ModelParams,
    OrientationLaw,
    SizeLaw,
    local_stability_bound,
    log_conditional_intensity,
)
from facetproc import sampler
from facetproc.sampler import (
    ChainConfig,
    _CountsRule,
    _GeneralRule,
    _PairCountsRule,
    _poisson_arrays,
    _units,
    _value,
    batch_means_se,
    make_rng,
    run_chain,
    sample_poisson,
    trace_table,
)
from facetproc.ustat import FacetPattern, _subset_sums, g_vector


def _run_general(p, cfg):
    """run_chain on the general rule, the tests' reference path, also for a
    model that run_chain would give the counts rule."""
    with mock.patch("facetproc.sampler._counts_eligible", return_value=False):
        samples, diag = run_chain(p, cfg)
    assert diag.engine == "pattern"
    return samples, diag


def test_sample_poisson_moments():
    p = ModelParams.special(2, (0.0, 0.0), a=10.0)
    rng = make_rng(1)
    reps = 600
    ns, g1s, g2s = [], [], []
    for _ in range(reps):
        x = sample_poisson(p, rng)
        g = g_vector(x)
        ns.append(x.n)
        g1s.append(g[0])
        g2s.append(g[1])
    a_t = p.a * p.total_intensity
    n_mean = np.mean(ns)
    assert abs(n_mean - a_t) < 3 * np.std(ns) / math.sqrt(reps)
    assert abs(np.var(ns) - a_t) < 3 * a_t * math.sqrt(2 / (reps - 1)) + 1.0
    # Slivnyak-Mecke: E G_1 = aT (2b)^{d-1}
    assert abs(np.mean(g1s) - a_t * 2.0) < 3 * np.std(g1s) / math.sqrt(reps)
    # d=2 special: E G_2 = a^2 T^2 / 4 = 25
    assert abs(np.mean(g2s) - 25.0) < 3 * np.std(g2s) / math.sqrt(reps)


def _reference_sample_poisson(p, rng):
    """A reference Poisson draw one facet at a time: the Poisson count,
    then the facets' (n, d + 2) uniforms, each row mapped by
    sample_facet_from_uniforms."""
    n = int(rng.poisson(p.a * p.total_intensity))
    u = rng.random((n, p.d + 2))
    return FacetPattern.of([p.sample_facet_from_uniforms(
        row[0], row[1:1 + p.d], row[1 + p.d]) for row in u], p.d)


@pytest.mark.parametrize("name", ["d2", "d3", "d4", "table", "two-atom",
                                  "hemisphere", "hemisphere-table-two-atom"])
def test_sample_poisson_is_the_per_facet_reference(name):
    # sample_poisson maps the whole uniform block through the laws' array
    # samplers; the facets and the draws taken from the stream must be
    # those of the per-facet mapping, each law called on its own uniforms,
    # to the last bit.  The last model has no law at its default, so a
    # column of the block read in place of another shows.
    p = {"d2": ModelParams.special(2, (0.0, 0.0), a=6.0),
         "d3": ModelParams.special(3, (0.0,) * 3, a=6.0),
         "d4": ModelParams.special(4, (0.0,) * 4, a=6.0),
         "table": _table_model(3, (0.0,) * 3, 2.0),
         "two-atom": _two_atom_model(3, (0.0,) * 3, 6.0),
         "hemisphere": _hemisphere_model((0.0, 0.0), 6.0),
         "hemisphere-table-two-atom": ModelParams(
             2, 1.0, (0.0, 0.0), 3.0,
             CenterIntensity(Window.cube(1.0, 2),
                             table=[[1.0, 0.0, 2.0], [0.5, 3.0, 1.0]]),
             SizeLaw(((0.4, 0.3), (1.0, 0.7))),
             OrientationLaw(2, "hemisphere"))}[name]
    rng, ref = make_rng(11), make_rng(11)
    for _ in range(40):
        assert repr(sample_poisson(p, rng).facets) \
            == repr(_reference_sample_poisson(p, ref).facets)


def _hemisphere_model(nu, a):
    window = Window.cube(1.0, 2)
    return ModelParams(2, 1.0, nu, a, CenterIntensity(window, level=1.0),
                       SizeLaw.fixed(1.0), OrientationLaw(2, "hemisphere"))


@st.composite
def _model_pattern_and_facet(draw):
    """A model (canonical d = 2 or 3, or hemisphere), a pattern of up to 7
    of its facets, one more facet and where to insert it."""
    kind = draw(st.sampled_from(("d2", "d3", "hemisphere")))
    d = 3 if kind == "d3" else 2
    nu = [draw(st.floats(-1.0, 1.0))] + [draw(st.floats(-2.0, 0.0))
                                         for _ in range(d - 1)]
    a = draw(st.floats(1.0, 8.0))
    p = (_hemisphere_model(tuple(nu), a) if kind == "hemisphere"
         else ModelParams.special(d, nu, a=a))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    # quarter grid values put centers on facet boundaries
    coord = st.one_of(unit, st.integers(0, 4).map(lambda q: q / 4.0))

    def facet():
        return p.sample_facet_from_uniforms(
            draw(unit), [draw(coord) for _ in range(d)], draw(unit))

    facets = list(dict.fromkeys(facet() for _ in range(draw(st.integers(0, 7)))))
    u = facet()
    return p, FacetPattern.of(facets, d), u, draw(st.integers(0, len(facets)))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_model_pattern_and_facet())
def test_birth_death_log_ratio_cancellation_property(case):
    # the chain's death of u, wherever it sits in the grown pattern, takes
    # the log lambda* of the birth of u exactly, so the two log-ratios
    # cancel; u is still in the rule's groups when death scores it
    p, x, u, k = case
    if u in x.facets:
        return
    grown = FacetPattern.of(x.facets[:k] + (u,) + x.facets[k:], p.d)
    assert _GeneralRule(p, grown).death(k) == log_conditional_intensity([u], x, p)


def _full_recompute_step(p, x, row):
    """Slow oracle for one d = 2 step: acceptance ratios from full g_vector
    differences."""
    log_a_t = math.log(p.a * p.total_intensity)
    nu = np.array(p.nu)
    if row[0] < 0.5:
        u = p.sample_facet_from_uniforms(row[1], row[2:4], row[4])
        if u in x.facets:
            return x, False, "B"
        grown = x.with_facet(u)
        log_lam = float(nu @ (g_vector(grown) - g_vector(x)))
        if math.log(row[5]) < log_lam + log_a_t - math.log(x.n + 1):
            return grown, True, "B"
        return x, False, "B"
    if x.n == 0:
        return x, False, "D"
    i = min(int(row[1] * x.n), x.n - 1)
    reduced = x.without_index(i)
    log_lam = float(nu @ (g_vector(x) - g_vector(reduced)))
    if math.log(row[5]) < -(log_lam + log_a_t - math.log(x.n)):
        return reduced, True, "D"
    return x, False, "D"


def test_chain_matches_full_recompute_reference():
    # a chain with a given start reads one block of uniforms,
    # make_rng(seed).random((n_steps, d + 4)); the oracle steps through the
    # same rows
    for p in (ModelParams.special(2, (0.2, -0.8), a=3.0),
              _hemisphere_model((0.2, -0.8), 3.0)):
        samples, diag = _run_general(p, ChainConfig(
            n_steps=1000, seed=11, burn_in=0, thin=1,
            initial=p.empty_pattern(), keep_samples=True))
        rows = make_rng(11).random((1000, 6))
        x = p.empty_pattern()
        for t in range(1000):
            x, accepted, move = _full_recompute_step(p, x, rows[t])
            assert (accepted, move == "B") == (diag.trace_accepted[t],
                                               diag.trace_birth[t])
            assert x.facets == samples[t].facets
        assert diag.birth_accepted + diag.death_accepted > 100


def test_engines_produce_identical_chains():
    cases = [
        ModelParams.special(2, (0.0, -2.0), a=4.0),
        ModelParams.special(2, (0.0, 0.0), a=6.0),
        ModelParams.special(3, (0.0, 0.0, -1.0), a=3.0),
        ModelParams.special(2, (0.5, -1.0), a=2.0),
        ModelParams.special(3, (0.0, 0.0, -1.0), a=8.0),
        _HOLE,
        # nu_2 != 0 in d = 3: the pair terms enter log lambda*
        ModelParams.special(3, (0.0, -1.0, 0.0), a=4.0),
        ModelParams.special(3, (0.0, -1.0, 0.0), a=16.0),
        ModelParams.special(3, (0.3, -1.0, -0.5), a=8.0),
        _table_model(3, (0.2, -1.0, 0.0), 4.0),
        # a facet size that is no power of two, so that r / q = 0.7 * 2^54
        # is none either and r's low bits enter every pair term G_2 counts
        # in units of q, with nu_2 = 0 and != 0, and a window far from the
        # origin
        ModelParams.special(3, (0.0, 0.0, -1.0), a=16.0, b=0.7),
        ModelParams.special(3, (0.1, -1.0, 0.0), a=16.0, b=0.7),
        _OFF_ORIGIN,
    ]
    for p in cases:
        # kept samples: the counts rules map their raw center uniforms
        # only for these
        cfg = dict(n_steps=3000, seed=42, burn_in=0, thin=1,
                   keep_samples=True)
        s_pat, d_pat = _run_general(p, ChainConfig(**cfg))
        s_cnt, d_cnt = run_chain(p, ChainConfig(**cfg))
        assert d_cnt.engine == "counts"
        assert [x.facets for x in s_pat] == [x.facets for x in s_cnt]
        assert np.array_equal(d_pat.trace_n, d_cnt.trace_n)
        assert np.array_equal(d_pat.trace_occupancy, d_cnt.trace_occupancy)
        assert np.array_equal(d_pat.trace_birth, d_cnt.trace_birth)
        assert np.array_equal(d_pat.trace_accepted, d_cnt.trace_accepted)
        assert np.array_equal(d_pat.trace_g, d_cnt.trace_g)
        assert (d_pat.birth_proposed, d_pat.birth_accepted) == \
               (d_cnt.birth_proposed, d_cnt.birth_accepted)
        assert (d_pat.death_proposed, d_pat.death_accepted) == \
               (d_cnt.death_proposed, d_cnt.death_accepted)


# 1000.7 - 1000.0 rounds to 0.7000000000000455, a window wider than r =
# 0.7 and so the general rule's; the float below 1000.7 gives 0.69999...
_OFF_ORIGIN = ModelParams(
    3, 0.7, (0.0, -1.0, -0.5), 16.0,
    CenterIntensity(Window(((1000.0, 1000.6999999999999),) * 3), level=1.0),
    SizeLaw.fixed(0.7), OrientationLaw(3))


def _two_atom_model(d, nu, a, b=1.0):
    return ModelParams(d, b, nu, a, CenterIntensity(Window.cube(b, d), level=b ** -d),
                       SizeLaw(((0.4 * b, 0.3), (b, 0.7))), OrientationLaw(d))


def _scaled_two_atom_model(b):
    # the two-atom model of window and facet scale b, nu scaled so that
    # each order's part of log lambda* keeps its size
    return _two_atom_model(3, (0.3 / (2 * b) ** 2, -1 / b, -0.5), 4.0, b)


def _table_model(d, nu, a):
    table = np.arange(1.0, 2 ** d + 1).reshape((2,) * d)
    return ModelParams(d, 1.0, nu, a, CenterIntensity(Window.cube(1.0, d), table=table),
                       SizeLaw.fixed(1.0), OrientationLaw(d))


_CHAIN_CLASSES = {
    "d3-nu2": (ModelParams.special(3, (0.0, -1.0, 0.0), a=4.0), "counts"),
    "two-atom": (_two_atom_model(3, (0.3, -1.0, -0.5), 4.0), "pattern"),
    # scaled by 2^-300 and 2^300: the general rule's G_1 and G_2 terms lie
    # near 2^-600 and 2^-300, or 2^600 and 2^300, far from unit scale
    "two-atom-tiny": (_scaled_two_atom_model(2.0 ** -300), "pattern"),
    "two-atom-huge": (_scaled_two_atom_model(2.0 ** 300), "pattern"),
    "table": (_table_model(3, (0.2, -1.0, 0.0), 4.0), "counts"),
    "d3-counts": (ModelParams.special(3, (0.1, 0.0, -1.0), a=8.0), "counts"),
    "hemisphere": (_hemisphere_model((0.3, -1.0), 4.0), "pattern"),
    "hemisphere-collinear": (_hemisphere_model((0.3, -1.0), 4.0), "pattern"),
}
# Initial patterns other than a Poisson draw.  Two collinear, overlapping
# segments of one non-axis normal: the general rule tests each proposal
# against every kept segment, and their pair must give 0.0 (a kernel
# without that skip counts it as a crossing, from float rounding of their
# directions, and G_2 drifts by 1 when either one leaves).
_CHAIN_INITIAL = {
    "hemisphere-collinear": FacetPattern.of(
        [Facet((0.5, 0.5), 1.0, (0.6, 0.8)), Facet((0.3, 0.65), 1.0, (0.6, 0.8))]),
}


@pytest.mark.parametrize("name", list(_CHAIN_CLASSES))
def test_running_g_equals_g_vector(name):
    # The running G is an exact sum of the current terms, so it equals
    # g_vector of the current pattern bit for bit after 20k steps of adding
    # and removing terms.
    p, engine = _CHAIN_CLASSES[name]
    samples, diag = run_chain(p, ChainConfig(n_steps=20_000, seed=9, burn_in=0,
                                             thin=10, keep_samples=True,
                                             initial=_CHAIN_INITIAL.get(name)))
    assert diag.engine == engine
    assert diag.trace_n.max() >= 5
    expected = np.array([g_vector(x) for x in samples])
    assert np.array_equal(diag.trace_g, expected)


@pytest.mark.parametrize("nu", [(0.0, 0.0, 0.0), (0.0, -1e-3, 0.0)])
def test_running_g2_past_two_to_the_63(nu):
    # about 2000 cross-axis pairs of terms near 1.65 r = 2^54.7 q each:
    # the counts rules' integer G_2 / q passes 2^63 (and 2^64), and numpy's
    # conversion of the block's log still gives g_vector's bits
    p = ModelParams.special(3, nu, a=80.0, b=0.99)
    q = math.ldexp(1.0, math.frexp(0.99)[1] - 54)
    initial = sample_poisson(p, make_rng(2))
    pairs = sum(len(f) * len(g) for f, g in itertools.combinations(
        initial.groups.values(), 2))
    assert pairs > 300 and g_vector(initial)[1] > 2.0 ** 63 * q
    samples, diag = run_chain(p, ChainConfig(
        n_steps=2000, seed=6, burn_in=0, thin=100, initial=initial,
        keep_samples=True))
    assert diag.engine == "counts"
    assert diag.birth_accepted + diag.death_accepted > 500
    assert diag.trace_g[:, 1].min() > 2.0 ** 63 * q
    expected = np.array([g_vector(x) for x in samples])
    assert np.array_equal(diag.trace_g, expected)


@pytest.mark.parametrize("lo", [2.0 ** 50 + 0.25, 2.0 ** 52, 2.0 ** 53 - 1.0],
                         ids=["grid-r/4", "grid-r", "round-to-even"])
def test_running_g2_is_exact_far_from_the_origin(lo):
    # Where the centers' free coordinate lies on a float grid of r/4, r
    # (below 2^53 r = 2^53 for r = 1) and r again with w + r and z - r
    # rounding to even at 2^53, the pair terms drift by up to r from
    # 2r - |z - w|, and are still multiples of q: G_2 / q stays the exact
    # integer as facets enter and leave.  One block of moves from half the
    # facets: each other facet is born and one facet in the middle dies,
    # then every facet dies.  The nu_2 = 0 counts rule takes G_2 of every
    # state from its pass over the block, _PairCountsRule keeps it as a
    # running int.
    window = Window(((lo, lo + 1.0), (0.0, 1.0), (0.0, 1.0)))
    p = ModelParams(3, 1.0, (0.0, 0.0, -1.0), 1.0,
                    CenterIntensity(window, level=1.0), SizeLaw.fixed(1.0),
                    OrientationLaw(3))
    p_pair = dataclasses.replace(p, nu=(0.0, -1.0, -1.0))
    assert sampler._counts_eligible(p)
    grid = dict.fromkeys(lo + 0.25 * k for k in range(5))  # distinct floats
    facets = [Facet((x, y, 0.1 + y), 1.0, axis) for axis in range(3)
              for x in grid for y in (0.0, 1 / 3, 0.7)]
    start = FacetPattern.of(facets[::2])
    moves = [m for u in facets[1::2] for m in (u, None)] + [None] * start.n
    block = np.full((len(moves), 7), 0.5)
    rules = [_CountsRule(p, start), _PairCountsRule(p_pair, start)]
    for rule in rules:  # row i proposes the birth of moves[i]
        rule.load(block)
        rule._z = np.array([u.center if u else (lo, 0.0, 0.0) for u in moves])
        rule._birth_axes = np.array([u.orientation if u else 0 for u in moves])
        rule._axes = rule._birth_axes.tolist()
    counts, pair = rules
    states = [start]
    for i, u in enumerate(moves):
        x = states[-1]
        if u is None:
            j = x.n // 2
            counts.remove(j)
            pair.death(j)
            pair.remove(j)
            states.append(x.without_index(j))
        else:
            counts.add(i)
            pair.birth(i)
            pair.add(i)
            states.append(x.with_facet(u))
        assert float(pair.g2) * pair.q == g_vector(states[-1])[1]
    assert states[-1].n == 0 and pair.g2 == 0
    born = np.array([u is not None for u in moves])
    expected = np.array([g_vector(x) for x in states])
    for rule in rules:
        g, _ = rule.kept(np.arange(len(states)), np.arange(len(moves)), born)
        assert np.array_equal(g, expected)


@pytest.mark.parametrize("high, low", [
    ([0, 3, 2 ** 52 + 1], [0, 2 ** 28 - 1, 2 ** 53 - 1]),
    ([2 ** 53 + 1, 2 ** 62 + 1, 5], [1, 2 ** 28, 2 ** 62 + 2 ** 40 + 1]),
], ids=["exact", "python-int"])
def test_scaled_units_round_once(high, low):
    # fl(high 2^28 + low) q, taken through floats while both parts are
    # below 2^53 and through Python ints above, against the exact rational
    q = 2.0 ** -53
    got = sampler._scaled_units(np.array(high), np.array(low), q)
    for value, h, lo in zip(got.tolist(), high, low):
        assert value == float(Fraction(h * 2 ** 28 + lo) * Fraction(q))


@pytest.mark.parametrize("a, before", [(4.0, 10.33), (8.0, 9.76), (16.0, 8.13)])
def test_d3_counts_chain_memory_stays_flat(a, before):
    # The traced peak (MiB) of e4's 50k-step d = 3 counts chains stays
    # within 1 MiB of the per-move pair loop's, measured as `before`; the
    # block pass without its chunks of _PAIRS pairs read 14.4, 16.4 and
    # 20.7 MiB
    p = ModelParams.special(3, (0.0, 0.0, -1.0), a=a)
    tracemalloc.start()
    try:
        run_chain(p, ChainConfig(n_steps=50_000, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= before + 1.0


def _array_increment(x, u, j):
    """Reference order-j increment of G from adding u to x, independent of
    ustat._subset_terms: the subsets of x's facet indices, one index from
    each of j-1 orientation classes other than u's, with u's index last.
    Canonical tuples go as rows of index arrays through
    canonical_content, the others through tuple_content."""
    if j == 1:
        return facet_measure(u)
    index: dict = {}
    for i, f in enumerate(x.facets):
        if f.orientation != u.orientation:
            index.setdefault(f.orientation, []).append(i)
    facets = x.facets + (u,)
    canonical = all(f.is_canonical for f in facets)
    if canonical:
        arrays = (np.array([f.center for f in facets]),
                  np.array([f.half_extent for f in facets]),
                  np.array([f.orientation for f in facets]))
    terms = []
    for combo in itertools.combinations(index.values(), j - 1):
        if canonical:
            mesh = np.meshgrid(*combo, [x.n], indexing="ij")
            rows = np.stack(mesh, axis=-1).reshape(-1, j)
            terms.extend(canonical_content(*(a[rows] for a in arrays)).tolist())
        else:
            triples = [(f.center, f.half_extent, f.orientation) for f in facets]
            terms.extend(tuple_content([triples[i] for i in (*members, x.n)])
                         for members in itertools.product(*combo))
    return math.fsum(terms)


def _reference_log_ratio(p, x, u):
    """The birth log-ratio log lambda*(u; x) + log(aT) - log(n+1), with
    log lambda* the fsum of nu_j times _array_increment."""
    log_lam = math.fsum([p.nu[j - 1] * _array_increment(x, u, j)
                         for j in p.active_orders])
    return log_lam + math.log(p.a * p.total_intensity) - math.log(x.n + 1)


def _pattern_step(p, x, row):
    """One birth-death MH step on an immutable FacetPattern, from the
    reference log-ratios and the model's facet draw."""
    d = p.d
    log_u = math.log(row[d + 3])
    if row[0] < 0.5:
        u = p.sample_facet_from_uniforms(row[1], row[2:2 + d], row[2 + d])
        accepted = u not in x.facets and log_u < _reference_log_ratio(p, x, u)
        return (x.with_facet(u) if accepted else x), accepted, "B"
    if not x.n:
        return x, False, "D"
    i = min(int(row[1] * x.n), x.n - 1)
    reduced = x.without_index(i)
    accepted = log_u < -_reference_log_ratio(p, reduced, x.facets[i])
    return (reduced if accepted else x), accepted, "D"


@pytest.mark.parametrize("name", ["d3-nu2", "two-atom", "table", "d3-counts",
                                  "hemisphere"])
def test_canonical_state_matches_pattern_steps(name):
    # run_chain moves the chain state in place by ustat._subset_terms (and,
    # under the hemisphere law, the crossing kernel); the reference steps an immutable FacetPattern by _array_increment.  On
    # the same uniforms they take the same moves to the same patterns.
    p, _ = _CHAIN_CLASSES[name]
    initial = sample_poisson(p, make_rng(4))
    steps = 1500
    samples, diag = run_chain(p, ChainConfig(n_steps=steps, seed=8, burn_in=0,
                                             thin=1, initial=initial,
                                             keep_samples=True))
    rows = make_rng(8).random((steps, p.d + 4))
    x = initial
    for t in range(steps):
        x, accepted, move = _pattern_step(p, x, rows[t].tolist())
        assert (accepted, move == "B") == (diag.trace_accepted[t],
                                           diag.trace_birth[t])
        assert x.facets == samples[t].facets
    assert diag.birth_accepted + diag.death_accepted > 200


@pytest.mark.parametrize("name", ["d3-counts", "hemisphere"])
def test_zero_acceptance_uniform_accepts_the_move(name, monkeypatch):
    # The generator may return exactly 0.0, whose log reads as -inf: a
    # death and then a birth whose acceptance uniform is zeroed are
    # accepted, and the chain runs on.
    p = _CHAIN_CLASSES[name][0]
    initial = sample_poisson(p, make_rng(3))
    steps = 2000
    moves = make_rng(3).random((steps, p.d + 4))[:, 0]

    def run(zeroed):
        class Zeroing:  # the chain's generator, zeroing acceptance uniforms
            def __init__(self, rng):
                self.rng = rng

            def random(self, shape):
                u = self.rng.random(shape)
                u[zeroed, p.d + 3] = 0.0
                return u

        monkeypatch.setattr(sampler, "make_rng",
                            lambda *key: Zeroing(make_rng(*key)))
        _, diag = run_chain(p, ChainConfig(n_steps=steps, seed=3, burn_in=0,
                                           thin=1, initial=initial))
        assert diag.n_retained == steps
        return diag

    def first_rejected(diag, birth, after):
        # the first row past after that proposes a birth, or a death from a
        # non-empty state, and that diag's chain rejected
        n_before = np.concatenate(([initial.n], diag.trace_n[:-1]))
        proposed = moves < 0.5 if birth else (moves >= 0.5) & (n_before > 0)
        rows = np.flatnonzero(proposed & ~diag.trace_accepted)
        return int(rows[rows > after][0])

    death = first_rejected(run([]), False, 0)
    diag = run([death])
    assert diag.trace_accepted[death] and not diag.trace_birth[death]
    birth = first_rejected(diag, True, death)
    diag = run([death, birth])
    assert diag.trace_accepted[[death, birth]].all()
    assert diag.trace_birth[birth]


def test_canonical_chains_build_no_pattern_per_step(monkeypatch):
    calls = []
    for name in ("with_facet", "without_index"):
        method = getattr(FacetPattern, name)
        monkeypatch.setattr(FacetPattern, name,
                            lambda self, *a, _m=method: calls.append(1) or _m(self, *a))
    # the hemisphere law moves the same state as the canonical models
    for name in ("d3-nu2", "d3-counts", "hemisphere"):
        run_chain(_CHAIN_CLASSES[name][0], ChainConfig(n_steps=2000, seed=1))
    assert not calls


def test_run_chain_deterministic():
    p = ModelParams.special(2, (0.0, -1.0), a=3.0)
    cfg = ChainConfig(n_steps=5000, seed=7, burn_in=100, thin=3)
    _, d1 = run_chain(p, cfg)
    _, d2 = run_chain(p, cfg)
    assert np.array_equal(d1.trace_n, d2.trace_n)
    assert np.array_equal(d1.trace_g, d2.trace_g)
    # a different chain index decorrelates
    _, d3 = run_chain(p, ChainConfig(n_steps=5000, seed=7, burn_in=100, thin=3,
                                     chain_index=1))
    assert not np.array_equal(d1.trace_n, d3.trace_n)


def test_poisson_reduction_quick():
    # nu = 0: the chain must reproduce Poisson(aT) moments
    p = ModelParams.special(2, (0.0, 0.0), a=5.0)
    _, diag = run_chain(p, ChainConfig(n_steps=200_000, seed=5, burn_in=1000, thin=5))
    a_t = p.a * p.total_intensity
    mean, se = diag.n_mean_se()
    assert abs(mean - a_t) < 4 * se
    g1_mean, g1_se = diag.g_mean_se(1)
    assert abs(g1_mean - a_t * 2.0) < 4 * g1_se


def test_toy_detailed_balance_flux():
    # lumped states (n, G_2) for n <= 2; the count process is Markov in the
    # special model, so empirical transition flux must be symmetric
    p = ModelParams.special(2, (0.0, -0.9), a=1.2)
    _, diag = run_chain(p, ChainConfig(n_steps=300_000, seed=13, burn_in=0, thin=1))
    assert diag.engine == "counts"
    states = list(zip(diag.trace_n.tolist(),
                      diag.trace_g[:, 1].astype(int).tolist()))
    flux: dict = {}
    for s, t in zip(states, states[1:]):
        if s != t and s[0] <= 2 and t[0] <= 2:
            flux[(s, t)] = flux.get((s, t), 0) + 1
    seen = set()
    checked = 0
    for (s, t), c_st in flux.items():
        if (t, s) in seen:
            continue
        seen.add((s, t))
        c_ts = flux.get((t, s), 0)
        if c_st + c_ts < 100:
            continue
        checked += 1
        assert abs(c_st - c_ts) <= 5 * math.sqrt(c_st + c_ts)
    assert checked >= 3


def test_repulsive_chain_thins_counts():
    # strong repulsion at moderate a should keep crossings far below Poisson
    p = ModelParams.special(2, (0.0, -2.0), a=4.0)
    _, diag = run_chain(p, ChainConfig(n_steps=400_000, seed=21, burn_in=20_000, thin=10))
    g2_mean, _ = diag.g_mean_se(2)
    poisson_g2 = (p.a * p.total_intensity) ** 2 / 4
    assert g2_mean < 0.5 * poisson_g2
    assert 0.0 <= diag.birth_rate <= 1.0
    assert 0.0 <= diag.death_rate <= 1.0
    assert diag.occupancy_fraction(2) == 1.0


def test_chain_respects_local_stability():
    p = ModelParams.special(2, (0.7, -0.5), a=2.0)
    alpha = local_stability_bound(p)
    samples, _ = run_chain(p, ChainConfig(n_steps=300, seed=17, burn_in=0,
                                          thin=1, initial=p.empty_pattern(),
                                          keep_samples=True))
    rng = make_rng(18)
    for x in samples:
        u = p.sample_facet_from_uniforms(rng.random(), rng.random(2), rng.random())
        if u not in x.facets:
            assert log_conditional_intensity([u], x, p) <= math.log(alpha)


def test_config_validation():
    p = ModelParams.special(2, (0.0, 0.0), a=2.0)
    with pytest.raises(ValueError):
        run_chain(p, ChainConfig(n_steps=100, burn_in=100))
    with pytest.raises(ValueError):
        run_chain(p, ChainConfig(n_steps=100, burn_in=0, thin=0))
    # chain lengths are refused at entry, naming the field
    with pytest.raises(ValueError, match="thin must be an integer"):
        run_chain(p, ChainConfig(n_steps=1000, thin=2.5))
    # and so are the stream keys, before make_rng sees them (True is not 1)
    for field, value in (("seed", 1.5), ("chain_index", 2.0), ("seed", -1),
                         ("seed", True)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            run_chain(p, ChainConfig(n_steps=1000, **{field: value}))
    hemi = ModelParams(2, 1.0, (0.0, -1.0), 2.0, p.center, p.size,
                       OrientationLaw(2, "hemisphere"))
    # continuous orientations run on the general rule
    _, diag = run_chain(hemi, ChainConfig(n_steps=300, seed=2, burn_in=0, thin=1))
    assert diag.engine == "pattern"
    # occupancy is undefined off the canonical family except for empty states
    nonempty = diag.trace_n > 0
    assert (diag.trace_occupancy[nonempty] == -1).all()
    assert (diag.trace_occupancy[~nonempty] == 0).all()


_PAIR = ModelParams.special(2, (0.0, -1.0), a=2.0)
_HEMISPHERE = ModelParams(2, 1.0, _PAIR.nu, 2.0, _PAIR.center, _PAIR.size,
                          OrientationLaw(2, "hemisphere"))
# level 0 on the cell [0, 1/2] x [1/2, 1]
_HOLE = ModelParams(2, 1.0, _PAIR.nu, 2.0,
                    CenterIntensity(_PAIR.window, table=[[1.0, 0.0], [1.0, 1.0]]),
                    _PAIR.size, _PAIR.orientation)


@pytest.mark.parametrize("model,facets,match", [
    (_PAIR, [Facet((0.2, 0.5), 0.25, 0), Facet((0.5, 0.5), 0.25, 1)],
     "half-extent"),
    (_PAIR, [Facet((0.5, 0.5), 1.0, (0.6, 0.8))], "orientation"),
    (_HEMISPHERE, [Facet((0.5, 0.5), 1.0, 0)], "orientation"),
    (_PAIR, [Facet((0.2, 0.5), 1.0, 0), Facet((5.0, 0.5), 1.0, 1)],
     "window"),
    (_HOLE, [Facet((0.5, 0.75), 1.0, 0), Facet((0.25, 0.75), 1.0, 1)],
     "level 0"),
], ids=["extent", "normal-in-canonical-model", "axis-in-hemisphere-model",
        "center-outside", "center-in-zero-cell"])
def test_run_chain_rejects_bad_input(model, facets, match):
    # a pattern the model cannot produce is refused: the two rules would
    # disagree on some (the counts rule takes G_1 from the model's extent)
    initial = FacetPattern.of(facets, 2)
    with pytest.raises(ValueError, match=match):
        run_chain(model, ChainConfig(n_steps=100, burn_in=0, initial=initial))


def test_run_chain_accepts_centers_on_positive_cells():
    # the sampler reaches the closed cells of positive level, boundaries
    # shared with the level-0 cell included
    initial = FacetPattern.of([Facet((0.5, 0.75), 1.0, 0),
                               Facet((0.25, 0.5), 1.0, 1),
                               Facet((0.0, 0.0), 1.0, 0)], 2)
    _, diag = run_chain(_HOLE, ChainConfig(n_steps=100, burn_in=0,
                                           initial=initial))
    assert diag.n_retained == 100


def test_default_burnin_thin():
    p = ModelParams.special(2, (0.0, 0.0), a=10.0)  # aT = 10
    burn, thin = ChainConfig(n_steps=500).resolve(p)
    assert burn == 100 and thin == 1
    p2 = ModelParams.special(2, (0.0, 0.0), a=100.0)
    burn2, thin2 = ChainConfig(n_steps=5000).resolve(p2)
    assert burn2 == 1000 and thin2 == 10
    # numpy integers are chain lengths too
    cfg = ChainConfig(n_steps=np.int64(500), burn_in=np.int32(50), thin=np.int64(3))
    assert cfg.resolve(p) == (50, 3)


# Short chains through every branch of the chain loop: d = 2 counts at thin
# 1 over three uniform blocks and with kept samples over four, d = 3 counts
# at thin 3 with kept samples, d = 3 nu_2 at thin 3, all three orders of
# d = 3 on both rules, the hemisphere law, and a table center intensity
# with a zero cell on both rules (the general one through _run_general).
_PINNED_CHAINS = {
    "d2-counts-thin1": (ModelParams.special(2, (0.0, -2.0), a=2.0, chi=4.0),
                        dict(n_steps=70_000, seed=5, burn_in=100, thin=1)),
    # kept samples hold facets born in earlier blocks than the kept state's
    "d2-counts-samples-blocks": (
        ModelParams.special(2, (0.0, -2.0), a=2.0, chi=4.0),
        dict(n_steps=100_000, seed=5, burn_in=0, thin=97, keep_samples=True)),
    "d3-counts-thin3-samples": (
        ModelParams.special(3, (0.1, 0.0, -1.0), a=8.0),
        dict(n_steps=3000, seed=5, burn_in=50, thin=3, keep_samples=True)),
    "d3-nu2-general": (ModelParams.special(3, (0.0, -1.0, 0.0), a=4.0),
                       dict(n_steps=3000, seed=5, burn_in=0, thin=3)),
    "d3-all-orders-both": (ModelParams.special(3, (0.3, -1.0, -0.5), a=8.0),
                           dict(n_steps=6000, seed=5, burn_in=0, thin=3,
                                keep_samples=True)),
    "hemisphere-samples": (_hemisphere_model((0.3, -1.0), 4.0),
                           dict(n_steps=2000, seed=5, burn_in=0, thin=2,
                                keep_samples=True)),
    "table-hole-counts-samples": (_HOLE, dict(n_steps=3000, seed=5, burn_in=10,
                                              thin=3, keep_samples=True)),
    "table-hole-general-samples": (_HOLE, dict(n_steps=2000, seed=5, burn_in=0,
                                               thin=1, keep_samples=True)),
    # the d = 3 counts rule maps each block's centers; 40k steps cross a
    # block boundary
    "table-d3-counts-samples": (_table_model(3, (0.1, 0.0, -1.0), 4.0),
                                dict(n_steps=40_000, seed=5, burn_in=0,
                                     thin=40, keep_samples=True)),
    # at a = 16 a move meets about five facets, each a G_2 term added to
    # the rule's integer G_2; G is read at every step
    "d3-counts-a16-thin1": (ModelParams.special(3, (0.0, 0.0, -1.0), a=16.0),
                            dict(n_steps=40_000, seed=5, burn_in=0, thin=1)),
}

# sha256 of each chain's trace, counters and kept patterns (python
# tests/test_sampler.py prints them), recorded on the row-per-step loop that
# read every uniform of a step and wrote each retained state into the trace
# arrays one item at a time (d2-counts-samples-blocks: on the counts rule
# that built the center of each accepted birth; table-d3-counts-samples:
# on the counts rule that mapped each accepted birth's center by a
# plain-Python copy of the center law; d3-counts-a16-thin1: on the counts
# rule that added each G_2 term on its own; d3-nu2-general and
# d3-all-orders-both: on the general rule, before the counts rule served
# nu_2 != 0)
_PINNED_DIGESTS = {
    "d2-counts-thin1":
        "b738b2675a58ac71bed747eb3b4b2a699484e71a52f556ced4e76ea4065bac5c",
    "d2-counts-samples-blocks":
        "4849ef33ce89d54901736b12cef92bd62cf8e3a87fbbec1e88f7734b5f274013",
    "d3-counts-thin3-samples":
        "76dba2775eb73b77f98678019a20188a921995ff4afb5f7963975f8a7a426d01",
    "d3-nu2-general":
        "87668aacc96733433370e311c0fad09d67306f6c1855583dd37b421cbc61fe4f",
    "d3-all-orders-both":
        "fdd169f0f7b1f698d5f50d53d63dbc730e793224682f902786743416050ac6c3",
    "hemisphere-samples":
        "7e079ed90478a97604eb3dd53624950ade2da34fbed5576136deabd070a72e04",
    "table-hole-counts-samples":
        "19ca5f20d201ce7d162374d4ae13a466d0257fd756eb0873ae6904a44dd49713",
    "table-hole-general-samples":
        "d4143476546ef3be01a9ceca9b4760758a64036191b4cf758d957734b8370082",
    "table-d3-counts-samples":
        "052a2ce4e6015c3b0d141eeeb6e68551bd70561ff9938f4b66957fcd789c393c",
    "d3-counts-a16-thin1":
        "fb49635bab531287f1245665b384159061fc06976ea7ce5a8f7a821196ea19e8",
}


# the rules each pin runs on, where not run_chain's alone
_PIN_RUNS = {"table-hole-general-samples": [_run_general],
             "d3-all-orders-both": [run_chain, _run_general]}


def _digest(*parts) -> str:
    """sha256 of the reprs of parts, exact for Python floats."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(_PINNED_CHAINS))
def test_chain_trajectories_are_pinned(name):
    # the determinism contract: the same seed gives the same moves,
    # acceptances, counts, G, occupancy and kept samples, to the last bit
    p, cfg = _PINNED_CHAINS[name]
    for run in _PIN_RUNS.get(name, [run_chain]):
        samples, diag = run(p, ChainConfig(**cfg))
        assert diag.n_retained > 500
        assert _chain_digest(samples, diag) == _PINNED_DIGESTS[name]


@pytest.mark.parametrize("rows", [37, 1000])
@pytest.mark.parametrize("name", ["d3-counts-a16-thin1",
                                  "d3-counts-thin3-samples",
                                  "table-d3-counts-samples",
                                  "d2-counts-samples-blocks"])
def test_d3_counts_pins_hold_at_other_block_sizes(name, rows, monkeypatch):
    # the d = 3 counts rule sums G_2 afresh over each block's pairs, and
    # the counts rule at nu_2 = 0 reads a birth's center from its block's
    # rows as the next block starts: blocks of 37 and 1000 rows (facets
    # outliving many blocks, burn-in blocks with no kept state) give the
    # pinned chains
    monkeypatch.setattr(sampler, "_BLOCK", rows)
    p, cfg = _PINNED_CHAINS[name]
    assert _chain_digest(*run_chain(p, ChainConfig(**cfg))) == \
        _PINNED_DIGESTS[name]


def _chain_digest(samples, diag) -> str:
    """_digest of a chain's trace, counters and kept patterns."""
    return _digest(
        diag.trace_step.tolist(), diag.trace_n.tolist(),
        diag.trace_g.tolist(), diag.trace_accepted.tolist(),
        ["B" if b else "D" for b in diag.trace_birth.tolist()],
        diag.trace_occupancy.tolist(),
        (diag.birth_proposed, diag.birth_accepted, diag.death_proposed,
         diag.death_accepted),
        [x.facets for x in samples])


# One short chain per rule and model class: the d = 2 and d = 3 counts
# rules with kept samples, the d = 3 nu_2 pair rule, the general rule on a
# canonical model, the hemisphere law and a table center intensity (on the
# pair rule)
_RULE_CHAINS = {
    "d2-counts": (ModelParams.special(2, (0.0, -2.0), a=2.0, chi=4.0),
                  run_chain, dict(n_steps=3000, seed=3, burn_in=10, thin=3,
                                  keep_samples=True)),
    "d3-counts-samples": (ModelParams.special(3, (0.1, 0.0, -1.0), a=8.0),
                          run_chain, dict(n_steps=2000, seed=3, burn_in=5,
                                          thin=2, keep_samples=True)),
    "d3-nu2": (ModelParams.special(3, (0.3, -1.0, -0.5), a=8.0), run_chain,
               dict(n_steps=2000, seed=3, burn_in=0, thin=3)),
    "general": (ModelParams.special(3, (0.1, -0.5, -1.0), a=4.0),
                _run_general, dict(n_steps=1500, seed=3, burn_in=0, thin=2)),
    "hemisphere": (_hemisphere_model((0.3, -1.0), 4.0), run_chain,
                   dict(n_steps=1500, seed=3, burn_in=0, thin=2,
                        keep_samples=True)),
    "table": (_table_model(3, (0.2, -1.0, 0.0), 4.0), run_chain,
              dict(n_steps=2000, seed=3, burn_in=0, thin=1)),
}


@pytest.mark.parametrize("name", list(_RULE_CHAINS))
def test_trace_does_not_depend_on_the_block_size(name, monkeypatch):
    # the kept states are filled once per block of uniforms: blocks of one
    # row (many hold no accepted move, and at thin > 1 many no kept row)
    # and of 7 rows (cutting the kept rows of every thin unevenly) give
    # the chain of the default block, bit for bit
    p, run, cfg = _RULE_CHAINS[name]
    expected = _chain_digest(*run(p, ChainConfig(**cfg)))
    for rows in (1, 7):
        monkeypatch.setattr(sampler, "_BLOCK", rows)
        assert _chain_digest(*run(p, ChainConfig(**cfg))) == expected


@pytest.mark.parametrize("name", list(_RULE_CHAINS))
def test_trace_n_and_acceptance_follow_the_moves(name):
    # read off the trace alone, at burn-in 0 and thin 1: n changes exactly
    # at the accepted steps, by +1 on a birth and -1 on a death, from the
    # initial pattern's n, and the counters are the trace's births and
    # deaths, proposed and accepted
    p, run, cfg = _RULE_CHAINS[name]
    initial = sample_poisson(p, make_rng(7))
    assert initial.n > 0
    _, diag = run(p, ChainConfig(**{**cfg, "burn_in": 0, "thin": 1,
                                    "keep_samples": False,
                                    "initial": initial}))
    change = np.diff(np.concatenate(([initial.n], diag.trace_n)))
    birth, accepted = diag.trace_birth, diag.trace_accepted
    assert np.array_equal(accepted, change != 0)
    assert np.array_equal(change[accepted], np.where(birth, 1, -1)[accepted])
    assert diag.birth_accepted == np.count_nonzero(accepted & birth) > 50
    assert diag.death_accepted == np.count_nonzero(accepted & ~birth) > 50
    assert diag.birth_proposed == np.count_nonzero(birth)
    assert diag.death_proposed == np.count_nonzero(~birth)


def test_g_mean_se_refuses_orders_outside_one_to_d():
    _, diag = run_chain(_PAIR, ChainConfig(n_steps=200, seed=1, burn_in=0,
                                           thin=1))
    assert diag.g_mean_se(2) == diag.mean_se(diag.trace_g[:, 1])
    # 0 and -1 gave the G_2 and G_1 means, 2.0 ended in numpy's IndexError
    for order in (0, -1, 3, 2.0, True):
        with pytest.raises(ValueError, match="order"):
            diag.g_mean_se(order)


# terms from 2^-1074 (subnormal) to 2^1000, each move's drawn with repeats
# from a small pool, some negated and some beside the negation of their
# float neighbour; no term is -0.0 (contents are >= 0, and fsum([-0.0]) is
# -0.0)
_TERM = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                  st.integers(-1074, 1000))


@st.composite
def _term_moves(draw):
    pool = draw(st.lists(_TERM, min_size=1, max_size=6))
    moves = []
    for _ in range(draw(st.integers(1, 8))):
        terms = []
        for t in draw(st.lists(st.sampled_from(pool), max_size=8)):
            kind = draw(st.sampled_from(("plain", "negated", "cancelling")))
            terms.append(-t if kind == "negated" else t)
            if kind == "cancelling":
                neighbour = math.nextafter(t, draw(st.sampled_from((0.0, math.inf))))
                if neighbour:
                    terms.append(-neighbour)
        moves.append(terms)
    return moves


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_term_moves(), st.randoms(use_true_random=False))
def test_units_keep_the_exact_sum(moves, rnd):
    # after every addition and every removal, the running sum in units of
    # 2^-1074 converts to the correctly rounded sum of the terms present,
    # bit for bit; the terms leave in shuffled order and in other groups
    # than they came in
    s, present = 0, []
    for terms in moves:
        s += _units(terms)
        present += terms
        assert _value(s).hex() == math.fsum(present).hex()
    leaving = present[:]
    rnd.shuffle(leaving)
    while leaving:
        k = rnd.randint(1, len(leaving))
        group, leaving = leaving[:k], leaving[k:]
        s -= _units(group)
        for t in group:
            present.remove(t)
        assert _value(s).hex() == math.fsum(present).hex()
    assert s == 0


@pytest.mark.parametrize("d", [2, 3])
def test_counts_rule_birth_axes_are_the_truncated_product(d):
    # load takes each row's birth axis as min(int(aux * d), d - 1), with
    # aux on both sides of 1/3 and just below 1
    aux = [0.0, 0.5, math.nextafter(1 / 3, 0.0), 1 / 3,
           math.nextafter(1 / 3, 1.0), 1.0 - 2.0 ** -53]
    p = ModelParams.special(d, (0.0,) * (d - 1) + (-1.0,), a=2.0)
    rule = _CountsRule(p, p.empty_pattern())
    block = np.full((len(aux), d + 4), 0.5)
    block[:, 1] = aux
    rule.load(block)
    assert rule._axes == [min(int(u * d), d - 1) for u in aux]
    assert all(type(axis) is int for axis in rule._axes)


def test_orientation_counts_are_the_bit_counts():
    # the vectorized counts of axes per mask and of masks against the
    # per-state loops; states without a mask (-1, the hemisphere law's) are
    # left out
    p = ModelParams.special(3, (0.1, 0.0, -1.0), a=2.0)
    _, diag = run_chain(p, ChainConfig(n_steps=5000, seed=2, burn_in=0, thin=1))
    diag.trace_occupancy[::7] = -1
    expected = [bin(m).count("1") for m in diag.trace_occupancy.tolist() if m >= 0]
    assert diag.orientation_counts().tolist() == expected
    assert set(expected) == {0, 1, 2, 3}
    assert diag.occupancy_fraction(1) == np.mean(np.array(expected) <= 1)
    hist: dict = {}
    for m in diag.trace_occupancy.tolist():
        if m >= 0:
            axes = tuple(i for i in range(3) if m >> i & 1)
            hist[axes] = hist.get(axes, 0) + 1
    assert diag.occupancy_histogram() == hist


def test_long_chains_log_progress(monkeypatch, caplog):
    # a chain of _LOG_STEPS steps or more reports the steps done and the
    # acceptance so far once per block, at INFO; a shorter one stays silent
    p = ModelParams.special(2, (0.0, -1.0), a=2.0)
    cfg = ChainConfig(n_steps=70_000, seed=1, burn_in=0, thin=10)
    with caplog.at_level(logging.INFO, logger="facetproc.sampler"):
        _, quiet = run_chain(p, cfg)
        assert not caplog.records
        monkeypatch.setattr("facetproc.sampler._LOG_STEPS", 70_000)
        _, diag = run_chain(p, cfg)
    messages = [r.getMessage() for r in caplog.records]
    assert [m.split(",")[0] for m in messages] == [
        "step 32768 of 70000", "step 65536 of 70000", "step 70000 of 70000"]
    moved = diag.birth_accepted + diag.death_accepted
    assert messages[-1].endswith(f"acceptance {moved / 70_000:.4f}")
    assert np.array_equal(diag.trace_g, quiet.trace_g)


def test_keep_samples_and_export(tmp_path):
    p = ModelParams.special(2, (0.0, -1.0), a=2.0)
    samples, diag = run_chain(p, ChainConfig(n_steps=2000, seed=9, burn_in=200,
                                             thin=100, keep_samples=True))
    assert len(samples) == diag.n_retained == 18
    for x, n in zip(samples, diag.trace_n):
        assert x.n == n
    out = tmp_path / "trace.csv"
    write_table(out, *trace_table(diag))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,n,G_1,G_2,accepted,move"
    assert len(lines) == diag.n_retained + 1
    assert lines[1].split(",")[-1] in ("B", "D")


def test_batch_means_se():
    rng = make_rng(33)
    iid = rng.normal(size=6400)
    se = batch_means_se(iid)
    assert se == pytest.approx(1 / math.sqrt(6400), rel=0.35)
    assert batch_means_se(np.ones(3)) == math.inf


def test_batch_means_se_of_a_constant_series_is_zero():
    # the 64 batch means of 4/9 do not all round alike, and their SE read
    # 6.99e-18
    assert batch_means_se(np.full(400, 4 / 9)) == 0.0
    assert batch_means_se(np.full(7, -2.5)) == 0.0
    # values the batches drop do not count; a NaN keeps the NaN SE
    assert batch_means_se(np.append(np.full(128, 0.1), 5.0)) == 0.0
    assert math.isnan(batch_means_se(np.append(np.full(9, 0.1), math.nan)))
    # any spread keeps the batch-means value
    spread = np.full(400, 4 / 9)
    spread[0] = 0.5
    means = spread[:384].reshape(64, 6).mean(axis=1)
    assert batch_means_se(spread) == float(np.std(means, ddof=1) / 8.0) > 0


def _exact_top_order_moments(d, nu, a):
    """Mean count and mean G_d of the top-order special model, exactly.

    Any d facets with distinct axes meet in one point when the window
    side is b, so G_d = n_0 ... n_(d-1) and the orientation counts have
    the law proportional to prod_i Pois(aT/d; n_i) exp(nu n_0 ... n_(d-1)).
    """
    beta = a / d  # T = 1 for the unit special model
    n = np.arange(60)
    log_pois = n * math.log(beta) - np.array([math.lgamma(k + 1) for k in n])
    grids = np.meshgrid(*[n] * d, indexing="ij", sparse=True)
    prod = math.prod(grids[1:], start=grids[0])
    log_w = sum(log_pois[g] for g in grids) + nu * prod
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return float((w * sum(grids)).sum()), float((w * prod).sum())


@pytest.mark.parametrize("d,nu,a,steps,thin", [
    (2, -0.5, 4.0, 400_000, None),
    (3, -0.5, 6.0, 600_000, 10),
], ids=["d2", "d3"])
def test_counts_match_exact_stationary_law(d, nu, a, steps, thin):
    # The chain's mean count and mean G_d must match the exact stationary
    # law of the orientation counts, which shares no code with the
    # acceptance ratio.  At seed 2015 the z-scores are -1.3 and 0.4 (d=2)
    # and -0.5 and 0.3 (d=3).  A counts-engine birth log-ratio biased by
    # +0.05 reads 4.7 and 6.8 (d=2) and 4.1 and 4.7 (d=3); the same bias
    # on log(aT) in both move types reads 11.5 and 7.6 (d=2).
    p = ModelParams.submodel(d, d, nu, a=a)
    exact_n, exact_g = _exact_top_order_moments(d, nu, a)
    _, diag = run_chain(p, ChainConfig(n_steps=steps, seed=2015, thin=thin))
    n_mean, n_se = diag.n_mean_se()
    g_mean, g_se = diag.g_mean_se(d)
    assert abs(n_mean - exact_n) < 4.0 * n_se
    assert abs(g_mean - exact_g) < 4.0 * g_se


def _exact_g2_moments(a, b, nu):
    """Mean and variance of G_2 in the d=3 top-order special model, exactly.

    Given the orientation counts n, the centers are i.i.d. uniform on
    [0, b]^3, and a pair on axes k != m overlaps 2b - |U - V| on its free
    coordinate, so E[G_2 | n] = 5b/3 sum_{k<m} n_k n_m and, from
    Var |U - V| = b^2/18 and Var E[|U - V| | U] = b^2/180,
    Var(G_2 | n) = b^2 sum_{k<m} n_k n_m (1/18 + (n_k + n_m - 2)/180).
    Both are summed over the count law, Poisson(a b^3/3) weights times
    exp(nu n_0 n_1 n_2).
    """
    (n0, n1, n2), log_w = _count_grid(a * b ** 3 / 3, 3, 60)
    w = np.exp(log_w + nu * (n0 * n1 * n2))
    w /= w.sum()
    pairs = [(n0, n1), (n0, n2), (n1, n2)]
    mean_n = 5 * b / 3 * sum(k * m for k, m in pairs)
    var_n = b * b * sum(k * m * (1 / 18 + (k + m - 2) / 180) for k, m in pairs)
    mean = float((w * mean_n).sum())
    return mean, float((w * (var_n + mean_n ** 2)).sum()) - mean ** 2


def test_exact_g2_moments_known_values():
    # a = 16, where 80 replicate chains of 100k steps gave a mean G_2 of
    # 47.391 +- 0.086
    assert _exact_g2_moments(16.0, 1.0, -1.0) == pytest.approx(
        (47.4945, 920.215), rel=1e-6)


@pytest.mark.parametrize("seed,a,b", [(1, 4.0, 1.0), (2, 4.0, 0.7),
                                      (3, 8.0, 1.0)],
                         ids=["a4", "a4-b07", "a8"])
def test_d3_counts_rule_g2_matches_its_exact_law(seed, a, b):
    # The d=3 counts rule's running G_2 against its exact mean and
    # variance, which share no code with the pair loop or the acceptance
    # ratio.  The exact values are 4.058541 and 20.16259 (a4), 0.5296682
    # and 1.135949 (a4-b07) and 12.55760 and 120.0311 (a8); the chains
    # read z = +1.6 and +2.0, +0.5 and +0.3, and +1.0 and +0.7.  b = 0.7
    # puts r off a power of two, so the units of q in _CountsRule carry
    # its low bits.  A birth log-ratio biased by +0.05 on the rule's
    # d = 3 branch reads z = +6.0 and +5.7 (a4), +6.6 and +3.8 (a4-b07)
    # and +2.9 and +3.1 (a8): the a = 4 cases catch it.
    p = ModelParams.submodel(3, 3, -1.0, a=a, b=b)
    mean, var = _exact_g2_moments(a, b, -1.0)
    _, diag = run_chain(p, ChainConfig(n_steps=300_000, seed=seed, thin=2))
    assert diag.engine == "counts"
    g_mean, g_se = diag.g_mean_se(2)
    dev = (diag.trace_g[:, 1] - diag.trace_g[:, 1].mean()) ** 2
    assert abs(g_mean - mean) <= 4.0 * g_se
    assert abs(dev.mean() - var) <= 4.0 * batch_means_se(dev)


@pytest.mark.parametrize("engine,steps", [("counts", 600_000),
                                          ("pattern", 60_000)],
                         ids=["counts", "pattern"])
def test_count_histogram_matches_exact_law(engine, steps):
    # In the d=2 pair model the orientation counts (n_0, n_1) have the law
    # proportional to Pois(aT/2; n_0) Pois(aT/2; n_1) exp(nu n_0 n_1), the
    # weights the series module sums.  The trace gives the counts up to
    # order, as the roots of t^2 - n t + G_2, so the histogram is folded
    # onto n_0 <= n_1.  Chi-square over the cells expecting at least 5
    # states (the rest pooled into one cell), on states 10 steps apart.
    # At seed 2015 p = 0.66 (counts) and 0.44 (pattern).  With 1M steps
    # at seeds 1-20, p ranged over 0.04-0.95, and a birth log-ratio biased
    # by +0.05 in the loop gave at most 4e-16.  At seed 2015 that bias
    # gives 1e-7 on the counts rule, but only 0.14 on the shorter pattern
    # run, which checks the general rule's law for gross errors.  A bias
    # in the general rule alone breaks test_engines_produce_identical_chains.
    nu, a = -1.0, 1.5
    p = ModelParams.submodel(2, 2, nu, a=a)
    run = run_chain if engine == "counts" else _run_general
    _, diag = run(p, ChainConfig(n_steps=steps, seed=2015, thin=10))
    assert diag.engine == engine
    grids, log_w = _count_grid(a / 2, 2, 60)
    w = np.exp(log_w + nu * grids[0] * grids[1])
    w /= w.sum()
    law = np.triu(w) + np.triu(w.T, 1)
    n = diag.trace_n
    low = np.rint((n - np.sqrt(n * n - 4 * diag.trace_g[:, 1])) / 2)
    observed = np.zeros_like(law)
    np.add.at(observed, (low.astype(int), n - low.astype(int)), 1)
    expected = law * len(n)
    big = expected >= 5
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert chi2.sf(stat, len(obs) - 1) > 1e-4


def _reweighted_reference(p, n_draws, seed):
    """E_pi of (n, G_1, ..., G_d) by self-normalized importance sampling:
    the model has density exp(nu . G) against the reference Poisson
    process at its activity, so n_draws reference draws weighted by
    exp(nu . G) estimate it.  Canonical draws are scored all at once
    (_poisson_arrays, then _subset_sums), the hemisphere law's one by
    one (sample_poisson, then g_vector).  Returns the estimates, their
    delta-method standard errors and the Kish effective sample size of
    the weights."""
    rng = make_rng(seed)
    if p.orientation.is_canonical:
        *arrays, owner = _poisson_arrays(p, [rng] * n_draws)
        g = _subset_sums(*arrays, owner, n_draws, range(1, p.d + 1))
        n = np.bincount(owner, minlength=n_draws)
    else:
        draws = [sample_poisson(p, rng) for _ in range(n_draws)]
        g = np.array([g_vector(x) for x in draws])
        n = np.array([x.n for x in draws])
    log_w = g @ np.array(p.nu)
    w = np.exp(log_w - log_w.max())
    f = np.column_stack([n, g])
    means = w @ f / w.sum()
    ses = np.sqrt(w ** 2 @ (f - means) ** 2) / w.sum()
    return means, ses, w.sum() ** 2 / (w ** 2).sum()


# Weak couplings at a = 4 (a = 1 for the table, whose T is 4.5): the
# weights keep a Kish ESS of about half the draws, and births are often
# rejected, so a biased birth log-ratio shows.  The hemisphere law's
# draws, scored one by one, are fewer.  Each model names the rule
# run_chain takes.
_ORACLE_MODELS = {
    "d3-nu2": (ModelParams.special(3, (0.0, -0.2, 0.0), a=4.0), 30_000, "counts"),
    "two-atom": (_two_atom_model(3, (0.0, -0.2, -0.2), 4.0), 30_000, "pattern"),
    "table": (_table_model(3, (0.0, -0.2, 0.0), 1.0), 30_000, "counts"),
    "hemisphere": (_hemisphere_model((0.0, -0.2), 4.0), 20_000, "pattern"),
}


@pytest.mark.parametrize("name", list(_ORACLE_MODELS))
def test_general_rule_matches_reweighted_reference_draws(name):
    # An oracle that takes no chain step and no acceptance ratio:
    # reweighted reference draws.  The chain's mean count and mean G_j
    # must match it within 4 combined standard errors; the largest |z|
    # here is 1.6.  The counts rule's models also run the general rule,
    # through _run_general.  With +0.05 on the log-ratio of
    # _GeneralRule.birth every case fails: the mean count reads 3.7 to
    # 4.7 SE high, the mean G_2 4.8 to 5.4.  With +0.05 on that of
    # _PairCountsRule.birth both counts cases fail: the mean count reads
    # 4.1 to 4.7 SE high, the mean G_2 4.8 to 5.4.
    p, n_draws, engine = _ORACLE_MODELS[name]
    means, ses, ess = _reweighted_reference(p, n_draws, seed=1)
    assert ess > 0.4 * n_draws
    cfg = ChainConfig(n_steps=200_000, seed=1)
    _, diag = run_chain(p, cfg)
    assert diag.engine == engine
    diags = [diag] + ([_run_general(p, cfg)[1]] if engine == "counts" else [])
    for diag in diags:
        for j in range(p.d + 1):
            mean, se = diag.n_mean_se() if j == 0 else diag.g_mean_se(j)
            assert abs(mean - means[j]) < 4 * math.hypot(se, ses[j]), j


if __name__ == "__main__":
    # each pinned chain's digest, on the first rule its pin runs on
    for name, (p, cfg) in _PINNED_CHAINS.items():
        run = _PIN_RUNS.get(name, [run_chain])[0]
        print(name, _chain_digest(*run(p, ChainConfig(**cfg))))
