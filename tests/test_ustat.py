import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from facetproc.geometry import Facet, facet_measure, tuple_content
from facetproc.model import ModelParams, OrientationLaw
from facetproc.sampler import _poisson_g_vectors, make_rng, sample_poisson
from facetproc.ustat import FacetPattern, _subset_sums, g_increment, g_vector
from test_sampler import _array_increment, _table_model, _two_atom_model


def brute_g_vector(pattern):
    """Reference: enumerate every subset, no orientation grouping."""
    g = np.zeros(pattern.d)
    for j in range(1, pattern.d + 1):
        g[j - 1] = math.fsum(
            tuple_content([(f.center, f.half_extent, f.orientation) for f in s])
            for s in itertools.combinations(pattern.facets, j)
        )
    return g


def random_canonical_pattern(rng, d, n, side=1.0, half_extent=None):
    facets = []
    for _ in range(n):
        r = half_extent if half_extent is not None else float(rng.uniform(0.2, 1.0))
        facets.append(
            Facet(tuple(rng.uniform(0, side, size=d)), r, int(rng.integers(0, d)))
        )
    return FacetPattern.of(facets, d)


def test_empty_and_single():
    empty = FacetPattern.of([], d=2)
    assert np.array_equal(g_vector(empty), np.zeros(2))
    one = FacetPattern.of([Facet((0.3, 0.4), 1.0, 0)])
    assert np.allclose(g_vector(one), [2.0, 0.0])


def test_two_crossing_facets_frozen():
    # d=2 special model, b=1: two crossing perpendicular facets
    x = FacetPattern.of([Facet((0.2, 0.7), 1.0, 0), Facet((0.9, 0.1), 1.0, 1)])
    assert np.allclose(g_vector(x), [4.0, 1.0])


def test_full_order_product_of_counts():
    # special model: G_d equals the product of orientation counts
    rng = np.random.default_rng(7)
    for d in (2, 3):
        x = random_canonical_pattern(rng, d, 9, side=1.0, half_extent=1.0)
        counts = np.bincount([f.orientation for f in x.facets], minlength=d)
        g = g_vector(x)
        assert g[d - 1] == pytest.approx(np.prod(counts), abs=0)
        assert np.allclose(g, brute_g_vector(x), rtol=0, atol=0)


def test_g_vector_matches_brute_force_sweep():
    rng = np.random.default_rng(123)
    for d in (2, 3):
        for _ in range(25):
            n = int(rng.integers(0, 7))
            x = random_canonical_pattern(rng, d, n)
            got = g_vector(x)
            ref = brute_g_vector(x)
            assert got.tolist() == ref.tolist()  # bitwise: same fsum terms


def test_g_vector_permutation_invariant():
    rng = np.random.default_rng(5)
    x = random_canonical_pattern(rng, 3, 6)
    base = g_vector(x)
    for perm in itertools.islice(itertools.permutations(x.facets), 5):
        assert g_vector(FacetPattern.of(perm)).tolist() == base.tolist()


def test_fewer_orientations_than_order():
    x = FacetPattern.of([Facet((0.1, 0.2, 0.3), 1.0, 0), Facet((0.5, 0.5, 0.5), 1.0, 0)], 3)
    g = g_vector(x)
    assert g[1] == 0.0 and g[2] == 0.0


def test_increment_definition_sweep():
    rng = np.random.default_rng(2024)
    for d in (2, 3):
        for _ in range(30):
            x = random_canonical_pattern(rng, d, int(rng.integers(0, 6)))
            u = Facet(tuple(rng.uniform(0, 1, size=d)), float(rng.uniform(0.2, 1.0)),
                      int(rng.integers(0, d)))
            inc = g_increment(x, u)
            full = g_vector(x.with_facet(u)) - g_vector(x)
            assert np.allclose(inc, full, rtol=1e-12, atol=1e-12)
            # superadditivity: adding a facet never decreases any G_j
            assert (inc >= 0).all()


@st.composite
def patterns_and_new_facet(draw):
    """A pattern x and a facet u not in it: canonical facets in d=2..4 with
    centers and extents on a quarter grid, so contents tie at closed
    boundaries, or d=2 segments with normals at multiples of pi/8, alone
    (hemisphere) or mixed with canonical ones."""
    quarters = st.integers(0, 8).map(lambda q: q / 4.0)
    extents = st.integers(1, 4).map(lambda q: q / 4.0)
    kind = draw(st.sampled_from(("canonical", "hemisphere", "mixed")))
    if kind == "canonical":
        d = draw(st.integers(2, 4))
        orientations = st.integers(0, d - 1)
    else:
        d = 2
        hemisphere = OrientationLaw(2, "hemisphere")
        orientations = st.integers(0, 7).map(
            lambda k: hemisphere.sample_from_uniform(k / 8))
        if kind == "mixed":
            orientations = st.one_of(orientations, st.integers(0, 1))
    facet = st.builds(lambda c, r, o: Facet(tuple(c), r, o),
                      st.lists(quarters, min_size=d, max_size=d), extents,
                      orientations)
    facets = draw(st.lists(facet, min_size=1, max_size=9, unique=True))
    return FacetPattern.of(facets[:-1], d), facets[-1]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(patterns_and_new_facet())
def test_increment_matches_whole_pattern_difference(case):
    x, u = case
    grown = g_vector(x.with_facet(u))
    # the difference of two sums is exact only up to their own rounding
    scale = np.maximum(np.abs(grown), 1.0)
    assert np.all(np.abs(g_increment(x, u) - (grown - g_vector(x)))
                  <= 1e-12 * scale)


def test_increment_into_empty():
    u = Facet((0.5, 0.5, 0.5), 0.8, 1)
    inc = g_increment(FacetPattern.of([], d=3), u)
    assert inc[0] == facet_measure(u)
    assert inc[1] == 0.0 and inc[2] == 0.0


def test_increment_crossing_one_facet():
    x = FacetPattern.of([Facet((0.2, 0.7), 1.0, 0)])
    u = Facet((0.9, 0.1), 1.0, 1)
    inc = g_increment(x, u)
    assert inc[1] == 1.0


def test_increment_selected_orders():
    x = FacetPattern.of([Facet((0.2, 0.7, 0.4), 1.0, 0)], 3)
    u = Facet((0.9, 0.1, 0.6), 1.0, 1)
    inc = g_increment(x, u, orders=[2])
    assert np.isnan(inc[0]) and np.isnan(inc[2])
    assert inc[1] > 0
    with pytest.raises(ValueError):
        g_increment(x, u, orders=[4])


def test_increment_rejects_duplicate():
    f = Facet((0.2, 0.7), 1.0, 0)
    x = FacetPattern.of([f])
    with pytest.raises(ValueError):
        g_increment(x, f)
    with pytest.raises(ValueError):
        x.with_facet(f)
    with pytest.raises(ValueError):
        FacetPattern.of([f, f])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(patterns_and_new_facet())
def test_increment_is_the_array_reference(case):
    # g_increment sums ustat._subset_terms in plain Python; the reference
    # takes canonical tuples as index rows through canonical_content and
    # the others through tuple_content.  Same terms, same fsum.
    x, u = case
    expected = [_array_increment(x, u, j).hex() for j in range(1, x.d + 1)]
    assert [v.hex() for v in g_increment(x, u).tolist()] == expected


def test_g_vector_of_non_canonical_pattern():
    x = FacetPattern.of([Facet((0.5, 0.5), 1.0, (math.sqrt(0.5), math.sqrt(0.5)))])
    assert g_vector(x)[0] == pytest.approx(2.0)


@st.composite
def canonical_batches(draw):
    """A batch of 1-5 canonical patterns of one dimension d = 2..4, each
    empty, of one orientation class, on a quarter grid (contents tie at
    closed boundaries) or a reference draw under the special, two-atom
    size or table center model; a canonical head facet; a permutation
    of the batch."""
    d = draw(st.integers(2, 4))
    quarters = st.integers(0, 8).map(lambda q: q / 4.0)
    extents = st.integers(1, 4).map(lambda q: q / 4.0)

    def grid_facets(axes):
        return st.lists(st.builds(lambda c, r, o: Facet(tuple(c), r, o),
                                  st.lists(quarters, min_size=d, max_size=d),
                                  extents, axes), max_size=7, unique=True)

    patterns = []
    for kind in draw(st.lists(st.sampled_from(
            ("empty", "one-class", "grid", "special", "two-atom", "table")),
            min_size=1, max_size=5)):
        if kind == "empty":
            facets = []
        elif kind == "one-class":
            facets = draw(grid_facets(st.just(draw(st.integers(0, d - 1)))))
        elif kind == "grid":
            facets = draw(grid_facets(st.integers(0, d - 1)))
        else:
            a = draw(st.sampled_from((1.0, 3.0, 6.0)))
            p = {"special": lambda: ModelParams.special(d, (0.0,) * d, a=a),
                 "two-atom": lambda: _two_atom_model(d, (0.0,) * d, a),
                 "table": lambda: _table_model(d, (0.0,) * d, 1.0)}[kind]()
            facets = sample_poisson(p, make_rng(draw(st.integers(0, 999)))).facets
        patterns.append(FacetPattern.of(facets, d))
    head = draw(grid_facets(st.integers(0, d - 1)).filter(bool))[0]
    return patterns, head, draw(st.permutations(range(len(patterns))))


def _batch_arrays(patterns):
    """The facets of a batch as arrays in pattern order, and their owners."""
    facets = [f for x in patterns for f in x.facets]
    d = patterns[0].d
    return (np.array([f.center for f in facets]).reshape(-1, d),
            np.array([f.half_extent for f in facets]),
            np.array([f.orientation for f in facets], dtype=np.intp),
            np.repeat(np.arange(len(patterns)), [x.n for x in patterns]))


def _hex(rows):
    return [[v.hex() for v in row] for row in np.asarray(rows).tolist()]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(canonical_batches())
def test_batch_sums_are_the_brute_force_sums(case):
    # Every pattern's row of the batch is brute_g_vector of that pattern,
    # and with the head its orders are _array_increment's, as float hex;
    # permuting the batch permutes the rows.
    patterns, head, perm = case
    d = patterns[0].d
    arrays = _batch_arrays(patterns)
    g = _subset_sums(*arrays, len(patterns), range(1, d + 1))
    assert _hex(g) == _hex([brute_g_vector(x) for x in patterns])
    triple = (head.center, head.half_extent, head.orientation)
    inc = _subset_sums(*arrays, len(patterns), range(d), triple)
    assert _hex(inc) == _hex([[_array_increment(x, head, j)
                               for j in range(1, d + 1)] for x in patterns])
    shuffled = _batch_arrays([patterns[i] for i in perm])
    assert _hex(_subset_sums(*shuffled, len(perm), range(1, d + 1))) \
        == _hex(g[list(perm)])


def test_batch_temporaries_stay_bounded():
    # e1's batch at d = 4, a = 50: 709k order-4 subset rows in 24
    # patterns, whose unchunked (rows, 4, 4) centers alone take 87 MiB;
    # 40 MiB at peak chunked.  Chunks end inside patterns; each G still
    # equals g_vector's.
    p = ModelParams.special(4, (0.0,) * 4, a=50.0)
    rngs = [make_rng(0, stream) for stream in range(24)]
    tracemalloc.start()
    try:
        g = _poisson_g_vectors(p, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert g.tolist() == [g_vector(sample_poisson(p, make_rng(0, stream))
                                   ).tolist() for stream in range(24)]
