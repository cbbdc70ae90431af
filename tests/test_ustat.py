import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from facetproc.geometry import Facet, facet_measure, intersection_measure
from facetproc.model import OrientationLaw
from facetproc.ustat import FacetPattern, g_increment, g_vector, u_statistic


def brute_g_vector(pattern):
    """Reference: enumerate every subset, no orientation grouping."""
    g = np.zeros(pattern.d)
    for j in range(1, pattern.d + 1):
        g[j - 1] = math.fsum(
            intersection_measure(list(s))
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
        counts = x.orientation_counts()
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
    boundaries, or d=2 segments with normals at multiples of pi/8."""
    quarters = st.integers(0, 8).map(lambda q: q / 4.0)
    extents = st.integers(1, 4).map(lambda q: q / 4.0)
    if draw(st.booleans()):
        d = draw(st.integers(2, 4))
        orientations = st.integers(0, d - 1)
    else:
        d = 2
        hemisphere = OrientationLaw(2, "hemisphere")
        orientations = st.integers(0, 7).map(
            lambda k: hemisphere.sample_from_uniform(k / 8))
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


def test_increment_generic_path_matches_array_path():
    # mixed-orientation d=2 pattern forces the generic path; compare against
    # an all-canonical twin evaluated both ways
    rng = np.random.default_rng(99)
    x = random_canonical_pattern(rng, 2, 5)
    u = Facet((0.4, 0.6), 0.9, 1)
    inc_fast = g_increment(x, u)
    slow_terms = [
        intersection_measure([f, u]) for f in x.facets
    ]
    assert inc_fast[1] == math.fsum(slow_terms)


def test_u_statistic():
    rng = np.random.default_rng(42)
    x = random_canonical_pattern(rng, 2, 3)
    assert u_statistic(x, lambda f: 1.0, 1) == 3.0
    assert u_statistic(x, lambda f, g: 1.0, 2) == 6.0  # ordered pairs
    assert u_statistic(x, lambda f, g: 1.0, 4) == 0.0  # k > n: empty sum
    # kernel H^{d-2}(y1, y2)/2 at k=2 reproduces G_2
    x5 = random_canonical_pattern(rng, 2, 5, half_extent=1.0)
    val = u_statistic(x5, lambda f, g: intersection_measure([f, g]) / 2.0, 2)
    assert val == pytest.approx(g_vector(x5)[1], rel=1e-12)
    with pytest.raises(ValueError):
        u_statistic(x, lambda f: 1.0, 0)


def test_orientation_counts_non_canonical_rejected():
    x = FacetPattern.of([Facet((0.5, 0.5), 1.0, (math.sqrt(0.5), math.sqrt(0.5)))])
    with pytest.raises(ValueError):
        x.orientation_counts()
    # but g_vector still works through the generic path
    assert g_vector(x)[0] == pytest.approx(2.0)
