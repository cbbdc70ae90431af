import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from facetproc.geometry import (
    Facet,
    Window,
    canonical_content,
    facet_measure,
    general_position,
    intersection_measure,
    tuple_content,
)


def interval_oracle(facets):
    """Independent reference for canonical intersections.

    Works coordinate by coordinate: collects the constraint set on each
    coordinate (a point for the facet whose normal it is, an interval for the
    others) and multiplies lengths / indicator values.
    """
    d = facets[0].d
    total = 1.0
    for c in range(d):
        points = [f.center[c] for f in facets if f.orientation == c]
        intervals = [(f.center[c] - f.half_extent, f.center[c] + f.half_extent) for f in facets]
        lo = max(iv[0] for iv in intervals)
        hi = min(iv[1] for iv in intervals)
        if points:
            if len(set(points)) > 1:
                return 0.0
            total *= 1.0 if lo <= points[0] <= hi else 0.0
        else:
            total *= max(0.0, hi - lo)
    return total


def test_single_facet_measure():
    f = Facet((0.1, 0.2, 0.3), 0.75, 2)
    assert facet_measure(f) == pytest.approx(2.25)
    assert intersection_measure([f]) == pytest.approx(2.25)
    g = Facet((0.0, 0.0), 0.5, 1)
    assert facet_measure(g) == pytest.approx(1.0)


def test_pair_overlap_frozen_value():
    # axis-0 and axis-1 facets in d=3, r=1: the free third coordinate
    # contributes 2r - |dz3| = 1.5, the two fixed coordinates pass containment
    f1 = Facet((0.5, 0.3, 0.2), 1.0, 0)
    f2 = Facet((0.9, 0.8, 0.7), 1.0, 1)
    assert intersection_measure([f1, f2]) == pytest.approx(1.5)
    assert intersection_measure([f2, f1]) == pytest.approx(1.5)


def test_full_order_intersection_is_indicator():
    facets = [
        Facet((0.2, 0.5, 0.9), 1.0, 0),
        Facet((0.7, 0.1, 0.3), 1.0, 1),
        Facet((0.4, 0.6, 0.8), 1.0, 2),
    ]
    assert intersection_measure(facets) == 1.0
    far = [
        Facet((0.2, 0.5, 0.9), 0.3, 0),
        Facet((3.7, 0.1, 0.3), 0.3, 1),
    ]
    assert intersection_measure(far) == 0.0


def test_parallel_facets_never_intersect():
    f1 = Facet((0.2, 0.5, 0.9), 1.0, 1)
    f2 = Facet((0.2, 0.1, 0.9), 1.0, 1)
    assert intersection_measure([f1, f2]) == 0.0
    # nested parallel facets count as empty too
    f3 = Facet((0.2, 0.5, 0.9), 0.25, 1)
    assert intersection_measure([f1, f3]) == 0.0
    assert not general_position([f1, f2])
    assert general_position([f1, Facet((0.0, 0.0, 0.0), 1.0, 2)])


def test_closed_boundary_containment():
    f1 = Facet((1.5, 0.0, 0.0), 1.0, 0)
    f2 = Facet((0.5, 0.5, 0.5), 1.0, 1)
    # fixed coordinate sits exactly on the other facet's edge: still counted
    assert intersection_measure([f1, f2]) == pytest.approx(1.5)
    f1b = Facet((1.5 + 1e-9, 0.0, 0.0), 1.0, 0)
    assert intersection_measure([f1b, f2]) == 0.0


def test_more_facets_than_dimensions():
    facets = [Facet((0.5, 0.5), 1.0, 0), Facet((0.5, 0.5), 1.0, 1)]
    assert intersection_measure(facets + [Facet((0.4, 0.4), 1.0, (1.0, 0.0))]) == 0.0


def test_d2_rotated_segments():
    vertical = Facet((0.5, 0.5), 1.0, 0)
    diag = Facet((0.5, 0.5), 0.01, (math.sqrt(0.5), math.sqrt(0.5)))
    assert intersection_measure([vertical, diag]) == 1.0
    far = Facet((3.0, 3.0), 0.01, (math.sqrt(0.5), math.sqrt(0.5)))
    assert intersection_measure([vertical, far]) == 0.0
    # endpoint touching counts (closed segments)
    horiz = Facet((0.0, 0.0), 1.0, 1)
    touch = Facet((1.0 + math.sqrt(0.5) / 2, math.sqrt(0.5) / 2), 0.5,
                  (math.sqrt(0.5), -math.sqrt(0.5)))
    assert intersection_measure([horiz, touch]) == 1.0


def test_orientation_validation():
    with pytest.raises(ValueError):
        Facet((0.0, 0.0, 0.0), 1.0, 3)
    with pytest.raises(ValueError):
        Facet((0.0, 0.0), 0.0, 1)
    with pytest.raises(ValueError):
        Facet((0.0, 0.0), 1.0, (0.5, 0.5))  # not unit length
    with pytest.raises(ValueError):
        Facet((0.0, 0.0), 1.0, (-1.0, 0.0))  # wrong hemisphere
    with pytest.raises(ValueError):
        Facet((0.0, 0.0, 0.0), 1.0, (1.0, 0.0))  # vector normals only in d=2
    with pytest.raises(ValueError):
        intersection_measure([])
    with pytest.raises(ValueError):
        intersection_measure([Facet((0.0, 0.0), 1.0, 0), Facet((0.0, 0.0, 0.0), 1.0, 1)])


def test_d3_rotated_rejected():
    f1 = Facet((0.5, 0.3, 0.2), 1.0, 0)
    # only canonical orientations exist in d=3, so building the facet fails
    with pytest.raises(ValueError):
        Facet((0.9, 0.8, 0.7), 1.0, (1.0, 0.0, 0.0))
    del f1


def test_against_interval_oracle_sweep():
    rng = np.random.default_rng(20260819)
    for d in (2, 3, 4):
        for _ in range(200):
            j = int(rng.integers(2, d + 1))
            axes = rng.permutation(d)[:j]
            facets = [
                Facet(tuple(rng.uniform(0, 1, size=d)), float(rng.uniform(0.1, 1.2)), int(ax))
                for ax in axes
            ]
            expected = interval_oracle(facets)
            got = intersection_measure(facets)
            assert got == pytest.approx(expected, abs=1e-12)
            # order invariance
            for perm in itertools.islice(itertools.permutations(facets), 3):
                assert intersection_measure(list(perm)) == pytest.approx(expected, abs=1e-12)


@st.composite
def facet_batches(draw):
    """A batch of K canonical j-tuples in dimension d, j up to d + 1.

    Centers and half-extents sit on a grid of quarters, so facet edges
    often fall exactly on other facets' fixed coordinates (closed-boundary
    ties); axes repeat freely, so parallel rows are common.
    """
    d = draw(st.integers(2, 4))
    j = draw(st.integers(1, d + 1))
    k = draw(st.integers(1, 6))
    quarters = st.integers(0, 8).map(lambda q: q / 4.0)
    centers = draw(st.lists(quarters, min_size=k * j * d, max_size=k * j * d))
    extents = draw(st.lists(st.integers(1, 4).map(lambda q: q / 4.0),
                            min_size=k * j, max_size=k * j))
    axes = draw(st.lists(st.integers(0, d - 1), min_size=k * j,
                         max_size=k * j))
    return (np.array(centers).reshape(k, j, d),
            np.array(extents).reshape(k, j), np.array(axes).reshape(k, j))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(facet_batches())
def test_kernel_matches_interval_oracle(batch):
    centers, extents, axes = batch
    got = canonical_content(centers, extents, axes)
    assert got.shape == (len(axes),)
    for row, value in enumerate(got.tolist()):
        facets = [Facet(tuple(c), r, int(ax)) for c, r, ax in
                  zip(centers[row], extents[row], axes[row])]
        if len(facets) == 1:
            assert value == facet_measure(facets[0])
            assert value == pytest.approx(interval_oracle(facets))
        elif len(set(axes[row].tolist())) < len(facets):
            assert value == 0.0  # parallel facets, hence every j > d
        else:
            assert value == interval_oracle(facets)


@st.composite
def facet_tuples(draw):
    """One tuple of 1..d+1 canonical facets: centers anywhere in [-2, 2]
    or on a quarter grid (boundary ties), extents in (0, 2], any axes."""
    d = draw(st.integers(2, 4))
    j = draw(st.integers(1, d + 1))
    coord = st.one_of(st.floats(-2.0, 2.0),
                      st.integers(-8, 8).map(lambda q: q / 4.0))
    extent = st.one_of(st.floats(1e-3, 2.0),
                       st.integers(1, 8).map(lambda q: q / 4.0))
    return [(tuple(draw(coord) for _ in range(d)), draw(extent),
             draw(st.integers(0, d - 1))) for _ in range(j)]


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(facet_tuples())
def test_tuple_content_is_the_batch_kernel(facets):
    # the scalar and the batch form of the content formula agree bit for bit
    batch = canonical_content(np.array([[f[0] for f in facets]]),
                              np.array([[f[1] for f in facets]]),
                              np.array([[f[2] for f in facets]]))[0]
    value = tuple_content(facets)
    assert type(value) is float
    assert value == batch and math.copysign(1.0, value) == math.copysign(1.0, batch)
    assert intersection_measure([Facet(*f) for f in facets]) == (
        value if len({f[2] for f in facets}) == len(facets) else 0.0)


def test_window():
    w = Window.cube(2.0, 3)
    assert w.d == 3
    assert w.volume == pytest.approx(8.0)
    assert w.contains((0.0, 2.0, 1.0))
    assert not w.contains((0.0, 2.0001, 1.0))
    with pytest.raises(ValueError):
        Window(((0.0, 0.0),))
