import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from facetproc.geometry import (
    Facet,
    Window,
    _crossings,
    _segment,
    canonical_content,
    facet_measure,
    tuple_content,
)
from facetproc.model import OrientationLaw
from facetproc.ustat import FacetPattern


def _content(facets):
    """tuple_content of validated Facets."""
    return tuple_content([(f.center, f.half_extent, f.orientation)
                          for f in facets])


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
    assert _content([f]) == pytest.approx(2.25)
    g = Facet((0.0, 0.0), 0.5, 1)
    assert facet_measure(g) == pytest.approx(1.0)


def test_pair_overlap_frozen_value():
    # axis-0 and axis-1 facets in d=3, r=1: the free third coordinate
    # contributes 2r - |dz3| = 1.5, the two fixed coordinates pass containment
    f1 = Facet((0.5, 0.3, 0.2), 1.0, 0)
    f2 = Facet((0.9, 0.8, 0.7), 1.0, 1)
    assert _content([f1, f2]) == pytest.approx(1.5)
    assert _content([f2, f1]) == pytest.approx(1.5)


def test_full_order_intersection_is_indicator():
    facets = [
        Facet((0.2, 0.5, 0.9), 1.0, 0),
        Facet((0.7, 0.1, 0.3), 1.0, 1),
        Facet((0.4, 0.6, 0.8), 1.0, 2),
    ]
    assert _content(facets) == 1.0
    far = [
        Facet((0.2, 0.5, 0.9), 0.3, 0),
        Facet((3.7, 0.1, 0.3), 0.3, 1),
    ]
    assert _content(far) == 0.0


def test_parallel_facets_never_intersect():
    f1 = Facet((0.2, 0.5, 0.9), 1.0, 1)
    f2 = Facet((0.2, 0.1, 0.9), 1.0, 1)
    assert _content([f1, f2]) == 0.0
    # nested parallel facets count as empty too
    f3 = Facet((0.2, 0.5, 0.9), 0.25, 1)
    assert _content([f1, f3]) == 0.0


def test_closed_boundary_containment():
    f1 = Facet((1.5, 0.0, 0.0), 1.0, 0)
    f2 = Facet((0.5, 0.5, 0.5), 1.0, 1)
    # fixed coordinate sits exactly on the other facet's edge: still counted
    assert _content([f1, f2]) == pytest.approx(1.5)
    f1b = Facet((1.5 + 1e-9, 0.0, 0.0), 1.0, 0)
    assert _content([f1b, f2]) == 0.0


def test_more_facets_than_dimensions():
    facets = [Facet((0.5, 0.5), 1.0, 0), Facet((0.5, 0.5), 1.0, 1)]
    assert _content(facets + [Facet((0.4, 0.4), 1.0, (1.0, 0.0))]) == 0.0


def test_d2_rotated_segments():
    vertical = Facet((0.5, 0.5), 1.0, 0)
    diag = Facet((0.5, 0.5), 0.01, (math.sqrt(0.5), math.sqrt(0.5)))
    assert _content([vertical, diag]) == 1.0
    far = Facet((3.0, 3.0), 0.01, (math.sqrt(0.5), math.sqrt(0.5)))
    assert _content([vertical, far]) == 0.0
    # endpoint touching counts (closed segments)
    horiz = Facet((0.0, 0.0), 1.0, 1)
    touch = Facet((1.0 + math.sqrt(0.5) / 2, math.sqrt(0.5) / 2), 0.5,
                  (math.sqrt(0.5), -math.sqrt(0.5)))
    assert _content([horiz, touch]) == 1.0


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
    # facets enter the interaction statistics through a pattern, which
    # needs a dimension and refuses facets of another
    with pytest.raises(ValueError):
        FacetPattern.of([])
    with pytest.raises(ValueError):
        FacetPattern.of([Facet((0.0, 0.0), 1.0, 0), Facet((0.0, 0.0, 0.0), 1.0, 1)])


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
            got = _content(facets)
            assert got == pytest.approx(expected, abs=1e-12)
            # order invariance
            for perm in itertools.islice(itertools.permutations(facets), 3):
                assert _content(list(perm)) == pytest.approx(expected, abs=1e-12)


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
    assert _content([Facet(*f) for f in facets]) == (
        value if len({f[2] for f in facets}) == len(facets) else 0.0)


def _exact_crossing(f, g):
    """Independent reference for the d = 2 crossing: 1.0 iff the closed
    segments of two non-parallel facet triples meet, decided in rational
    arithmetic on their float endpoints (center -+ r times the normal turned
    a quarter).  Non-parallel segments meet iff each one's endpoints lie on
    opposite sides of, or on, the other's line."""
    def endpoints(facet):
        (cx, cy), r, o = facet
        nx, ny = o if isinstance(o, tuple) else ((1.0, 0.0), (0.0, 1.0))[o]
        return [(Fraction(cx - r * -ny), Fraction(cy - r * nx)),
                (Fraction(cx + r * -ny), Fraction(cy + r * nx))]

    def side(p, q, s):  # sign of the cross product (q - p) x (s - p)
        v = (q[0] - p[0]) * (s[1] - p[1]) - (q[1] - p[1]) * (s[0] - p[0])
        return (v > 0) - (v < 0)

    (a, b), (c, e) = endpoints(f), endpoints(g)
    if (b[0] - a[0]) * (e[1] - c[1]) == (b[1] - a[1]) * (e[0] - c[0]):
        return 0.0  # parallel
    return float(side(a, b, c) * side(a, b, e) <= 0
                 and side(c, e, a) * side(c, e, b) <= 0)


def _crossing_cases():
    """Random, touching, end-on, near-miss and near-parallel d = 2 pairs."""
    law = OrientationLaw(2, "hemisphere")
    rng = np.random.default_rng(2015)
    u = rng.random((10_000, 8))
    for row in u.tolist():
        yield ((row[0], row[1]), 0.05 + row[2], law.sample_from_uniform(row[3])), \
              ((row[4], row[5]), 0.05 + row[6], law.sample_from_uniform(row[7]))
    # axis-like vector normals on dyadic values: exact float endpoints
    # the normals of a vertical and of a horizontal segment
    vertical, horizontal = (1.0, 0.0), (0.0, 1.0)
    v = ((0.5, 0.5), 0.25, vertical)  # x = 1/2, 1/4 <= y <= 3/4
    ulp = 2.0 ** -52
    for center in [(0.75, 0.5), (0.25, 0.5),  # end-on the interior of v
                   (0.75, 0.75), (0.25, 0.25),  # end to end
                   (0.5, 0.75), (0.5, 0.25),  # v end-on their interior
                   (0.75 + ulp, 0.5), (0.25 - ulp, 0.5),  # one ulp short
                   (0.5, 0.75 + ulp), (0.75, 0.25 - ulp)]:
        yield v, (center, 0.25, horizontal)
        yield v, (center, 0.25, 1)  # a canonical facet meets a vector one
    # near-parallel: through one point, or offset across their lines
    for k, eps in enumerate([1e-6, 1e-9, 1e-12]):
        n1 = law.sample_from_uniform(0.1 + 0.2 * k)
        n2 = law.sample_from_uniform(0.1 + 0.2 * k + eps)
        yield ((0.5, 0.5), 0.5, n1), ((0.5, 0.5), 0.25, n2)
        yield ((0.5, 0.5), 0.5, n1), ((0.5 + 1e-3 * n1[0], 0.5 + 1e-3 * n1[1]),
                                      0.25, n2)


def test_crossing_matches_exact_rational_test():
    # the crossing kernel, called directly or through tuple_content,
    # equals the exact decision on the same endpoints, either way round;
    # ties at a segment end count
    hits = 0
    for f, g in _crossing_cases():
        expected = _exact_crossing(f, g)
        assert _crossings(_segment(f), [_segment(g)]) == [expected], (f, g)
        assert _crossings(_segment(g), [_segment(f)]) == [expected], (g, f)
        assert tuple_content((f, g)) == expected, (f, g)
        assert tuple_content((g, f)) == expected, (g, f)
        assert _content([Facet(*f), Facet(*g)]) == expected
        hits += expected
    assert 2_000 < hits < 8_000
    v = ((0.5, 0.5), 0.25, (1.0, 0.0))
    assert tuple_content((v, ((0.75, 0.5), 0.25, (0.0, 1.0)))) == 1.0
    assert tuple_content((v, ((0.75 + 2.0 ** -52, 0.5), 0.25, (0.0, 1.0)))) == 0.0
    assert tuple_content((v, v)) == 0.0  # parallel, though they overlap
    # one segment against a list: one 0.0 or 1.0 each, in order, and 0.0
    # for a segment of its own normal
    cases = list(itertools.islice(_crossing_cases(), 200))
    segments = [_segment(g) for _, g in cases]
    for f, _ in cases[:20]:
        assert _crossings(_segment(f), segments) == [
            0.0 if f[2] == g[2] else _exact_crossing(f, g) for _, g in cases]


def test_window():
    w = Window.cube(2.0, 3)
    assert w.d == 3
    assert w.volume == pytest.approx(8.0)
    assert w.contains((0.0, 2.0, 1.0))
    assert not w.contains((0.0, 2.0001, 1.0))
    with pytest.raises(ValueError):
        Window(((0.0, 0.0),))
