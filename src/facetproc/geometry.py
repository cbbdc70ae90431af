"""Axis-aligned facet geometry.

A facet is a bounded piece of a hyperplane in R^d: a center z, a half-extent
r > 0, and an orientation given either by a canonical axis index (the normal
direction e_i, any d >= 2) or by a unit normal vector (d = 2 only).  The facet
is the sup-norm ball of radius r around z inside its hyperplane, i.e. an
axis-aligned (d-1)-cube for canonical orientations.

The intersection content of canonical facets has one formula in two forms:
canonical_content over whole batches of facet tuples held as arrays, and
tuple_content over one tuple in plain Python, bit for bit the same value.
tuple_content is the one scalar kernel for every facet tuple: it also gives
the 0-or-1 crossing of two d = 2 segments with a vector normal, through the
one crossing kernel, _crossings, which tests one segment (_segment: an
endpoint and the direction to the other) against a list of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Facet:
    """One facet: center, half-extent, orientation.

    orientation is an int axis index in [0, d) for canonical normals, or a
    unit normal (nx, ny) with the first nonzero coordinate positive (d = 2
    only).  The facet occupies {s : s[axis] = z[axis], max_c |s_c - z_c| <= r}
    for canonical orientation, and the segment z + t * perp(normal),
    |t| <= r, in d = 2.
    """

    center: tuple[float, ...]
    half_extent: float
    orientation: int | tuple[float, float]

    def __post_init__(self):
        center = tuple(map(float, self.center))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_extent", float(self.half_extent))
        d = len(center)
        if d < 2:
            raise ValueError("facets need ambient dimension d >= 2")
        if not all(map(math.isfinite, center)):
            raise ValueError(f"facet center {center} is not finite")
        if not 0 < self.half_extent < math.inf:
            raise ValueError("half_extent must be positive and finite")
        if isinstance(self.orientation, (int, np.integer)) \
                and not isinstance(self.orientation, bool):
            object.__setattr__(self, "orientation", int(self.orientation))
            if not 0 <= self.orientation < d:
                raise ValueError(f"canonical axis {self.orientation} outside [0, {d})")
        else:
            normal = tuple(map(float, self.orientation))
            if d != 2 or len(normal) != 2:
                raise ValueError("vector orientations are supported in d = 2 only")
            norm = math.hypot(*normal)
            if not abs(norm - 1.0) <= 1e-9:  # a NaN normal is not one
                raise ValueError("orientation normal must be a unit vector")
            if normal[0] < 0 or (normal[0] == 0 and normal[1] < 0):
                raise ValueError("normal must have its first nonzero coordinate positive")
            object.__setattr__(self, "orientation", normal)

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def is_canonical(self) -> bool:
        return isinstance(self.orientation, int)


@dataclass(frozen=True)
class Window:
    """Axis-aligned observation window, a product of closed intervals."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if len(bounds) < 2:
            raise ValueError("window needs dimension d >= 2")
        for lo, hi in bounds:
            if not hi > lo:
                raise ValueError("window intervals must have positive length")

    @classmethod
    def cube(cls, side: float, d: int) -> "Window":
        return cls(tuple((0.0, float(side)) for _ in range(d)))

    @property
    def d(self) -> int:
        return len(self.bounds)

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in self.bounds:
            v *= hi - lo
        return v

    def contains(self, point: Sequence[float]) -> bool:
        return all(lo <= p <= hi for (lo, hi), p in zip(self.bounds, point))


def facet_measure(facet: Facet) -> float:
    """(d-1)-dimensional measure of a single facet: (2r)^(d-1)."""
    return (2.0 * facet.half_extent) ** (facet.d - 1)


def canonical_content(centers: np.ndarray, extents: np.ndarray,
                      axes: np.ndarray) -> np.ndarray:
    """Intersection content of K tuples of j canonical facets: centers
    (K, j, d), extents (K, j) and integer axes (K, j) to K floats.

    One facet gives (2r)^(d-1).  Otherwise each coordinate contributes,
    in coordinate order: the closed containment indicator of the fixed
    value if exactly one facet is normal to it, the interval overlap if
    none is, and 0 if two are (parallel facets, so also any j > d).
    """
    _, j, d = centers.shape
    if j == 1:
        # Python's pow, as facet_measure uses: numpy's may round otherwise
        r, inverse = np.unique(extents[:, 0], return_inverse=True)
        return np.array([(2.0 * v) ** (d - 1) for v in r.tolist()])[inverse]
    r = extents[..., None]
    lo = (centers - r).max(axis=1)
    hi = (centers + r).min(axis=1)
    normal = axes[..., None] == np.arange(d)
    n_normal = normal.sum(axis=1)
    fixed = (centers * normal).sum(axis=1)
    factor = np.where(n_normal == 0, np.maximum(0.0, hi - lo),
                      (n_normal == 1) & (lo <= fixed) & (fixed <= hi))
    measure = factor[:, 0]
    for c in range(1, d):
        measure = measure * factor[:, c]
    return measure


def tuple_content(facets: Sequence[tuple]) -> float:
    """Intersection content of one tuple of distinct facets, each given as
    a (center, half_extent, orientation) triple.

    One facet gives (2r)^(d-1), and more than d facets give 0.  A canonical
    tuple gives the value canonical_content gives it, bit for bit: the same
    coordinate factors multiply in coordinate order; a factor of 1 is
    skipped and a factor of 0 ends the product, neither of which changes a
    bit.  A d = 2 pair with a vector normal gives the 0-or-1 closed-segment
    crossing, 0 for parallel segments.
    """
    d = len(facets[0][0])
    if len(facets) == 1:
        return (2.0 * facets[0][1]) ** (d - 1)
    if len(facets) > d:
        return 0.0
    if d == 2:
        f, g = facets
        if type(f[2]) is tuple or type(g[2]) is tuple:
            return _crossings(_segment(f), (_segment(g),))[0]
    measure = 1.0
    for c in range(d):
        lo, hi, fixed = -math.inf, math.inf, None
        for z, r, axis in facets:
            v = z[c]
            if v - r > lo:
                lo = v - r
            if v + r < hi:
                hi = v + r
            if axis == c:
                if fixed is not None:
                    return 0.0  # parallel facets
                fixed = v
        if fixed is None:
            if not hi > lo:
                return 0.0
            measure *= hi - lo
        elif not lo <= fixed <= hi:
            return 0.0
    return measure


def _segment(f: tuple) -> tuple:
    """The d = 2 segment of a facet triple: its first endpoint (ax, ay),
    its direction b - a to the second endpoint (rx, ry), and its
    orientation, as (ax, ay, rx, ry, orientation).  The endpoints are the
    center -+ r times the normal turned a quarter."""
    (cx, cy), r, orientation = f
    if isinstance(orientation, int):
        nx, ny = (1.0, 0.0) if orientation == 0 else (0.0, 1.0)
    else:
        nx, ny = orientation
    # direction along the segment: perpendicular of the normal
    tx, ty = -ny, nx
    ax, ay = cx - r * tx, cy - r * ty
    return ax, ay, (cx + r * tx) - ax, (cy + r * ty) - ay, orientation


def _crossings(s: tuple, segments) -> list[float]:
    """The 0-or-1 closed-segment crossing of segment s (a _segment) with
    each of segments, in order: 0.0 for a segment of s's orientation
    (parallel facets, s itself among them) or of a parallel direction."""
    ax, ay, rx, ry, o = s
    out = []
    for cx, cy, sx, sy, other in segments:
        denom = rx * sy - ry * sx
        if other == o or denom == 0.0:
            out.append(0.0)
            continue
        qx, qy = cx - ax, cy - ay
        t = (qx * sy - qy * sx) / denom
        out.append(1.0 if 0.0 <= t <= 1.0
                   and 0.0 <= (qx * ry - qy * rx) / denom <= 1.0 else 0.0)
    return out


def _check_int(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer >= least; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
