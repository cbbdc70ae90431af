"""Interaction U-statistics of facet patterns.

G_j(x) sums the (d-j)-dimensional intersection content over unordered
j-subsets of x.  Only subsets with pairwise distinct orientation classes can
contribute, so enumeration is grouped by orientation: choose j classes, then
one facet per class.  One-point increments enumerate only the subsets that
contain the new facet; model.log_conditional_intensity takes them (the
chains take theirs in sampler, in plain Python).

All reductions go through math.fsum (correctly rounded), so sums are
order-independent and preserve the termwise ordering needed by the exact
repulsiveness comparisons downstream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import (Facet, canonical_content, facet_measure,
                       intersection_measure)


@dataclass(frozen=True)
class FacetPattern:
    """Immutable simple facet pattern with cached orientation grouping."""

    facets: tuple[Facet, ...]
    d: int
    groups: dict = field(init=False, repr=False, compare=False)
    centers: np.ndarray | None = field(init=False, repr=False, compare=False)
    extents: np.ndarray | None = field(init=False, repr=False, compare=False)
    axes: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        facets = tuple(self.facets)
        object.__setattr__(self, "facets", facets)
        if len(set(facets)) != len(facets):
            raise ValueError("pattern must be simple (duplicate facet)")
        for f in facets:
            if f.d != self.d:
                raise ValueError("facet dimension does not match pattern dimension")
        groups: dict = {}
        for i, f in enumerate(facets):
            groups.setdefault(f.orientation_key(), []).append(i)
        object.__setattr__(self, "groups",
                           {k: np.asarray(v, dtype=np.intp) for k, v in groups.items()})
        if facets and all(f.is_canonical for f in facets):
            object.__setattr__(self, "centers", np.array([f.center for f in facets]))
            object.__setattr__(self, "extents", np.array([f.half_extent for f in facets]))
            object.__setattr__(self, "axes", np.array([f.orientation for f in facets]))
        else:
            object.__setattr__(self, "centers", None)
            object.__setattr__(self, "extents", None)
            object.__setattr__(self, "axes", None)

    @classmethod
    def of(cls, facets, d: int | None = None) -> "FacetPattern":
        facets = tuple(facets)
        if d is None:
            if not facets:
                raise ValueError("dimension required for an empty pattern")
            d = facets[0].d
        return cls(facets, d)

    @property
    def n(self) -> int:
        return len(self.facets)

    @property
    def is_canonical(self) -> bool:
        return self.centers is not None or not self.facets

    def orientation_counts(self) -> np.ndarray:
        """Facet count per canonical axis (canonical patterns only)."""
        if not self.is_canonical:
            raise ValueError("orientation counts are defined for canonical patterns")
        counts = np.zeros(self.d, dtype=np.intp)
        for key, idx in self.groups.items():
            counts[key] = len(idx)
        return counts

    def with_facet(self, u: Facet) -> "FacetPattern":
        if u in self.facets:
            raise ValueError("facet already present")
        return FacetPattern(self.facets + (u,), self.d)

    def without_index(self, i: int) -> "FacetPattern":
        return FacetPattern(self.facets[:i] + self.facets[i + 1:], self.d)


def _subset_rows(index_groups: Sequence[np.ndarray]) -> np.ndarray:
    """Cartesian product of index groups as an (K, j) row array."""
    mesh = np.meshgrid(*index_groups, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(index_groups))


def _content_sum(x: FacetPattern, arrays, keys, m: int,
                 u: Facet | None = None) -> float:
    """fsum of the intersection contents of the subsets taking one facet
    from each of m of the given orientation classes of x, and u if given.
    arrays holds the canonical centers, extents and axes of x (then u),
    or is None for patterns with non-canonical facets."""
    tail, extra = ([], []) if u is None else ([np.array([x.n])], [u])
    terms: list[float] = []
    for combo in itertools.combinations(keys, m):
        groups = [x.groups[k] for k in combo]
        if arrays is not None:
            rows = _subset_rows(groups + tail)
            terms.extend(canonical_content(*(a[rows] for a in arrays)).tolist())
        else:
            terms.extend(intersection_measure([x.facets[i] for i in members]
                                              + extra)
                         for members in itertools.product(*groups))
    return math.fsum(terms)


def g_vector(x: FacetPattern) -> np.ndarray:
    """The vector (G_1, ..., G_d) of interaction U-statistics."""
    g = np.zeros(x.d)
    keys = list(x.groups)
    if x.facets:
        g[0] = math.fsum(facet_measure(f) for f in x.facets)
    arrays = (x.centers, x.extents, x.axes) if x.is_canonical else None
    for j in range(2, min(x.d, len(keys)) + 1):
        g[j - 1] = _content_sum(x, arrays, keys, j)
    return g


def g_increment(x: FacetPattern, u: Facet, orders: Sequence[int] | None = None) -> np.ndarray:
    """Per-order difference g_vector(x + u) - g_vector(x).

    Enumerates only subsets containing u: cost O(n^(j-1)) per order j.
    Entries for orders not requested are NaN.
    """
    if u in x.facets:
        raise ValueError("facet already present")
    if u.d != x.d:
        raise ValueError("facet dimension does not match pattern dimension")
    d = x.d
    wanted = range(1, d + 1) if orders is None else sorted(set(orders))
    out = np.full(d, np.nan)
    arrays = None
    if x.is_canonical and u.is_canonical and x.n:
        arrays = (np.vstack([x.centers, [u.center]]),
                  np.append(x.extents, u.half_extent),
                  np.append(x.axes, u.orientation))
    u_key = u.orientation_key()
    other_keys = [k for k in x.groups if k != u_key]
    for j in wanted:
        if not 1 <= j <= d:
            raise ValueError(f"order {j} outside 1..{d}")
        if j == 1:
            out[0] = facet_measure(u)
        elif j - 1 > len(other_keys):
            out[j - 1] = 0.0
        else:
            out[j - 1] = _content_sum(x, arrays, other_keys, j - 1, u)
    return out


def u_statistic(x: FacetPattern, kernel: Callable[..., float], k: int) -> float:
    """Sum of a symmetric kernel over ordered k-tuples of distinct facets.

    Computed as k! times the unordered-subset sum; k > n gives the empty
    sum 0.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if k > x.n:
        return 0.0
    total = math.fsum(kernel(*s) for s in itertools.combinations(x.facets, k))
    return math.factorial(k) * total
