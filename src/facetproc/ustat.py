"""Interaction U-statistics of facet patterns.

G_j(x) sums the (d-j)-dimensional intersection content over unordered
j-subsets of x.  Only subsets with pairwise distinct orientation classes can
contribute, so enumeration is grouped by orientation: choose j classes, then
one facet per class.

_subset_terms is the one enumeration of increment terms: the contents, by
geometry.tuple_content in plain Python, of the subsets holding a head facet
and one facet from each of j-1 other classes.  g_increment sums them per
order, model.log_conditional_intensity weights them by nu, and the chains
in sampler take theirs on their own groups (private: it runs on every chain
step, and perfbench's tracer wraps the public functions).  Whole canonical
patterns stay on geometry.canonical_content: g_vector scores all subsets of
an order in one call, faster than the Python sum at a few dozen facets, and
the moment integrals use the same kernel.  The kernels agree bit for bit.

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

from .geometry import Facet, canonical_content, facet_measure, tuple_content


@dataclass(frozen=True)
class FacetPattern:
    """Immutable simple facet pattern: its facets, the dimension d and the
    facets as (center, half_extent, orientation) triples grouped by
    orientation class, keyed by axis index or by normal."""

    facets: tuple[Facet, ...]
    d: int
    groups: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        facets = tuple(self.facets)
        object.__setattr__(self, "facets", facets)
        if len(set(facets)) != len(facets):
            raise ValueError("pattern must be simple (duplicate facet)")
        for f in facets:
            if f.d != self.d:
                raise ValueError("facet dimension does not match pattern dimension")
        groups: dict = {}
        for f in facets:
            groups.setdefault(f.orientation_key(), []).append(
                (f.center, f.half_extent, f.orientation))
        object.__setattr__(self, "groups",
                           {k: tuple(v) for k, v in groups.items()})

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
        return all(f.is_canonical for f in self.facets)

    def orientation_counts(self) -> np.ndarray:
        """Facet count per canonical axis (canonical patterns only)."""
        if not self.is_canonical:
            raise ValueError("orientation counts are defined for canonical patterns")
        counts = np.zeros(self.d, dtype=np.intp)
        for key, fs in self.groups.items():
            counts[key] = len(fs)
        return counts

    def with_facet(self, u: Facet) -> "FacetPattern":
        if u in self.facets:
            raise ValueError("facet already present")
        return FacetPattern(self.facets + (u,), self.d)

    def without_index(self, i: int) -> "FacetPattern":
        return FacetPattern(self.facets[:i] + self.facets[i + 1:], self.d)


def _subset_terms(groups: dict, m: int, head: tuple | None = None) -> list[float]:
    """Intersection contents of the subsets that take one triple from each
    of m orientation classes of groups (lists of (center, half_extent,
    orientation) triples by class) and the triple head if given, whose own
    class is then skipped.  With m = j - 1 these are the order-j increment
    terms of adding head to the groups' pattern."""
    if head is None:
        return [tuple_content(rest)
                for combo in itertools.combinations(groups.values(), m)
                for rest in itertools.product(*combo)]
    if not m:  # head alone, as tuple_content takes it: the chains' G_1 term
        return [(2.0 * head[1]) ** (len(head[0]) - 1)]
    others = [fs for key, fs in groups.items() if key != head[2]]
    return [tuple_content((head, *rest))
            for combo in itertools.combinations(others, m)
            for rest in itertools.product(*combo)]


def g_vector(x: FacetPattern) -> np.ndarray:
    """The vector (G_1, ..., G_d) of interaction U-statistics: per order,
    one canonical_content call over the pattern's arrays for a canonical
    pattern, the fsum of _subset_terms otherwise."""
    g = np.zeros(x.d)
    if x.facets:
        g[0] = math.fsum(facet_measure(f) for f in x.facets)
    classes = list(x.groups.values())
    canonical = x.is_canonical
    if canonical and len(classes) > 1:
        triples = [f for fs in classes for f in fs]
        arrays = [np.array([f[i] for f in triples]) for i in range(3)]
        stops = itertools.accumulate(len(fs) for fs in classes)
        index = [np.arange(stop - len(fs), stop) for fs, stop in zip(classes, stops)]
    for j in range(2, min(x.d, len(classes)) + 1):
        if not canonical:
            g[j - 1] = math.fsum(_subset_terms(x.groups, j))
            continue
        terms: list[float] = []
        for combo in itertools.combinations(index, j):
            rows = np.stack(np.meshgrid(*combo, indexing="ij"), axis=-1).reshape(-1, j)
            terms.extend(canonical_content(*(a[rows] for a in arrays)).tolist())
        g[j - 1] = math.fsum(terms)
    return g


def g_increment(x: FacetPattern, u: Facet, orders: Sequence[int] | None = None) -> np.ndarray:
    """Per-order difference g_vector(x + u) - g_vector(x).

    The fsum of _subset_terms with head u: cost O(n^(j-1)) per order j.
    Entries for orders not requested are NaN.
    """
    if u in x.facets:
        raise ValueError("facet already present")
    if u.d != x.d:
        raise ValueError("facet dimension does not match pattern dimension")
    d = x.d
    wanted = range(1, d + 1) if orders is None else sorted(set(orders))
    out = np.full(d, np.nan)
    head = (u.center, u.half_extent, u.orientation)
    for j in wanted:
        if not 1 <= j <= d:
            raise ValueError(f"order {j} outside 1..{d}")
        out[j - 1] = math.fsum(_subset_terms(x.groups, j - 1, head))
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
