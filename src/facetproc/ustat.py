"""The interaction U-statistics G_j of facet patterns and their increments.

G_j(x) sums the (d-j)-dimensional intersection content over unordered
j-subsets of x.  Only subsets with pairwise distinct orientation classes can
contribute, so enumeration is grouped by orientation: choose j classes, then
one facet per class.

_subset_terms is the one enumeration of increment terms: the contents, by
geometry.tuple_content in plain Python, of the subsets holding a head facet
and one facet from each of j-1 other classes.  g_increment sums them per
order, model.log_conditional_intensity weights them by nu, and the chains
in sampler take theirs on their own groups (private: it runs on every chain
step, and perfbench's tracer wraps the public functions).  g_vector of one
pattern, canonical or not, sums them too (with no head), order by order.

_subset_sums is its array twin for many canonical patterns at once: facet
arrays tagged with their pattern, every subset row of an order, for all
patterns together, through geometry.canonical_content in bounded chunks,
and one fsum per pattern.  The reference draws of e1
(sampler._poisson_g_vectors) and of the Monte Carlo expected increment
(moments) are scored as whole batches.  The kernels agree bit for bit, and
fsum of the same terms is one correctly rounded value, so a pattern scored
in a batch has the bits of its g_vector.

All reductions go through math.fsum (correctly rounded), so sums are
order-independent and preserve the termwise ordering needed by the exact
repulsiveness comparisons downstream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import Facet, _check_int, canonical_content, tuple_content


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
        groups: dict = {}
        for f in facets:
            if f.d != self.d:
                raise ValueError("facet dimension does not match pattern dimension")
            groups.setdefault(f.orientation, []).append(
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

    def with_facet(self, u: Facet) -> "FacetPattern":
        if u in self.facets:
            raise ValueError("facet already present")
        return FacetPattern(self.facets + (u,), self.d)

    def without_index(self, i: int) -> "FacetPattern":
        return FacetPattern(self.facets[:i] + self.facets[i + 1:], self.d)


# Row chunks of the batched enumerations (here and in the moment
# quadrature) hold at most this many elements, so each of their
# temporaries stays near 8 MiB.
_CHUNK_ELEMENTS = 1 << 20


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


def _subset_sums(centers: np.ndarray, extents: np.ndarray, axes: np.ndarray,
                 owner: np.ndarray, n_patterns: int, orders: Sequence[int],
                 head: tuple | None = None) -> np.ndarray:
    """Per pattern and per m in orders, the fsum of the contents that
    _subset_terms(groups, m, head) gives: n_patterns canonical patterns
    whose facets are the rows of centers (N, d), extents (N,) and integer
    axes (N,), facet i in pattern owner[i].  Returns (n_patterns,
    len(orders)).

    The facets are grouped by (owner, axis), with no sort if they already
    are, so each pattern's class is one run of rows.  For each m, every
    (pattern, class combination) block holds the product of its class
    counts as subsets; their rows are the mixed-radix expansion of each
    block's row numbers into one index per class, plus the head's if
    given.  All blocks of an order go through canonical_content in row
    chunks of _CHUNK_ELEMENTS array elements; a row's content does not
    depend on the others, and each pattern's rows are contiguous, so its
    terms are summed by fsum once its last chunk is done."""
    d = centers.shape[1]
    key = owner * d + axes
    if (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        centers, extents, axes, key = (centers[order], extents[order],
                                       axes[order], key[order])
    counts = np.bincount(key, minlength=n_patterns * d).reshape(n_patterns, d)
    starts = (np.cumsum(counts) - counts.reshape(-1)).reshape(n_patterns, d)
    classes = range(d)
    if head is not None:  # the head is the last row, a column of every subset
        centers = np.concatenate((centers, [head[0]]))
        extents = np.append(extents, head[1])
        axes = np.append(axes, head[2])
        classes = [c for c in classes if c != head[2]]
    sums = np.zeros((n_patterns, len(orders)))
    for col, m in enumerate(orders):
        combos = list(itertools.combinations(classes, m))
        if not combos:
            continue
        combos = np.array(combos, dtype=np.intp).reshape(len(combos), m)
        blocks = n_patterns * len(combos)
        # per block: its class counts (the radices), the first row of
        # each class and the block's first subset number
        radix = counts[:, combos].reshape(blocks, m)
        size = radix.prod(axis=1)
        ends = np.cumsum(size)
        params = np.concatenate((radix, starts[:, combos].reshape(blocks, m),
                                 (ends - size)[:, None]), axis=1)
        pattern_ends = ends[len(combos) - 1::len(combos)].tolist()
        width = m + (head is not None)
        step = max(1, _CHUNK_ELEMENTS // (width * d))
        total = pattern_ends[-1] if n_patterns else 0
        pending: list[float] = []  # terms from row base on
        base = done = 0  # the first pending row; patterns summed
        for lo in range(0, total, step):
            rows = np.arange(lo, min(lo + step, total))
            block = params[np.searchsorted(ends, rows, side="right")]
            local = rows - block[:, 2 * m]
            index = np.empty((width, len(rows)), dtype=np.intp)
            if head is not None:
                index[m] = len(axes) - 1
            for i in range(m - 1, -1, -1):
                local, index[i] = np.divmod(local, block[:, i])
                index[i] += block[:, m + i]
            # slot-major gathers: canonical_content reduces over the slot
            # axis, fast when each slot is one contiguous block
            pending += canonical_content(centers[index].transpose(1, 0, 2),
                                         extents[index].T,
                                         axes[index].T).tolist()
            top = lo + len(rows)
            while done < n_patterns and pattern_ends[done] <= top:
                stop = pattern_ends[done] - base
                sums[done, col] = math.fsum(pending[:stop])
                del pending[:stop]
                base += stop
                done += 1
    return sums


def g_vector(x: FacetPattern) -> np.ndarray:
    """The vector (G_1, ..., G_d) of interaction U-statistics: G_j is the
    fsum of _subset_terms of order j (for G_1, the facet measures)."""
    return np.array([math.fsum(_subset_terms(x.groups, j))
                     for j in range(1, x.d + 1)])


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
    for j in () if orders is None else orders:
        _check_int("order", j, 1)
        if j > d:
            raise ValueError(f"order {j} outside 1..{d}")
    wanted = range(1, d + 1) if orders is None else sorted(set(orders))
    out = np.full(d, np.nan)
    head = (u.center, u.half_extent, u.orientation)
    for j in wanted:
        out[j - 1] = math.fsum(_subset_terms(x.groups, j - 1, head))
    return out
