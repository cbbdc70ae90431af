"""Reference Poisson sampling and birth-death Metropolis-Hastings.

Move mix is 1/2 birth, 1/2 death.  A birth proposes u ~ lambda/T and accepts
with min(1, lambda*(u;x) * aT/(n+1)); a death removes a uniformly chosen
facet xi and accepts with min(1, n/(aT * lambda*(xi; x\\xi))); death from the
empty pattern is an automatic rejection.  Every step draws exactly d+4
uniforms (move, aux, d center coordinates, size, acceptance) regardless of
the branch taken.

Which rule gives the increments (run_chain picks it; there is no option,
and all three give bit-identical trajectories and G from the same seed):

- _CountsRule when _counts_eligible holds: a count-determined model
  (model._count_determined: canonical axes, one half-extent r, a window
  no wider than r) in d <= 3, where log lambda*, G_1 and G_d are closed
  forms in the orientation counts and, in d = 3, G_2 is a sum of pair
  overlaps;
- _PairCountsRule, its subclass, in its place in d = 3 with nu_2 != 0;
- _GeneralRule otherwise: every model, the hemisphere law, multi-atom
  sizes and d >= 4 included.

Blocks and trace.  One loop, _run, takes the steps of every chain, a
block of rows of uniforms at a time.  The rule takes each block once
(load), gives log lambda* of each proposal by row index, and applies the
accepted moves in place on one _ChainState, logging what G and the
occupancy mask need.  A step only marks the row of an accepted move;
after each block numpy fills the block's kept states into the trace from
those marks and the rule's log (kept).  No Facet or FacetPattern is built
per step, only for kept samples.

Exact G.  Every rule sums each order of G exactly, as an integer number
of a fixed unit, a fixed-point accumulator (Kulisch 2008): a term is
added when its subset appears and subtracted, bit for bit the same value,
when a member leaves, so the correctly rounded conversion of the sum is
the correctly rounded sum of the current terms, the value g_vector
returns.  The general rule holds each order as a running Python int in
units of 2^-1074 (_units).  The counts rules count G_2 in units of a
power of two fixed by the facet size (the proof and the conversion bound
are in _CountsRule): _PairCountsRule as a running Python int, since its
acceptance takes each move's pair sum, and _CountsRule, whose moves need
no G_2, once per block, in int64 numpy sums over the pairs its facets
form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Facet, _crossings, _segment
from .model import ModelParams, _check_int, _count_determined, _facet_list
from .ustat import FacetPattern, _subset_sums, _subset_terms

_BLOCK = 1 << 15
_PAIRS = 1 << 13  # pairs per chunk of the d = 3 counts rule's block pass
_LOW = (1 << 28) - 1  # the low part of a pair's units
_MAX_TRACE = 5_000_000  # retained states per chain
_LOG_STEPS = 1_000_000  # chains this long log their progress once per block

logger = logging.getLogger(__name__)


def make_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, chain index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chain_index,))))


def _uniform_block(p: ModelParams, rng) -> np.ndarray:
    """The uniforms of one reference draw: N ~ Poisson(aT), then an
    (N, d + 2) block, one row (aux, d center coordinates, size) per
    facet."""
    n = int(rng.poisson(p.a * p.total_intensity))
    return rng.random((n, p.d + 2))


def sample_poisson(p: ModelParams, rng) -> FacetPattern:
    """One draw of the reference Poisson process at activity a.

    N ~ Poisson(a*T); centers i.i.d. chi/T, sizes from Q, orientations from V,
    all independent: one uniform block, mapped through the laws' array
    samplers (ModelParams.sample_facets_from_uniforms).  Batches of draws
    take the same blocks, one per generator, through _poisson_arrays.
    """
    mapped = p.sample_facets_from_uniforms(_uniform_block(p, rng))
    return FacetPattern.of(_facet_list(*mapped), p.d)


def _poisson_arrays(p: ModelParams, rngs: list) -> tuple:
    """One reference draw per generator of rngs, in order (a generator
    listed k times gives k successive draws), as the arrays of a
    canonical model: centers (N, d), half-extents (N,), axes (N,) and
    each facet's draw index, the facets of each draw in sample_poisson's
    order."""
    blocks = [_uniform_block(p, rng) for rng in rngs]
    centers, extents, axes = p.sample_facets_from_uniforms(
        np.concatenate(blocks))
    owner = np.repeat(np.arange(len(blocks)), [len(u) for u in blocks])
    return centers, extents, axes, owner


def _poisson_g_vectors(p: ModelParams, rngs: list) -> np.ndarray:
    """g_vector of one reference draw per generator of rngs, as rows:
    all draws scored by one ustat._subset_sums.  The model's orientation
    law must be canonical (as ModelParams.special's is)."""
    *arrays, owner = _poisson_arrays(p, rngs)
    return _subset_sums(*arrays, owner, len(rngs), range(1, p.d + 1))


@dataclass(frozen=True)
class ChainConfig:
    n_steps: int
    seed: int = 0
    burn_in: int | None = None  # default 10*aT steps
    thin: int | None = None     # default max(1, aT/10)
    initial: FacetPattern | None = None  # default: Poisson draw
    keep_samples: bool = False
    chain_index: int = 0

    def resolve(self, p: ModelParams) -> tuple[int, int]:
        a_t = p.a * p.total_intensity
        burn = self.burn_in if self.burn_in is not None else int(round(10 * a_t))
        thin = self.thin if self.thin is not None else max(1, int(round(a_t / 10)))
        for name, value, least in (("n_steps", self.n_steps, 1), ("burn_in", burn, 0),
                                   ("thin", thin, 1), ("seed", self.seed, 0),
                                   ("chain_index", self.chain_index, 0)):
            _check_int(name, value, least)
        if not self.n_steps > burn:
            raise ValueError(f"need n_steps > burn_in, got n_steps = "
                             f"{self.n_steps} and burn_in = {burn}")
        if (self.n_steps - burn) // thin == 0:
            raise ValueError(f"the chain keeps no state: n_steps = "
                             f"{self.n_steps}, burn_in = {burn} and thin = "
                             f"{thin} leave fewer than thin steps after "
                             f"burn-in")
        if (self.n_steps - burn) // thin > _MAX_TRACE:
            raise ValueError(f"trace too large: n_steps = {self.n_steps}, "
                             f"burn_in = {burn} and thin = {thin} keep more "
                             f"than {_MAX_TRACE} states; increase thin")
        return burn, thin


@dataclass
class ChainDiagnostics:
    """Acceptance counters and the retained-sample trace."""

    d: int
    engine: str
    burn_in: int
    thin: int
    birth_proposed: int = 0
    birth_accepted: int = 0
    death_proposed: int = 0
    death_accepted: int = 0
    trace_step: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    trace_n: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    trace_g: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    trace_accepted: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    trace_birth: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    trace_occupancy: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def birth_rate(self) -> float:
        return self.birth_accepted / self.birth_proposed if self.birth_proposed else 0.0

    @property
    def death_rate(self) -> float:
        return self.death_accepted / self.death_proposed if self.death_proposed else 0.0

    @property
    def n_retained(self) -> int:
        return len(self.trace_step)

    def occupancy_histogram(self) -> dict[tuple[int, ...], int]:
        """Counts of which canonical axes are present, per retained state."""
        masks, counts = np.unique(self.trace_occupancy[self.trace_occupancy >= 0],
                                  return_counts=True)
        return {tuple(i for i in range(self.d) if m >> i & 1): c
                for m, c in zip(masks.tolist(), counts.tolist())}

    def orientation_counts(self) -> np.ndarray:
        """How many canonical axes each retained state with a mask uses."""
        masks = self.trace_occupancy[self.trace_occupancy >= 0]
        return sum((masks >> axis) & 1 for axis in range(self.d))

    def occupancy_fraction(self, max_orientations: int) -> float:
        """Fraction of retained states using at most that many orientations."""
        pop = self.orientation_counts()
        if not len(pop):
            return math.nan
        return float((pop <= max_orientations).mean())

    def mean_se(self, series: np.ndarray) -> tuple[float, float]:
        return float(np.mean(series)), batch_means_se(series)

    def n_mean_se(self) -> tuple[float, float]:
        return self.mean_se(self.trace_n.astype(float))

    def g_mean_se(self, order: int) -> tuple[float, float]:
        _check_int("order", order, 1)
        if order > self.d:
            raise ValueError(f"order must be at most d = {self.d}, got {order}")
        return self.mean_se(self.trace_g[:, order - 1])


def batch_means_se(values: np.ndarray) -> float:
    """Batch-means standard error of the mean of a correlated series, over
    64 batches (fewer for series shorter than 128); 0.0 if it is constant."""
    values = np.asarray(values, dtype=float)
    m = len(values)
    if m < 4:
        return math.inf
    nb = min(64, m // 2)
    length = m // nb
    used = values[: nb * length]
    if used.min() == used.max():
        return 0.0
    means = used.reshape(nb, length).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(nb))


def _counts_eligible(p: ModelParams) -> bool:
    # orders 1 and d are closed forms in the counts, and the d = 3 order
    # 2 a sum of free-coordinate overlaps over pairs
    return _count_determined(p) and p.d <= 3


def _check_initial(p: ModelParams, x: FacetPattern) -> None:
    """Refuse an initial pattern the model cannot produce."""
    if x.d != p.d:
        raise ValueError("initial pattern dimension mismatch")
    extents = {r for r, w in p.size.atoms if w > 0}
    for f in x.facets:
        if f.half_extent not in extents:
            raise ValueError(f"initial {f}: half-extent not in the size law")
        if f.is_canonical != p.orientation.is_canonical:
            raise ValueError(f"initial {f}: orientation not in the model's law")
        if not p.window.contains(f.center):
            raise ValueError(f"initial {f}: center outside the window")
        if not p.center.in_support(f.center):
            raise ValueError(f"initial {f}: center in a cell of level 0")


def _units(terms) -> int:
    """The exact sum of terms, as an integer in units of 2^-1074: every
    finite float t = n/m, with m = 2^k and k <= 1074, is n 2^(1074-k) of
    them.  The general rule's running G counts in these units."""
    s = 0
    for t in terms:
        if t:
            n, m = t.as_integer_ratio()
            s += n << (1075 - m.bit_length())
    return s


_ONE = 1 << 1074  # 1.0 in units of 2^-1074


def _value(units: int) -> float:
    """The float nearest units * 2^-1074: CPython's int division is
    correctly rounded, subnormals included."""
    return units / _ONE


def _log_or_minus_inf(u: float) -> float:
    """log u, and -inf for the uniform 0.0 (drawn with probability 2^-53),
    where math.log raises."""
    return math.log(u) if u else -math.inf


class _ChainState:
    """A pattern moved in place: the facets in pattern order as (center,
    half_extent, orientation) triples.  The rules extend it with what they
    read: the running G as exact ints, or (the d = 3 counts rule at
    nu_2 = 0) each facet's serial; the d = 2 counts rule holds the center
    of a facet it gave birth to as the list of its raw uniforms."""

    def __init__(self, p: ModelParams):
        self.p = p
        self.d = p.d
        self.facets: list[tuple] = []
        self.center = p.center.sample_from_uniforms

    def _pattern(self) -> FacetPattern:
        return FacetPattern.of([Facet(self.center(z) if type(z) is list else z, r, o)
                                for z, r, o in self.facets], self.d)


class _GeneralRule(_ChainState):
    """Increments of any model.  The rule also keeps its facets grouped by
    orientation class in groups, keyed by axis index or by normal as
    FacetPattern.groups keys them.  For order j the increment is the fsum
    of ustat._subset_terms of the facet and j-1 other classes of groups;
    log lambda* is the fsum of nu_j times these, as
    model.log_conditional_intensity takes it.  Under the hemisphere law
    the rule also keeps segments, each facet's geometry._segment at its
    index in facets: birth computes the proposal's segment, add keeps
    it, death reads it, and the order-2 terms are geometry._crossings of
    it over all kept segments.  Those of its own normal (itself, on a
    death) give 0.0, as no subset holds them, and every term is 0.0 or
    1.0, so fsum and _units take the same bits in any order.

    The constructor places the facets of x and starts the running G at
    G(x), held per order as the int g[j - 1] in units of 2^-1074
    (_units), to which each accepted move adds or from which it takes the
    units of its terms.  birth proposes the facet that load mapped its
    row to, or gives -inf if it is present.  The block's log holds G and
    the mask as the block starts and after each accepted move
    (_snapshot), G as the conversion of g (_value): the fsum of the
    current terms.  Each order's conversion is kept in _values and redone
    only when its int changes."""

    engine = "pattern"

    def __init__(self, p: ModelParams, x: FacetPattern):
        super().__init__(p)
        self.g: list[int] = [0] * p.d
        self.canonical = p.orientation.is_canonical
        self.groups: dict = {}
        self.orders = p.active_orders
        self.nu = [p.nu[j - 1] for j in self.orders]
        self.rest = tuple(j for j in range(1, p.d + 1) if j not in self.orders)
        self._f = None  # the proposed facet
        self._seg = None  # its segment, under the hemisphere law
        self._terms: list[list[float]] = []  # its active orders' terms
        # the segment of each facet, under the hemisphere law
        self.segments: list[tuple] | None = None if self.canonical else []
        for f in x.facets:
            f = (f.center, f.half_extent, f.orientation)
            if self.segments is not None:
                self._seg = _segment(f)
            self._push(f)
        # every subset term of the placed facets, each once
        for j in range(1, self.d + 1):
            self.g[j - 1] = _units(_subset_terms(self.groups, j))
        self._values = [_value(s) for s in self.g]  # G, as floats

    def _push(self, f: tuple) -> None:
        self.facets.append(f)
        self.groups.setdefault(f[2], []).append(f)
        if self.segments is not None:
            self.segments.append(self._seg)

    def _pop(self, i: int) -> tuple:
        f = self.facets.pop(i)
        if self.segments is not None:
            self.segments.pop(i)
        group = self.groups[f[2]]
        group.remove(f)
        if not group:  # the mask reads the keys; a normal rarely recurs
            del self.groups[f[2]]
        return f

    def _mask(self) -> int:
        if not self.canonical:
            return -1 if self.facets else 0
        mask = 0
        for axis in self.groups:
            mask |= 1 << axis
        return mask

    def _order_terms(self, f: tuple, j: int) -> list[float]:
        # under the hemisphere law, order 2 is one kernel call over the
        # kept segments: f's own and any of its normal give 0.0
        if j == 2 and self.segments is not None:
            return _crossings(self._seg, self.segments)
        return _subset_terms(self.groups, j - 1, f)

    def _log_lambda(self, f: tuple) -> float:
        self._terms = [self._order_terms(f, j) for j in self.orders]
        return math.fsum([nu * math.fsum(t)
                          for nu, t in zip(self.nu, self._terms)])

    def _update(self, f: tuple, sign: int) -> None:
        # G += sign * the terms of f, the active orders' from the proposal;
        # an order's float is converted again only if its int changed
        g, values = self.g, self._values
        terms = self._terms + [self._order_terms(f, j) for j in self.rest]
        for j, t in zip(self.orders + self.rest, terms):
            units = _units(t)
            if units:
                g[j - 1] += sign * units
                values[j - 1] = _value(g[j - 1])

    def _snapshot(self) -> None:
        self._gs.extend(self._values)
        self._masks.append(self._mask())

    def load(self, block) -> None:
        mapped = self.p.sample_facets_from_uniforms(block[:, 1:self.d + 3])
        self._z, self._r, self._o = (a.tolist() for a in mapped)
        self._gs, self._masks = [], []  # G and mask, as the block starts
        self._snapshot()                # and after each accepted move

    def birth(self, i: int) -> float:
        f = (tuple(self._z[i]), self._r[i], self._o[i])
        if f in self.groups.get(f[2], ()):
            return -math.inf
        self._f = f
        if self.segments is not None:
            self._seg = _segment(f)
        return self._log_lambda(f)

    def add(self, i: int) -> None:
        self._update(self._f, 1)
        self._push(self._f)
        self._snapshot()

    def death(self, i: int) -> float:
        if self.segments is not None:
            self._seg = self.segments[i]
        return self._log_lambda(self.facets[i])

    def remove(self, i: int) -> None:
        self._update(self._pop(i), -1)
        self._snapshot()

    def kept(self, at: np.ndarray, rows: np.ndarray, born: np.ndarray) -> tuple:
        return np.reshape(self._gs, (-1, self.d))[at], np.array(self._masks)[at]


class _CountsRule(_ChainState):
    """Increments of a counts-eligible model: a facet on axis k has log
    lambda* = nu_1 (2r)^(d-1) + nu_2 Delta G_2 + nu_d prod_{i != k} n_i,
    where n_i counts the facets on axis i and Delta G_2 (d = 3 only) is
    the sum of the facet's pair terms.  This class serves nu_2 = 0, where
    log lambda* is a sum of two floats; _PairCountsRule serves nu_2 != 0.
    G_1 and G_d are closed forms in the counts.  In d = 3 each pair of
    facets on axes k != m meets in the overlap of their free coordinate
    3-k-m, the value tuple_content gives when every center lies within r
    of every other, and G_2 is the sum of these pair terms.

    Pair terms are counted exactly, in units of q = 2^(e-53), where
    2^e <= r < 2^(e+1); every pair term is a multiple of q.  A term is
    t = fl(A - B) with A = fl(w + r) and B = fl(z - r), where w <= z are
    the two centers' free coordinates (swapped otherwise) and z - w is at
    most r, to within the rounding of the window's width, so t >= 0
    (rounding is monotone).  Every float of magnitude at least 2^(e-1) is
    a multiple of q.  If A and B both are that large, A - B is a multiple
    of q, and so is t: it is A - B itself where |A - B| < 2^53 q = 2^e,
    and a float of at least 2^e elsewhere.  Otherwise w + r and z - r both
    lie below 2^(e+3) in magnitude and each rounds by at most 2^(e-51), so
    A - B > r - 2^(e-49) and t >= 2^(e-1).  t * (1/q) is thus an
    integer-valued float, scaled exactly, and int() takes it exactly.
    Also t <= fl(z + r) - fl(z - r) <= 4r < 2^56 q: each rounding moves
    by at most r where floats near z lie at most r apart, and elsewhere
    to z or a neighbour of z at most 2r away.  A valid model has
    r > 2^-700 (its total intensity, at most max chi * r^3, is positive),
    so q and 1/q are normal floats: fl(N) * q, for the exact number N of
    units of the current terms, is the correctly rounded sum of the
    current terms, the value g_vector returns.  No window coordinate
    needs a bound, so no model leaves this rule for it.

    In d = 3 the moves keep only the counts, the facets and each facet's
    serial (serials: how many facets entered before it), and kept takes
    G_2 at the kept states from one pass over the block (_pair_units).
    Event k is the block's k-th accepted move and event 0 its start; each
    facet alive in the block lives from the event of its birth (0 for a
    start facet) to that of its death.  The facets it meets are those born
    while it lives: the start facets after it and a run of the block's
    births.  Each such pair adds its units at the later birth and takes
    them at the first death, so the sum over events 0..k is N at event k.
    The start facets' pairs, about n^2/2, are summed afresh each block:
    no sum crosses blocks.  Each pair's units are split at 2^28 into two
    parts below 2^28, summed per event in int64 (np.add.at, _PAIRS pairs
    at a time, so memory does not grow with the number of pairs) and
    then over the events.  At a state with P pairs on distinct axes the
    two sums H and L lie below 2^28 P: while P < 2^25 both convert
    exactly, and fl(fl(H) 2^28 + fl(L)) rounds once, to fl(N); larger
    states, of about 10^4 facets, convert N as a Python int
    (_scaled_units).  int64 holds H and L while P < 2^35.

    load maps the birth axis of each of a block's rows through the
    orientation law's array sampler; in d = 3 it maps the rows as
    _GeneralRule.load does (ModelParams.sample_facets_from_uniforms), and
    add reads the center of an accepted birth.  In d = 2 load keeps the
    raw center columns, and a birth keeps its uniforms until a pattern is
    built.  load also starts the block's log: the counts as the block
    starts, the axis of each accepted death and, in d = 3, G_2's
    (_start_g2_log: here the facets and serials as the block starts and
    the serial of each accepted death); kept turns it into G and the
    mask of the kept states."""

    engine = "counts"

    def __init__(self, p: ModelParams, x: FacetPattern):
        super().__init__(p)
        self.counts = [0] * p.d
        self.r = p.size.max_extent
        self.dg1 = (2.0 * self.r) ** (p.d - 1)
        # nu1_term + nud * prod is the fsum the general rule takes: a sum of
        # two floats is correctly rounded, an inactive order adds +-0.0
        self.nu1_term = p.nu[0] * self.dg1
        self.nud = p.nu[p.d - 1]
        e = math.frexp(self.r)[1] - 1  # 2^e <= r < 2^(e+1)
        self.q, self.per_q = math.ldexp(1.0, e - 53), math.ldexp(1.0, 53 - e)
        self.serials: list[int] = []  # in d = 3, in pattern order
        self.entered = 0  # the facets entered so far
        for f in x.facets:
            self._enter((f.center, f.half_extent, f.orientation))

    def birth(self, i: int) -> float:
        # c[axis - 1] (and c[axis - 2] in d = 3) are the other axes' counts
        axis, c = self._axes[i], self.counts
        if self.d == 2:
            return self.nu1_term + self.nud * c[axis - 1]
        return self.nu1_term + self.nud * (c[axis - 1] * c[axis - 2])

    def _enter(self, f: tuple) -> None:
        self.counts[f[2]] += 1
        self.facets.append(f)
        if self.d == 3:
            self.serials.append(self.entered)
            self.entered += 1

    def load(self, block) -> None:
        if self.d == 2:  # the rows' axes and raw center uniforms
            axes = self.p.orientation.sample_from_uniform(block[:, 1])
            self._z = block[:, 2:4]
        else:  # the rows' centers and axes, as every reference draw maps them
            self._z, _, axes = self.p.sample_facets_from_uniforms(block[:, 1:6])
        self._birth_axes, self._axes = axes, axes.tolist()
        self._start = self.counts[:]  # the counts as the block starts
        self._died = bytearray()  # the axis of each accepted death
        if self.d == 3:
            self._start_g2_log()

    def _start_g2_log(self) -> None:
        self._first = self.facets[:], self.serials[:], self.entered
        self._dead: list[int] = []  # the serial of each accepted death

    def add(self, i: int) -> None:
        z = self._z[i].tolist()
        self._enter((z if self.d == 2 else tuple(z), self.r, self._axes[i]))

    def death(self, i: int) -> float:
        # x_i's own axis is skipped: the other counts are those of x - x_i
        axis, c = self.facets[i][2], self.counts
        if self.d == 2:
            return self.nu1_term + self.nud * c[axis - 1]
        return self.nu1_term + self.nud * (c[axis - 1] * c[axis - 2])

    def remove(self, i: int) -> None:
        f = self.facets.pop(i)
        self.counts[f[2]] -= 1
        self._died.append(f[2])
        if self.d == 3:
            self._dead.append(self.serials.pop(i))

    def _g2_kept(self, at: np.ndarray, rows: np.ndarray,
                 born: np.ndarray) -> np.ndarray:
        """G_2 at the kept states, from one pass over the block's pairs."""
        high, low = self._pair_units(rows, born)
        return _scaled_units(high[at], low[at], self.q)

    def _pair_units(self, rows: np.ndarray, born: np.ndarray) -> tuple:
        """The high and low sums of G_2's units as the block starts and
        after each accepted move."""
        facets, serials, entered = self._first
        births = rows[born]
        n0, m = len(facets), len(rows)
        # every facet alive in the block: the start facets in pattern
        # order, then the births; the event of its birth and of its death
        # (m + 1 if it outlives the block)
        z = np.concatenate((np.reshape([f[0] for f in facets], (n0, 3)),
                            self._z[births]))
        axes = np.concatenate((np.array([f[2] for f in facets], dtype=np.intp),
                               self._birth_axes[births]))
        born_at = np.concatenate((np.zeros(n0, dtype=np.intp),
                                  np.flatnonzero(born) + 1))
        dies_at = np.full(len(z), m + 1)
        ids = np.concatenate((serials, np.arange(entered, entered + len(births))))
        dies_at[np.searchsorted(ids, self._dead)] = np.flatnonzero(~born) + 1
        # facet f meets f + 1 .. f + partners[f]: born_at is nondecreasing
        partners = np.searchsorted(born_at, dies_at) - np.arange(1, len(z) + 1)
        ends = np.cumsum(partners)  # f's pairs are numbered firsts[f] .. ends[f] - 1
        firsts = ends - partners
        total = int(ends[-1]) if len(z) else 0
        high, low = np.zeros(m + 2, dtype=np.int64), np.zeros(m + 2, dtype=np.int64)
        r, per_q = self.r, self.per_q
        for k0 in range(0, total, _PAIRS):
            k1 = min(k0 + _PAIRS, total)
            # the facets of pairs k0 .. k1 - 1, each repeated per pair
            f0, f1 = np.searchsorted(ends, (k0, k1 - 1), side="right").tolist()
            own = slice(f0, f1 + 1)
            f = np.repeat(np.arange(f0, f1 + 1), np.minimum(ends[own], k1)
                          - np.maximum(firsts[own], k0))
            g = np.arange(k0, k1) - firsts[f] + f + 1
            apart = axes[f] != axes[g]
            f, g = f[apart], g[apart]
            free = 3 - axes[f] - axes[g]
            w, v = z[f, free], z[g, free]
            # _PairCountsRule._pair_sum's floats: min + r less max - r
            units = (((np.minimum(w, v) + r) - (np.maximum(w, v) - r)) * per_q
                     ).astype(np.int64)
            joined, parted = born_at[g], np.minimum(dies_at[f], dies_at[g])
            for sums, part in ((high, units >> 28), (low, units & _LOW)):
                np.add.at(sums, joined, part)
                np.subtract.at(sums, parted, part)
        return np.cumsum(high, out=high), np.cumsum(low, out=low)

    def kept(self, at: np.ndarray, rows: np.ndarray, born: np.ndarray) -> tuple:
        g = np.empty((len(at), self.d))
        if self.d == 3:  # before the counts, so their arrays do not add up
            g[:, 1] = self._g2_kept(at, rows, born)
        # each axis's count as the block starts and after each accepted
        # move, at the kept states; int64 sums and products of counts
        # below 2^53 are exact, and G_1 = n (2r)^(d-1) rounds as the
        # Python int * float does
        axes = self._birth_axes[rows]
        axes[~born] = np.frombuffer(self._died, dtype=np.uint8)
        sign = np.where(born, 1, -1)
        c = [np.cumsum(np.concatenate(([start], np.where(axes == k, sign, 0))))
             [at] for k, start in enumerate(self._start)]
        g[:, 0] = sum(c) * self.dg1
        g[:, -1] = math.prod(c)
        return g, sum((c_k > 0) << k for k, c_k in enumerate(c))


def _scaled_units(high: np.ndarray, low: np.ndarray, q: float) -> np.ndarray:
    """fl(high 2^28 + low) q, elementwise, for int64 high, low >= 0."""
    if max(high.max(), low.max()) < 1 << 53:  # both convert exactly
        g2 = high * 2.0 ** 28
        g2 += low
        g2 *= q
        return g2
    # numpy converts Python ints as float() does: correctly rounded
    return np.array([(h << 28) + lo for h, lo in zip(high.tolist(), low.tolist())],
                    dtype=float) * q


class _PairCountsRule(_CountsRule):
    """The counts rule of a d = 3 model with nu_2 != 0: log lambda* is the
    fsum of nu_1 (2r)^2, nu_2 times the facet's Delta G_2 (its pair sum,
    _pair_sum, times q: the fsum of its pair terms) and nu_3 times the
    product of the other axes' counts: the fsum over orders that
    _GeneralRule takes, where an inactive order adds +-0.0.  birth and
    death take the pair sum, which the acceptance needs, and add and
    remove add it as it is to g2, G_2 as a running int in units of q (the
    proof is in _CountsRule).  The block's log holds g2 as the block
    starts and after each accepted move."""

    def __init__(self, p: ModelParams, x: FacetPattern):
        self.g2 = 0  # G_2 / q; _enter adds the initial facets' pairs
        super().__init__(p, x)
        self.nu2 = p.nu[1]
        self._f = None  # the proposed facet
        self._s = 0  # its pair sum

    def _pair_sum(self, f: tuple) -> int:
        """The sum of the G_2 terms of d = 3 facet f, its overlaps with the
        facets of the flat list on other axes, in units of q."""
        z, r, k = f
        per_q = self.per_q
        s = 0
        for w, _, m in self.facets:
            if m != k:
                free = 3 - k - m
                wf, zf = w[free], z[free]
                # min(zf + r, wf + r) - max(zf - r, wf - r): rounding is
                # monotone, so if wf < zf the min is wf + r and the max
                # zf - r, else zf + r and wf - r (or floats equal to them)
                s += int(((wf + r) - (zf - r) if wf < zf
                          else (zf + r) - (wf - r)) * per_q)
        return s

    def _enter(self, f: tuple) -> None:
        self.counts[f[2]] += 1
        self.g2 += self._pair_sum(f)
        self.facets.append(f)

    def _start_g2_log(self) -> None:
        self._g2 = [self.g2]

    def _log_lambda(self, f: tuple) -> float:
        self._s = s = self._pair_sum(f)
        axis, c = f[2], self.counts
        return math.fsum([self.nu1_term, self.nu2 * (float(s) * self.q),
                          self.nud * float(c[axis - 1] * c[axis - 2])])

    def birth(self, i: int) -> float:
        self._f = (tuple(self._z[i].tolist()), self.r, self._axes[i])
        return self._log_lambda(self._f)

    def add(self, i: int) -> None:
        f = self._f
        self.counts[f[2]] += 1
        self.g2 += self._s
        self.facets.append(f)
        self._g2.append(self.g2)

    def death(self, i: int) -> float:
        return self._log_lambda(self.facets[i])

    def remove(self, i: int) -> None:
        f = self.facets.pop(i)
        self.counts[f[2]] -= 1
        self.g2 -= self._s
        self._died.append(f[2])
        self._g2.append(self.g2)

    def _g2_kept(self, at: np.ndarray, rows: np.ndarray,
                 born: np.ndarray) -> np.ndarray:
        # numpy converts Python ints as float() does
        return np.array(self._g2, dtype=float)[at] * self.q


def _run(rule, n: int, blocks, diag: ChainDiagnostics, samples,
         n_steps: int) -> None:
    """Step from a state of n facets, one step per row of each block (rows
    of d+4 uniforms), n_steps in all.  Counts the moves into diag, fills its
    trace at the steps diag.trace_step lists, appends those states'
    patterns to samples unless it is None, and logs progress once per block
    at INFO if n_steps >= _LOG_STEPS.

    rule.load(block) takes in each block before its steps and starts the
    block's log; no other call sees the block.  rule.birth(i) is
    log lambda*(u; x) of the facet u row i proposes and rule.add(i) adds
    u; rule.death(i) is log lambda*(x_i; x minus x_i) and rule.remove(i)
    removes x_i.  An acceptance uniform of 0.0, whose math.log raises,
    reads as log 0 = -inf: its move is accepted unless the rule gave -inf
    (a birth of a facet present).  Blocks that hold no such uniform, all
    but one in about 2^38, take math.log itself.  The steps only mark the
    rows of accepted moves (and visit the kept rows only for samples).
    After the block, numpy maps each kept row to the last accepted move
    at or before it: at[t] accepted moves of the block lie at or before
    kept row t, so n there is the block's starting n plus the +-1 of those
    moves.
    rule.kept(at, rows, born) gives G and the occupancy mask (the canonical
    axes present; -1 for a non-empty state of the hemisphere law, 0 for
    the empty state) of the kept states, given the rows of the block's
    accepted moves and which of them were births."""
    p = rule.p
    log = math.log
    log_a_t = log(p.a * p.total_intensity)
    logs = [log(k) for k in range(1, n + 2)]  # logs[k] = log(k + 1), k <= n
    load, birth, add, death, remove = (
        rule.load, rule.birth, rule.add, rule.death, rule.remove)
    kept_steps, thin = diag.trace_step, diag.thin
    k = done = b_prop = b_acc = d_acc = 0
    for block in blocks:
        load(block)
        moves = block[:, 0]
        accept_u = block[:, p.d + 3]
        # a block holding an acceptance uniform of 0.0 reads its log as -inf
        log_u = log if accept_u.all() else _log_or_minus_inf
        start = n
        accepted = bytearray(len(block))  # 1 at the rows of accepted moves
        # the block's row of the next kept state, if samples are kept
        keep_i = int(kept_steps[k]) - done - 1 \
            if samples is not None and k < len(kept_steps) else -1
        for i, move, aux, u in zip(range(len(block)), moves.tolist(),
                                   block[:, 1].tolist(), accept_u.tolist()):
            if move < 0.5:
                if log_u(u) < birth(i) + log_a_t - logs[n]:
                    add(i)
                    accepted[i] = 1
                    n += 1
                    if n == len(logs):
                        logs.append(log(n + 1))
            elif n:
                j = int(aux * n)
                if j >= n:
                    j = n - 1
                if log_u(u) < -(death(j) + log_a_t - logs[n - 1]):
                    remove(j)
                    accepted[i] = 1
                    n -= 1
            if i == keep_i:
                samples.append(rule._pattern())
                keep_i += thin
        accepted = np.frombuffer(accepted, dtype=np.bool_)
        rows = np.flatnonzero(accepted)
        born = moves[rows] < 0.5
        births = int(np.count_nonzero(born))
        b_acc += births
        d_acc += len(rows) - births
        end = int(np.searchsorted(kept_steps, done + len(block), side="right"))
        if end > k:
            kept = slice(k, end)
            kept_rows = kept_steps[kept] - done - 1  # their rows in the block
            at = np.cumsum(accepted)[kept_rows]
            # n as the block starts and after each accepted move
            ns = np.cumsum(np.concatenate(([start], np.where(born, 1, -1))))
            diag.trace_n[kept] = ns[at]
            diag.trace_accepted[kept] = accepted[kept_rows]
            diag.trace_g[kept], diag.trace_occupancy[kept] = rule.kept(
                at, rows, born)
            diag.trace_birth[kept] = moves[kept_rows] < 0.5
            k = end
        b_prop += int(np.count_nonzero(moves < 0.5))
        done += len(block)
        if n_steps >= _LOG_STEPS:
            logger.info("step %d of %d, acceptance %.4f", done, n_steps,
                        (b_acc + d_acc) / done)
    diag.birth_proposed += b_prop
    diag.birth_accepted += b_acc
    diag.death_proposed += done - b_prop
    diag.death_accepted += d_acc


def run_chain(p: ModelParams, cfg: ChainConfig):
    """Run BDMH; returns (samples, ChainDiagnostics).

    samples is empty unless cfg.keep_samples; the diagnostics trace always
    records (step, n, G vector, accepted, birth, occupancy) per state.  The
    counts rule runs whenever the model allows it (_counts_eligible), the
    general rule otherwise; diag.engine names the one that ran.  Initial
    patterns the model cannot draw are refused.
    """
    burn, thin = cfg.resolve(p)
    if cfg.initial is not None:
        _check_initial(p, cfg.initial)
    rng = make_rng(cfg.seed, cfg.chain_index)
    initial = cfg.initial if cfg.initial is not None else sample_poisson(p, rng)
    if not _counts_eligible(p):
        rule = _GeneralRule(p, initial)
    elif p.d == 3 and p.nu[1]:
        rule = _PairCountsRule(p, initial)
    else:
        rule = _CountsRule(p, initial)
    n_keep = (cfg.n_steps - burn) // thin
    diag = ChainDiagnostics(
        d=p.d, engine=rule.engine, burn_in=burn, thin=thin,
        trace_step=burn + thin * np.arange(1, n_keep + 1, dtype=np.int64),
        trace_n=np.empty(n_keep, dtype=np.int64),
        trace_g=np.empty((n_keep, p.d)),
        trace_accepted=np.empty(n_keep, dtype=bool),
        trace_birth=np.empty(n_keep, dtype=bool),
        trace_occupancy=np.empty(n_keep, dtype=np.int64),
    )
    samples = [] if cfg.keep_samples else None
    blocks = (rng.random((min(_BLOCK, cfg.n_steps - start), p.d + 4))
              for start in range(0, cfg.n_steps, _BLOCK))
    _run(rule, initial.n, blocks, diag, samples, cfg.n_steps)
    return samples or [], diag


def trace_table(diag: ChainDiagnostics) -> tuple[tuple[str, ...], list[tuple]]:
    """Header and rows of the retained-sample trace: step, n, G_1..G_d,
    accepted (0 or 1) and move (B or D), as Python ints, floats and strings."""
    header = ("step", "n") + tuple(f"G_{j}" for j in range(1, diag.d + 1)) \
        + ("accepted", "move")
    rows = [(step, n, *g, acc, "DB"[birth]) for step, n, g, acc, birth in zip(
        diag.trace_step.tolist(), diag.trace_n.tolist(), diag.trace_g.tolist(),
        diag.trace_accepted.astype(int).tolist(), diag.trace_birth.tolist())]
    return header, rows
