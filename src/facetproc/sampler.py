"""Reference Poisson sampling and birth-death Metropolis-Hastings.

Move mix is 1/2 birth, 1/2 death.  A birth proposes u ~ lambda/T and accepts
with min(1, lambda*(u;x) * aT/(n+1)); a death removes a uniformly chosen
facet xi and accepts with min(1, n/(aT * lambda*(xi; x\\xi))); death from the
empty pattern is an automatic rejection.  Every step consumes exactly d+4
uniforms (move, aux, d center coordinates, size, acceptance) regardless of
the branch taken.

One loop, _run, takes the steps of run_chain and bdmh_step.  An increment
rule gives it log lambda* of each proposal, applies the accepted moves and
reports G at the retained states.  Every chain, and every bdmh_step,
moves one mutable state in place, _ChainState: the facets in pattern order
as (center, half-extent, orientation) triples, the same triples grouped by
orientation class (keyed by axis index or by normal, as FacetPattern.groups
keys them) and a running G.  Two rules act on it, in plain Python:

- _GeneralRule serves every model.  Its order-j increment is the fsum of
  ustat._subset_terms on the state's groups, as in g_increment and
  model.log_conditional_intensity: the contents (geometry.tuple_content)
  of the facet with j-1 facets of other orientation classes.  log lambda*
  is the fsum of nu_j times these.  Under the hemisphere law (d = 2) each
  content is the 0-or-1 crossing of two segments.  The orders with
  nu_j = 0 are computed only for accepted moves, for G, which bdmh_step
  does not start: it retains no state.
- _CountsRule serves the finite-orientation special model with orders
  2..d-1 inactive, where lambda* has a closed form in the counts; so do
  G_1 and G_d.  In d = 3 each pair of facets meets in the overlap of one
  free coordinate, and G_2 is their running sum.

Both give bit-identical trajectories and G from the same seed.  No Facet or
FacetPattern is built per step, only for kept samples and the result of
bdmh_step.

The running G is exact.  Each term (the content of one subset) is added
when its subset appears and subtracted, bit for bit the same value, when a
member leaves, into Shewchuk's non-overlapping partials (Shewchuk 1997,
the algorithm behind math.fsum).  fsum of the partials is therefore the
correctly rounded sum of the current terms: the value g_vector returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Facet
from .model import ModelParams, _facet_list, log_conditional_intensity
from .ustat import FacetPattern, _subset_sums, _subset_terms

_BLOCK = 1 << 15
_MAX_TRACE = 5_000_000  # retained states per chain


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
    if isinstance(rng, (int, np.integer)):
        rng = make_rng(int(rng))
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


def birth_log_ratio(p: ModelParams, x: FacetPattern, u: Facet) -> float:
    """log of the birth acceptance ratio lambda*(u;x) * aT/(n+1)."""
    a_t = p.a * p.total_intensity
    return log_conditional_intensity([u], x, p) + math.log(a_t) - math.log(x.n + 1)


def death_log_ratio(p: ModelParams, x: FacetPattern, i: int) -> float:
    """log of the death ratio n/(aT * lambda*); exact negation of the
    matching birth ratio, so birth-then-death cancels to 0 in logs."""
    return -birth_log_ratio(p, x.without_index(i), x.facets[i])


def bdmh_step(x: FacetPattern, p: ModelParams, rng) -> tuple[FacetPattern, bool, str]:
    """One birth-death MH step; consumes d+4 uniforms from rng."""
    rule = _GeneralRule(p, x)
    accepted, move = _run(rule, x.n, [rng.random(p.d + 4)[np.newaxis]],
                          ChainDiagnostics(p.d, rule.engine, 0, 1), None)
    return rule._pattern(), accepted, move


@dataclass(frozen=True)
class ChainConfig:
    n_steps: int
    seed: int = 0
    burn_in: int | None = None  # default 10*aT steps
    thin: int | None = None     # default max(1, aT/10)
    initial: FacetPattern | None = None  # default: Poisson draw
    keep_samples: bool = False
    engine: str = "auto"        # auto | pattern | counts
    chain_index: int = 0

    def resolve(self, p: ModelParams) -> tuple[int, int]:
        a_t = p.a * p.total_intensity
        burn = self.burn_in if self.burn_in is not None else int(round(10 * a_t))
        thin = self.thin if self.thin is not None else max(1, int(round(a_t / 10)))
        if not self.n_steps > burn >= 0:
            raise ValueError(f"need n_steps > burn_in >= 0, got n_steps = "
                             f"{self.n_steps} and burn_in = {burn}")
        if thin < 1:
            raise ValueError("thin must be >= 1")
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
    trace_move: np.ndarray = field(default_factory=lambda: np.empty(0, dtype="U1"))
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
        out: dict[tuple[int, ...], int] = {}
        for mask in self.trace_occupancy:
            if mask < 0:
                continue
            key = tuple(i for i in range(self.d) if mask >> i & 1)
            out[key] = out.get(key, 0) + 1
        return out

    def occupancy_fraction(self, max_orientations: int) -> float:
        """Fraction of retained states using at most that many orientations."""
        masks = self.trace_occupancy[self.trace_occupancy >= 0]
        if not len(masks):
            return math.nan
        pop = np.array([bin(int(m)).count("1") for m in masks])
        return float((pop <= max_orientations).mean())

    def mean_se(self, series: np.ndarray) -> tuple[float, float]:
        return float(np.mean(series)), batch_means_se(series)

    def n_mean_se(self) -> tuple[float, float]:
        return self.mean_se(self.trace_n.astype(float))

    def g_mean_se(self, order: int) -> tuple[float, float]:
        return self.mean_se(self.trace_g[:, order - 1])


def batch_means_se(values: np.ndarray, n_batches: int = 64) -> float:
    """Batch-means standard error of the mean of a correlated series."""
    values = np.asarray(values, dtype=float)
    m = len(values)
    if m < 4:
        return math.inf
    nb = min(n_batches, m // 2)
    length = m // nb
    means = values[: nb * length].reshape(nb, length).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(nb))


def _counts_eligible(p: ModelParams) -> bool:
    if not p.orientation.is_canonical or not p.size.is_fixed or p.d > 3:
        return False
    r = p.size.max_extent
    if any(hi - lo > r for lo, hi in p.window.bounds):
        return False
    # increments of intermediate orders are center-dependent; the counts
    # rule only tracks counts, so orders 2..d-1 must be inactive
    return all(p.nu[j - 1] == 0.0 for j in range(2, p.d))


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


def _add_exact(partials: list, x: float) -> None:
    """Add x to an exact sum held as non-overlapping partials of increasing
    magnitude (Shewchuk 1997, the algorithm behind math.fsum)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _add_terms(partials: list, terms, sign: float) -> None:
    """Add sign * t to partials for each nonzero term t."""
    for t in terms:
        if t:
            _add_exact(partials, sign * t)


class _ChainState:
    """A pattern moved in place: the facets in pattern order as (center,
    half_extent, orientation) triples, the same triples grouped by
    orientation class, keyed by axis index or by normal as
    FacetPattern.groups keys them, and the running G as partials per
    order.  The rules extend it; the d = 2 counts rule, whose closed forms
    read only the counts, keeps no groups."""

    def __init__(self, p: ModelParams):
        self.p = p
        self.d = p.d
        self.canonical = p.orientation.is_canonical
        self.facets: list[tuple] = []
        self.groups: dict = {}
        self.g: list[list[float]] = [[] for _ in range(p.d)]
        self.center = p.center.scalar_sampler()

    def _push(self, f: tuple) -> None:
        self.facets.append(f)
        self.groups.setdefault(f[2], []).append(f)

    def _pop(self, i: int) -> tuple:
        f = self.facets.pop(i)
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

    def _pattern(self) -> FacetPattern:
        return FacetPattern.of([Facet(*f) for f in self.facets], self.d)


class _GeneralRule(_ChainState):
    """Increments of any model: for order j, the fsum of
    ustat._subset_terms of the facet and j-1 other orientation classes of
    the state's groups.  log lambda* is the fsum of nu_j times these, as
    model.log_conditional_intensity takes it.  The constructor only
    places the facets of x; seed_g starts the running G at G(x), which
    only run_chain reads.  birth gives -inf for a facet already present."""

    engine = "pattern"

    def __init__(self, p: ModelParams, x: FacetPattern):
        super().__init__(p)
        self.orders = p.active_orders
        self.nu = [p.nu[j - 1] for j in self.orders]
        self.rest = [j for j in range(1, p.d + 1) if j not in self.orders]
        law = p.orientation  # its normal draw is scalar; the axis's is not
        self.orientation = law.sample_from_uniform if not law.is_canonical \
            else lambda u, d=p.d: min(int(u * d), d - 1)
        self.radius = p.size.scalar_sampler()
        self._f = None  # the proposed facet
        self._terms: list[list[float]] = []  # its active orders' terms
        for f in x.facets:
            self._push((f.center, f.half_extent, f.orientation))

    def seed_g(self) -> None:
        # every subset term of the placed facets, each once
        for j in range(1, self.d + 1):
            _add_terms(self.g[j - 1], _subset_terms(self.groups, j), 1.0)

    def _log_lambda(self, f: tuple) -> float:
        self._terms = [_subset_terms(self.groups, j - 1, f) for j in self.orders]
        return math.fsum([nu * math.fsum(t)
                          for nu, t in zip(self.nu, self._terms)])

    def _update(self, f: tuple, sign: float) -> None:
        # G += sign * the terms of f, the active orders' from the proposal
        for j, t in zip(self.orders, self._terms):
            _add_terms(self.g[j - 1], t, sign)
        for j in self.rest:
            _add_terms(self.g[j - 1], _subset_terms(self.groups, j - 1, f), sign)

    def birth(self, row) -> float:
        d = self.d
        f = (self.center(row[2:2 + d]), self.radius(row[2 + d]),
             self.orientation(row[1]))
        if f in self.groups.get(f[2], ()):
            return -math.inf
        self._f = f
        return self._log_lambda(f)

    def add(self, row) -> None:
        self._update(self._f, 1.0)
        self._push(self._f)

    def death(self, i: int) -> float:
        return self._log_lambda(self.facets[i])

    def remove(self, i: int) -> None:
        self._update(self._pop(i), -1.0)

    def retained(self, sample: bool) -> tuple:
        return (tuple(map(math.fsum, self.g)), self._mask(),
                self._pattern() if sample else None)


class _CountsRule(_ChainState):
    """Closed-form increments of a counts-eligible model: a facet on axis
    k has log lambda* = nu_1 (2r)^(d-1) + nu_d prod_{i != k} n_i, where n_i
    counts the facets on axis i.  G_1 and G_d are closed forms in the
    counts.  In d = 3 each pair of facets on axes k != m meets in the
    overlap of their free coordinate 3-k-m, the value tuple_content gives
    when every center lies within r of every other, and G_2 is their
    running sum.  A birth's center is mapped only once it is accepted."""

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
        self._axis = 0  # axis of the proposed birth
        for f in x.facets:
            self._enter((f.center, f.half_extent, f.orientation))

    def _log_lambda(self, axis: int) -> float:
        # c[axis - 1] (and c[axis - 2] in d = 3) are the other axes' counts
        c = self.counts
        prod = c[axis - 1] if self.d == 2 else c[axis - 1] * c[axis - 2]
        return self.nu1_term + self.nud * prod

    def _update_g2(self, f: tuple, sign: float) -> None:
        z, r, k = f
        g2 = self.g[1]
        for m in range(3):
            if m == k:
                continue
            free = 3 - k - m
            zf = z[free]
            for w, _, _ in self.groups.get(m, ()):
                wf = w[free]
                t = min(zf + r, wf + r) - max(zf - r, wf - r)
                if t > 0.0:
                    _add_exact(g2, sign * t)

    def birth(self, row) -> float:
        axis = int(row[1] * self.d)
        if axis >= self.d:
            axis = self.d - 1
        self._axis = axis
        return self._log_lambda(axis)

    def _enter(self, f: tuple) -> None:
        self.counts[f[2]] += 1
        if self.d == 2:  # the closed forms read only the counts
            self.facets.append(f)
        else:
            self._update_g2(f, 1.0)
            self._push(f)

    def add(self, row) -> None:
        self._enter((self.center(row[2:2 + self.d]), self.r, self._axis))

    def death(self, i: int) -> float:
        # x_i's own axis is skipped: the other counts are those of x - x_i
        return self._log_lambda(self.facets[i][2])

    def remove(self, i: int) -> None:
        if self.d == 2:
            self.counts[self.facets.pop(i)[2]] -= 1
        else:
            f = self._pop(i)
            self.counts[f[2]] -= 1
            self._update_g2(f, -1.0)

    def retained(self, sample: bool) -> tuple:
        c = self.counts
        g1 = len(self.facets) * self.dg1
        if self.d == 2:
            g = (g1, float(c[0] * c[1]))
        else:
            g = (g1, math.fsum(self.g[1]), float(c[0] * c[1] * c[2]))
        mask = 0  # self._mask() inline: at thin 1 this runs every step
        for axis in range(self.d):
            if c[axis]:
                mask |= 1 << axis
        return g, mask, self._pattern() if sample else None


def _run(rule, n: int, blocks, diag: ChainDiagnostics, samples) -> tuple[bool, str]:
    """Step from a state of n facets, one step per row of each block (an
    array of rows of d+4 uniforms).  Counts the moves into diag, fills its trace
    with the states after steps burn_in + thin, burn_in + 2 thin, ... and
    appends their patterns to samples unless it is None.  Returns the
    last step's acceptance and move.

    rule.birth(row) is log lambda*(u; x) of the facet u the row proposes,
    rule.add(row) adds u; rule.death(i) is log lambda*(x_i; x minus x_i),
    rule.remove(i) removes x_i; rule.retained(sample) is the G vector, the
    occupancy mask (the canonical axes present; -1 for a non-empty state of
    the hemisphere law, 0 for the empty state) and, if sample, x."""
    p = rule.p
    log = math.log
    log_a_t = log(p.a * p.total_intensity)
    acc = p.d + 3
    birth, add, death, remove = rule.birth, rule.add, rule.death, rule.remove
    keep_at = diag.burn_in + diag.thin if len(diag.trace_step) else 0
    k = step = b_acc = d_prop = d_acc = 0
    for block in blocks:
        for row in block.tolist():
            step += 1
            if row[0] < 0.5:
                accepted = log(row[acc]) < birth(row) + log_a_t - log(n + 1)
                if accepted:
                    add(row)
                    b_acc += 1
                    n += 1
            else:
                d_prop += 1
                accepted = False
                if n:
                    i = int(row[1] * n)
                    if i >= n:
                        i = n - 1
                    accepted = log(row[acc]) < -(death(i) + log_a_t - log(n))
                    if accepted:
                        remove(i)
                        d_acc += 1
                        n -= 1
            if step == keep_at:
                g, mask, x = rule.retained(samples is not None)
                diag.trace_step[k] = step
                diag.trace_n[k] = n
                diag.trace_g[k] = g
                diag.trace_accepted[k] = accepted
                diag.trace_move[k] = "B" if row[0] < 0.5 else "D"
                diag.trace_occupancy[k] = mask
                if samples is not None:
                    samples.append(x)
                k += 1
                keep_at += diag.thin
    diag.birth_proposed += step - d_prop
    diag.birth_accepted += b_acc
    diag.death_proposed += d_prop
    diag.death_accepted += d_acc
    return accepted, "B" if row[0] < 0.5 else "D"


def run_chain(p: ModelParams, cfg: ChainConfig):
    """Run BDMH; returns (samples, ChainDiagnostics).

    samples is empty unless cfg.keep_samples; the diagnostics trace always
    records (step, n, G vector, move, occupancy) per retained state.
    cfg.engine forces an increment rule; "auto" takes the counts rule when
    the model allows it.  Initial patterns the model cannot draw are refused.
    """
    if cfg.engine not in ("auto", "counts", "pattern"):
        raise ValueError("engine must be one of auto, counts and pattern, "
                         f"got {cfg.engine!r}")
    counts = cfg.engine != "pattern" and _counts_eligible(p)
    if cfg.engine == "counts" and not counts:
        raise ValueError("model not eligible for the counts engine")
    burn, thin = cfg.resolve(p)
    if cfg.initial is not None:
        _check_initial(p, cfg.initial)
    rng = make_rng(cfg.seed, cfg.chain_index)
    initial = cfg.initial if cfg.initial is not None else sample_poisson(p, rng)
    if counts:
        rule = _CountsRule(p, initial)
    else:
        rule = _GeneralRule(p, initial)
        rule.seed_g()
    n_keep = (cfg.n_steps - burn) // thin
    diag = ChainDiagnostics(
        d=p.d, engine=rule.engine, burn_in=burn, thin=thin,
        trace_step=np.empty(n_keep, dtype=np.int64),
        trace_n=np.empty(n_keep, dtype=np.int64),
        trace_g=np.empty((n_keep, p.d)),
        trace_accepted=np.empty(n_keep, dtype=bool),
        trace_move=np.empty(n_keep, dtype="U1"),
        trace_occupancy=np.empty(n_keep, dtype=np.int64),
    )
    samples = [] if cfg.keep_samples else None
    blocks = (rng.random((min(_BLOCK, cfg.n_steps - start), p.d + 4))
              for start in range(0, cfg.n_steps, _BLOCK))
    _run(rule, initial.n, blocks, diag, samples)
    return samples or [], diag


def trace_table(diag: ChainDiagnostics) -> tuple[tuple[str, ...], list[tuple]]:
    """Header and rows of the retained-sample trace: step, n, G_1..G_d,
    accepted (0 or 1) and move, as Python ints, floats and strings."""
    header = ("step", "n") + tuple(f"G_{j}" for j in range(1, diag.d + 1)) \
        + ("accepted", "move")
    rows = [(step, n, *g, acc, move) for step, n, g, acc, move in zip(
        diag.trace_step.tolist(), diag.trace_n.tolist(), diag.trace_g.tolist(),
        diag.trace_accepted.astype(int).tolist(), diag.trace_move.tolist())]
    return header, rows


def export_trace(diag: ChainDiagnostics, path) -> None:
    """Write the retained-sample trace as CSV."""
    header, rows = trace_table(diag)
    with open(path, "w") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in [header, *rows])
