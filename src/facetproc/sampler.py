"""Reference Poisson sampling and birth-death Metropolis-Hastings.

Move mix is 1/2 birth, 1/2 death.  A birth proposes u ~ lambda/T and accepts
with min(1, lambda*(u;x) * aT/(n+1)); a death removes a uniformly chosen
facet xi and accepts with min(1, n/(aT * lambda*(xi; x\\xi))); death from the
empty pattern is an automatic rejection.  Every step consumes exactly d+4
uniforms (move, aux, d center coordinates, size, acceptance) regardless of
the branch taken, so all engines reproduce the same chain from the same seed.

Two engines run the chain: a general one over immutable FacetPattern states,
and a scalar fast path for the finite-orientation special model, where any
two non-parallel facets intersect and the active increments reduce to
orientation-count products.  Both produce bit-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Facet
from .model import ModelParams, log_conditional_intensity
from .ustat import FacetPattern, g_vector

_BLOCK = 1 << 15
_MAX_TRACE = 5_000_000  # retained states per chain


def make_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, chain index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chain_index,))))


def sample_poisson(p: ModelParams, rng) -> FacetPattern:
    """One draw of the reference Poisson process at activity a.

    N ~ Poisson(a*T); centers i.i.d. chi/T, sizes from Q, orientations from V,
    all independent.
    """
    if isinstance(rng, (int, np.integer)):
        rng = make_rng(int(rng))
    n = int(rng.poisson(p.a * p.total_intensity))
    u = rng.random((n, p.d + 2))
    facets = [p.sample_facet_from_uniforms(u[i, 0], u[i, 1:1 + p.d], u[i, 1 + p.d])
              for i in range(n)]
    return FacetPattern.of(facets, p.d)


def birth_log_ratio(p: ModelParams, x: FacetPattern, u: Facet) -> float:
    """log of the birth acceptance ratio lambda*(u;x) * aT/(n+1)."""
    a_t = p.a * p.total_intensity
    return log_conditional_intensity([u], x, p) + math.log(a_t) - math.log(x.n + 1)


def death_log_ratio(p: ModelParams, x: FacetPattern, i: int) -> float:
    """log of the death ratio n/(aT * lambda*); exact negation of the
    matching birth ratio, so birth-then-death cancels to 0 in logs."""
    return -birth_log_ratio(p, x.without_index(i), x.facets[i])


def _pattern_step(x: FacetPattern, p: ModelParams, row, a_t: float, log_a_t: float):
    d = p.d
    if row[0] < 0.5:
        u = p.sample_facet_from_uniforms(row[1], row[2:2 + d], row[2 + d])
        if u in x.facets:
            return x, False, "B"
        log_r = log_conditional_intensity([u], x, p) + log_a_t - math.log(x.n + 1)
        if math.log(row[d + 3]) < log_r:
            return x.with_facet(u), True, "B"
        return x, False, "B"
    if x.n == 0:
        return x, False, "D"
    i = min(int(row[1] * x.n), x.n - 1)
    reduced = x.without_index(i)
    log_r = -(log_conditional_intensity([x.facets[i]], reduced, p) + log_a_t
              - math.log(x.n))
    if math.log(row[d + 3]) < log_r:
        return reduced, True, "D"
    return x, False, "D"


def bdmh_step(x: FacetPattern, p: ModelParams, rng) -> tuple[FacetPattern, bool, str]:
    """One birth-death MH step; consumes d+4 uniforms from rng."""
    a_t = p.a * p.total_intensity
    return _pattern_step(x, p, rng.random(p.d + 4), a_t, math.log(a_t))


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
    # increments of intermediate orders are center-dependent; the scalar
    # engine only tracks counts, so orders 2..d-1 must be inactive
    return all(p.nu[j - 1] == 0.0 for j in range(2, p.d))


def _occupancy_mask(x: FacetPattern) -> int:
    if not x.is_canonical:
        return -1
    mask = 0
    for key in x.groups:
        mask |= 1 << key
    return mask


def run_chain(p: ModelParams, cfg: ChainConfig):
    """Run BDMH; returns (samples, ChainDiagnostics).

    samples is empty unless cfg.keep_samples; the diagnostics trace always
    records (step, n, G vector, move, occupancy) per retained state.
    """
    burn, thin = cfg.resolve(p)
    rng = make_rng(cfg.seed, cfg.chain_index)
    initial = cfg.initial if cfg.initial is not None else sample_poisson(p, rng)
    if initial.d != p.d:
        raise ValueError("initial pattern dimension mismatch")
    engine = cfg.engine
    if engine == "auto":
        engine = "counts" if _counts_eligible(p) else "pattern"
    if engine == "counts" and not _counts_eligible(p):
        raise ValueError("model not eligible for the counts engine")
    n_keep = (cfg.n_steps - burn) // thin
    if engine == "counts":
        return _run_counts(p, cfg, rng, initial, burn, thin, n_keep)
    return _run_pattern(p, cfg, rng, initial, burn, thin, n_keep)


def _new_diag(p, engine, burn, thin, n_keep):
    return ChainDiagnostics(
        d=p.d, engine=engine, burn_in=burn, thin=thin,
        trace_step=np.empty(n_keep, dtype=np.int64),
        trace_n=np.empty(n_keep, dtype=np.int64),
        trace_g=np.empty((n_keep, p.d)),
        trace_accepted=np.empty(n_keep, dtype=bool),
        trace_move=np.empty(n_keep, dtype="U1"),
        trace_occupancy=np.empty(n_keep, dtype=np.int64),
    )


def _run_pattern(p, cfg, rng, x, burn, thin, n_keep):
    diag = _new_diag(p, "pattern", burn, thin, n_keep)
    samples = []
    a_t = p.a * p.total_intensity
    log_a_t = math.log(a_t)
    width = p.d + 4
    k = 0
    for start in range(0, cfg.n_steps, _BLOCK):
        rows = rng.random((min(_BLOCK, cfg.n_steps - start), width))
        for local in range(len(rows)):
            x, accepted, move = _pattern_step(x, p, rows[local], a_t, log_a_t)
            if move == "B":
                diag.birth_proposed += 1
                diag.birth_accepted += accepted
            else:
                diag.death_proposed += 1
                diag.death_accepted += accepted
            step = start + local + 1
            if step > burn and (step - burn) % thin == 0 and k < n_keep:
                diag.trace_step[k] = step
                diag.trace_n[k] = x.n
                diag.trace_g[k] = g_vector(x)
                diag.trace_accepted[k] = accepted
                diag.trace_move[k] = move
                diag.trace_occupancy[k] = _occupancy_mask(x)
                k += 1
                if cfg.keep_samples:
                    samples.append(x)
    return samples, diag


def _g2_special_d3(cents, axs, two_r):
    """G_2 for the d=3 special model: sum of (2r - |dz|) over non-parallel
    pairs, free coordinate determined by the two axes."""
    groups = {0: [], 1: [], 2: []}
    for c, ax in zip(cents, axs):
        groups[ax].append(c)
    total = 0.0
    for p_ax in range(3):
        for q_ax in range(p_ax + 1, 3):
            a, b = groups[p_ax], groups[q_ax]
            if not a or not b:
                continue
            free = 3 - p_ax - q_ax
            za = np.array([c[free] for c in a])
            zb = np.array([c[free] for c in b])
            total += float((two_r - np.abs(za[:, None] - zb[None, :])).sum())
    return total


def _run_counts(p, cfg, rng, initial, burn, thin, n_keep):
    diag = _new_diag(p, "counts", burn, thin, n_keep)
    samples = []
    d = p.d
    r_fix = p.size.max_extent
    two_r = 2.0 * r_fix
    dg1 = two_r ** (d - 1)
    nu1 = p.nu[0]
    nud = p.nu[d - 1]
    a_t = p.a * p.total_intensity
    log_a_t = math.log(a_t)

    cents: list[tuple] = [f.center for f in initial.facets]
    axs: list[int] = [f.orientation for f in initial.facets]
    counts = [0] * d
    for ax in axs:
        counts[ax] += 1
    n = len(axs)

    def log_lambda(ax_new: int) -> float:
        terms = []
        if nu1 != 0.0:
            terms.append(nu1 * dg1)
        if nud != 0.0:
            prod = 1.0
            for ax in range(d):
                if ax != ax_new:
                    prod *= counts[ax]
            terms.append(nud * prod)
        return math.fsum(terms)

    def record(k, step, accepted, move):
        diag.trace_step[k] = step
        diag.trace_n[k] = n
        g1 = n * dg1
        if d == 2:
            g = (g1, float(counts[0] * counts[1]))
        else:
            g = (g1, _g2_special_d3(cents, axs, two_r),
                 float(counts[0] * counts[1] * counts[2]))
        diag.trace_g[k] = g
        diag.trace_accepted[k] = accepted
        diag.trace_move[k] = move
        mask = 0
        for ax in range(d):
            if counts[ax]:
                mask |= 1 << ax
        diag.trace_occupancy[k] = mask
        if cfg.keep_samples:
            samples.append(FacetPattern.of(
                [Facet(c, r_fix, ax) for c, ax in zip(cents, axs)], d))

    k = 0
    log = math.log
    b_prop = b_acc = d_prop = d_acc = 0
    for start in range(0, cfg.n_steps, _BLOCK):
        block = rng.random((min(_BLOCK, cfg.n_steps - start), d + 4))
        cols = block.T.tolist()
        move_c, aux_c, acc_c = cols[0], cols[1], cols[d + 3]
        center_c = cols[2:2 + d]
        for local in range(len(move_c)):
            if move_c[local] < 0.5:
                b_prop += 1
                accepted = False
                move = "B"
                u_ax = aux_c[local]
                ax = int(u_ax * d)
                if ax >= d:
                    ax = d - 1
                log_r = log_lambda(ax) + log_a_t - log(n + 1)
                if log(acc_c[local]) < log_r:
                    accepted = True
                    b_acc += 1
                    center = p.center.sample_from_uniforms(
                        tuple(center_c[c][local] for c in range(d)))
                    cents.append(center)
                    axs.append(ax)
                    counts[ax] += 1
                    n += 1
            else:
                d_prop += 1
                accepted = False
                move = "D"
                if n:
                    i = int(aux_c[local] * n)
                    if i >= n:
                        i = n - 1
                    ax = axs[i]
                    # log_lambda(ax) skips the removed facet's own axis, so
                    # the current counts already describe x minus that facet
                    log_r = -(log_lambda(ax) + log_a_t - log(n))
                    if log(acc_c[local]) < log_r:
                        accepted = True
                        d_acc += 1
                        cents.pop(i)
                        axs.pop(i)
                        counts[ax] -= 1
                        n -= 1
            step = start + local + 1
            if step > burn and (step - burn) % thin == 0 and k < n_keep:
                record(k, step, accepted, move)
                k += 1
    diag.birth_proposed, diag.birth_accepted = b_prop, b_acc
    diag.death_proposed, diag.death_accepted = d_prop, d_acc
    return samples, diag


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
