"""Command drivers with reproducible persistence.

Every command runs through run_experiment: simulate (one chain and its
trace), rho (correlation series or bounds along the activity grid),
moments (reference and limit constants), and four numbered experiments
that probe the model's limit behavior: Poisson central-limit
diagnostics (e1), degeneracy of coupled interaction counts (e2),
correlation limits across orientation arrangements (e3), and the
scaling constants of dilated counts (e4).  The table _COMMANDS
describes each command once, and a config setting that the command
would not read, or a model its driver cannot serve, is refused when the
config is built.  Every run is a pure function of its
configuration and master seed: tasks own disjoint RNG streams indexed
before dispatch, rows are assembled in grid order, and floats are
written with repr so a re-run reproduces the result file byte for
byte.  A JSON manifest records the resolved configuration and output
checksums.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .correlation import (_series_evaluator, rho_bounds, rho_limit,
                          rho_limit_from_counts, rho_series_counts)
from .model import ModelParams, _check_int, _count_determined
from .moments import _covariance_table, _grid_size, i_k_integrals, \
    scaling_limit_constants
from .sampler import ChainConfig, _poisson_g_vectors, batch_means_se, \
    make_rng, run_chain, trace_table

POISSON_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
CHAIN_GRID = (1.0, 2.0, 4.0, 8.0, 16.0)

_SCALAR_KEYS = ("d", "b", "chi.const", "a.grid", "chain.steps",
                "chain.burnin", "chain.thin", "replicates")


# ---------------------------------------------------------------------------
# configuration


def parse_config(path) -> dict[str, str]:
    """Flat key-value text: one `key = value` per line, # comments."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ValueError(f"line {ln}: empty key or value")
        if key in out:
            raise ValueError(f"line {ln}: duplicate key {key!r}")
        out[key] = val
    return out


def _check_keys(conf: dict[str, str], d: int):
    for key in conf:
        if key in _SCALAR_KEYS:
            continue
        order = key[3:]
        # only the spelling config_model reads: ASCII digits, no padding
        if key.startswith("nu.") and order.isascii() and order.isdigit() \
                and key == f"nu.{int(order)}":
            if not 1 <= int(order) <= d:
                raise ValueError(f"{key}: order outside 1..{d}")
            continue
        raise ValueError(f"unknown config key {key!r}")


def _numbers(conf: dict[str, str], key: str, default: tuple, kind=float):
    """The comma-separated values of a key, or default when it is absent;
    empty items and values that do not parse or are not finite are
    rejected by key."""
    if key not in conf:
        return default
    tokens = conf[key].split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"{key} = {conf[key]}: empty item in the list")
    try:
        values = tuple(kind(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"{key} = {conf[key]}: expected "
                         f"{kind.__name__} values") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{key} = {conf[key]}: expected finite values")
    return values


def _scalar(conf: dict[str, str], key: str, default, kind=float):
    values = _numbers(conf, key, (default,), kind)
    if len(values) != 1:
        raise ValueError(f"{key} = {conf[key]}: expected one value")
    return values[0]


def config_model(conf: dict[str, str]) -> ModelParams:
    """Model template at unit activity from parsed configuration."""
    if "d" not in conf:
        raise ValueError("config key 'd' is required")
    d = _scalar(conf, "d", None, int)
    _check_keys(conf, d)
    nu = [_scalar(conf, f"nu.{j}", 0.0) for j in range(1, d + 1)]
    return ModelParams.special(d, tuple(nu), a=1.0,
                               b=_scalar(conf, "b", 1.0),
                               chi=_scalar(conf, "chi.const", 1.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved description of one run of a command."""

    experiment: str
    params: ModelParams
    a_grid: tuple[float, ...]
    replicates: int
    chain_steps: tuple[int, ...]
    out_dir: str
    seed: int
    burn_in: int | None = None  # None: the chain's default at each point
    thin: int | None = None

    def __post_init__(self):
        cmd = _command(self.experiment)
        p, chi = self.params, self.params.center.level
        if chi is None or p != ModelParams.special(p.d, p.nu, p.a, p.b, chi):
            raise ValueError("commands run ModelParams.special models only; "
                             "run other models through run_chain")
        cmd.requires(p)
        if not self.a_grid:
            raise ValueError("activity grid must be nonempty")
        if any(y <= x for x, y in zip(self.a_grid, self.a_grid[1:])):
            raise ValueError("activity grid must be increasing")
        _check_int("seed", self.seed, 0)
        # e1 pools across replicates; a lone chain falls back on its own SE
        _check_int("replicates", self.replicates,
                   2 if cmd.streams and not cmd.chains else 1)
        if not cmd.streams and self.replicates != 1:
            raise ValueError(f"{self.experiment} draws no replicate streams, "
                             f"got replicates = {self.replicates}")
        if not cmd.chains and (self.chain_steps or self.burn_in is not None
                               or self.thin is not None):
            raise ValueError(f"{self.experiment} runs no chain, got "
                             f"chain_steps = {self.chain_steps}, burn_in = "
                             f"{self.burn_in} and thin = {self.thin}")
        if cmd.first_point and (len(self.a_grid) > 1 or self.replicates > 1):
            raise ValueError(f"{self.experiment} runs one task at one grid "
                             f"point, got a.grid = {self.a_grid} and "
                             f"replicates = {self.replicates}")
        if cmd.chains and len(self.chain_steps) != len(self.a_grid):
            raise ValueError(f"per-grid step list must match the grid: "
                             f"chain.steps has {len(self.chain_steps)} "
                             f"values, a.grid {len(self.a_grid)}")
        # every grid point's model and chain settings, before any task runs
        for ai, a in enumerate(self.a_grid):
            try:
                p = self.model(ai)
                if cmd.chains:
                    self.chain(ai).resolve(p)
            except ValueError as exc:
                raise ValueError(f"grid point a = {a}: {exc}") from None

    def model(self, a_idx: int) -> ModelParams:
        """The model at one grid point."""
        return dataclasses.replace(self.params, a=self.a_grid[a_idx])

    def chain(self, a_idx: int, stream: int = 0) -> ChainConfig:
        """The chain settings at one grid point, drawing from the given
        RNG stream."""
        return ChainConfig(n_steps=self.chain_steps[a_idx], seed=self.seed,
                           burn_in=self.burn_in, thin=self.thin,
                           chain_index=stream)


def build_experiment_config(experiment: str, conf: dict[str, str],
                            out_dir, seed: int) -> ExperimentConfig:
    cmd = _command(experiment)
    params = config_model(conf)
    unread = [key for key in conf
              if key.startswith("chain.") and not cmd.chains
              or key == "replicates" and not cmd.streams]
    if unread:
        raise ValueError(f"{experiment} does not read {', '.join(unread)}")
    grid = _numbers(conf, "a.grid", cmd.grid)
    steps = _numbers(conf, "chain.steps", (200000,), int) if cmd.chains \
        else ()
    if len(steps) == 1:
        steps = steps * len(grid)
    return ExperimentConfig(
        experiment, params, grid,
        _scalar(conf, "replicates", cmd.replicates, int), steps,
        str(out_dir), seed, burn_in=_scalar(conf, "chain.burnin", None, int),
        thin=_scalar(conf, "chain.thin", None, int))


# ---------------------------------------------------------------------------
# persistence


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_table(path, header, rows):
    """CSV: floats by repr, None empty."""
    Path(path).write_bytes("".join(",".join(map(_fmt, row)) + "\n"
                                   for row in [header, *rows]).encode())


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _model_dict(p: ModelParams) -> dict:
    return {
        "d": p.d, "b": p.b, "nu": list(p.nu),
        "chi.const": p.center.level,
        "orientation": p.orientation.kind,
    }


# ---------------------------------------------------------------------------
# shared closed forms and tasks


def poisson_mean_interaction(p: ModelParams, s: int) -> float:
    """E G_s under the reference process of a count-determined model with
    constant intensity and window sides r, the half-extent: s facets must
    take distinct orientations; each free coordinate contributes the mean
    overlap of s intervals of half-extent r, centers uniform on a side."""
    r = p.size.max_extent
    if p.center.table is not None or not _count_determined(p) \
            or any(hi - lo != r for lo, hi in p.window.bounds):
        raise ValueError("closed form needs the constant-intensity canonical "
                         "model with one half-extent r and window sides r")
    free = r * (s + 3) / (s + 1)
    return ((p.a * p.total_intensity / p.d) ** s * math.comb(p.d, s)
            * free ** (p.d - s))


def _rho_bound(pa: ModelParams, s: int):
    """Certified correlation bound for one facet on each of the first s
    axes."""
    return rho_bounds(pa, (1,) * s + (0,) * (pa.d - s))


def _series_row(pa: ModelParams, series, k: int, variant: str, l,
                counts) -> tuple:
    """(a, k, variant, l, series, tail, limit, abs_error, denominator,
    n_max) for one orientation count vector, from pa's series
    evaluator."""
    res = series(counts)
    lim = float(rho_limit(pa.d, k, variant, l))
    return (pa.a, k, variant, l, res.value, res.tail, lim,
            abs(res.value - lim), res.denominator, res.n_max)


_RESOLUTION = 100  # the quadrature of _covariances


def _covariances(p: ModelParams, seed: int) -> dict:
    """Asymptotic covariance constants (value, se) for orders i <= j, as
    asymptotic_covariance gives each, on one draw of query facets with
    each order's increments evaluated once."""
    pairs = [(i, j) for i in range(1, p.d + 1) for j in range(i, p.d + 1)]
    return _covariance_table(pairs, p, n_samples=400, seed=seed,
                             method="auto", resolution=_RESOLUTION,
                             mc_patterns=2000)


def _covariance_grid(p: ModelParams) -> None:
    """moments and e1 run _covariances: its grid must fit (d <= 5)."""
    _grid_size(p.d - 1, p.d, _RESOLUTION)


def _scaling_limits(p: ModelParams) -> dict:
    """k -> (I_k, I'_k, ScalingLimits) for k = 1..d-1."""
    out = {}
    for k in range(1, p.d):
        ik, ipk = i_k_integrals(p.d, k, b=p.b, chi=p.center.level)
        out[k] = (ik, ipk, scaling_limit_constants(p.d, k, ik, ipk))
    return out


def _streams(cfg: ExperimentConfig) -> list[tuple[int, int, int]]:
    """(grid index, replicate, RNG stream index) of every replicate task."""
    reps = cfg.replicates
    return [(ai, r, ai * reps + r)
            for ai in range(len(cfg.a_grid)) for r in range(reps)]


def _replicated(fn, cfg: ExperimentConfig) -> list[list]:
    """fn(grid index, stream index) over every replicate task, results
    grouped per grid point in grid order."""
    out = [fn(ai, stream) for ai, _, stream in _streams(cfg)]
    reps = cfg.replicates
    return [out[ai * reps:(ai + 1) * reps] for ai in range(len(cfg.a_grid))]


def _pool(values, own_se):
    """Mean over replicates and its SE: the replicate SD / sqrt(reps)
    when there are several, else the one chain's own SE."""
    mean = float(np.mean(values))
    if len(values) > 1:
        return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))
    return mean, own_se


# ---------------------------------------------------------------------------
# simulate, rho and moments


def _simulate(cfg: ExperimentConfig):
    """One chain at the first grid point and its retained-state trace."""
    _, diag = run_chain(cfg.model(0), cfg.chain(0))
    return (*trace_table(diag), diag)


RHO_SERIES_HEADER = ("a", "k", "series", "tail", "limit", "abs_error",
                     "denominator", "n_max")
RHO_BOUNDS_HEADER = ("a", "s", "bound", "rate", "tail", "n_max")


def _rho(cfg: ExperimentConfig):
    """Along the grid: the exact series for one facet per orientation on
    d-k axes under a top-order coupling, else the certified bound."""
    d = cfg.params.d
    s = cfg.params.coupled_order()
    rows = []
    for ai in range(len(cfg.a_grid)):
        pa = cfg.model(ai)
        if s < d:
            res = _rho_bound(pa, s)
            rows.append((pa.a, s, res.bound, res.rate, res.tail, res.n_max))
            continue
        series = _series_evaluator(pa)
        for k, variant, l, counts in _arrangements(d):
            if variant == "distinct":
                row = _series_row(pa, series, k, variant, l, counts)
                rows.append(row[:2] + row[4:])
    return (RHO_SERIES_HEADER if s == d else RHO_BOUNDS_HEADER), rows, None


MOMENTS_HEADER = ("quantity", "i", "j", "value", "se")


def _moments(cfg: ExperimentConfig):
    """Reference means, asymptotic covariances and scaling-limit
    constants at the first grid point."""
    p = cfg.model(0)
    rows = [("count_mean", None, None, p.a * p.total_intensity, 0.0)]
    rows += [("interaction_mean", j, None, poisson_mean_interaction(p, j),
              0.0) for j in range(1, p.d + 1)]
    rows += [("covariance", i, j, val, se)
             for (i, j), (val, se) in _covariances(p, cfg.seed).items()]
    for k, (ik, ipk, lim) in _scaling_limits(p).items():
        rows += [(name, k, None, value, 0.0) for name, value in (
            ("i_k", ik), ("i_prime_k", ipk), ("mean_limit", lim.mean),
            ("variance_limit", lim.variance),
            ("variance_limit_alt", lim.variance_alt))]
    return MOMENTS_HEADER, rows, None


# ---------------------------------------------------------------------------
# e1: Poisson central-limit diagnostics


E1_HEADER = ("a", "i", "j", "c_emp", "c_emp_se", "c_theory", "c_theory_se",
             "mean", "mean_se", "skew", "skew_se", "kurt", "kurt_se")


def experiment_e1_poisson_clt(cfg: ExperimentConfig) -> list[tuple]:
    """Standardized interaction vector under the reference process:
    empirical covariances against the asymptotic constants, with
    per-component skewness and excess kurtosis along the grid.  Each
    replicate draws one reference pattern from its own stream, and the
    G vectors of a grid point's replicates are scored as one batch
    (sampler._poisson_g_vectors)."""
    p = cfg.params
    d = p.d
    reps = cfg.replicates
    means = {a: [poisson_mean_interaction(dataclasses.replace(p, a=a), j)
                 for j in range(1, d + 1)] for a in cfg.a_grid}
    blocks = [_poisson_g_vectors(cfg.model(ai), rngs)
              for ai, rngs in enumerate(_replicated(
                  lambda ai, stream: make_rng(cfg.seed, stream), cfg))]
    theory = _covariances(p, cfg.seed)
    rows = []
    for a, block in zip(cfg.a_grid, blocks):
        z = np.array(block) - means[a]
        for j in range(d):
            z[:, j] /= a ** (j + 0.5)
        centered = z - z.mean(axis=0)
        for (i, j), (th, th_se) in theory.items():
            prods = centered[:, i - 1] * centered[:, j - 1]
            marginal = (None,) * 6
            if i == j:
                zi, ci = z[:, i - 1], centered[:, i - 1]
                sd = float(zi.std())
                skew = float((ci ** 3).mean()) / sd ** 3 if sd else 0.0
                kurt = float((ci ** 4).mean()) / sd ** 4 - 3.0 if sd else 0.0
                marginal = (float(zi.mean()), sd / math.sqrt(reps),
                            skew, math.sqrt(6.0 / reps),
                            kurt, math.sqrt(24.0 / reps))
            rows.append((a, i, j, float(prods.mean()),
                         float(prods.std(ddof=1) / math.sqrt(reps)),
                         th, th_se, *marginal))
    return rows


# ---------------------------------------------------------------------------
# e2: degeneracy of the coupled count


E2_HEADER = ("a", "estimate", "se", "occupancy", "occupancy_se", "envelope")


def experiment_e2_degeneracy(cfg: ExperimentConfig) -> list[tuple]:
    """Chain estimates of the coupled interaction count along the grid,
    with the fraction of retained states too orientation-poor to
    support it, against a certified reference curve: the exact series
    prediction at full order, a correlation-bound envelope below it,
    and the Poisson closed form for the uncoupled control."""
    p = cfg.params
    s = p.coupled_order()
    nu_s = p.nu[s - 1]
    k = p.d - s

    def one(a_idx, stream):
        _, diag = run_chain(cfg.model(a_idx), cfg.chain(a_idx, stream))
        est, se = diag.g_mean_se(s)
        poor = (diag.orientation_counts() <= s - 1).astype(float)
        return est, se, float(poor.mean()), batch_means_se(poor)

    rows = []
    for ai, part in enumerate(_replicated(one, cfg)):
        est, se = _pool([r[0] for r in part], part[0][1])
        occ, occ_se = _pool([r[2] for r in part], part[0][3])
        pa = cfg.model(ai)
        reference = poisson_mean_interaction(pa, s)
        if nu_s < 0.0 and k == 0:
            envelope = reference * rho_series_counts(pa, (1,) * p.d).value
        elif nu_s < 0.0:
            envelope = reference * _rho_bound(pa, s).bound
        else:
            envelope = reference
        rows.append((pa.a, est, se, occ, occ_se, envelope))
    return rows


# ---------------------------------------------------------------------------
# e3: correlation limits across orientation arrangements


E3_HEADER = ("a", "k", "variant", "l", "series", "tail", "limit",
             "abs_error", "denominator", "n_max")


def _arrangements(d: int) -> list[tuple]:
    """(k, variant, l, counts) for every admissible arrangement: one
    group of d-k distinct orientations, two such groups sharing l, and
    the shifted variant with a one-smaller second group."""
    out = []
    for k in range(1, d):
        m = d - k
        out.append((k, "distinct", None, (1,) * m + (0,) * (d - m)))
        for variant, shift, ls in (
                ("two_groups", 0, range(max(d - 2 * k, 0), m + 1)),
                ("overlapping_groups", 1, range(max(d - 2 * k - 1, 0), m))):
            for l in ls:
                c = [int(i < m) for i in range(d)]
                for i in range(m - l, 2 * m - l - shift):
                    c[i] += 1
                out.append((k, variant, l, tuple(c)))
    return out


def experiment_e3_rho_limits(cfg: ExperimentConfig) -> list[tuple]:
    """Series correlations along the grid against their closed-form
    limits, one row per admissible orientation arrangement, with
    truncation tails and the normalized denominator."""
    p = cfg.params
    arrangements = _arrangements(p.d)
    for k, variant, l, counts in arrangements:
        # the arrangement limits all reduce to the unused-axis rule
        if rho_limit(p.d, k, variant, l) != rho_limit_from_counts(counts):
            raise RuntimeError("arrangement construction is inconsistent "
                               "with the limit formulas")
    rows = []
    for ai in range(len(cfg.a_grid)):
        pa = cfg.model(ai)
        series = _series_evaluator(pa)  # one denominator for every query
        rows += [_series_row(pa, series, *arr) for arr in arrangements]
    return rows


# ---------------------------------------------------------------------------
# e4: scaling constants of dilated counts


E4_HEADER = ("a", "k", "mean_scaled", "mean_se", "mean_limit",
             "var_scaled", "var_se", "var_limit", "var_limit_alt",
             "supports", "skew", "skew_se")


def experiment_e4_scaling(cfg: ExperimentConfig) -> list[tuple]:
    """Chain means and variances of every lower-order count under the
    top-order coupling, rescaled by the activity powers of the limit
    statement, against both variance normalizations in circulation.
    Skewness of the standardized count is exploratory output."""
    p = cfg.params
    d = p.d

    def one(a_idx, stream):
        _, diag = run_chain(cfg.model(a_idx), cfg.chain(a_idx, stream))
        stats = []
        for k in range(1, d):
            g = diag.trace_g[:, d - k - 1]
            mean, mean_se = diag.mean_se(g)
            dev = g - mean
            var = float(np.mean(dev ** 2))
            var_se = batch_means_se(dev ** 2)
            sd = math.sqrt(var)
            skew = float(np.mean(dev ** 3)) / sd ** 3 if sd else 0.0
            stats.append((mean, mean_se, var, var_se, skew))
        return stats

    limits = _scaling_limits(p)
    rows = []
    for a, part in zip(cfg.a_grid, _replicated(one, cfg)):
        for k in range(1, d):
            per = [st[k - 1] for st in part]
            mean, mean_se = _pool([q[0] for q in per], per[0][1])
            var, var_se = _pool([q[2] for q in per], per[0][3])
            skew, skew_se = _pool([q[4] for q in per], None)
            lim = limits[k][2]
            mean_pow = a ** (d - k)
            var_pow = a ** (2 * (d - k) - 1)
            var_scaled = var / var_pow
            if lim.variance == lim.variance_alt:
                supports = "either"
            elif abs(var_scaled - lim.variance) \
                    <= abs(var_scaled - lim.variance_alt):
                supports = "statement"
            else:
                supports = "proof"
            rows.append((a, k, mean / mean_pow, mean_se / mean_pow,
                         lim.mean, var_scaled, var_se / var_pow,
                         lim.variance, lim.variance_alt, supports,
                         skew, skew_se))
    return rows


# ---------------------------------------------------------------------------
# dispatch and persistence


def _uncoupled(p: ModelParams) -> None:
    """e1: no coupling, and a covariance grid that fits."""
    if any(v != 0.0 for v in p.nu):
        raise ValueError("Poisson diagnostics need all couplings zero")
    _covariance_grid(p)


def _top_order(p: ModelParams) -> None:
    if p.coupled_order() != p.d:
        raise ValueError("limit sweep needs the top-order interaction")


def _negative_top_order(p: ModelParams) -> None:
    if p.d < 3:
        raise ValueError("scaling discrimination needs d at least 3")
    if p.coupled_order() != p.d or p.nu[p.d - 1] >= 0.0:
        raise ValueError("needs a negative top-order coupling")


@dataclass(frozen=True)
class _Command:
    """What a command is.  Its driver returns (header, rows, chain
    diagnostics or None); grid and replicates are its defaults.  chains:
    it runs Markov chains; streams: it draws one RNG stream per
    replicate task; first_point: it runs at one grid point; stem: the
    name of its table file; requires raises ValueError on a model
    template the driver cannot serve, when the config is built."""

    driver: Callable[[ExperimentConfig], tuple]
    grid: tuple[float, ...] = CHAIN_GRID
    replicates: int = 1
    chains: bool = False
    streams: bool = False
    first_point: bool = False
    stem: str = "results"
    requires: Callable[[ModelParams], object] = lambda p: None


_COMMANDS = {
    "simulate": _Command(_simulate, CHAIN_GRID[:1], chains=True,
                         streams=True, first_point=True, stem="trace"),
    "rho": _Command(_rho, requires=ModelParams.coupled_order),
    "moments": _Command(_moments, CHAIN_GRID[:1], first_point=True,
                        requires=_covariance_grid),
    "e1": _Command(lambda cfg: (E1_HEADER, experiment_e1_poisson_clt(cfg),
                                None), POISSON_GRID, 400, streams=True,
                   requires=_uncoupled),
    "e2": _Command(lambda cfg: (E2_HEADER, experiment_e2_degeneracy(cfg),
                                None), chains=True, streams=True,
                   requires=ModelParams.coupled_order),
    "e3": _Command(lambda cfg: (E3_HEADER, experiment_e3_rho_limits(cfg),
                                None), requires=_top_order),
    "e4": _Command(lambda cfg: (E4_HEADER, experiment_e4_scaling(cfg), None),
                   chains=True, streams=True, requires=_negative_top_order),
}


def _command(experiment: str) -> _Command:
    if experiment not in _COMMANDS:
        raise ValueError("experiment must be one of " + ", ".join(_COMMANDS))
    return _COMMANDS[experiment]


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Run one command, then make the output directory and write its
    table (trace.csv for simulate, results.csv otherwise) and
    manifest.json; return the paths, the header and rows, and the chain
    diagnostics of simulate (else None).  Tasks run serially; threads is
    accepted only as 1."""
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    cmd = _COMMANDS[cfg.experiment]
    out = Path(cfg.out_dir)
    existing = next(q for q in (out, *out.parents) if q.exists())
    if not existing.is_dir():
        raise ValueError(f"output directory {out}: {existing} is a file")
    start = time.perf_counter()
    header, rows, chain = cmd.driver(cfg)
    wall = time.perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cmd.stem}.csv"
    write_table(path, header, rows)
    tasks = [{"a": cfg.a_grid[ai], "replicate": r, "chain_index": stream}
             for ai, r, stream in _streams(cfg)] if cmd.streams else []
    manifest = {
        "experiment": cfg.experiment, "seed": cfg.seed, "tasks": tasks,
        "config": {"model": _model_dict(cfg.params),
                   "a_grid": list(cfg.a_grid), "replicates": cfg.replicates,
                   "chain_steps": list(cfg.chain_steps),
                   "chain_burnin": cfg.burn_in, "chain_thin": cfg.thin},
        "version": __version__, "wall_seconds": round(wall, 3),
        "outputs": {path.name: _sha256(path)}}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2)
                             + "\n")
    return {"results": str(path), "manifest": str(manifest_path),
            "header": header, "rows": rows, "chain": chain}
