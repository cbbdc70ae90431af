"""Command drivers with reproducible persistence.

Every command runs through run_experiment: simulate (one chain and its
trace), rho (correlation series or bounds along the activity grid),
moments (reference and limit constants), and four numbered experiments
that probe the model's limit behavior: Poisson central-limit
diagnostics (e1), degeneracy of coupled interaction counts (e2),
correlation limits across orientation arrangements (e3), and the
scaling constants of dilated counts (e4).  Every run is a pure function
of its configuration and master seed: tasks own disjoint RNG streams
indexed before dispatch, rows are assembled in grid order, and floats
are written with repr so a re-run reproduces the result file byte for
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

import numpy as np

from .correlation import (rho_bounds, rho_limit, rho_limit_from_counts,
                          rho_series_counts)
from .model import ModelParams
from .moments import _covariance_table, i_k_integrals, \
    scaling_limit_constants
from .sampler import ChainConfig, _poisson_g_vectors, batch_means_se, \
    make_rng, run_chain, trace_table

POISSON_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
CHAIN_GRID = (1.0, 2.0, 4.0, 8.0, 16.0)

_SCALAR_KEYS = ("d", "b", "chi.const", "a.grid", "chain.steps",
                "chain.burnin", "chain.thin", "replicates")
# commands that run Markov chains, that draw one RNG stream per replicate
# task, and that run at the first grid value only
_CHAIN_COMMANDS = ("simulate", "e2", "e4")
_STREAM_COMMANDS = ("simulate", "e1", "e2", "e4")
_FIRST_POINT_COMMANDS = ("simulate", "moments")


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
    values that do not parse or are not finite are rejected by key."""
    if key not in conf:
        return default
    try:
        values = tuple(kind(tok) for tok in conf[key].split(",")
                       if tok.strip())
    except ValueError:
        raise ValueError(f"{key} = {conf[key]}: expected "
                         f"{kind.__name__} values") from None
    if not values or not all(math.isfinite(v) for v in values):
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
    chain: ChainConfig
    chain_steps: tuple[int, ...]
    out_dir: str
    seed: int

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError("experiment must be one of "
                             + ", ".join(_EXPERIMENTS))
        if not self.a_grid:
            raise ValueError("activity grid must be nonempty")
        if any(y <= x for x, y in zip(self.a_grid, self.a_grid[1:])):
            raise ValueError("activity grid must be increasing")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if len(self.chain_steps) != len(self.a_grid):
            raise ValueError("per-grid step list must match the grid")
        # every grid point's model and chain settings, before any task runs
        for ai, a in enumerate(self.a_grid):
            try:
                p, chain = self.point(ai)
                if self.experiment in _CHAIN_COMMANDS:
                    chain.resolve(p)
            except ValueError as exc:
                raise ValueError(f"grid point a = {a}: {exc}") from None

    def point(self, a_idx: int, stream: int = 0
              ) -> tuple[ModelParams, ChainConfig]:
        """The model and the chain settings at one grid point, the chain
        drawing from the given RNG stream."""
        return (dataclasses.replace(self.params, a=self.a_grid[a_idx]),
                dataclasses.replace(self.chain,
                                    n_steps=self.chain_steps[a_idx],
                                    seed=self.seed, chain_index=stream))


def build_experiment_config(experiment: str, conf: dict[str, str],
                            out_dir, seed: int) -> ExperimentConfig:
    params = config_model(conf)
    grid = _numbers(conf, "a.grid",
                    POISSON_GRID if experiment == "e1" else CHAIN_GRID)
    replicates = _scalar(conf, "replicates",
                         400 if experiment == "e1" else 1, int)
    steps = _numbers(conf, "chain.steps", (200000,), int)
    if len(steps) == 1:
        steps = steps * len(grid)
    if experiment in _FIRST_POINT_COMMANDS:
        grid, steps, replicates = grid[:1], steps[:1], 1
    burn = _scalar(conf, "chain.burnin", None, int)
    thin = _scalar(conf, "chain.thin", None, int)
    chain = ChainConfig(n_steps=steps[0], seed=seed, burn_in=burn, thin=thin)
    return ExperimentConfig(experiment, params, grid, replicates, chain,
                            steps, str(out_dir), seed)


# ---------------------------------------------------------------------------
# persistence


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a result file bit-exactly."""

    experiment: str
    config: dict
    seed: int
    tasks: tuple[dict, ...]
    version: str
    wall_seconds: float
    outputs: dict[str, str]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True,
                          indent=2) + "\n"


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("facetproc")
    except Exception:
        return "unknown"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_table(path, header, rows):
    """CSV (floats by repr, None empty) or, for a .json path, a list of
    row objects."""
    if Path(path).suffix == ".json":
        text = json.dumps([dict(zip(header, row)) for row in rows],
                          sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(",".join(map(_fmt, row)) + "\n"
                       for row in [header, *rows])
    Path(path).write_bytes(text.encode())


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
    """E G_s under the reference process of the special model: s facets
    must take distinct orientations; each free coordinate contributes
    the mean overlap of s intervals of half-extent b whose centers are
    uniform on a window side of length b."""
    sides = [hi - lo for lo, hi in p.window.bounds]
    if p.center.table is not None or not p.size.is_fixed \
            or p.orientation.kind != "canonical" \
            or any(abs(r - p.b) > 1e-9 * p.b
                   for r in (p.size.max_extent, *sides)):
        raise ValueError("closed form needs the constant-intensity canonical "
                         "model with half-extent and window sides b")
    free = p.b * (s + 3) / (s + 1)
    return ((p.a * p.total_intensity / p.d) ** s * math.comb(p.d, s)
            * free ** (p.d - s))


def _rho_bound(pa: ModelParams, s: int):
    """Certified correlation bound for one facet on each of the first s
    axes."""
    return rho_bounds(pa, (1,) * s + (0,) * (pa.d - s))


def _series_row(pa: ModelParams, k: int, variant: str, l, counts) -> tuple:
    """(a, k, variant, l, series, tail, limit, abs_error, denominator,
    n_max) for one orientation count vector."""
    res = rho_series_counts(pa, counts)
    lim = float(rho_limit(pa.d, k, variant, l))
    return (pa.a, k, variant, l, res.value, res.tail, lim,
            abs(res.value - lim), res.denominator, res.n_max)


def _covariances(p: ModelParams, seed: int) -> dict:
    """Asymptotic covariance constants (value, se) for orders i <= j, as
    asymptotic_covariance gives each, on one draw of query facets with
    each order's increments evaluated once."""
    pairs = [(i, j) for i in range(1, p.d + 1) for j in range(i, p.d + 1)]
    return _covariance_table(pairs, p, n_samples=400, seed=seed,
                             method="auto", resolution=100, mc_patterns=2000)


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
    p, chain = cfg.point(0)
    _, diag = run_chain(p, chain)
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
        pa, _ = cfg.point(ai)
        if s < d:
            res = _rho_bound(pa, s)
            rows.append((pa.a, s, res.bound, res.rate, res.tail, res.n_max))
            continue
        for k, variant, l, counts in _arrangements(d):
            if variant == "distinct":
                row = _series_row(pa, k, variant, l, counts)
                rows.append(row[:2] + row[4:])
    return (RHO_SERIES_HEADER if s == d else RHO_BOUNDS_HEADER), rows, None


MOMENTS_HEADER = ("quantity", "i", "j", "value", "se")


def _moments(cfg: ExperimentConfig):
    """Reference means, asymptotic covariances and scaling-limit
    constants at the first grid point."""
    p, _ = cfg.point(0)
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
    if any(v != 0.0 for v in p.nu):
        raise ValueError("Poisson diagnostics need all couplings zero")
    d = p.d
    reps = cfg.replicates
    means = {a: [poisson_mean_interaction(dataclasses.replace(p, a=a), j)
                 for j in range(1, d + 1)] for a in cfg.a_grid}
    blocks = [_poisson_g_vectors(cfg.point(ai)[0], rngs)
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
        _, diag = run_chain(*cfg.point(a_idx, stream))
        est, se = diag.g_mean_se(s)
        masks = diag.trace_occupancy[diag.trace_occupancy >= 0]
        poor = np.array([bin(int(m)).count("1") <= s - 1
                         for m in masks], dtype=float)
        return est, se, float(poor.mean()), batch_means_se(poor)

    rows = []
    for ai, part in enumerate(_replicated(one, cfg)):
        est, se = _pool([r[0] for r in part], part[0][1])
        occ, occ_se = _pool([r[2] for r in part], part[0][3])
        pa, _ = cfg.point(ai)
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
    if p.coupled_order() != p.d:
        raise ValueError("limit sweep needs the top-order interaction")
    arrangements = _arrangements(p.d)
    for k, variant, l, counts in arrangements:
        # the arrangement limits all reduce to the unused-axis rule
        if rho_limit(p.d, k, variant, l) != rho_limit_from_counts(counts):
            raise RuntimeError("arrangement construction is inconsistent "
                               "with the limit formulas")
    return [_series_row(cfg.point(ai)[0], *arr)
            for ai in range(len(cfg.a_grid)) for arr in arrangements]


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
    if p.d < 3:
        raise ValueError("scaling discrimination needs d at least 3")
    if p.coupled_order() != p.d or p.nu[p.d - 1] >= 0.0:
        raise ValueError("needs a negative top-order coupling")
    d = p.d

    def one(a_idx, stream):
        _, diag = run_chain(*cfg.point(a_idx, stream))
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


def _fixed_header(driver, header):
    return lambda cfg: (header, driver(cfg), None)


# command -> driver(cfg) returning (header, rows, chain diagnostics or None)
_EXPERIMENTS = {
    "simulate": _simulate,
    "rho": _rho,
    "moments": _moments,
    "e1": _fixed_header(experiment_e1_poisson_clt, E1_HEADER),
    "e2": _fixed_header(experiment_e2_degeneracy, E2_HEADER),
    "e3": _fixed_header(experiment_e3_rho_limits, E3_HEADER),
    "e4": _fixed_header(experiment_e4_scaling, E4_HEADER),
}


def run_experiment(cfg: ExperimentConfig, threads: int = 1,
                   fmt: str = "csv") -> dict:
    """Run one command, write its table (trace.<fmt> for simulate,
    results.<fmt> otherwise) and manifest.json; return the paths, the
    header and rows, and the chain diagnostics of simulate (else None).
    Tasks run serially; threads is accepted only as 1."""
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    if fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    header, rows, chain = _EXPERIMENTS[cfg.experiment](cfg)
    wall = time.perf_counter() - start
    name = "trace" if cfg.experiment == "simulate" else "results"
    path = out / f"{name}.{fmt}"
    write_table(path, header, rows)
    tasks = ()
    if cfg.experiment in _STREAM_COMMANDS:
        tasks = tuple({"a": cfg.a_grid[ai], "replicate": r,
                       "chain_index": stream}
                      for ai, r, stream in _streams(cfg))
    config = {"model": _model_dict(cfg.params), "a_grid": list(cfg.a_grid),
              "replicates": cfg.replicates,
              "chain_steps": list(cfg.chain_steps),
              "chain_burnin": cfg.chain.burn_in, "chain_thin": cfg.chain.thin}
    manifest = RunManifest(
        experiment=cfg.experiment, config=config, seed=cfg.seed, tasks=tasks,
        version=_package_version(), wall_seconds=round(wall, 3),
        outputs={path.name: _sha256(path)})
    manifest_path = out / "manifest.json"
    manifest_path.write_text(manifest.to_json())
    return {"results": str(path), "manifest": str(manifest_path),
            "header": header, "rows": rows, "chain": chain}
