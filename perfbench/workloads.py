"""The benchmark's three workloads: inputs made from a seed, and their tasks.

Each workload is a list of tasks run serially in one process.  A task calls
the package's public API with inputs generated here, returns plain values
for the correctness checks, and names the result files it wrote.  Every
call goes through a module attribute looked up at call time, so the
tracer's wrappers are the ones that run when tracing is on.

Sizes are the reference sizing times ``scale``: chain steps and Monte
Carlo sample counts scale, e1's replicates, the grids and the CLI configs
do not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from facetproc import cli, correlation, harness, moments, sampler, ustat
from facetproc.geometry import Facet, Window
from facetproc.model import (CenterIntensity, ModelParams, OrientationLaw,
                             SizeLaw)

def derive_seed(*parts) -> int:
    """A 32-bit seed that depends on every part, stable across platforms."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Task:
    """One call into the package.

    kind is "chain" when the work is Markov chain steps, "mc" when it is
    Monte Carlo integrand evaluations, else "other"; draws is that work,
    counted from the inputs.  run returns (values, result_files); check
    returns the failures found in the values; golden picks the values
    that do not depend on the seed, which must equal the recorded ones.
    """

    name: str
    kind: str
    draws: int
    run: Callable[[], tuple[dict, list]]
    check: Callable[[dict], list[str]]
    golden: Callable[[dict], dict] | None = None


def _scaled(n: int, scale: float, least: int) -> int:
    return max(least, int(round(n * scale)))


def _write_conf(path: Path, conf: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in conf.items()))
    return str(path)


def _read_rows(path) -> list[dict]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _f(row, key):
    return float(row[key]) if row[key] != "" else None


def _columns(*keys):
    def pick(values):
        return {k: [_f(row, k) for row in values["rows"]] for k in keys}
    return pick


def _z_fail(label, est, target, se, floor=0.0, z=6.0) -> list[str]:
    """Fails when est is more than z standard errors plus floor off target."""
    if not (math.isfinite(est) and math.isfinite(se)):
        return [f"{label}: non-finite estimate {est!r} or SE {se!r}"]
    if abs(est - target) > z * se + floor:
        return [f"{label}: {est!r} vs {target!r}, {z} SE = {z * se!r}, "
                f"floor {floor!r}"]
    return []


def _experiment(experiment: str, conf: dict, out: Path, seed: int):
    """The resolved config and a task body running it in one thread."""
    cfg = harness.build_experiment_config(
        experiment, {k: str(v) for k, v in conf.items()}, out, seed)

    def run():
        res = harness.run_experiment(cfg, threads=1)
        return {"rows": _read_rows(res["results"])}, [res["results"]]

    return cfg, run


def _chain_steps(cfg) -> int:
    return sum(cfg.chain_steps) * cfg.replicates


# ---------------------------------------------------------------------------
# chain-counts: both counts-engine configurations of the acceptance gate


def _chain_counts(seed: int, scale: float, out: Path) -> list[Task]:
    cfg_e2, run_e2 = _experiment("e2", {
        "d": 2, "nu.2": -2, "chi.const": 4, "a.grid": "1,2,4,8,16",
        "chain.steps": _scaled(200_000, scale, 2_000),
    }, out / "e2-d2", derive_seed(seed, "e2-d2"))

    def check_e2(values):
        fails = []
        for row in values["rows"]:
            # The envelope is the exact series value at full order.  At
            # a = 8 and 16 the chain never leaves single-orientation states
            # and reports 0 with SE 0 against exact values of 3.4e-5 and
            # 1.4e-10, hence the absolute floor; it also covers a short
            # chain at a = 4 (exact 7.4e-3) that has not left them yet.
            fails += _z_fail(f"e2 d=2 a={row['a']}", _f(row, "estimate"),
                             _f(row, "envelope"), _f(row, "se"), floor=1e-2)
        return fails

    cfg_e4, run_e4 = _experiment("e4", {
        "d": 3, "nu.3": -1, "a.grid": "4,8,16",
        "chain.steps": _scaled(100_000, scale, 1_000),
    }, out / "e4-d3", derive_seed(seed, "e4-d3"))
    p4 = cfg_e4.params
    facet_g1 = (2.0 * p4.b) ** (p4.d - 1)

    def check_e4(values):
        # mean facet count against aT * rho(1,0,0) from the exact series
        fails = []
        for row in values["rows"]:
            if int(row["k"]) != p4.d - 1:
                continue
            a = float(row["a"])
            pa = dataclasses.replace(p4, a=a)
            rho = correlation.rho_series_counts(pa, (1,) + (0,) * (p4.d - 1))
            to_n = a / facet_g1
            fails += _z_fail(f"e4 a={row['a']} mean count",
                             _f(row, "mean_scaled") * to_n,
                             a * pa.total_intensity * rho.value,
                             _f(row, "mean_se") * to_n, floor=1e-9)
        return fails

    return [
        Task("e2-d2", "chain", _chain_steps(cfg_e2), run_e2, check_e2,
             _columns("envelope")),
        Task("e4-d3", "chain", _chain_steps(cfg_e4), run_e4, check_e4,
             _columns("mean_limit", "var_limit", "var_limit_alt")),
    ]


# ---------------------------------------------------------------------------
# chain-pattern: the general engine, canonical and hemisphere orientations


def hemisphere_model(a: float) -> ModelParams:
    window = Window.cube(1.0, 2)
    return ModelParams(2, 1.0, (0.0, -1.0), a,
                       CenterIntensity(window, level=1.0), SizeLaw.fixed(1.0),
                       OrientationLaw(2, "hemisphere"))


def chain_summary(diag) -> dict:
    """Exact counters and sums of one chain, for checks and golden values."""
    return {
        "birth_proposed": diag.birth_proposed,
        "birth_accepted": diag.birth_accepted,
        "death_proposed": diag.death_proposed,
        "death_accepted": diag.death_accepted,
        "retained": diag.n_retained,
        "n_sum": int(diag.trace_n.sum()),
        "n_max": int(diag.trace_n.max()) if diag.n_retained else 0,
        "g_sum": [math.fsum(col) for col in diag.trace_g.T.tolist()],
    }


def _chain_pattern(seed: int, scale: float, out: Path) -> list[Task]:
    steps = _scaled(20_000, scale, 1_000)
    cfg_e2, run_e2 = _experiment("e2", {
        "d": 3, "nu.2": -1, "a.grid": "2,4,8", "chain.steps": steps,
    }, out / "e2-d3-nu2", derive_seed(seed, "e2-d3-nu2"))

    def check_e2(values):
        # the certified envelope bounds the coupled count from above
        fails = []
        for row in values["rows"]:
            est, se, env = (_f(row, k) for k in ("estimate", "se", "envelope"))
            if not est <= env + 6.0 * se:
                fails.append(f"e2 d=3 a={row['a']}: {est!r} above envelope "
                             f"{env!r} by more than 6 SE ({se!r})")
        return fails

    p_h = hemisphere_model(4.0)
    cfg_h = sampler.ChainConfig(n_steps=steps,
                                seed=derive_seed(seed, "hemisphere"))

    def run_h():
        _, diag = sampler.run_chain(p_h, cfg_h)
        n_mean, n_se = diag.n_mean_se()
        values = chain_summary(diag)
        values.update(n_mean=n_mean, n_se=n_se,
                      g1_is_2n=bool((diag.trace_g[:, 0]
                                     == 2.0 * diag.trace_n).all()))
        return values, []

    def check_h(values):
        # Repulsion keeps the mean count at or below the Poisson mean aT,
        # and G_1 of a d=2 pattern is n times the facet length 2.
        a_t = p_h.a * p_h.total_intensity
        fails = []
        if not values["n_mean"] <= a_t + 6.0 * values["n_se"]:
            fails.append(f"hemisphere mean count {values['n_mean']!r} "
                         f"above aT = {a_t!r}")
        if not values["g1_is_2n"]:
            fails.append("hemisphere trace: G_1 differs from 2 n")
        return fails

    return [
        Task("e2-d3-nu2", "chain", _chain_steps(cfg_e2), run_e2, check_e2,
             _columns("envelope")),
        Task("hemisphere", "chain", steps, run_h, check_h),
    ]


# ---------------------------------------------------------------------------
# reference-moments: whole-pattern statistics, quadrature, series, CLI


def _reference_moments(seed: int, scale: float, out: Path) -> list[Task]:
    tasks = []
    # Replicates stay at 200 whatever the scale: below that the products
    # behind c_emp are too heavy-tailed for their SE (z down to -6.5 at
    # a = 16 over 60 seeds with 50 replicates, -3.3 over 40 with 200).
    reps = 200
    cfg_e1, run_e1 = _experiment("e1", {
        "d": 3, "a.grid": "1,4,16", "replicates": reps,
    }, out / "e1-d3", derive_seed(seed, "e1-d3"))

    def check_e1(values):
        # The theory column is the large-activity limit.  At a = 1 a
        # pattern holds about one facet and G_3 is nearly always 0; at
        # a = 4 z reached -4 over 40 seeds.  The limit is
        # checked at a = 16; the other rows must be finite.
        fails = []
        for row in values["rows"]:
            if float(row["a"]) < 16.0:
                if not math.isfinite(_f(row, "c_emp")):
                    fails.append(f"e1 a={row['a']}: non-finite covariance")
                continue
            se = math.hypot(_f(row, "c_emp_se"), _f(row, "c_theory_se"))
            fails += _z_fail(f"e1 a={row['a']} c[{row['i']},{row['j']}]",
                             _f(row, "c_emp"), _f(row, "c_theory"), se)
        return fails

    tasks.append(Task("e1-d3", "mc", reps * len(cfg_e1.a_grid), run_e1,
                      check_e1))

    # G2 * G2 under the reference process, d = 2: G2 = N0 N1 with
    # independent Poisson(lambda) counts, so E G2^2 = (lambda + lambda^2)^2.
    p_g2 = ModelParams.special(2, (0.0, 0.0), a=3.0)
    k2 = moments.interaction_kernel(2)
    spec_g2 = moments.MomentSpec(((2, k2), (2, k2)),
                                 n_samples=_scaled(10_000, scale, 200),
                                 seed=derive_seed(seed, "g2g2"))
    lam = p_g2.a * p_g2.total_intensity / 2.0

    def run_g2():
        value, se = moments.mixed_moment(spec_g2, p_g2)
        return {"value": value, "se": se}, []

    tasks.append(Task(
        "mixed-g2g2", "mc",
        spec_g2.n_samples * len(moments.enumerate_partitions([2, 2])),
        run_g2,
        lambda v: _z_fail("G2.G2", v["value"], (lam + lam * lam) ** 2,
                          v["se"])))

    # G3 under the top-order coupling: full-order content is an indicator,
    # so E G3 = (aT/3)^3 rho(1,1,1) with rho from the exact series.
    p_g3 = ModelParams.special(3, (0.0, 0.0, -1.0), a=4.0)
    spec_g3 = moments.MomentSpec(
        ((3, moments.interaction_kernel(3)),),
        provider=correlation.correlation_provider(p_g3),
        n_samples=_scaled(5_000, scale, 200), seed=derive_seed(seed, "g3"))

    def run_g3():
        value, se = moments.mixed_moment(spec_g3, p_g3)
        return {"value": value, "se": se}, []

    def check_g3(values):
        rho = correlation.rho_series_counts(p_g3, (1, 1, 1)).value
        target = (p_g3.a * p_g3.total_intensity / 3.0) ** 3 * rho
        return _z_fail("G3 with provider", values["value"], target,
                       values["se"])

    tasks.append(Task("mixed-g3", "mc", spec_g3.n_samples, run_g3,
                      check_g3))

    # Leading centered-moment coefficient of G2 under the reference
    # process: the correlation factorizes, so the coefficient is 0.
    p_c = ModelParams.special(2, (0.0, 0.0), a=1.0)
    n_c = _scaled(5_000, scale, 200)
    seed_c = derive_seed(seed, "centered")

    def run_c():
        value, se = moments.centered_moment_leading(k2, 2, 2, None, p_c,
                                                    n_samples=n_c,
                                                    seed=seed_c)
        return {"value": value, "se": se}, []

    tasks.append(Task("centered-g2", "mc", 2 * n_c, run_c,
                      lambda v: _z_fail("centered G2 m=2", v["value"], 0.0,
                                        v["se"], floor=1e-12)))

    # Monte Carlo expected increment against the tensor quadrature.
    rng = random.Random(derive_seed(seed, "increment-facet"))
    y = Facet((rng.random(), rng.random()), 1.0, rng.randrange(2))
    p_i = ModelParams.special(2, (0.0, 0.0), a=1.0)
    n_i = _scaled(2_000, scale, 100)
    seed_i = derive_seed(seed, "increment")

    def run_i():
        value, se = moments.expected_increment(2, y, p_i, method="mc",
                                               n_samples=n_i, seed=seed_i)
        quad, _ = moments.expected_increment(2, y, p_i, method="quadrature")
        return {"value": value, "se": se, "quadrature": quad}, []

    tasks.append(Task("increment-mc", "mc", n_i, run_i,
                      lambda v: _z_fail("expected increment", v["value"],
                                        v["quadrature"], v["se"])))

    # three CLI runs: bounds, moment constants, the series sweep e3
    cli_runs = [
        ("cli-rho", ["rho"], {"d": 4, "nu.2": -1, "a.grid": "2,4,8"}),
        ("cli-moments", ["moments"], {"d": 3}),
        ("cli-e3", ["experiment", "e3"],
         {"d": 4, "nu.4": -1, "a.grid": "2,8,16"}),
    ]
    cli_seed = derive_seed(seed, "cli")
    for name, command, conf in cli_runs:
        conf_path = _write_conf(out / f"{name}.conf", conf)
        argv = command + ["--config", conf_path, "--seed", str(cli_seed),
                          "--out", str(out / name)]

        def run_cli(argv=argv, name=name):
            code = cli.main(argv)
            path = out / name / "results.csv"
            rows = _read_rows(path)
            values = {"exit": code}
            if name == "cli-moments":
                values["constants"] = [r for r in rows
                                       if r["quantity"] != "covariance"]
                values["cov11"] = [r for r in rows
                                   if r["quantity"] == "covariance"][0]
            else:
                values["rows"] = rows
            return values, [str(path)]

        tasks.append(Task(name, "other", 0, run_cli, _check_cli,
                          _cli_golden))
    return tasks


def _cli_golden(values) -> dict:
    # every column of rho and e3; the seed-free rows of moments
    rows = values["constants"] if "constants" in values else values["rows"]
    return {"rows": [{k: (_f(r, k) if k not in ("quantity", "variant")
                          else r[k]) for k in r} for r in rows]}


def _check_cli(values) -> list[str]:
    fails = []
    if values["exit"] != 0:
        fails.append(f"cli exit code {values['exit']}")
    if "cov11" in values:
        # the order-1 increment is the constant facet content (2b)^(d-1),
        # so the (1,1) covariance is T (2b)^(2(d-1)) = 16 exactly
        row = values["cov11"]
        if float(row["value"]) != 16.0 or float(row["se"]) != 0.0:
            fails.append(f"covariance (1,1) {row['value']} +- {row['se']}, "
                         "expected 16 +- 0")
    return fails


BUILDERS = {
    "chain-counts": _chain_counts,
    "chain-pattern": _chain_pattern,
    "reference-moments": _reference_moments,
}


def build(workload: str, seed: int, scale: float, out: Path) -> list[Task]:
    """The workload's tasks for one pass; config files land under out."""
    out.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, scale, out)


# ---------------------------------------------------------------------------
# pinned runs: exact values compared with those of the seed code


def pinned_values(workload: str) -> dict:
    """Short runs at fixed seeds of the engines and integrals a workload uses.

    Their birth and death counters, retained-count sums, G sums and Monte
    Carlo values must equal the recorded ones exactly (floats to 1e-12), so
    a change that alters a trajectory or a draw sequence shows even when
    every statistical check passes.
    """
    out = {}
    chains = {
        "chain-counts": [
            ("counts-d2", ModelParams.special(2, (0.0, -2.0), a=2.0, chi=4.0),
             20_000),
            ("counts-d3", ModelParams.special(3, (0.0, 0.0, -1.0), a=8.0),
             10_000),
        ],
        "chain-pattern": [
            ("pattern-d3-nu2", ModelParams.special(3, (0.0, -1.0, 0.0),
                                                   a=4.0), 2_000),
            ("pattern-hemisphere", hemisphere_model(4.0), 2_000),
        ],
    }.get(workload, [])
    for name, p, steps in chains:
        _, diag = sampler.run_chain(p, sampler.ChainConfig(n_steps=steps,
                                                           seed=20150101))
        out[name] = chain_summary(diag)
    if workload == "reference-moments":
        k2 = moments.interaction_kernel(2)
        p2 = ModelParams.special(2, (0.0, 0.0), a=3.0)
        spec = moments.MomentSpec(((2, k2), (2, k2)), n_samples=300,
                                  seed=20150101)
        out["mixed-g2g2"] = list(moments.mixed_moment(spec, p2))
        y = Facet((0.3, 0.6), 1.0, 1)
        out["increment-mc"] = list(moments.expected_increment(
            2, y, p2, method="mc", n_samples=200, seed=20150101))
        p3 = ModelParams.special(3, (0.0, 0.0, 0.0), a=1.0)
        out["covariance-2-3"] = list(moments.asymptotic_covariance(
            2, 3, p3, n_samples=40, seed=20150101, resolution=40))
        x = sampler.sample_poisson(dataclasses.replace(p3, a=8.0),
                                   sampler.make_rng(20150101))
        out["g-vector-d3"] = ustat.g_vector(x).tolist()
        spec = moments.MomentSpec(((2, moments.interaction_kernel(2)),),
                                  n_samples=300, seed=20150101)
        out["mixed-g2-d3"] = list(moments.mixed_moment(spec, p3))
    return out
