"""Acceptance gate: ten numbered checks, one verdict line each.

Chain budgets and seeds are fixed so every verdict is deterministic;
the whole module takes about two minutes, dominated by the degeneracy
sweep.  Run with -s to watch the verdict lines appear.
"""

import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from facetproc.correlation import rho_series_counts
from facetproc.harness import build_experiment_config, \
    experiment_e1_poisson_clt, run_experiment
from facetproc.model import (ModelParams, local_stability_bound,
                             log_conditional_intensity)
from facetproc.moments import (MomentSpec, enumerate_partitions,
                               i_k_integrals, measure_kernel, mixed_moment)
from facetproc.sampler import (ChainConfig, make_rng, run_chain,
                               sample_poisson)
from facetproc.ustat import FacetPattern, g_vector


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {status}: {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_poisson_reduction():
    p = ModelParams.special(2, (0.0, 0.0), a=20.0)
    start = time.perf_counter()
    _, diag = run_chain(p, ChainConfig(n_steps=2_000_000, seed=3))
    wall = time.perf_counter() - start
    t = p.a * p.total_intensity
    n_mean, n_se = diag.n_mean_se()
    g_mean, g_se = diag.g_mean_se(1)
    ok = (abs(n_mean - t) <= 3.0 * n_se
          and abs(g_mean - 2.0 * t) <= 3.0 * g_se
          and wall < 60.0)
    verdict(1, "uncoupled chain matches Poisson count moments", ok,
            f"EN {n_mean:.3f} vs {t:.0f}, EG1 {g_mean:.3f} vs {2 * t:.0f}, "
            f"{wall:.1f}s")


def test_criterion_02_reference_pair_mean():
    p = ModelParams.special(2, (0.0, 0.0), a=3.0)
    reps = 400
    vals = np.array([g_vector(sample_poisson(p, make_rng(91, r)))[1]
                     for r in range(reps)])
    target = (p.a * p.total_intensity) ** 2 / 4.0
    se = vals.std(ddof=1) / math.sqrt(reps)
    ok = abs(vals.mean() - target) <= 3.0 * se
    verdict(2, "direct pair-count mean matches the closed form", ok,
            f"{vals.mean():.4f} vs {target:.4f}, 3se {3 * se:.4f}, "
            f"{reps} replicates")


def brute_partitions(sizes):
    """All set partitions of the global argument indices, filtered to
    blocks meeting each factor at most once."""
    group = [g for g, size in enumerate(sizes) for _ in range(size)]
    labels = list(range(len(group)))

    def split(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for sub in split(rest):
            for k in range(len(sub)):
                yield sub[:k] + [[head] + sub[k]] + sub[k + 1:]
            yield [[head]] + sub

    out = []
    for part in split(labels):
        if all(len({group[i] for i in block}) == len(block)
               for block in part):
            out.append(frozenset(frozenset(b) for b in part))
    return set(out)


def test_criterion_03_partition_counts_and_variance():
    n11 = len(enumerate_partitions((1, 1)))
    n22 = len(enumerate_partitions((2, 2)))
    ok_counts = n11 == 2 and n22 == 7
    ok_brute = True
    for sizes in ((1, 1), (2, 2), (2, 1), (1, 1, 1), (3, 2)):
        got = {frozenset(p) for p in enumerate_partitions(sizes)}
        ok_brute = ok_brute and got == brute_partitions(sizes)

    p = ModelParams.special(2, (0.0, 0.0), a=3.0)
    t = p.a * p.total_intensity
    second, se2 = mixed_moment(
        MomentSpec(factors=((1, measure_kernel), (1, measure_kernel))), p)
    first, se1 = mixed_moment(MomentSpec(factors=((1, measure_kernel),)), p)
    var = second - first ** 2
    target = t * 4.0
    # constant integrands integrate without sampling error
    tol = 3.0 * (se2 + 2.0 * abs(first) * se1) + 1e-9 * target
    ok_var = abs(var - target) <= tol
    verdict(3, "partition counts match brute force; fold variance exact",
            ok_counts and ok_brute and ok_var,
            f"|P11|={n11}, |P22|={n22}, VarG1 {var:.6f} vs {target:.6f}")


def test_criterion_04_correlation_limits():
    p = ModelParams.special(3, (0.0, 0.0, -1.0), a=16.0)
    r1 = rho_series_counts(p, (1, 1, 0))   # a pair on two axes
    r2 = rho_series_counts(p, (1, 0, 0))   # a single facet
    ok = (abs(r1.value - 1.0 / 3.0) < 0.02
          and abs(r2.value - 2.0 / 3.0) < 0.02
          and r1.tail < 1e-6 and r2.tail < 1e-6
          and abs(r1.denominator - 3.0) < 0.05)
    verdict(4, "top-order correlations near their limits at the grid top",
            ok, f"k=1 {r1.value:.5f} vs 1/3, k=2 {r2.value:.5f} vs 2/3, "
            f"B {r1.denominator:.4f} vs 3, tails < {max(r1.tail, r2.tail):.1e}")


def test_criterion_05_degeneracy_sweep():
    p = ModelParams.special(2, (0.0, -2.0), chi=4.0)
    grid = (1.0, 2.0, 4.0, 8.0, 16.0)
    steps = (1_000_000, 1_000_000, 2_000_000, 20_000_000, 4_000_000)
    thins = (None, None, None, 8, 2)
    ests = []
    occ_last = math.nan
    for i, (a, n, thin) in enumerate(zip(grid, steps, thins)):
        pa = dataclasses.replace(p, a=a)
        cfg = ChainConfig(n_steps=n, seed=42, thin=thin, chain_index=i)
        _, diag = run_chain(pa, cfg)
        ests.append(diag.g_mean_se(2)[0])
        if a == grid[-1]:
            occ_last = diag.occupancy_fraction(1)
    decreasing = all(x > y for x, y in zip(ests, ests[1:]))
    ok = decreasing and ests[-1] < 0.25 * ests[0] and occ_last > 0.9
    verdict(5, "coupled pair count degenerates along the activity grid",
            ok, "est " + " > ".join(f"{e:.2e}" for e in ests)
            + f", single-orientation occupancy {occ_last:.3f}")


def test_criterion_06_scaling_mean():
    p = ModelParams.special(3, (0.0, 0.0, -1.0))
    limit = 5.0 / 27.0
    scaled = []
    for idx, a in enumerate((4.0, 8.0, 16.0)):
        pa = dataclasses.replace(p, a=a)
        _, diag = run_chain(pa, ChainConfig(n_steps=1_200_000, seed=7,
                                            chain_index=idx))
        scaled.append(diag.g_mean_se(2)[0] / a ** 2)
    monotone = scaled[0] > scaled[1] > scaled[2] > 0.0
    near = abs(scaled[-1] - limit) < 0.2 * limit
    i1, _ = i_k_integrals(3, 1)
    ok = monotone and near and abs(i1 - 5.0 / 3.0) < 1e-6
    verdict(6, "scaled pair mean approaches its limit constant", ok,
            "G2/a^2 " + " > ".join(f"{v:.4f}" for v in scaled)
            + f" -> {limit:.4f}, I_1 {i1:.8f}")


def random_facet(p, rng):
    return p.sample_facet_from_uniforms(rng.random(), rng.random(p.d),
                                        rng.random())


def test_criterion_07_repulsiveness():
    rng = make_rng(314)
    checked = 0
    ok = True
    combos = [(2, 2), (3, 2), (3, 3)]
    for d, s in combos:
        p = ModelParams.submodel(d, s, -1.3)
        p4 = dataclasses.replace(p, a=4.0)
        for _ in range(334):
            x1 = sample_poisson(p4, rng)
            keep = [f for f in x1.facets if rng.random() < 0.5]
            x2 = FacetPattern.of(keep, d)
            u = random_facet(p, rng)
            l1 = log_conditional_intensity([u], x1, p)
            l2 = log_conditional_intensity([u], x2, p)
            ok = ok and l1 <= l2
            checked += 1
    # the first-order model ignores the conditioning pattern entirely
    p1 = ModelParams.submodel(2, 1, 0.7)
    base = log_conditional_intensity([random_facet(p1, rng)],
                                     p1.empty_pattern(), p1)
    x_free = True
    for _ in range(50):
        x = sample_poisson(dataclasses.replace(p1, a=3.0), rng)
        u = random_facet(p1, rng)
        x_free = x_free and (log_conditional_intensity([u], x, p1) == base)
    verdict(7, "conditional intensity is repulsive and first-order flat",
            ok and x_free and checked >= 1000,
            f"{checked} nested pairs, first-order value {base:.6f}")


def test_criterion_08_local_stability():
    rng = make_rng(2718)
    ok_bound = True
    ok_classify = True
    equalities = 0
    for d in (2, 3):
        nu = (0.3, -0.8) if d == 2 else (0.3, -0.8, -0.5)
        p = ModelParams.special(d, nu)
        log_bound = math.log(local_stability_bound(p))
        p3 = dataclasses.replace(p, a=3.0)
        for _ in range(5000):
            x = sample_poisson(p3, rng)
            u = random_facet(p, rng)
            lam = log_conditional_intensity([u], x, p)
            ok_bound = ok_bound and lam <= log_bound + 1e-12
            mixes = any(f.orientation != u.orientation for f in x.facets)
            if mixes:
                ok_classify = ok_classify and lam < log_bound - 1e-12
            else:
                ok_classify = ok_classify and abs(lam - log_bound) <= 1e-12
                equalities += 1
    # constructed extremal model: only the free first order is active,
    # so every insertion attains the bound exactly
    p1 = ModelParams.special(2, (0.4, 0.0))
    log_b1 = math.log(local_stability_bound(p1))
    # log(exp(.)) costs one rounding, so match to an ulp, not exactly
    extremal = all(
        abs(log_conditional_intensity(
            [random_facet(p1, rng)],
            sample_poisson(dataclasses.replace(p1, a=2.0), rng), p1)
            - log_b1) <= 1e-12
        for _ in range(100))
    verdict(8, "conditional intensity respects the stability bound",
            ok_bound and ok_classify and extremal and equalities > 0,
            f"10000 draws, {equalities} parallel-only equality cases")


def test_criterion_09_clt_diagnostics():
    cfg = build_experiment_config(
        "e1", {"d": "2", "a.grid": "1,4,16", "replicates": "2000"},
        "unused", seed=17)
    rows = experiment_e1_poisson_clt(cfg)
    by = {(r[0], r[1], r[2]): r for r in rows}
    ok = True
    skews = []
    for a in (1.0, 4.0, 16.0):
        for (i, j, target) in ((1, 1, 4.0), (1, 2, 1.0)):
            r = by[(a, i, j)]
            ok = ok and abs(r[3] - target) <= 3.0 * r[4]
        skews.append(by[(a, 1, 1)][9])
    ok = ok and skews[0] > skews[1] > skews[2]
    verdict(9, "standardized vector matches asymptotic covariances", ok,
            f"C11 {by[(16.0, 1, 1)][3]:.3f} vs 4, "
            f"C12 {by[(16.0, 1, 2)][3]:.3f} vs 1, "
            "skew " + " > ".join(f"{s:.3f}" for s in skews))


def test_criterion_10_determinism(tmp_path):
    conf = {"d": "2", "nu.2": "-1", "a.grid": "1,2",
            "chain.steps": "20000", "replicates": "2"}
    blobs = []
    hashes = []
    for name in ("first", "second"):
        cfg = build_experiment_config("e2", conf, tmp_path / name, seed=6)
        res = run_experiment(cfg)
        blobs.append(Path(res["results"]).read_bytes())
        manifest = json.loads(Path(res["manifest"]).read_text())
        hashes.append(manifest["outputs"]["results.csv"])
    e3_blobs = []
    for name in ("third", "fourth"):
        cfg = build_experiment_config(
            "e3", {"d": "3", "nu.3": "-1", "a.grid": "2,8"},
            tmp_path / name, seed=1)
        e3_blobs.append(Path(run_experiment(cfg)["results"]).read_bytes())
    ok = (blobs[0] == blobs[1] and hashes[0] == hashes[1]
          and e3_blobs[0] == e3_blobs[1])
    verdict(10, "re-running an experiment reproduces identical bytes", ok,
            f"e2 sha {hashes[0][:12]}..., e3 {len(e3_blobs[0])} bytes")
