import math

import numpy as np
import pytest

from facetproc.model import ModelParams, OrientationLaw, local_stability_bound
from facetproc.sampler import (
    ChainConfig,
    batch_means_se,
    bdmh_step,
    birth_log_ratio,
    death_log_ratio,
    export_trace,
    make_rng,
    run_chain,
    sample_poisson,
)
from facetproc.ustat import FacetPattern, g_vector


def test_sample_poisson_moments():
    p = ModelParams.special(2, (0.0, 0.0), a=10.0)
    rng = make_rng(1)
    reps = 600
    ns, g1s, g2s = [], [], []
    for _ in range(reps):
        x = sample_poisson(p, rng)
        g = g_vector(x)
        ns.append(x.n)
        g1s.append(g[0])
        g2s.append(g[1])
    a_t = p.a * p.total_intensity
    n_mean = np.mean(ns)
    assert abs(n_mean - a_t) < 3 * np.std(ns) / math.sqrt(reps)
    assert abs(np.var(ns) - a_t) < 3 * a_t * math.sqrt(2 / (reps - 1)) + 1.0
    # Slivnyak-Mecke: E G_1 = aT (2b)^{d-1}
    assert abs(np.mean(g1s) - a_t * 2.0) < 3 * np.std(g1s) / math.sqrt(reps)
    # d=2 special: E G_2 = a^2 T^2 / 4 = 25
    assert abs(np.mean(g2s) - 25.0) < 3 * np.std(g2s) / math.sqrt(reps)


def test_birth_death_log_ratio_cancellation():
    p = ModelParams.special(2, (0.4, -1.3), a=2.0)
    rng = make_rng(3)
    for _ in range(50):
        x = sample_poisson(p, rng)
        u = p.sample_facet_from_uniforms(rng.random(), rng.random(2), rng.random())
        if u in x.facets:
            continue
        grown = x.with_facet(u)
        assert birth_log_ratio(p, x, u) + death_log_ratio(p, grown, grown.n - 1) == 0.0


def test_birth_into_empty_always_accepts():
    p = ModelParams.special(2, (0.0, 0.0), a=5.0)  # aT = 5
    empty = p.empty_pattern()
    u = p.sample_facet_from_uniforms(0.3, (0.5, 0.5), 0.5)
    assert birth_log_ratio(p, empty, u) == math.log(p.a * p.total_intensity)
    # ratio > 1: any acceptance uniform passes
    assert math.log(1.0 - 1e-16) < birth_log_ratio(p, empty, u)


def test_bdmh_step_matches_full_recompute_reference():
    p = ModelParams.special(2, (0.2, -0.8), a=3.0)
    a_t = p.a * p.total_intensity
    nu = np.array(p.nu)

    def reference_step(x, row):
        # slow oracle: acceptance ratios from full g_vector differences
        if row[0] < 0.5:
            u = p.sample_facet_from_uniforms(row[1], row[2:4], row[4])
            if u in x.facets:
                return x, False, "B"
            grown = x.with_facet(u)
            log_lam = float(nu @ (g_vector(grown) - g_vector(x)))
            if math.log(row[5]) < log_lam + math.log(a_t) - math.log(x.n + 1):
                return grown, True, "B"
            return x, False, "B"
        if x.n == 0:
            return x, False, "D"
        i = min(int(row[1] * x.n), x.n - 1)
        reduced = x.without_index(i)
        log_lam = float(nu @ (g_vector(x) - g_vector(reduced)))
        if math.log(row[5]) < -(log_lam + math.log(a_t) - math.log(x.n)):
            return reduced, True, "D"
        return x, False, "D"

    rows = make_rng(11).random((1000, 6))
    fast = p.empty_pattern()
    slow = p.empty_pattern()

    class _Replay:
        def __init__(self, rows):
            self.rows = iter(rows)

        def random(self, k):
            return next(self.rows)

    replay = _Replay(rows)
    for t in range(1000):
        fast, acc_f, move_f = bdmh_step(fast, p, replay)
        slow, acc_s, move_s = reference_step(slow, rows[t])
        assert (acc_f, move_f) == (acc_s, move_s)
        assert fast.facets == slow.facets


def test_engines_produce_identical_chains():
    cases = [
        ModelParams.special(2, (0.0, -2.0), a=4.0),
        ModelParams.special(2, (0.0, 0.0), a=6.0),
        ModelParams.special(3, (0.0, 0.0, -1.0), a=3.0),
        ModelParams.special(2, (0.5, -1.0), a=2.0),
    ]
    for p in cases:
        cfg = dict(n_steps=3000, seed=42, burn_in=0, thin=1)
        _, d_pat = run_chain(p, ChainConfig(engine="pattern", **cfg))
        _, d_cnt = run_chain(p, ChainConfig(engine="counts", **cfg))
        assert np.array_equal(d_pat.trace_n, d_cnt.trace_n)
        assert np.array_equal(d_pat.trace_occupancy, d_cnt.trace_occupancy)
        assert np.array_equal(d_pat.trace_move, d_cnt.trace_move)
        assert np.array_equal(d_pat.trace_accepted, d_cnt.trace_accepted)
        assert np.allclose(d_pat.trace_g, d_cnt.trace_g, rtol=1e-12, atol=1e-12)
        assert (d_pat.birth_proposed, d_pat.birth_accepted) == \
               (d_cnt.birth_proposed, d_cnt.birth_accepted)
        assert (d_pat.death_proposed, d_pat.death_accepted) == \
               (d_cnt.death_proposed, d_cnt.death_accepted)


def test_run_chain_deterministic():
    p = ModelParams.special(2, (0.0, -1.0), a=3.0)
    cfg = ChainConfig(n_steps=5000, seed=7, burn_in=100, thin=3)
    _, d1 = run_chain(p, cfg)
    _, d2 = run_chain(p, cfg)
    assert np.array_equal(d1.trace_n, d2.trace_n)
    assert np.array_equal(d1.trace_g, d2.trace_g)
    # a different chain index decorrelates
    _, d3 = run_chain(p, ChainConfig(n_steps=5000, seed=7, burn_in=100, thin=3,
                                     chain_index=1))
    assert not np.array_equal(d1.trace_n, d3.trace_n)


def test_poisson_reduction_quick():
    # nu = 0: the chain must reproduce Poisson(aT) moments
    p = ModelParams.special(2, (0.0, 0.0), a=5.0)
    _, diag = run_chain(p, ChainConfig(n_steps=200_000, seed=5, burn_in=1000, thin=5))
    a_t = p.a * p.total_intensity
    mean, se = diag.n_mean_se()
    assert abs(mean - a_t) < 4 * se
    g1_mean, g1_se = diag.g_mean_se(1)
    assert abs(g1_mean - a_t * 2.0) < 4 * g1_se


def test_toy_detailed_balance_flux():
    # lumped states (n, G_2) for n <= 2; the count process is Markov in the
    # special model, so empirical transition flux must be symmetric
    p = ModelParams.special(2, (0.0, -0.9), a=1.2)
    _, diag = run_chain(p, ChainConfig(n_steps=300_000, seed=13, burn_in=0, thin=1,
                                       engine="counts"))
    states = list(zip(diag.trace_n.tolist(),
                      diag.trace_g[:, 1].astype(int).tolist()))
    flux: dict = {}
    for s, t in zip(states, states[1:]):
        if s != t and s[0] <= 2 and t[0] <= 2:
            flux[(s, t)] = flux.get((s, t), 0) + 1
    seen = set()
    checked = 0
    for (s, t), c_st in flux.items():
        if (t, s) in seen:
            continue
        seen.add((s, t))
        c_ts = flux.get((t, s), 0)
        if c_st + c_ts < 100:
            continue
        checked += 1
        assert abs(c_st - c_ts) <= 5 * math.sqrt(c_st + c_ts)
    assert checked >= 3


def test_repulsive_chain_thins_counts():
    # strong repulsion at moderate a should keep crossings far below Poisson
    p = ModelParams.special(2, (0.0, -2.0), a=4.0)
    _, diag = run_chain(p, ChainConfig(n_steps=400_000, seed=21, burn_in=20_000, thin=10))
    g2_mean, _ = diag.g_mean_se(2)
    poisson_g2 = (p.a * p.total_intensity) ** 2 / 4
    assert g2_mean < 0.5 * poisson_g2
    assert 0.0 <= diag.birth_rate <= 1.0
    assert 0.0 <= diag.death_rate <= 1.0
    assert diag.occupancy_fraction(2) == 1.0


def test_chain_respects_local_stability():
    p = ModelParams.special(2, (0.7, -0.5), a=2.0)
    alpha = local_stability_bound(p)
    rng = make_rng(17)
    x = p.empty_pattern()
    for _ in range(300):
        x, _, _ = bdmh_step(x, p, rng)
        u = p.sample_facet_from_uniforms(rng.random(), rng.random(2), rng.random())
        if u not in x.facets:
            assert birth_log_ratio(p, x, u) <= math.log(alpha) + math.log(
                p.a * p.total_intensity)


def test_config_validation():
    p = ModelParams.special(2, (0.0, 0.0), a=2.0)
    with pytest.raises(ValueError):
        run_chain(p, ChainConfig(n_steps=100, burn_in=100))
    with pytest.raises(ValueError):
        run_chain(p, ChainConfig(n_steps=100, burn_in=0, thin=0))
    hemi = ModelParams(2, 1.0, (0.0, -1.0), 2.0, p.center, p.size,
                       OrientationLaw(2, "hemisphere"))
    with pytest.raises(ValueError):
        run_chain(hemi, ChainConfig(n_steps=100, burn_in=0, engine="counts"))
    # auto falls back to the pattern engine for continuous orientations
    _, diag = run_chain(hemi, ChainConfig(n_steps=300, seed=2, burn_in=0, thin=1))
    assert diag.engine == "pattern"
    # occupancy is undefined off the canonical family except for empty states
    nonempty = diag.trace_n > 0
    assert (diag.trace_occupancy[nonempty] == -1).all()
    assert (diag.trace_occupancy[~nonempty] == 0).all()


def test_default_burnin_thin():
    p = ModelParams.special(2, (0.0, 0.0), a=10.0)  # aT = 10
    burn, thin = ChainConfig(n_steps=500).resolve(p)
    assert burn == 100 and thin == 1
    p2 = ModelParams.special(2, (0.0, 0.0), a=100.0)
    burn2, thin2 = ChainConfig(n_steps=5000).resolve(p2)
    assert burn2 == 1000 and thin2 == 10


def test_keep_samples_and_export(tmp_path):
    p = ModelParams.special(2, (0.0, -1.0), a=2.0)
    samples, diag = run_chain(p, ChainConfig(n_steps=2000, seed=9, burn_in=200,
                                             thin=100, keep_samples=True))
    assert len(samples) == diag.n_retained == 18
    for x, n in zip(samples, diag.trace_n):
        assert x.n == n
    out = tmp_path / "trace.csv"
    export_trace(diag, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,n,G_1,G_2,accepted,move"
    assert len(lines) == diag.n_retained + 1
    assert lines[1].split(",")[-1] in ("B", "D")


def test_batch_means_se():
    rng = make_rng(33)
    iid = rng.normal(size=6400)
    se = batch_means_se(iid)
    assert se == pytest.approx(1 / math.sqrt(6400), rel=0.35)
    assert batch_means_se(np.ones(3)) == math.inf


def test_counts_match_exact_stationary_law():
    # Top-order d=2 special model: any two non-parallel facets cross, so
    # G_2 = n0 n1 and the counts (n0, n1) have the exact law proportional
    # to Pois(beta; n0) Pois(beta; n1) exp(nu_2 n0 n1), beta = aT/2.  The
    # chain's mean count and mean G_2 must match its moments.  At this
    # seed the z-scores are -1.3 and 0.4.  A birth log-ratio biased by
    # +0.05 reads 4.7 and 6.8; the same bias on log(aT) in both move
    # types reads 11.5 and 7.6.
    nu2, a = -0.5, 4.0
    p = ModelParams.special(2, (0.0, nu2), a=a)
    beta = a * p.total_intensity / 2.0
    n = np.arange(60)
    log_pois = n * math.log(beta) - np.array([math.lgamma(k + 1) for k in n])
    log_w = log_pois[:, None] + log_pois[None, :] + nu2 * np.outer(n, n)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    exact_n = float((w * (n[:, None] + n[None, :])).sum())
    exact_g2 = float((w * np.outer(n, n)).sum())
    _, diag = run_chain(p, ChainConfig(n_steps=400_000, seed=2015))
    n_mean, n_se = diag.n_mean_se()
    g2_mean, g2_se = diag.g_mean_se(2)
    assert abs(n_mean - exact_n) < 4.0 * n_se
    assert abs(g2_mean - exact_g2) < 4.0 * g2_se
