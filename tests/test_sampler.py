import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from facetproc.correlation import _count_grid
from facetproc.geometry import (Facet, Window, canonical_content,
                                facet_measure, intersection_measure)
from facetproc.model import (
    CenterIntensity,
    ModelParams,
    OrientationLaw,
    SizeLaw,
    local_stability_bound,
)
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


def _reference_sample_poisson(p, rng):
    """A reference Poisson draw one facet at a time: the Poisson count,
    then the facets' (n, d + 2) uniforms, each row mapped by
    sample_facet_from_uniforms."""
    n = int(rng.poisson(p.a * p.total_intensity))
    u = rng.random((n, p.d + 2))
    return FacetPattern.of([p.sample_facet_from_uniforms(
        row[0], row[1:1 + p.d], row[1 + p.d]) for row in u], p.d)


@pytest.mark.parametrize("name", ["d2", "d3", "d4", "table", "two-atom",
                                  "hemisphere"])
def test_sample_poisson_is_the_per_facet_reference(name):
    # sample_poisson maps the whole uniform block through the laws' array
    # samplers; the facets and the draws taken from the stream must be
    # those of the per-facet mapping, to the last bit.
    p = {"d2": ModelParams.special(2, (0.0, 0.0), a=6.0),
         "d3": ModelParams.special(3, (0.0,) * 3, a=6.0),
         "d4": ModelParams.special(4, (0.0,) * 4, a=6.0),
         "table": _table_model(3, (0.0,) * 3, 2.0),
         "two-atom": _two_atom_model(3, (0.0,) * 3, 6.0),
         "hemisphere": _hemisphere_model((0.0, 0.0), 6.0)}[name]
    rng, ref = make_rng(11), make_rng(11)
    for _ in range(40):
        assert repr(sample_poisson(p, rng).facets) \
            == repr(_reference_sample_poisson(p, ref).facets)


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


def _hemisphere_model(nu, a):
    window = Window.cube(1.0, 2)
    return ModelParams(2, 1.0, nu, a, CenterIntensity(window, level=1.0),
                       SizeLaw.fixed(1.0), OrientationLaw(2, "hemisphere"))


@st.composite
def _model_pattern_and_facet(draw):
    """A model (canonical d = 2 or 3, or hemisphere), a pattern of up to 7
    of its facets, one more facet and where to insert it."""
    kind = draw(st.sampled_from(("d2", "d3", "hemisphere")))
    d = 3 if kind == "d3" else 2
    nu = [draw(st.floats(-1.0, 1.0))] + [draw(st.floats(-2.0, 0.0))
                                         for _ in range(d - 1)]
    a = draw(st.floats(1.0, 8.0))
    p = (_hemisphere_model(tuple(nu), a) if kind == "hemisphere"
         else ModelParams.special(d, nu, a=a))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    # quarter grid values put centers on facet boundaries
    coord = st.one_of(unit, st.integers(0, 4).map(lambda q: q / 4.0))

    def facet():
        return p.sample_facet_from_uniforms(
            draw(unit), [draw(coord) for _ in range(d)], draw(unit))

    facets = list(dict.fromkeys(facet() for _ in range(draw(st.integers(0, 7)))))
    u = facet()
    return p, FacetPattern.of(facets, d), u, draw(st.integers(0, len(facets)))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_model_pattern_and_facet())
def test_birth_death_log_ratio_cancellation_property(case):
    # the death of u, wherever it sits in the grown pattern, undoes the
    # birth of u in the log domain exactly
    p, x, u, k = case
    if u in x.facets:
        return
    grown = FacetPattern.of(x.facets[:k] + (u,) + x.facets[k:], p.d)
    assert birth_log_ratio(p, x, u) + death_log_ratio(p, grown, k) == 0.0


def test_birth_into_empty_always_accepts():
    p = ModelParams.special(2, (0.0, 0.0), a=5.0)  # aT = 5
    empty = p.empty_pattern()
    u = p.sample_facet_from_uniforms(0.3, (0.5, 0.5), 0.5)
    assert birth_log_ratio(p, empty, u) == math.log(p.a * p.total_intensity)
    # ratio > 1: any acceptance uniform passes
    assert math.log(1.0 - 1e-16) < birth_log_ratio(p, empty, u)


class _Replay:
    """Stands in for a generator: hands out the given rows in turn."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def random(self, k):
        row = next(self.rows)
        assert len(row) == k
        return row


def _full_recompute_step(p, x, row):
    """Slow oracle for one d = 2 step: acceptance ratios from full g_vector
    differences."""
    log_a_t = math.log(p.a * p.total_intensity)
    nu = np.array(p.nu)
    if row[0] < 0.5:
        u = p.sample_facet_from_uniforms(row[1], row[2:4], row[4])
        if u in x.facets:
            return x, False, "B"
        grown = x.with_facet(u)
        log_lam = float(nu @ (g_vector(grown) - g_vector(x)))
        if math.log(row[5]) < log_lam + log_a_t - math.log(x.n + 1):
            return grown, True, "B"
        return x, False, "B"
    if x.n == 0:
        return x, False, "D"
    i = min(int(row[1] * x.n), x.n - 1)
    reduced = x.without_index(i)
    log_lam = float(nu @ (g_vector(x) - g_vector(reduced)))
    if math.log(row[5]) < -(log_lam + log_a_t - math.log(x.n)):
        return reduced, True, "D"
    return x, False, "D"


def test_bdmh_step_matches_full_recompute_reference():
    for p in (ModelParams.special(2, (0.2, -0.8), a=3.0),
              _hemisphere_model((0.2, -0.8), 3.0)):
        rows = make_rng(11).random((1000, 6))
        fast = p.empty_pattern()
        slow = p.empty_pattern()
        replay = _Replay(rows)
        for t in range(1000):
            fast, acc_f, move_f = bdmh_step(fast, p, replay)
            slow, acc_s, move_s = _full_recompute_step(p, slow, rows[t])
            assert (acc_f, move_f) == (acc_s, move_s)
            assert fast.facets == slow.facets


def test_engines_produce_identical_chains():
    cases = [
        ModelParams.special(2, (0.0, -2.0), a=4.0),
        ModelParams.special(2, (0.0, 0.0), a=6.0),
        ModelParams.special(3, (0.0, 0.0, -1.0), a=3.0),
        ModelParams.special(2, (0.5, -1.0), a=2.0),
        ModelParams.special(3, (0.0, 0.0, -1.0), a=8.0),
    ]
    for p in cases:
        cfg = dict(n_steps=3000, seed=42, burn_in=0, thin=1)
        _, d_pat = run_chain(p, ChainConfig(engine="pattern", **cfg))
        _, d_cnt = run_chain(p, ChainConfig(engine="counts", **cfg))
        assert np.array_equal(d_pat.trace_n, d_cnt.trace_n)
        assert np.array_equal(d_pat.trace_occupancy, d_cnt.trace_occupancy)
        assert np.array_equal(d_pat.trace_move, d_cnt.trace_move)
        assert np.array_equal(d_pat.trace_accepted, d_cnt.trace_accepted)
        assert np.array_equal(d_pat.trace_g, d_cnt.trace_g)
        assert (d_pat.birth_proposed, d_pat.birth_accepted) == \
               (d_cnt.birth_proposed, d_cnt.birth_accepted)
        assert (d_pat.death_proposed, d_pat.death_accepted) == \
               (d_cnt.death_proposed, d_cnt.death_accepted)


def _two_atom_model(d, nu, a):
    return ModelParams(d, 1.0, nu, a, CenterIntensity(Window.cube(1.0, d), level=1.0),
                       SizeLaw(((0.4, 0.3), (1.0, 0.7))), OrientationLaw(d))


def _table_model(d, nu, a):
    table = np.arange(1.0, 2 ** d + 1).reshape((2,) * d)
    return ModelParams(d, 1.0, nu, a, CenterIntensity(Window.cube(1.0, d), table=table),
                       SizeLaw.fixed(1.0), OrientationLaw(d))


_CHAIN_CLASSES = {
    "d3-nu2": (ModelParams.special(3, (0.0, -1.0, 0.0), a=4.0), "pattern"),
    "two-atom": (_two_atom_model(3, (0.3, -1.0, -0.5), 4.0), "pattern"),
    "table": (_table_model(3, (0.2, -1.0, 0.0), 4.0), "pattern"),
    "d3-counts": (ModelParams.special(3, (0.1, 0.0, -1.0), a=8.0), "counts"),
    "hemisphere": (_hemisphere_model((0.3, -1.0), 4.0), "pattern"),
}


@pytest.mark.parametrize("name", list(_CHAIN_CLASSES))
def test_running_g_equals_g_vector(name):
    # The running G is an exact sum of the current terms, so it equals
    # g_vector of the current pattern bit for bit after 20k steps of adding
    # and removing terms.
    p, engine = _CHAIN_CLASSES[name]
    samples, diag = run_chain(p, ChainConfig(n_steps=20_000, seed=9, burn_in=0,
                                             thin=10, keep_samples=True))
    assert diag.engine == engine
    assert diag.trace_n.max() >= 5
    expected = np.array([g_vector(x) for x in samples])
    assert np.array_equal(diag.trace_g, expected)


def _array_increment(x, u, j):
    """Reference order-j increment of G from adding u to x, independent of
    ustat._subset_terms: the subsets of x's facet indices, one index from
    each of j-1 orientation classes other than u's, with u's index last.
    Canonical tuples go as rows of index arrays through
    canonical_content, the others through intersection_measure."""
    if j == 1:
        return facet_measure(u)
    index: dict = {}
    for i, f in enumerate(x.facets):
        if f.orientation_key() != u.orientation_key():
            index.setdefault(f.orientation_key(), []).append(i)
    facets = x.facets + (u,)
    canonical = all(f.is_canonical for f in facets)
    if canonical:
        arrays = (np.array([f.center for f in facets]),
                  np.array([f.half_extent for f in facets]),
                  np.array([f.orientation for f in facets]))
    terms = []
    for combo in itertools.combinations(index.values(), j - 1):
        if canonical:
            mesh = np.meshgrid(*combo, [x.n], indexing="ij")
            rows = np.stack(mesh, axis=-1).reshape(-1, j)
            terms.extend(canonical_content(*(a[rows] for a in arrays)).tolist())
        else:
            terms.extend(intersection_measure([x.facets[i] for i in members]
                                              + [u])
                         for members in itertools.product(*combo))
    return math.fsum(terms)


def _reference_log_ratio(p, x, u):
    """The birth log-ratio log lambda*(u; x) + log(aT) - log(n+1), with
    log lambda* the fsum of nu_j times _array_increment."""
    log_lam = math.fsum([p.nu[j - 1] * _array_increment(x, u, j)
                         for j in p.active_orders])
    return log_lam + math.log(p.a * p.total_intensity) - math.log(x.n + 1)


def _pattern_step(p, x, row):
    """One birth-death MH step on an immutable FacetPattern, from the
    reference log-ratios and the model's facet draw."""
    d = p.d
    log_u = math.log(row[d + 3])
    if row[0] < 0.5:
        u = p.sample_facet_from_uniforms(row[1], row[2:2 + d], row[2 + d])
        accepted = u not in x.facets and log_u < _reference_log_ratio(p, x, u)
        return (x.with_facet(u) if accepted else x), accepted, "B"
    if not x.n:
        return x, False, "D"
    i = min(int(row[1] * x.n), x.n - 1)
    reduced = x.without_index(i)
    accepted = log_u < -_reference_log_ratio(p, reduced, x.facets[i])
    return (reduced if accepted else x), accepted, "D"


@pytest.mark.parametrize("name", ["d3-nu2", "two-atom", "table", "d3-counts",
                                  "hemisphere"])
def test_canonical_state_matches_pattern_steps(name):
    # run_chain moves the chain state in place by ustat._subset_terms; the
    # reference steps an immutable FacetPattern by _array_increment.  On
    # the same uniforms they take the same moves to the same patterns.
    p, _ = _CHAIN_CLASSES[name]
    initial = sample_poisson(p, make_rng(4))
    steps = 1500
    samples, diag = run_chain(p, ChainConfig(n_steps=steps, seed=8, burn_in=0,
                                             thin=1, initial=initial,
                                             keep_samples=True))
    rows = make_rng(8).random((steps, p.d + 4))
    x = initial
    for t in range(steps):
        x, accepted, move = _pattern_step(p, x, rows[t].tolist())
        assert (accepted, move) == (diag.trace_accepted[t], diag.trace_move[t])
        assert x.facets == samples[t].facets
    assert diag.birth_accepted + diag.death_accepted > 200


def test_canonical_chains_build_no_pattern_per_step(monkeypatch):
    calls = []
    for name in ("with_facet", "without_index"):
        method = getattr(FacetPattern, name)
        monkeypatch.setattr(FacetPattern, name,
                            lambda self, *a, _m=method: calls.append(1) or _m(self, *a))
    # the hemisphere law moves the same state as the canonical models
    for name in ("d3-nu2", "d3-counts", "hemisphere"):
        run_chain(_CHAIN_CLASSES[name][0], ChainConfig(n_steps=2000, seed=1))
    assert not calls


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


_PAIR = ModelParams.special(2, (0.0, -1.0), a=2.0)
_HEMISPHERE = ModelParams(2, 1.0, _PAIR.nu, 2.0, _PAIR.center, _PAIR.size,
                          OrientationLaw(2, "hemisphere"))
# level 0 on the cell [0, 1/2] x [1/2, 1]
_HOLE = ModelParams(2, 1.0, _PAIR.nu, 2.0,
                    CenterIntensity(_PAIR.window, table=[[1.0, 0.0], [1.0, 1.0]]),
                    _PAIR.size, _PAIR.orientation)


@pytest.mark.parametrize("model,engine,facets,match", [
    (_PAIR, "Counts", [Facet((0.5, 0.5), 1.0, 0)], "engine must be one of"),
    (_PAIR, "auto", [Facet((0.2, 0.5), 0.25, 0), Facet((0.5, 0.5), 0.25, 1)],
     "half-extent"),
    (_PAIR, "auto", [Facet((0.5, 0.5), 1.0, (0.6, 0.8))], "orientation"),
    (_HEMISPHERE, "auto", [Facet((0.5, 0.5), 1.0, 0)], "orientation"),
    (_PAIR, "pattern", [Facet((0.2, 0.5), 1.0, 0), Facet((5.0, 0.5), 1.0, 1)],
     "window"),
    (_HOLE, "auto", [Facet((0.5, 0.75), 1.0, 0), Facet((0.25, 0.75), 1.0, 1)],
     "level 0"),
], ids=["engine-name", "extent", "normal-in-canonical-model",
        "axis-in-hemisphere-model", "center-outside", "center-in-zero-cell"])
def test_run_chain_rejects_bad_input(model, engine, facets, match):
    # a pattern the model cannot produce is refused: the two rules would
    # disagree on some (the counts rule takes G_1 from the model's extent)
    initial = FacetPattern.of(facets, 2)
    with pytest.raises(ValueError, match=match):
        run_chain(model, ChainConfig(n_steps=100, burn_in=0, engine=engine,
                                     initial=initial))


def test_run_chain_accepts_centers_on_positive_cells():
    # the sampler reaches the closed cells of positive level, boundaries
    # shared with the level-0 cell included
    initial = FacetPattern.of([Facet((0.5, 0.75), 1.0, 0),
                               Facet((0.25, 0.5), 1.0, 1),
                               Facet((0.0, 0.0), 1.0, 0)], 2)
    _, diag = run_chain(_HOLE, ChainConfig(n_steps=100, burn_in=0,
                                           initial=initial))
    assert diag.n_retained == 100


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


def _exact_top_order_moments(d, nu, a):
    """Mean count and mean G_d of the top-order special model, exactly.

    Any d facets with distinct axes meet in one point when the window
    side is b, so G_d = n_0 ... n_(d-1) and the orientation counts have
    the law proportional to prod_i Pois(aT/d; n_i) exp(nu n_0 ... n_(d-1)).
    """
    beta = a / d  # T = 1 for the unit special model
    n = np.arange(60)
    log_pois = n * math.log(beta) - np.array([math.lgamma(k + 1) for k in n])
    grids = np.meshgrid(*[n] * d, indexing="ij", sparse=True)
    prod = math.prod(grids[1:], start=grids[0])
    log_w = sum(log_pois[g] for g in grids) + nu * prod
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return float((w * sum(grids)).sum()), float((w * prod).sum())


@pytest.mark.parametrize("d,nu,a,steps,thin", [
    (2, -0.5, 4.0, 400_000, None),
    (3, -0.5, 6.0, 600_000, 10),
], ids=["d2", "d3"])
def test_counts_match_exact_stationary_law(d, nu, a, steps, thin):
    # The chain's mean count and mean G_d must match the exact stationary
    # law of the orientation counts, which shares no code with the
    # acceptance ratio.  At seed 2015 the z-scores are -1.3 and 0.4 (d=2)
    # and -0.5 and 0.3 (d=3).  A counts-engine birth log-ratio biased by
    # +0.05 reads 4.7 and 6.8 (d=2) and 4.1 and 4.7 (d=3); the same bias
    # on log(aT) in both move types reads 11.5 and 7.6 (d=2).
    p = ModelParams.submodel(d, d, nu, a=a)
    exact_n, exact_g = _exact_top_order_moments(d, nu, a)
    _, diag = run_chain(p, ChainConfig(n_steps=steps, seed=2015, thin=thin))
    n_mean, n_se = diag.n_mean_se()
    g_mean, g_se = diag.g_mean_se(d)
    assert abs(n_mean - exact_n) < 4.0 * n_se
    assert abs(g_mean - exact_g) < 4.0 * g_se


@pytest.mark.parametrize("engine,steps", [("counts", 600_000),
                                          ("pattern", 60_000)],
                         ids=["counts", "pattern"])
def test_count_histogram_matches_exact_law(engine, steps):
    # In the d=2 pair model the orientation counts (n_0, n_1) have the law
    # proportional to Pois(aT/2; n_0) Pois(aT/2; n_1) exp(nu n_0 n_1), the
    # weights the series module sums.  The trace gives the counts up to
    # order, as the roots of t^2 - n t + G_2, so the histogram is folded
    # onto n_0 <= n_1.  Chi-square over the cells expecting at least 5
    # states (the rest pooled into one cell), on states 10 steps apart.
    # At seed 2015 p = 0.66 (counts) and 0.44 (pattern).  With 1M steps
    # at seeds 1-20, p ranged over 0.04-0.95, and a birth log-ratio biased
    # by +0.05 in the loop gave at most 4e-16.  At seed 2015 that bias
    # gives 1e-7 on the counts rule, but only 0.14 on the shorter pattern
    # run, which checks the general rule's law for gross errors.  A bias
    # in the general rule alone breaks test_engines_produce_identical_chains.
    nu, a = -1.0, 1.5
    p = ModelParams.submodel(2, 2, nu, a=a)
    _, diag = run_chain(p, ChainConfig(n_steps=steps, seed=2015, thin=10,
                                       engine=engine))
    grids, log_w = _count_grid(a / 2, 2, 60)
    w = np.exp(log_w + nu * grids[0] * grids[1])
    w /= w.sum()
    law = np.triu(w) + np.triu(w.T, 1)
    n = diag.trace_n
    low = np.rint((n - np.sqrt(n * n - 4 * diag.trace_g[:, 1])) / 2)
    observed = np.zeros_like(law)
    np.add.at(observed, (low.astype(int), n - low.astype(int)), 1)
    expected = law * len(n)
    big = expected >= 5
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert chi2.sf(stat, len(obs) - 1) > 1e-4
