import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from facetproc import moments
from facetproc.correlation import correlation_provider, rho_series_counts
from facetproc.geometry import Facet, facet_measure, tuple_content
from facetproc.model import ModelParams, OrientationLaw
from facetproc.moments import (
    MomentSpec,
    _covariance_table,
    _quad_increments,
    asymptotic_covariance,
    centered_moment_leading,
    enumerate_partitions,
    expected_increment,
    i_k_integrals,
    interaction_kernel,
    measure_kernel,
    mixed_moment,
    scaling_limit_constants,
    unit_kernel,
)
from facetproc.sampler import ChainConfig, batch_means_se, make_rng, run_chain
from facetproc.ustat import g_increment
from test_sampler import (_hemisphere_model, _reference_sample_poisson,
                          _table_model, _two_atom_model)


def brute_partitions(sizes):
    """All set partitions, filtered to one-index-per-group blocks."""
    label = [g for g, k in enumerate(sizes) for _ in range(k)]
    total = len(label)

    def all_partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in all_partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [head]] + part[i + 1:]
            yield [[head]] + part

    keep = []
    for part in all_partitions(list(range(total))):
        if all(len({label[i] for i in blk}) == len(blk) for blk in part):
            keep.append(frozenset(frozenset(blk) for blk in part))
    return set(keep)


def test_partition_counts():
    assert len(enumerate_partitions((1, 1))) == 2
    assert len(enumerate_partitions((2, 2))) == 7
    assert len(enumerate_partitions((4,))) == 1


def test_partitions_match_brute_force():
    for sizes in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2)]:
        got = {frozenset(p) for p in enumerate_partitions(sizes)}
        assert got == brute_partitions(sizes)


def test_partition_guards():
    with pytest.raises(ValueError):
        enumerate_partitions((7, 6))
    with pytest.raises(ValueError):
        enumerate_partitions((0, 2))
    with pytest.raises(ValueError):
        enumerate_partitions(())


def test_first_moments_exact():
    p = ModelParams.special(2, (0.0, 0.0), a=3.0)
    at = p.a * p.total_intensity
    val, se = mixed_moment(MomentSpec(((1, measure_kernel),), n_samples=64), p)
    assert se == 0.0
    assert val == pytest.approx(at * 2.0, rel=1e-14)
    val, se = mixed_moment(MomentSpec(((1, unit_kernel),), n_samples=64), p)
    assert se == 0.0
    assert val == pytest.approx(at, rel=1e-14)


def test_factorial_moment_exact():
    p = ModelParams.special(3, (0.0, 0.0, 0.0), a=2.5)
    at = p.a * p.total_intensity
    val, se = mixed_moment(MomentSpec(((2, unit_kernel),), n_samples=64), p)
    assert se == 0.0
    assert val == pytest.approx(at ** 2, rel=1e-14)


def test_mixed_moment_bits_are_pinned():
    # three factors over the 27 partitions of (2, 2, 1): a change in the
    # partition order or in the draws of any integral moves these bits
    p = ModelParams.special(3, (0.0, 0.0, 0.0), a=2)
    spec = MomentSpec(((2, interaction_kernel(2)), (2, interaction_kernel(2)),
                       (1, measure_kernel)), n_samples=500, seed=3)
    val, se = mixed_moment(spec, p)
    assert (val.hex(), se.hex()) == ("0x1.7212073f90becp+8",
                                     "0x1.0a1f03894dfe8p+2")


def test_variance_of_measure_sum():
    # Var of the total content over the reference process
    for d in (2, 3):
        p = ModelParams.special(d, (0.0,) * d, a=4.0)
        at = p.a * p.total_intensity
        second, se2 = mixed_moment(MomentSpec(
            ((1, measure_kernel), (1, measure_kernel)), n_samples=64), p)
        first, _ = mixed_moment(MomentSpec(((1, measure_kernel),),
                                           n_samples=64), p)
        assert se2 == 0.0
        var = second - first ** 2
        assert var == pytest.approx(at * 2.0 ** (2 * (d - 1)), rel=1e-10)


def test_pair_count_moment_mc():
    p = ModelParams.special(2, (0.0, 0.0), a=3.0)
    val, se = mixed_moment(MomentSpec(((2, interaction_kernel(2)),),
                                      n_samples=20000, seed=5), p)
    assert se > 0.0
    target = (p.a * p.total_intensity) ** 2 / 4.0
    assert abs(val - target) < 4.0 * se


def test_moment_spec_validation():
    with pytest.raises(ValueError):
        MomentSpec(())
    with pytest.raises(ValueError):
        MomentSpec(((0, unit_kernel),))
    with pytest.raises(ValueError):
        MomentSpec(((1, 3.0),))
    with pytest.raises(ValueError):
        MomentSpec(((1, unit_kernel),), n_samples=1)


def test_moments_reject_non_canonical_models():
    p = dataclasses.replace(ModelParams.special(2, (0.0, 0.0)),
                            orientation=OrientationLaw(2, "hemisphere"))
    with pytest.raises(ValueError, match="axis-aligned"):
        mixed_moment(MomentSpec(((1, unit_kernel),), n_samples=8), p)
    with pytest.raises(ValueError, match="axis-aligned"):
        centered_moment_leading(unit_kernel, 1, 2, None, p, n_samples=8)


def test_batch_kernels_and_provider():
    # rows: crossing pair, parallel pair, pair apart on the free axis
    centers = np.array([[[0.5, 0.5, 0.5], [0.2, 0.7, 0.1]],
                        [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
                        [[0.5, 0.5, 0.0], [0.2, 0.7, 2.5]]])
    extents = np.ones((3, 2))
    axes = np.array([[0, 1], [2, 2], [0, 1]])
    assert interaction_kernel(2)(centers, extents, axes).tolist() == \
        [1.6 / 2.0, 0.0, 0.0]
    assert measure_kernel(centers, extents, axes).tolist() == [4.0] * 3
    assert unit_kernel(centers, extents, axes).tolist() == [1.0] * 3
    p = ModelParams.special(3, (0.0, 0.0, -1.0), a=2.0)
    rho = correlation_provider(p)
    want = {ax: rho_series_counts(p, np.bincount(ax, minlength=3)).value
            for ax in ((0, 1), (2, 2))}
    got = rho(np.array([[0, 1], [2, 2], [1, 0]]))
    assert got.tolist() == [want[(0, 1)], want[(2, 2)], want[(0, 1)]]


def test_centered_moment_first_order_vanishes():
    p = ModelParams.special(2, (0.0, -1.0), a=2.0)
    assert centered_moment_leading(unit_kernel, 1, 1, None, p) == (0.0, 0.0)


def test_centered_moment_reference_cancellation():
    # total mass one makes every correlation integral exactly 1
    p = ModelParams.special(2, (0.0, 0.0))
    for m in (2, 3):
        val, _ = centered_moment_leading(unit_kernel, 1, m, None, p,
                                         n_samples=256)
        assert val == 0.0


def test_centered_moment_matches_chain_count_variance():
    p = ModelParams.special(2, (0.0, -1.0), a=4.0)
    provider = correlation_provider(p)
    mean_term, se1 = mixed_moment(MomentSpec(((1, unit_kernel),),
                                             provider=provider,
                                             n_samples=4000, seed=3), p)
    lead, se_l = centered_moment_leading(unit_kernel, 1, 2, provider, p,
                                         n_samples=40000, seed=11)
    var_pred = mean_term + p.a ** 2 * lead
    samples, diag = run_chain(p, ChainConfig(
        n_steps=1_500_000, seed=202, thin=1))
    assert diag.engine == "counts"
    counts = diag.trace_n.astype(float)
    emp_mean = float(counts.mean())
    emp_var = float(counts.var())
    _, mean_se = diag.n_mean_se()
    assert abs(emp_mean - mean_term) < 4 * (mean_se + se1) + 1e-9
    tol = 4 * (p.a ** 2 * se_l) + 0.06 * var_pred
    assert abs(emp_var - var_pred) < tol


def test_second_moment_matches_chain():
    p = ModelParams.special(2, (0.0, -1.0), a=2.0)
    provider = correlation_provider(p)
    val, se = mixed_moment(MomentSpec(
        ((2, interaction_kernel(2)), (2, interaction_kernel(2))),
        provider=provider, n_samples=6000, seed=9), p)
    samples, diag = run_chain(p, ChainConfig(
        n_steps=800_000, seed=77, thin=2))
    assert diag.engine == "counts"
    sq = diag.trace_g[:, 1] ** 2
    emp = float(sq.mean())
    emp_se = diag.mean_se(sq)[1]
    assert abs(val - emp) < 4 * (se + emp_se) + 1e-9


def test_expected_increment_order_one_exact():
    p = ModelParams.special(3, (0.0, 0.0, -1.0))
    y = Facet((0.4, 0.3, 0.9), 1.0, 2)
    for method in ("auto", "quadrature", "mc"):
        val, se = expected_increment(1, y, p, method=method, n_samples=16)
        assert (val, se) == (facet_measure(y), 0.0)


def test_expected_increment_planar_pair_is_half_mass():
    p = ModelParams.special(2, (0.0, -0.5))
    y = Facet((0.25, 0.7), 1.0, 1)
    val, se = expected_increment(2, y, p, method="quadrature")
    assert se == 0.0
    assert val == pytest.approx(p.total_intensity / 2.0, abs=1e-12)
    mc, mc_se = expected_increment(2, y, p, method="mc", n_samples=4000,
                                   seed=2)
    assert mc_se > 0.0
    assert abs(mc - 0.5) < 4 * mc_se


def test_expected_increment_quadrature_matches_closed_form():
    p = ModelParams.special(3, (0.0, 0.0, 0.0))
    y = Facet((0.3, 0.6, 0.4), 1.0, 0)

    def overlap(t):
        return 1.0 + (2.0 - t ** 2 - (1.0 - t) ** 2) / 2.0

    exact = (overlap(0.4) + overlap(0.6)) / 3.0
    val, _ = expected_increment(2, y, p, method="quadrature", resolution=400)
    assert val == pytest.approx(exact, abs=1e-4)
    mc, mc_se = expected_increment(2, y, p, method="mc", n_samples=6000,
                                   seed=4)
    assert abs(mc - exact) < 4 * mc_se
    # full order pins every coordinate, so the value is combinatorial
    top, se = expected_increment(3, y, p, method="quadrature")
    assert se == 0.0
    assert top == pytest.approx((p.total_intensity / 3.0) ** 2, abs=1e-12)
    mc3, mc3_se = expected_increment(3, y, p, method="mc", n_samples=6000,
                                     seed=6)
    assert abs(mc3 - top) < 4 * mc3_se + 1e-6


def test_expected_increment_validation_and_fallback():
    p = ModelParams.special(2, (0.0, 0.0))
    y = Facet((0.5, 0.5), 1.0, 0)
    with pytest.raises(ValueError):
        expected_increment(0, y, p)
    with pytest.raises(ValueError):
        expected_increment(3, y, p)
    with pytest.raises(ValueError):
        expected_increment(2, y, p, method="simpson")
    base = ModelParams.special(2, (0.0, 0.0))
    hemi = dataclasses.replace(base, orientation=OrientationLaw(2, "hemisphere"))
    with pytest.raises(ValueError):
        expected_increment(2, y, hemi, method="quadrature")
    val, se = expected_increment(2, y, hemi, method="auto", n_samples=300,
                                 seed=1)
    assert se > 0.0 and val > 0.0


def _reference_mc_increment(j, y, p, n_samples, seed):
    """Monte Carlo expected increment one reference pattern at a time:
    each pattern drawn facet by facet, then g_increment."""
    unit = dataclasses.replace(p, a=1.0)
    rng = make_rng(seed)
    vals = np.array([g_increment(_reference_sample_poisson(unit, rng), y,
                                 orders=(j,))[j - 1]
                     for _ in range(n_samples)])
    return float(vals.mean()), batch_means_se(vals)


_MC_CASES = {
    "d2-j2": (2, Facet((0.3, 0.6), 1.0, 1), ModelParams.special(2, (0.0,) * 2)),
    "d3-j2": (2, Facet((0.3, 0.6, 0.2), 1.0, 0),
              ModelParams.special(3, (0.0,) * 3)),
    "d3-j3": (3, Facet((0.3, 0.6, 0.2), 1.0, 2),
              ModelParams.special(3, (0.0,) * 3)),
    "two-atom": (2, Facet((0.3, 0.6, 0.2), 0.4, 1),
                 _two_atom_model(3, (0.0,) * 3, 1.0)),
    "table": (3, Facet((0.3, 0.6, 0.2), 1.0, 1),
              _table_model(3, (0.0,) * 3, 1.0)),
    "hemisphere": (2, Facet((0.3, 0.6), 1.0, 1),
                   _hemisphere_model((0.0, 0.0), 1.0)),
    "normal-facet": (2, Facet((0.3, 0.6), 1.0, (0.6, 0.8)),
                     ModelParams.special(2, (0.0,) * 2)),
}


@pytest.mark.parametrize("name", list(_MC_CASES))
def test_mc_increment_is_the_per_pattern_reference(name):
    # The batch scores all reference patterns against y at once; value
    # and standard error are those of the per-pattern loop, bit for bit.
    j, y, p = _MC_CASES[name]
    for seed in (0, 5):
        got = expected_increment(j, y, p, method="mc", n_samples=400,
                                 seed=seed)
        want = _reference_mc_increment(j, y, p, 400, seed)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_mc_increment_refuses_a_drawn_facet():
    p = ModelParams.special(3, (0.0,) * 3)
    seed = next(s for s in itertools.count()
                if _reference_sample_poisson(p, make_rng(s)).n)
    y = _reference_sample_poisson(p, make_rng(seed)).facets[0]
    with pytest.raises(ValueError, match="already present"):
        expected_increment(2, y, p, method="mc", n_samples=10, seed=seed)


def test_increment_and_covariance_reject_bad_input():
    p = ModelParams.special(2, (0.0, 0.0))
    y = Facet((0.5, 0.5), 1.0, 0)
    for bad in (0, -3, 2.5, 3.0, True, "8"):
        with pytest.raises(ValueError, match="resolution"):
            expected_increment(2, y, p, resolution=bad)
        with pytest.raises(ValueError, match="resolution"):
            asymptotic_covariance(2, 2, p, n_samples=8, resolution=bad)
    for bad in (0, 1, 2.5, 4.0, True, None):
        with pytest.raises(ValueError, match="n_samples"):
            expected_increment(2, y, p, method="mc", n_samples=bad)
        with pytest.raises(ValueError, match="n_samples"):
            asymptotic_covariance(1, 2, p, n_samples=bad)
        with pytest.raises(ValueError, match="mc_patterns"):
            asymptotic_covariance(1, 2, p, n_samples=8, mc_patterns=bad)
    for axis in (0, 2):
        with pytest.raises(ValueError, match="dimension"):
            expected_increment(2, Facet((0.5, 0.5, 0.5), 1.0, axis), p)
    # 200^7 grid points: counts past 2^53 would not be exact
    p8 = ModelParams.special(8, (0.0,) * 8)
    with pytest.raises(ValueError, match="2 \\*\\* 53"):
        expected_increment(8, Facet((0.5,) * 8, 1.0, 0), p8)
    assert expected_increment(8, Facet((0.5,) * 8, 1.0, 0), p8,
                              resolution=2)[0] > 0.0
    # below the top order the grid's overlap arrays hold a float per
    # point: 100^4 points at d = 6, j = 5 are refused before they are made
    p6 = ModelParams.special(6, (0.0,) * 6)
    with pytest.raises(ValueError, match="2 \\*\\* 23"):
        asymptotic_covariance(5, 5, p6, n_samples=8, resolution=100)
    # the smallest sizes allowed run
    assert expected_increment(2, y, p, resolution=1)[1] == 0.0
    assert asymptotic_covariance(1, 1, p, n_samples=np.int64(2),
                                 mc_patterns=2)[0] == 4.0


def _reference_quad_increment(j, y, p, resolution):
    """The per-facet midpoint tensor quadrature the batched one replaced:
    full meshgrids of every coordinate factor, flat means."""
    d = p.d
    r = p.size.max_extent
    mass = p.total_intensity / d
    mids = [lo + (hi - lo) * (np.arange(resolution) + 0.5) / resolution
            for lo, hi in p.window.bounds]
    others = [c for c in range(d) if c != int(y.orientation)]
    y_c = np.asarray(y.center)
    total = []
    for axes in itertools.combinations(others, j - 1):
        factor = 1.0
        for c in range(d):
            grids = list(np.meshgrid(*[mids[c]] * (j - 1), indexing="ij"))
            y_here = np.full_like(grids[0], y_c[c])
            if c == int(y.orientation):
                fixed, free = y_here, grids
            elif c in axes:
                t = axes.index(c)
                fixed = grids[t]
                free = [g for s, g in enumerate(grids) if s != t] + [y_here]
            else:
                fixed, free = None, grids + [y_here]
            if fixed is not None:
                ok = np.ones_like(fixed, dtype=bool)
                for g in free:
                    ok &= np.abs(fixed - g) <= r
                piece = ok.astype(float)
            else:
                top = np.minimum.reduce([g + r for g in free])
                bot = np.maximum.reduce([g - r for g in free])
                piece = np.clip(top - bot, 0.0, None)
            factor *= float(piece.mean())
        total.append(mass ** (j - 1) * factor)
    return math.fsum(total)


@pytest.mark.parametrize("d,b,chi", [(2, 1.0, 1.0), (3, 1.0, 1.0),
                                     (4, 1.0, 1.0), (3, 2.0, 0.5),
                                     (4, 2.0, 0.5)])
def test_batched_quadrature_is_the_per_facet_one(d, b, chi):
    # Every order and orientation, centers on the window's edges and
    # middle, and resolutions whose grids reach past one numpy block.
    p = ModelParams.special(d, (0.0,) * d, b=b, chi=chi)
    rng = np.random.default_rng(d)
    centers = rng.random((3 * d, d)) * b
    centers[:3] = [[0.0] * d, [b] * d, [b / 2] * d]
    axes = np.arange(3 * d) % d
    for res in (1, 7, 40, 100 if d == 4 else 200):
        for j in range(2, d + 1):
            batch = _quad_increments(j, p, centers, axes, res)
            for t in range(3 * d):
                y = Facet(tuple(centers[t]), b, int(axes[t]))
                ref = _reference_quad_increment(j, y, p, res)
                one, se = expected_increment(j, y, p, method="quadrature",
                                             resolution=res)
                assert float(batch[t]).hex() == ref.hex() == one.hex()
                assert se == 0.0


# Midpoint rule on one cell of width h holding the kink of 2r - |z - y|:
# the error is (h/2 - |delta|)^2 <= h^2/4, delta the kink's offset from
# the cell's midpoint.  Averaged over the side b, with h = b / res, one
# overlap factor is off by at most MIDPOINT_KINK * b / res^2.
MIDPOINT_KINK = 0.25


@pytest.mark.parametrize("d,b,chi", [(2, 1.0, 1.0), (3, 1.0, 1.0),
                                     (4, 1.0, 1.0), (3, 2.0, 0.5),
                                     (4, 2.0, 0.5)])
def test_pair_increment_quadrature_matches_closed_form(d, b, chi):
    # Order 2 under a constant intensity: each further facet normal to
    # axis a != o contributes mass T/d times one factor per coordinate.
    # On o and a the factor is |[y_c - r, y_c + r] cap [0, b]| / b, which
    # is 1 here (half-extent r = b), and 1 on the grid too; every other
    # coordinate gives the mean of (2r - |z - y_c|)_+ over [0, b],
    # 2b - (y_c^2 + (b - y_c)^2) / (2b).
    p = ModelParams.special(d, (0.0,) * d, b=b, chi=chi)
    rng = np.random.default_rng(50)
    centers = rng.random((50, d)) * b
    axes = rng.integers(0, d, 50)
    overlap = 2 * b - (centers ** 2 + (b - centers) ** 2) / (2 * b)
    mass = p.total_intensity / d
    exact = np.array([mass * math.fsum(
        math.prod(overlap[t, c] for c in range(d) if c not in (o, a))
        for a in range(d) if a != o) for t, o in enumerate(axes)])
    for res in (50, 100, 200):
        err = MIDPOINT_KINK * b / res ** 2
        # d - 2 overlap factors, each at most 2b, each off by err
        bound = mass * (d - 1) * ((2 * b + err) ** (d - 2)
                                  - (2 * b) ** (d - 2))
        got = _quad_increments(2, p, centers, axes, res)
        worst = float(np.abs(got - exact).max())
        assert worst <= bound + 1e-12 * float(exact.max())
        if d > 2:  # the bound is not vacuous
            assert worst > 0.1 * bound


def test_quadrature_temporaries_stay_bounded():
    # The (3, 3) call chunks about 600 rows of 100^2 overlap points per
    # coordinate: 17 MiB at peak, 96 MiB unchunked.
    p = ModelParams.special(4, (0.0,) * 4)
    for i, j, n, res in ((2, 4, 400, 40), (3, 3, 800, 100)):
        tracemalloc.start()
        try:
            asymptotic_covariance(i, j, p, n_samples=n, resolution=res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


def test_covariance_table_shares_one_draw():
    # Every pair of the table is asymptotic_covariance of that pair: the
    # quadrature evaluates each order once, Monte Carlo keeps its seeds.
    p = ModelParams.special(3, (0.0, 0.0, 0.0))
    pairs = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    table = _covariance_table(pairs, p, n_samples=60, seed=3, method="auto",
                              resolution=30, mc_patterns=2000)
    assert list(table) == pairs
    for i, j in pairs:
        assert table[(i, j)] == asymptotic_covariance(
            i, j, p, n_samples=60, seed=3, resolution=30)
    mc = _covariance_table([(1, 2), (2, 2)], p, n_samples=3, seed=5,
                           method="mc", resolution=1, mc_patterns=20)
    u = make_rng(5).random((3, 5))
    facets = [p.sample_facet_from_uniforms(row[0], row[1:4], row[4])
              for row in u]
    for (i, j), (val, se) in mc.items():
        prods = np.array([
            expected_increment(i, y, p, method="mc", n_samples=20,
                               seed=5 + 7 * t)[0]
            * expected_increment(j, y, p, method="mc", n_samples=20,
                                 seed=5 + 7 * t + 3)[0]
            for t, y in enumerate(facets)])
        assert val == p.total_intensity * float(prods.mean())
        assert val == asymptotic_covariance(i, j, p, n_samples=3, seed=5,
                                            method="mc", mc_patterns=20)[0]


# _covariance_table over every ordered pair, n_samples=8, seed=4,
# resolution=20 and mc_patterns=30: float-hex value and standard error,
# recorded when each pair still ran its own per-facet Monte Carlo loop
_PINNED_TABLES = {
    "hemisphere": {
        (1, 1): ('0x1.0000000000000p+2', '0x0.0p+0'),
        (1, 2): ('0x1.8222222222222p+0', '0x1.01b375bea0831p-4'),
        (2, 1): ('0x1.6888888888888p+0', '0x1.102d23b83ff74p-3'),
        (2, 2): ('0x1.156789abcdf01p-1', '0x1.ed233532e42fep-5'),
    },
    "table": {
        (1, 1): ('0x1.2000000000000p+6', '0x0.0p+0'),
        (1, 2): ('0x1.58d497d7fb5c6p+6', '0x1.fc2766a489dd5p-1'),
        (1, 3): ('0x1.2000000000000p+5', '0x1.d43506b5f9372p+0'),
        (2, 1): ('0x1.6614e0aef4595p+6', '0x1.e207445cabad3p+1'),
        (2, 2): ('0x1.aca8cc6ac5f29p+6', '0x1.47d0ed7017814p+2'),
        (2, 3): ('0x1.64f16899a3dc1p+5', '0x1.379657a504cf0p+1'),
        (3, 1): ('0x1.2733333333333p+5', '0x1.caa965866a8b4p+0'),
        (3, 2): ('0x1.5e3dfbfab520ap+5', '0x1.349a9fd728c80p+1'),
        (3, 3): ('0x1.2751eb851eb85p+4', '0x1.6d5aa9b809b02p+0'),
    },
    "two-atom": {
        (1, 1): ('0x1.8346dc5d63886p+3', '0x1.2009303e2862ep+1'),
        (1, 2): ('0x1.4120521497601p+1', '0x1.6d3312dc339ddp-2'),
        (1, 3): ('0x1.cc1e098ead65cp-3', '0x1.c0480c872f3b2p-4'),
        (2, 1): ('0x1.5cf5c4aaf17bcp+1', '0x1.5598edf1a26fap-1'),
        (2, 2): ('0x1.1dc4a7f078818p-1', '0x1.ab656edf88b98p-4'),
        (2, 3): ('0x1.a2bcb3ad52383p-5', '0x1.54db0b7ce85c7p-6'),
        (3, 1): ('0x1.4e81b4e81b4e9p-3', '0x1.6e9c98a22a9bdp-4'),
        (3, 2): ('0x1.1de667f15ce8ap-5', '0x1.190f2255c41e9p-6'),
        (3, 3): ('0x1.23456789abce0p-8', '0x1.154826751c9a4p-9'),
    },
    "quadrature": {
        (1, 1): ('0x1.0000000000000p+4', '0x0.0p+0'),
        (1, 2): ('0x1.1aefb148a5b68p+2', '0x1.d7d60a077853ep-6'),
        (1, 3): ('0x1.c71c71c71c71cp-2', '0x0.0p+0'),
        (2, 1): ('0x1.1aefb148a5b68p+2', '0x1.d7d60a077853ep-6'),
        (2, 2): ('0x1.38c4623b7d9f6p+0', '0x1.066bfde021d1ep-6'),
        (2, 3): ('0x1.f6ff740f5f7d6p-4', '0x1.a368ec786af51p-11'),
        (3, 1): ('0x1.c71c71c71c71cp-2', '0x0.0p+0'),
        (3, 2): ('0x1.f6ff740f5f7d6p-4', '0x1.a368ec786af51p-11'),
        (3, 3): ('0x1.948b0fcd6e9e0p-7', '0x0.0p+0'),
    },
}
_TABLE_MODELS = {
    "hemisphere": (_hemisphere_model((0.0, 0.0), 1.0), "mc"),
    "table": (_table_model(3, (0.0,) * 3, 1.0), "mc"),
    "two-atom": (_two_atom_model(3, (0.0,) * 3, 1.0), "mc"),
    "quadrature": (ModelParams.special(3, (0.0,) * 3), "quadrature"),
}


@pytest.mark.parametrize("name", list(_PINNED_TABLES))
def test_covariance_table_bits_are_pinned(name):
    p, method = _TABLE_MODELS[name]
    pairs = list(itertools.product(range(1, p.d + 1), repeat=2))
    table = _covariance_table(pairs, p, n_samples=8, seed=4, method=method,
                              resolution=20, mc_patterns=30)
    got = {k: (v.hex(), se.hex()) for k, (v, se) in table.items()}
    assert got == _PINNED_TABLES[name]
    for i, j in pairs:
        assert table[(i, j)] == asymptotic_covariance(
            i, j, p, n_samples=8, seed=4, method=method, resolution=20,
            mc_patterns=30)


@pytest.mark.parametrize("d,per_facet", [(2, 2), (3, 4)])
def test_monte_carlo_table_evaluates_each_order_once_per_stream(
        monkeypatch, d, per_facet):
    # The pairs i <= j need orders 2..d from stream 0 and from stream 3;
    # order 1 is the facet content.  Evaluating each pair on its own
    # took 4 and 10 calls per facet.
    calls = []

    def counted(j, *args, **kwargs):
        calls.append(j)
        return expected_increment(j, *args, **kwargs)

    monkeypatch.setattr(moments, "expected_increment", counted)
    p = _table_model(d, (0.0,) * d, 1.0)
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
    _covariance_table(pairs, p, n_samples=5, seed=0, method="mc",
                      resolution=1, mc_patterns=10)
    assert len(calls) == per_facet * 5
    assert sorted(set(calls)) == list(range(2, d + 1))


def test_monte_carlo_covariance_diagonal_is_unbiased():
    # (i, i) multiplies two independent estimates of the increment: the
    # square of one would add its variance, mc_patterns times smaller than
    # that of one reference pattern, and read 0.357 +- 0.010 here.  The
    # quadrature gives 0.25 exactly.
    p = ModelParams.special(2, (0.0, 0.0))
    val, se = asymptotic_covariance(2, 2, p, n_samples=2000, seed=1,
                                    method="mc", mc_patterns=5)
    assert abs(val - 0.25) < 4 * se


def test_asymptotic_covariance_planar_exact():
    p = ModelParams.special(2, (0.0, -1.0))
    c11, se11 = asymptotic_covariance(1, 1, p, n_samples=400)
    c12, se12 = asymptotic_covariance(1, 2, p, n_samples=400)
    c21, _ = asymptotic_covariance(2, 1, p, n_samples=400)
    c22, _ = asymptotic_covariance(2, 2, p, n_samples=400)
    assert se11 == 0.0 and se12 == 0.0
    assert c11 == pytest.approx(4.0, abs=1e-12)
    assert c12 == pytest.approx(1.0, abs=1e-12)
    assert c21 == c12
    assert c22 == pytest.approx(0.25, abs=1e-12)
    eigs = np.linalg.eigvalsh(np.array([[c11, c12], [c12, c22]]))
    assert eigs.min() > -1e-10


def test_asymptotic_covariance_volume_order():
    p = ModelParams.special(3, (0.0, 0.0, 0.0))
    c11, se = asymptotic_covariance(1, 1, p, n_samples=64)
    assert se == 0.0
    assert c11 == pytest.approx(p.total_intensity * 16.0, rel=1e-12)


def test_i_k_integrals_reference_values():
    i1, ip1 = i_k_integrals(3, 1)
    assert i1 == pytest.approx(5.0 / 3.0, abs=1e-13)
    assert ip1 == pytest.approx(167.0 / 60.0, abs=1e-13)
    b, chi = 1.5, 0.7
    t_mass = chi * b ** 2
    i1_d2, _ = i_k_integrals(2, 1, b=b, chi=chi)
    assert i1_d2 == pytest.approx(2 * b * t_mass, rel=1e-13)
    t3 = chi * b ** 3
    top, _ = i_k_integrals(3, 2, b=b, chi=chi)
    assert top == pytest.approx(t3 * (2 * b) ** 2, rel=1e-13)


def test_i_k_integral_bounds():
    for d in (2, 3, 4, 5):
        for k in range(1, d):
            b, chi = 0.8, 1.3
            t_mass = chi * b ** d
            ik, ipk = i_k_integrals(d, k, b=b, chi=chi)
            assert t_mass ** (d - k) * b ** k <= ik
            assert ik <= t_mass ** (d - k) * (2 * b) ** k
            assert ipk > 0.0
    with pytest.raises(ValueError):
        i_k_integrals(3, 0)
    with pytest.raises(ValueError):
        i_k_integrals(3, 3)


def _expand(shift, sign, m):
    """Coefficients of (shift + sign t)^m in powers of t, by the binomial
    theorem."""
    return [math.comb(m, i) * shift ** (m - i) * sign ** i
            for i in range(m + 1)]


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _integral(poly, lo, hi):
    return sum(c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
               for i, c in enumerate(poly))


@pytest.mark.parametrize("b, chi", [(1.0, 1.0), (0.8, 1.3), (1.5, 0.7)])
def test_i_k_integrals_are_the_nearest_doubles(b, chi):
    # the overlap profile's pieces and the shared-facet profile s(t)
    # expanded in powers of t and integrated term by term in exact
    # rationals, then rounded once
    b, chi = Fraction(b), Fraction(chi)
    for d in range(2, 7):
        for k in range(1, d):
            m = d - k
            j_m = (_integral(_expand(b, 1, m), -b, 0) + b ** m * b
                   + _integral(_expand(2 * b, -1, m), b, 2 * b))
            s = [-c / m for c in _expand(b, -1, m)]
            s[0] += b ** m * Fraction(m + 2, m)
            s[m] -= Fraction(1, m)
            k_m = _integral(_times(s, s), 0, b)
            i_k = chi ** m * b ** (m * (d - k)) * j_m ** k
            i_prime = chi ** (2 * m - 1) * b ** ((2 * m - 1) * (d - k)) \
                * k_m ** k
            assert i_k_integrals(d, k, b=float(b), chi=float(chi)) \
                == (float(i_k), float(i_prime))


def test_i_k_orientation_assignment_invariance():
    # Monte Carlo over centers, two different axis assignments
    rng = np.random.default_rng(12)
    n = 40000
    target, _ = i_k_integrals(3, 1)
    for axes in ((0, 1), (1, 2)):
        z = rng.random((n, 2, 3))
        vals = np.empty(n)
        for t in range(n):
            vals[t] = tuple_content([(tuple(z[t, i].tolist()), 1.0, axes[i])
                                     for i in range(2)])
        est = float(vals.mean())
        se = float(vals.std() / math.sqrt(n))
        assert abs(est - target) < 4 * se


def test_scaling_limit_constants_values():
    lim = scaling_limit_constants(3, 1, 5.0 / 3.0, 167.0 / 60.0)
    assert lim.mean == pytest.approx(5.0 / 27.0, rel=1e-14)
    assert lim.variance == lim.variance_alt
    assert lim.variance == pytest.approx(4 * 2 / 27 * 167 / 60, rel=1e-12)
    i2 = 4.0
    lim2 = scaling_limit_constants(3, 2, i2, 1.0)
    assert lim2.mean == pytest.approx(i2 * 2.0 / 3.0, rel=1e-14)
    assert lim2.variance == lim2.variance_alt
    lim3 = scaling_limit_constants(4, 1, 1.0, 1.0)
    assert lim3.variance_alt == pytest.approx(4.0 * lim3.variance, rel=1e-12)
    with pytest.raises(ValueError):
        scaling_limit_constants(3, 0, 1.0, 1.0)
