import math

import numpy as np
import pytest

from facetproc.geometry import Facet, Window
from facetproc.model import (
    CenterIntensity,
    ModelParams,
    OrientationLaw,
    SizeLaw,
    local_stability_bound,
    log_conditional_intensity,
    validate_params,
)
from facetproc.ustat import FacetPattern, g_vector


def random_pattern(rng, p, n):
    facets = []
    while len(facets) < n:
        f = p.sample_facet_from_uniforms(rng.random(), rng.random(p.d), rng.random())
        if f not in facets:
            facets.append(f)
    return FacetPattern.of(facets, p.d)


def test_validate_params():
    ModelParams.special(3, (0.5, -1.0, 0.0))  # nu_1 unconstrained
    with pytest.raises(ValueError, match="not integrable"):
        ModelParams.special(2, (0.0, 0.1))
    ModelParams.special(2, (0.0, 0.0))  # Poisson
    with pytest.raises(ValueError):
        ModelParams.special(2, (0.0, 0.0), a=0.5)
    with pytest.raises(ValueError):
        ModelParams.special(2, (0.0,))  # wrong nu length


def test_submodel_constructor():
    p = ModelParams.submodel(3, order=2, nu_value=-1.5)
    assert p.nu == (0.0, -1.5, 0.0)
    assert p.active_orders == (2,)
    with pytest.raises(ValueError):
        ModelParams.submodel(3, order=4, nu_value=-1.0)
    with pytest.raises(ValueError):
        ModelParams.submodel(3, order=3, nu_value=0.5)


def test_conditional_intensity_examples():
    p0 = ModelParams.special(2, (0.0, 0.0))
    x = FacetPattern.of([Facet((0.2, 0.7), 1.0, 0)])
    u = Facet((0.9, 0.1), 1.0, 1)
    assert math.exp(log_conditional_intensity([u], x, p0)) == 1.0

    p = ModelParams.submodel(2, order=2, nu_value=-0.8)
    assert math.exp(log_conditional_intensity([u], x, p)) \
        == pytest.approx(math.exp(-0.8))
    # two crossing facets added to the empty pattern
    val = math.exp(log_conditional_intensity([x.facets[0], u],
                                             p.empty_pattern(), p))
    assert val == pytest.approx(math.exp(-0.8))


def test_conditional_intensity_telescopes_order_free():
    rng = np.random.default_rng(31)
    p = ModelParams.special(3, (0.3, -0.5, -1.0), a=2.0)
    x = random_pattern(rng, p, 4)
    ys = [f for f in random_pattern(rng, p, 3).facets if f not in x.facets]
    fwd = log_conditional_intensity(ys, x, p)
    rev = log_conditional_intensity(ys[::-1], x, p)
    assert fwd == pytest.approx(rev, rel=1e-12, abs=1e-12)
    # and equals the sequential one-point product
    seq = 0.0
    cur = x
    for y in ys:
        seq += log_conditional_intensity([y], cur, p)
        cur = cur.with_facet(y)
    assert fwd == pytest.approx(seq, rel=1e-12, abs=1e-12)


def test_conditional_intensity_builds_no_pattern(monkeypatch):
    rng = np.random.default_rng(12)
    p = ModelParams.special(3, (0.3, -0.5, -1.0), a=2.0)
    x = random_pattern(rng, p, 5)
    ys = [f for f in random_pattern(rng, p, 3).facets if f not in x.facets]
    assert len(ys) == 3
    grown = FacetPattern.of(x.facets + tuple(ys), 3)
    whole = math.fsum(p.nu * (g_vector(grown) - g_vector(x)))
    built = []
    init = FacetPattern.__post_init__
    monkeypatch.setattr(FacetPattern, "__post_init__",
                        lambda self: built.append(1) or init(self))
    value = log_conditional_intensity(ys, x, p)
    assert not built
    assert value == pytest.approx(whole, rel=1e-12, abs=1e-12)


def test_first_order_submodel_ignores_pattern():
    rng = np.random.default_rng(8)
    p = ModelParams.submodel(2, order=1, nu_value=0.7)
    u = Facet((0.5, 0.5), 1.0, 0)
    vals = set()
    for n in (0, 1, 3, 6):
        x = random_pattern(rng, p, n)
        if u in x.facets:
            continue
        vals.add(log_conditional_intensity([u], x, p))
    assert len(vals) == 1  # bitwise identical across patterns


def test_repulsiveness_on_nested_patterns():
    rng = np.random.default_rng(77)
    for d in (2, 3):
        for s in range(2, d + 1):
            p = ModelParams.submodel(d, order=s, nu_value=float(-rng.uniform(0.2, 3.0)))
            for _ in range(25):
                big = random_pattern(rng, p, int(rng.integers(2, 7)))
                keep = sorted(rng.choice(big.n, size=int(rng.integers(0, big.n)),
                                         replace=False).tolist())
                small = FacetPattern.of([big.facets[i] for i in keep], d)
                u = p.sample_facet_from_uniforms(rng.random(), rng.random(d), rng.random())
                if u in big.facets:
                    continue
                assert (log_conditional_intensity([u], big, p)
                        <= log_conditional_intensity([u], small, p))


def test_local_stability_bound():
    assert local_stability_bound(ModelParams.special(2, (0.0, -1.0))) == 1.0
    assert local_stability_bound(ModelParams.special(2, (1.0, -1.0))) == pytest.approx(math.e ** 2)
    rng = np.random.default_rng(4)
    p = ModelParams.special(2, (0.6, -0.4), a=3.0)
    alpha = math.log(local_stability_bound(p))
    for _ in range(200):
        x = random_pattern(rng, p, int(rng.integers(0, 6)))
        u = p.sample_facet_from_uniforms(rng.random(), rng.random(2), rng.random())
        if u in x.facets:
            continue
        assert log_conditional_intensity([u], x, p) <= alpha


def test_center_intensity_table():
    w = Window.cube(1.0, 2)
    chi = CenterIntensity(w, table=np.array([[1.0], [3.0]]))
    assert chi.total == pytest.approx(2.0)
    # u0 below the first cell's mass fraction lands in x < 1/2
    z = chi.sample_from_uniforms((0.2, 0.5))
    assert z[0] < 0.5
    z = chi.sample_from_uniforms((0.9, 0.5))
    assert z[0] > 0.5
    with pytest.raises(ValueError):
        CenterIntensity(w, level=1.0, table=np.ones((2, 2)))
    with pytest.raises(ValueError):
        CenterIntensity(w, table=np.zeros((2, 2)))


def test_center_intensity_table_compares_by_value():
    # two tables of the same levels, from separate arrays (one a list),
    # give equal and equally hashed laws and models; other levels or
    # another shape differ
    w = Window.cube(1.0, 2)
    chi = CenterIntensity(w, table=np.array([[1.0, 0.0], [1.0, 2.0]]))
    same = CenterIntensity(w, table=[[1, 0], [1, 2]])
    assert chi == same and hash(chi) == hash(same)
    assert chi != CenterIntensity(w, table=[[1.0, 0.0], [1.0, 3.0]])
    assert chi != CenterIntensity(w, table=[[1.0, 0.0, 1.0, 2.0]])
    assert chi != CenterIntensity(w, level=1.0)
    models = [ModelParams(2, 1.0, (0.0, -1.0), 2.0, c, SizeLaw.fixed(1.0),
                          OrientationLaw(2)) for c in (chi, same)]
    assert models[0] == models[1] and hash(models[0]) == hash(models[1])
    assert len({chi, same, CenterIntensity(w, level=1.0)}) == 2


def test_center_intensity_table_is_a_read_only_copy():
    # the law keeps its own levels: writing to the caller's array changes
    # neither its support nor its draws nor its total, and its table
    # cannot be written
    w = Window.cube(1.0, 2)
    levels = np.ones((2, 2))
    chi = CenterIntensity(w, table=levels)
    draw = chi.sample_from_uniforms((0.02, 0.1))
    levels[0, 0] = 0.0
    assert chi.in_support((0.1, 0.1))
    assert chi.sample_from_uniforms((0.02, 0.1)) == draw
    assert chi.total == 1.0
    with pytest.raises(ValueError, match="read-only"):
        chi.table[0, 0] = 0.0
    assert chi == CenterIntensity(w, table=np.ones((2, 2)))


def test_center_intensity_table_statistics():
    w = Window.cube(2.0, 2)
    chi = CenterIntensity(w, table=np.array([[1.0, 0.0], [1.0, 2.0]]))
    rng = np.random.default_rng(10)
    pts = np.array([chi.sample_from_uniforms(rng.random(2)) for _ in range(4000)])
    # dead cell x<1, y>1 stays empty; hot cell x>1, y>1 gets ~1/2 of the mass
    in_dead = ((pts[:, 0] < 1) & (pts[:, 1] > 1)).mean()
    in_hot = ((pts[:, 0] > 1) & (pts[:, 1] > 1)).mean()
    assert in_dead == 0.0
    assert abs(in_hot - 0.5) < 0.03


def test_center_row_draw_is_the_batch_draw():
    # The d = 2 counts rule maps a kept facet's row of uniforms alone;
    # every other draw maps whole arrays.  The draws agree bit for bit.
    # A 3x3 table with zero cells, on two windows: side 3, where the cell
    # masses are the levels and every cell edge of the selection uniform
    # is a dyadic fraction of the total, and the unit square; then a
    # constant level.
    levels = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    below_one = math.nextafter(1.0, 0.0)
    inner = [c for c in (np.cumsum(levels.reshape(-1))
                         / levels.sum()).tolist() if 0.0 < c < 1.0]
    edges = [0.0, below_one, 0.5, 1.0 / 3.0, 2.0 / 3.0, *inner,
             *(math.nextafter(c, 0.0) for c in inner)]
    u = np.random.default_rng(12).random((2000, 2))
    u[:len(edges) ** 2] = [(a, b) for a in edges for b in edges]
    # past the range of a uniform: the last cell (level 0, so the fallback
    # fraction 0.5) and the clip of the other coordinate
    u = np.vstack([u, [(1.0, 0.5), (1.0, 1.0), (0.3, -0.25), (0.7, 1.5)]])
    for chi in (CenterIntensity(Window.cube(3.0, 2), table=levels),
                CenterIntensity(Window.cube(1.0, 2), table=levels),
                CenterIntensity(Window.cube(2.0, 2), level=0.5)):
        batch = np.stack(chi.sample_from_uniforms(u.T), axis=-1).tolist()
        rows = [chi.sample_from_uniforms(row) for row in u.tolist()]
        assert [tuple(map(float.hex, z)) for z in rows] \
            == [tuple(map(float.hex, z)) for z in batch]
        assert all(chi.in_support(z) for z in rows[:2000])


def test_size_law():
    q = SizeLaw(((0.5, 0.25), (1.0, 0.75)))
    assert q.max_extent == 1.0
    assert q.sample_from_uniform(0.1) == 0.5
    assert q.sample_from_uniform(0.9) == 1.0
    assert SizeLaw.fixed(1.0).is_fixed
    with pytest.raises(ValueError):
        SizeLaw(((0.5, 0.5),))  # weights must sum to 1


def test_orientation_law():
    v = OrientationLaw(3)
    assert {v.sample_from_uniform(u) for u in (0.0, 0.4, 0.7, 0.999)} == {0, 1, 2}
    h = OrientationLaw(2, "hemisphere")
    n = h.sample_from_uniform(0.75)
    assert math.hypot(*n) == pytest.approx(1.0)
    assert n[0] > 0 or (n[0] == 0 and n[1] > 0)
    with pytest.raises(ValueError):
        OrientationLaw(3, "hemisphere")
