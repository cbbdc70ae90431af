"""Exponential-family facet process model.

The density w.r.t. the unit-rate reference Poisson process is proportional to
exp(nu . G(x)).  The normalizing constant is never evaluated; every consumer
works with density ratios (conditional intensities).  The reference intensity
factorizes into a center intensity chi on the window, a size law for the
half-extent, and an orientation law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .geometry import Facet, Window, _check_int, facet_measure
from .ustat import FacetPattern, _subset_terms


@dataclass(frozen=True)
class CenterIntensity:
    """Center intensity chi: constant, or piecewise constant on a grid.

    The table is an array of nonnegative levels over a regular partition of
    the window, held as a read-only copy and compared and hashed by its
    shape and levels; total mass T = integral of chi is cached.  Sampling
    inverts the cell table then places the point uniformly in the cell, so
    T and the sampled law are exact.
    """

    window: Window
    level: float | None = None
    table: np.ndarray | None = field(default=None, compare=False)
    _levels: tuple = field(init=False, repr=False)
    _cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.level is None) == (self.table is None):
            raise ValueError("give exactly one of a constant level or a table")
        if self.level is not None:
            if not 0 < self.level < math.inf:
                raise ValueError("constant intensity must be positive and finite")
            object.__setattr__(self, "_levels", ())
            object.__setattr__(self, "_cells", ())
            return
        table = np.array(self.table, dtype=float)
        if table.ndim != self.window.d:
            raise ValueError("table rank must equal the window dimension")
        if (table < 0).any() or not (table > 0).any() \
                or not np.isfinite(table).all():
            raise ValueError("table levels must be finite and nonnegative "
                             "with positive total")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_levels", (table.shape, tuple(table.flat)))
        cell_vol = self.window.volume / table.size
        weights = (table.reshape(-1) * cell_vol)
        cum = np.cumsum(weights)
        object.__setattr__(self, "_cells", (cum, table.shape, cell_vol))

    @property
    def total(self) -> float:
        if self.level is not None:
            return self.level * self.window.volume
        return float(self._cells[0][-1])

    def in_support(self, point: Sequence[float]) -> bool:
        """Whether sample_from_uniforms can give the point: it lies in the
        window and, for a table, in the closure of a cell of positive
        level."""
        if not self.window.contains(point):
            return False
        if self.level is not None:
            return True
        near = []  # per coordinate, the cells whose closure holds it
        for (lo, hi), n_c, x in zip(self.window.bounds, self.table.shape,
                                    point):
            # the cell edges sample_from_uniforms reaches, and the window's
            edges = [lo + k * ((hi - lo) / n_c) for k in range(n_c)] + [hi]
            near.append([k for k in range(n_c)
                         if edges[k] <= x <= edges[k + 1]])
        return any(self.table[cell] > 0 for cell in product(*near))

    def sample_from_uniforms(self, u: Sequence) -> tuple:
        """Map d iid uniforms to a center draw from chi/T (deterministic);
        given d equal-shape arrays of uniforms, d arrays of coordinates."""
        b = self.window.bounds
        if self.level is not None:
            return tuple(lo + u_i * (hi - lo) for (lo, hi), u_i in zip(b, u))
        cum, shape, _ = self._cells
        mass = u[0] * cum[-1]
        flat = np.minimum(np.searchsorted(cum, mass, side="right"),
                          len(cum) - 1)
        idx = np.unravel_index(flat, shape)
        # recycle the cell-selection uniform for the first coordinate
        prev = np.where(flat > 0, cum[flat - 1], 0.0)
        w = cum[flat] - prev
        u0 = np.where(w > 0, (mass - prev) / np.where(w > 0, w, 1.0), 0.5)
        us = (u0,) + tuple(u[1:])
        return tuple(lo + (i + np.clip(u_c, 0.0, 1.0)) * ((hi - lo) / n_c)
                     for (lo, hi), i, u_c, n_c in zip(b, idx, us, shape))


@dataclass(frozen=True)
class SizeLaw:
    """Half-extent law: a point mass (special model) or a discrete table."""

    atoms: tuple[tuple[float, float], ...]  # (half_extent, probability)
    _radii: np.ndarray = field(init=False, repr=False, compare=False)
    _cuts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple((float(r), float(p)) for r, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms or not all(0 < r < math.inf and 0 <= p < math.inf
                                for r, p in atoms):
            raise ValueError("half-extents must be positive, weights "
                             "nonnegative, both finite")
        if abs(math.fsum(p for _, p in atoms) - 1.0) > 1e-12:
            raise ValueError("size law weights must sum to 1")
        radii, weights = np.array(atoms).T
        object.__setattr__(self, "_radii", radii)
        object.__setattr__(self, "_cuts", np.cumsum(weights)[:-1])

    @classmethod
    def fixed(cls, half_extent: float) -> "SizeLaw":
        return cls(((half_extent, 1.0),))

    @property
    def is_fixed(self) -> bool:
        return len(self.atoms) == 1

    @property
    def max_extent(self) -> float:
        return max(r for r, _ in self.atoms)

    def sample_from_uniform(self, u):
        """The first atom whose cumulative weight exceeds the uniform u;
        elementwise for an array of uniforms."""
        return self._radii[np.searchsorted(self._cuts, u, side="right")]


@dataclass(frozen=True)
class OrientationLaw:
    """Uniform over the d canonical axes, or uniform on the hemisphere (d=2)."""

    d: int
    kind: str = "canonical"

    def __post_init__(self):
        if self.kind not in ("canonical", "hemisphere"):
            raise ValueError("kind must be 'canonical' or 'hemisphere'")
        if self.kind == "hemisphere" and self.d != 2:
            raise ValueError("continuous orientations are supported in d = 2 only")

    @property
    def is_canonical(self) -> bool:
        return self.kind == "canonical"

    def sample_from_uniform(self, u):
        """Axis index, or unit normal (hemisphere, scalar u only); the
        axis is elementwise for an array of uniforms."""
        if self.kind == "canonical":
            return np.minimum(np.multiply(u, self.d).astype(np.intp),
                              self.d - 1)
        theta = u * math.pi
        nx, ny = math.cos(theta), math.sin(theta)
        if nx < 0 or (nx == 0 and ny < 0):
            nx, ny = -nx, -ny
        return (nx, ny)


@dataclass(frozen=True)
class ModelParams:
    """Dimension, window scale, interaction vector nu, and reference laws.

    nu_j <= 0 is required for j >= 2 (density existence); nu_1 is free.
    a >= 1 scales the reference intensity: the process at activity a has
    reference Poisson mean a*T.
    """

    d: int
    b: float
    nu: tuple[float, ...]
    a: float
    center: CenterIntensity
    size: SizeLaw
    orientation: OrientationLaw

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        validate_params(self)

    @classmethod
    def special(cls, d: int, nu: Sequence[float], a: float = 1.0,
                b: float = 1.0, chi: float = 1.0) -> "ModelParams":
        """The finite-orientation model: fixed size 2b, canonical axes,
        constant chi on the window [0, b]^d."""
        window = Window.cube(b, d)
        return cls(d, b, tuple(nu), a,
                   CenterIntensity(window, level=chi),
                   SizeLaw.fixed(b),
                   OrientationLaw(d, "canonical"))

    @classmethod
    def submodel(cls, d: int, order: int, nu_value: float, a: float = 1.0,
                 b: float = 1.0, chi: float = 1.0) -> "ModelParams":
        """Only nu_<order> active; the rest of nu is zero."""
        _check_int("submodel order", order, 1)
        if order > d:
            raise ValueError("submodel order outside 1..d")
        nu = [0.0] * d
        nu[order - 1] = float(nu_value)
        return cls.special(d, nu, a=a, b=b, chi=chi)

    @property
    def window(self) -> Window:
        return self.center.window

    @property
    def total_intensity(self) -> float:
        """T, the total mass of chi over the window."""
        return self.center.total

    @property
    def active_orders(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.d + 1) if self.nu[j - 1] != 0.0)

    def coupled_order(self) -> int:
        """The one interaction order j >= 2 with nonzero coupling; the top
        order d when no order above the first couples."""
        active = [j for j in self.active_orders if j >= 2]
        if len(active) > 1:
            raise ValueError("more than one interaction order is coupled")
        return active[0] if active else self.d

    def sample_facet_from_uniforms(self, u_aux: float, u_center: Sequence[float],
                                   u_size: float) -> Facet:
        return Facet(self.center.sample_from_uniforms(u_center),
                     self.size.sample_from_uniform(u_size),
                     self.orientation.sample_from_uniform(u_aux))

    def sample_facets_from_uniforms(self, u: np.ndarray) -> tuple:
        """sample_facet_from_uniforms on every row of u (..., d + 2), one
        facet per row of uniforms (aux, d center coordinates, size), by
        the laws' array samplers: centers (..., d), half-extents (...)
        and orientations, the axes (...) of the canonical law or, for the
        hemisphere law and u (n, d + 2), an object array of n normals
        drawn one by one in plain Python (numpy's trig may round
        otherwise)."""
        d = self.d
        centers = np.stack(self.center.sample_from_uniforms(
            np.moveaxis(u[..., 1:1 + d], -1, 0)), axis=-1)
        extents = self.size.sample_from_uniform(u[..., 1 + d])
        if self.orientation.is_canonical:
            orientations = self.orientation.sample_from_uniform(u[..., 0])
        else:
            orientations = np.fromiter(
                map(self.orientation.sample_from_uniform, u[:, 0].tolist()),
                dtype=object, count=len(u))
        return centers, extents, orientations

    def empty_pattern(self) -> FacetPattern:
        return FacetPattern.of([], d=self.d)


def _facet_list(*mapped: np.ndarray) -> list[Facet]:
    """Validated Facets, from Python floats, of the arrays that
    ModelParams.sample_facets_from_uniforms maps one block of rows to."""
    return list(map(Facet, *(a.tolist() for a in mapped)))


def validate_params(p: ModelParams) -> None:
    """Reject parameter sets without a well-defined density."""
    if p.d < 2:
        raise ValueError("dimension must be >= 2")
    if len(p.nu) != p.d:
        raise ValueError("nu must have one component per order 1..d")
    for name, v in (("a", p.a), ("b", p.b), *(
            (f"nu_{j}", v) for j, v in enumerate(p.nu, start=1))):
        if not math.isfinite(v):
            raise ValueError(f"{name} = {v} is not finite")
    for j in range(2, p.d + 1):
        if p.nu[j - 1] > 0:
            raise ValueError(
                f"nu_{j} = {p.nu[j - 1]} > 0: exp(nu.G) is not integrable "
                "against the Poisson reference for positive higher-order weights")
    if not p.a >= 1:
        raise ValueError("activity a must be >= 1")
    if not p.b > 0:
        raise ValueError("size scale b must be positive")
    if p.size.max_extent > p.b * (1 + 1e-12):
        raise ValueError("half-extents above the size scale b break the stability bound")
    if p.orientation.d != p.d or p.center.window.d != p.d:
        raise ValueError("component dimensions disagree")
    if not 0 < p.total_intensity < math.inf:
        raise ValueError("total center intensity must be positive and finite")


def _count_determined(p: ModelParams) -> bool:
    """Canonical axes, one half-extent r and every window side at most r:
    each content is then a product of free-coordinate overlaps, and G_1
    and G_d are functions of the orientation counts.  The counts rules,
    the correlation evaluators and the Poisson closed form need it."""
    r = p.size.max_extent
    return p.orientation.is_canonical and p.size.is_fixed \
        and all(hi - lo <= r for lo, hi in p.window.bounds)


def log_conditional_intensity(ys: Sequence[Facet], x: FacetPattern, p: ModelParams) -> float:
    """log of exp(nu . (G(x + ys) - G(x))), via telescoping increments:
    each y takes ustat._subset_terms of every active order on one copy of
    x's groups, then joins them; no pattern is built.  Dimensions other
    than the model's are refused, and so is a facet already in x or
    among the ys before it, with or without an active order.  Terms are
    combined with fsum, so for a single new facet the value is exactly
    monotone in each increment (the repulsiveness and stability contracts
    compare these values in the log domain)."""
    if x.d != p.d or any(y.d != p.d for y in ys):
        raise ValueError("pattern or facet dimension differs from the model's")
    orders = p.active_orders
    groups = {key: list(fs) for key, fs in x.groups.items()}
    parts: list[float] = []
    for y in ys:
        f = (y.center, y.half_extent, y.orientation)
        group = groups.setdefault(f[2], [])
        if f in group:
            raise ValueError("facet already present")
        parts.extend(p.nu[j - 1] * math.fsum(_subset_terms(groups, j - 1, f))
                     for j in orders)
        group.append(f)
    return math.fsum(parts)


def local_stability_bound(p: ModelParams) -> float:
    """alpha with lambda*(u; x) <= alpha for every u, x.

    Orders j >= 2 contribute nonpositive exponent terms, so only a positive
    nu_1 can push lambda* above 1, and its increment is capped by (2b)^(d-1).
    """
    return math.exp(max(0.0, p.nu[0]) * (2.0 * p.b) ** (p.d - 1))
