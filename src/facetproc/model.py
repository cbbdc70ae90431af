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
from typing import Sequence

import numpy as np

from .geometry import Facet, Window, facet_measure
from .ustat import FacetPattern, g_increment, g_vector


@dataclass(frozen=True)
class CenterIntensity:
    """Center intensity chi: constant, or piecewise constant on a grid.

    The table is an array of nonnegative levels over a regular partition of
    the window; total mass T = integral of chi is cached.  Sampling inverts
    the cell table then places the point uniformly in the cell, so T and the
    sampled law are exact.
    """

    window: Window
    level: float | None = None
    table: np.ndarray | None = None
    _cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.level is None) == (self.table is None):
            raise ValueError("give exactly one of a constant level or a table")
        if self.level is not None:
            if not 0 < self.level < math.inf:
                raise ValueError("constant intensity must be positive and "
                                 "finite")
            object.__setattr__(self, "_cells", ())
            return
        table = np.asarray(self.table, dtype=float)
        if table.ndim != self.window.d:
            raise ValueError("table rank must equal the window dimension")
        if (table < 0).any() or not (table > 0).any() \
                or not np.isfinite(table).all():
            raise ValueError("table levels must be finite and nonnegative "
                             "with positive total")
        object.__setattr__(self, "table", table)
        cell_vol = self.window.volume / table.size
        weights = (table.reshape(-1) * cell_vol)
        cum = np.cumsum(weights)
        object.__setattr__(self, "_cells", (cum, table.shape, cell_vol))

    @property
    def total(self) -> float:
        if self.level is not None:
            return self.level * self.window.volume
        cum, _, _ = self._cells
        return float(cum[-1])

    def sample_from_uniforms(self, u: Sequence[float]) -> tuple[float, ...]:
        """Map d iid uniforms to a center draw from chi/T (deterministic)."""
        b = self.window.bounds
        if self.level is not None:
            return tuple(lo + u_i * (hi - lo) for (lo, hi), u_i in zip(b, u))
        cum, shape, _ = self._cells
        flat = int(np.searchsorted(cum, u[0] * cum[-1], side="right"))
        flat = min(flat, len(cum) - 1)
        idx = np.unravel_index(flat, shape)
        # recycle the cell-selection uniform for the first coordinate
        prev = cum[flat - 1] if flat else 0.0
        w = cum[flat] - prev
        u0 = (u[0] * cum[-1] - prev) / w if w > 0 else 0.5
        us = (u0,) + tuple(u[1:])
        out = []
        for c, ((lo, hi), i, u_c) in enumerate(zip(b, idx, us)):
            step = (hi - lo) / shape[c]
            out.append(lo + (i + min(max(u_c, 0.0), 1.0)) * step)
        return tuple(out)


@dataclass(frozen=True)
class SizeLaw:
    """Half-extent law: a point mass (special model) or a discrete table."""

    atoms: tuple[tuple[float, float], ...]  # (half_extent, probability)

    def __post_init__(self):
        atoms = tuple((float(r), float(p)) for r, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms or not all(0 < r < math.inf and 0 <= p < math.inf
                                for r, p in atoms):
            raise ValueError("half-extents must be positive, weights "
                             "nonnegative, both finite")
        if abs(math.fsum(p for _, p in atoms) - 1.0) > 1e-12:
            raise ValueError("size law weights must sum to 1")

    @classmethod
    def fixed(cls, half_extent: float) -> "SizeLaw":
        return cls(((half_extent, 1.0),))

    @property
    def is_fixed(self) -> bool:
        return len(self.atoms) == 1

    @property
    def max_extent(self) -> float:
        return max(r for r, _ in self.atoms)

    def sample_from_uniform(self, u: float) -> float:
        acc = 0.0
        for r, p in self.atoms:
            acc += p
            if u < acc:
                return r
        return self.atoms[-1][0]


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

    def sample_from_uniform(self, u: float):
        if self.kind == "canonical":
            return min(int(u * self.d), self.d - 1)
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
        if not 1 <= order <= d:
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

    def sample_facet_from_uniforms(self, u_aux: float, u_center: Sequence[float],
                                   u_size: float) -> Facet:
        return Facet(self.center.sample_from_uniforms(u_center),
                     self.size.sample_from_uniform(u_size),
                     self.orientation.sample_from_uniform(u_aux))

    def empty_pattern(self) -> FacetPattern:
        return FacetPattern.of([], d=self.d)


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
    if p.size.max_extent > p.b + 1e-12:
        raise ValueError("half-extents above the size scale b break the stability bound")
    if p.orientation.d != p.d or p.center.window.d != p.d:
        raise ValueError("component dimensions disagree")
    if not 0 < p.total_intensity < math.inf:
        raise ValueError("total center intensity must be positive and "
                         "finite")


def log_density_unnorm(x: FacetPattern, p: ModelParams) -> float:
    """nu . G(x): the log density up to the (never computed) constant."""
    g = g_vector(x)
    return math.fsum(p.nu[j] * g[j] for j in range(p.d) if p.nu[j] != 0.0)


def log_conditional_intensity(ys: Sequence[Facet], x: FacetPattern, p: ModelParams) -> float:
    """log of exp(nu . (G(x + ys) - G(x))), via telescoping increments.

    Per-order terms are combined with fsum, so for a single new facet the
    value is exactly monotone in each increment (the repulsiveness and
    stability contracts compare these values in the log domain).
    """
    orders = p.active_orders
    if not orders:
        return 0.0
    parts: list[float] = []
    cur = x
    for y in ys:
        inc = g_increment(cur, y, orders=orders)
        parts.extend(p.nu[j - 1] * inc[j - 1] for j in orders)
        cur = cur.with_facet(y)
    return math.fsum(parts)


def conditional_intensity(ys: Sequence[Facet], x: FacetPattern, p: ModelParams) -> float:
    """Papangelou conditional intensity of adding ys to x (m-th order)."""
    return math.exp(log_conditional_intensity(ys, x, p))


def local_stability_bound(p: ModelParams) -> float:
    """alpha with lambda*(u; x) <= alpha for every u, x.

    Orders j >= 2 contribute nonpositive exponent terms, so only a positive
    nu_1 can push lambda* above 1, and its increment is capped by (2b)^(d-1).
    """
    return math.exp(max(0.0, p.nu[0]) * (2.0 * p.b) ** (p.d - 1))
