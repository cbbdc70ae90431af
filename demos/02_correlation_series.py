"""Correlation functions under the top-order coupling.

Every query is given by its orientation counts: how many query facets
lie on each axis.  With only nu_d active the correlation is an exact
ratio of two fast-converging series, and for one facet on each of d-k
axes it tends to k/d as the activity grows.  Below the top order the
exact value depends on the query centers, but a certified envelope of
the counts still decays exponentially in a.
"""

import dataclasses

from facetproc import (ModelParams, rho_bounds, rho_decay_rate, rho_limit,
                       rho_series_counts)

p = ModelParams.special(3, (0.0, 0.0, -1.0))

print("series vs limit, d=3, nu_3 = -1")
print(f"{'a':>6} {'k':>3} {'series':>10} {'limit':>8} {'tail':>9}")
for a in (1.0, 4.0, 16.0, 64.0):
    pa = dataclasses.replace(p, a=a)
    for k in (1, 2):
        counts = (1,) * (p.d - k) + (0,) * k
        res = rho_series_counts(pa, counts)
        lim = float(rho_limit(p.d, k))
        print(f"{a:6.0f} {k:3d} {res.value:10.5f} {lim:8.4f} {res.tail:9.1e}")

# repeated orientations are allowed: two facets on the same axis
res = rho_series_counts(dataclasses.replace(p, a=16.0), (2, 0, 0))
lim = float(rho_limit(3, 2, "two_groups", l=1))
print(f"\nshared-axis pair at a=16: {res.value:.5f} (limit {lim:.4f})")

# below the top order: certified bound with its decay rate
ps = ModelParams.special(3, (0.0, -1.0, 0.0))
print("\ncertified envelope, d=3, nu_2 = -1, pair query")
for a in (1.0, 4.0, 16.0):
    pa = dataclasses.replace(ps, a=a)
    # a pair on two different axes: its envelope needs only the counts
    res = rho_bounds(pa, (1, 1, 0))
    print(f"  a={a:4.0f}: bound {res.bound:.3e}, observed rate {res.rate:.4f}")
rate = rho_decay_rate(3, 1, ps.b, ps.total_intensity, ps.nu[1])
print(f"asymptotic exponent bound: {rate:.4f} per unit activity")
