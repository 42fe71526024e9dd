#!/usr/bin/env python3
"""Where the velocity reference's Chebyshev degree ladder stops, and what it costs.

``strato.rankine`` fits each side of the rim layer (the deficit inside,
the profile beyond) on the degree ladder 64, 128, 256, 512 and keeps the
first degree that matches the profile to 1e-11 at 37 probe points.  For
each tau of a geometric scan this prints the degree each side keeps and
the largest relative change of ``velocity_lp_error`` over the exponents
against the former fixed route (degree 220, refitted at degree 440 when
the probe check fails), then the time of each route over the whole scan
from cold caches.  Rerun it when ``_layer_bounds`` or the probe check
change, to recheck that the first rung still passes.

    PYTHONPATH=src python scripts/velocity_ladder_scan.py [--points 23] [--p 1 2 4 8 16]
"""

import argparse
import time
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as cheb

from strato import rankine


def fixed_degree_moment_panels(tau: float) -> tuple:
    """The moment fits before the degree ladder, in ``_signed_moment_panels``' layout."""
    inner, outer = rankine._layer_bounds(tau)

    def fit(a, b, func):
        raw = cheb.chebinterpolate(lambda xi: func(a + (b - a) * (xi + 1.0) / 2.0), 220)
        probe = np.linspace(-0.97, 0.97, 37)
        exact = func(a + (b - a) * (probe + 1.0) / 2.0)
        if np.max(np.abs(cheb.chebval(probe, raw) - exact)) > 1.0e-11:
            raw = cheb.chebinterpolate(lambda xi: func(a + (b - a) * (xi + 1.0) / 2.0), 440)
        return raw, cheb.chebint(raw, m=1, lbnd=-1.0, scl=(b - a) / 2.0)

    c0, m0 = fit(inner, 1.0, lambda r: -r * rankine.patch_deficit(tau, r))
    c1, m1 = fit(1.0, outer, lambda r: r * rankine.exact_vorticity(tau, r))
    return inner, 1.0, c0, m0, outer, c1, m1


def scan(taus: np.ndarray, ps: list[float], panels) -> tuple[np.ndarray, float]:
    """velocity_lp_error for every (tau, p) with ``panels`` behind it, from cold caches, and the time taken."""
    ladder = rankine._signed_moment_panels
    rankine._signed_moment_panels = lru_cache(maxsize=64)(panels)
    rankine._speed_profile.cache_clear()
    try:
        start = time.perf_counter()
        errors = np.array([[rankine.velocity_lp_error(float(t), p) for p in ps] for t in taus])
        return errors, time.perf_counter() - start
    finally:
        rankine._signed_moment_panels = ladder
        rankine._speed_profile.cache_clear()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tau-min", type=float, default=1.0e-8)
    ap.add_argument("--tau-max", type=float, default=3.7)
    ap.add_argument("--points", type=int, default=23)
    ap.add_argument("--p", type=float, nargs="+", default=[1.0, 2.0, 4.0, 8.0, 16.0])
    args = ap.parse_args()

    taus = np.geomspace(args.tau_min, args.tau_max, args.points)
    rankine.velocity_lp_error(0.5, 2.0)  # build the Kronrod rules outside the timed scans
    ladder_errors, ladder_s = scan(taus, args.p, rankine._signed_moment_panels.__wrapped__)
    fixed_errors, fixed_s = scan(taus, args.p, fixed_degree_moment_panels)
    change = np.abs(ladder_errors - fixed_errors) / np.abs(fixed_errors)

    print("tau           inside  beyond  max rel change")
    for tau, row in zip(taus, change):
        _, _, c0, _, _, c1, _ = rankine._signed_moment_panels.__wrapped__(float(tau))
        print(f"{tau:<12.4g}  {len(c0) - 1:>6}  {len(c1) - 1:>6}  {row.max():.2e}")
    print(f"{len(taus)} tau x {len(args.p)} p: ladder {ladder_s:.3f} s, fixed degree 220 {fixed_s:.3f} s; "
          f"largest relative change {change.max():.2e}, median {np.median(change):.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
