#!/usr/bin/env python3
"""Advect a boundary-adapted vector family with the stratified flow.

Simulates the disc patch with a gaussian density perturbation, pushes
the adapted family and the boundary tracers along the computed flow, and
reports what the anisotropic machinery sees: the non-degeneracy floor
against its exponential lower envelope, the enclosed area, the tangent
Hoelder quotient, the adapted vorticity norm, and the ratio it feeds
into the logarithmic gradient bound.
"""

import argparse

import numpy as np

from strato import (
    DensitySpec,
    PatchSpec,
    SimParams,
    advect_legs,
    boundary_curve,
    conormal_norm,
    family_floor,
    holder_quotient,
    initial_vector_family,
    make_density,
    rasterize_patch,
)
from strato.conormal import _log_estimate_ratio
from strato.grid import GridSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--half-length", type=float, default=8.0)
    ap.add_argument("--mu", type=float, default=1e-3)
    ap.add_argument("--dt", type=float, default=0.02)
    ap.add_argument("--t-final", type=float, default=1.0)
    ap.add_argument("--checkpoints", type=int, default=5)
    ap.add_argument("--tracers", type=int, default=256)
    args = ap.parse_args()

    grid = GridSpec(n=args.n, half_length=args.half_length)
    patch = PatchSpec(kind="disc", radius=1.0)
    omega0 = rasterize_patch(patch, grid)
    rho0 = make_density(
        DensitySpec(kind="gaussian", amplitude=0.1, width=1.0, center=(0.0, 0.5)), grid)
    params = SimParams(mu=args.mu, dt=args.dt, t_final=args.t_final, kappa=1.0)
    checkpoints = np.linspace(0.0, args.t_final, args.checkpoints)

    family = initial_vector_family(patch, grid)
    curve = boundary_curve(patch, m=args.tracers)
    floor0 = family_floor(family)
    hq0 = holder_quotient(curve.params, curve.tangents, family.epsilon)

    print("t      floor   envelope  area     quotient  adapted   logratio")
    for t, omega, family, curve, diag in advect_legs(omega0, rho0, params, checkpoints, family, curve):
        vint = diag["gradv_sup_integral"]
        adapted = conormal_norm(omega, family)  # once: the ratio's log term reuses it
        print(f"{t:5.2f}  {family_floor(family):.4f}  {floor0 * np.exp(-vint):.4f}"
              f"    {curve.enclosed_area:.4f}   {holder_quotient(curve.params, curve.tangents, family.epsilon) / hq0:.4f}"
              f"    {adapted:.3f}"
              f"    {_log_estimate_ratio(omega, adapted, diag['gradv_sup']):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
