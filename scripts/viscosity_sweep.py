#!/usr/bin/env python3
"""Vanishing-viscosity sweep for the stratified disc patch.

Runs the full system once per viscosity rung plus an inviscid reference,
measures velocity and density distances against the reference at the
sample times, and emits rates.csv / slopes.json / manifest.json plus
the run's provenance.json.  The defaults reproduce the small-box gaussian-density setup; every knob is
overridable from the command line.
"""

import argparse

from strato import SweepConfig, emit_report, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--half-length", type=float, default=2.0)
    ap.add_argument("--dt", type=float, default=0.005)
    ap.add_argument("--t-final", type=float, default=1.0)
    ap.add_argument("--mu", type=float, nargs="+",
                    default=[1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
    ap.add_argument("--density-amplitude", type=float, default=0.1)
    ap.add_argument("--density-width", type=float, default=0.25)
    ap.add_argument("--error-p", type=float, default=2.0)
    ap.add_argument("--out", default="results/sweep")
    args = ap.parse_args()

    config = SweepConfig.from_dict({
        "grid": {"n": args.n, "half_length": args.half_length},
        "patch": {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "density": {
            "kind": "gaussian",
            "amplitude": args.density_amplitude,
            "width": args.density_width,
            "center": [0.0, 0.0],
        },
        "params": {"dt": args.dt, "t_final": args.t_final, "kappa": 1.0},
        "sweep": {"mu": args.mu, "error_p": args.error_p},
        "output": {"dir": args.out},
    })
    result = run_sweep(config)
    for t, entry in sorted(result.slopes.items()):
        if "discrepancy_slope" in entry:
            print(f"t={t}: discrepancy slope {entry['discrepancy_slope']:.4f}, "
                  f"vorticity slope {entry['vorticity_slope']:.4f}")
    paths = emit_report(result)
    print(f"wrote {paths['rates']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
