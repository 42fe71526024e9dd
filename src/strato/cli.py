"""Command line front end.

Subcommands:
    sweep      run a vanishing-viscosity ladder from a JSON config
    rankine    closed-form disc-patch error ladders and fitted rates
    simulate   single run with diagnostics and field snapshots
    besov      dyadic-block norms of a stored snapshot
    conormal   advect a patch-adapted vector family and report its health
    fit        log-log slope fit of columns in a CSV report
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import logging
import sys
from pathlib import Path

import numpy as np


def _config(args: argparse.Namespace):
    """The command's SweepConfig; a file that does not make one is a usage error, not a traceback."""
    from .harness import SweepConfig

    try:
        return SweepConfig.from_json(args.config)
    except KeyError as exc:
        args.error(f"{args.config}: missing key {exc}")
    except (OSError, TypeError, ValueError) as exc:  # a JSON syntax error is a ValueError
        args.error(f"{args.config}: {exc}")


def _params(args: argparse.Namespace, config, mu: float, t_final: float):
    """The command's SimParams; flags that do not make one are a usage error, not a traceback."""
    from .solver import SimParams

    try:
        return SimParams(mu=mu, dt=config.dt, t_final=t_final, kappa=config.kappa)
    except ValueError as exc:
        args.error(str(exc))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import _worker_count, emit_report, run_sweep

    config = _config(args)
    try:
        workers = _worker_count(args.workers, len(config.mu_values) + 1)
    except ValueError as exc:
        args.error(str(exc))
    result = run_sweep(config, workers=workers)
    paths = emit_report(result, args.out)
    for t, entry in sorted(result.slopes.items()):
        if "discrepancy_slope" in entry:
            print(
                f"t={t}: discrepancy slope {entry['discrepancy_slope']:.4f}, "
                f"vorticity slope {entry['vorticity_slope']:.4f}"
            )
    print(f"wrote {paths['rates']}")
    return 0


def _cmd_rankine(args: argparse.Namespace) -> int:
    from .rankine import (
        RateSeries, _check_ladder, _check_p, _check_tau, fit_exponent, velocity_lp_error, vorticity_lp_error,
    )

    # a bad ladder is a usage error before any quadrature, not a traceback after it
    try:
        for tau in (args.tau_min, args.tau_max):
            _check_tau(tau)
        for p in args.p:
            _check_p(p)
        taus = np.geomspace(args.tau_min, args.tau_max, args.points)
        _check_ladder(taus)
    except ValueError as exc:
        args.error(str(exc))
    error = vorticity_lp_error if args.quantity == "vorticity" else velocity_lp_error
    # tau outer, so each tau's cached layer profile serves every p however long the ladder
    table = np.array([[error(t, p) for p in args.p] for t in taus]).reshape(len(taus), len(args.p))
    rows = []
    for p, errs in zip(args.p, table.T):
        ref = 1.0 / (2.0 * p) if args.quantity == "vorticity" else 0.5 + 1.0 / (2.0 * p)
        series = RateSeries(args.quantity, p, taus, errs, reference_exponent=ref)
        fit = fit_exponent(series)
        print(
            f"{args.quantity} p={p:g}: slope {fit.slope:.5f} (ref {ref:.5f}), "
            f"constants [{fit.c_lower:.4g}, {fit.c_upper:.4g}]"
        )
        rows.extend((args.quantity, p, t, e) for t, e in zip(taus, errs))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("quantity,p,tau,error\n")
            for q, p, t, e in rows:
                fh.write(f"{q},{repr(float(p))},{repr(float(t))},{repr(float(e))}\n")
        print(f"wrote {args.csv}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import fieldio
    from .harness import _name_clash
    from .solver import run

    config = _config(args)
    mu = args.mu if args.mu is not None else config.mu_values[0]
    params = _params(args, config, mu, config.t_final)
    clash = _name_clash(config.sample_times) if args.snapshots else None
    if clash:  # snapshot names hold t to 6 significant digits
        args.error(f"--snapshots needs sample times that differ in 6 significant digits, "
                   f"got {clash[0]!r} and {clash[1]!r}")
    omega0, rho0 = config.initial_fields()
    result = run(omega0, rho0, params, sample_times=list(config.sample_times))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.diagnostics.to_csv(out / "diagnostics.csv")
    if args.snapshots:
        for t, fo, fr in zip(result.omega.times, result.omega.fields, result.rho.fields):
            fieldio.write_snapshot(fo, out / f"omega_t{float(t):.6g}.slf")
            fieldio.write_snapshot(fr, out / f"rho_t{float(t):.6g}.slf")
    d = result.diagnostics
    print(f"mu={mu:g}, {d.steps[-1]} steps to t={d.times[-1]:g}")
    print(f"final |w|_2={d.omega_l2[-1]:.6g} |w|_inf={d.omega_sup[-1]:.6g} circulation={d.circulation[-1]:.12g}")
    print(f"wrote {out / 'diagnostics.csv'}")
    return 0


def _cmd_besov(args: argparse.Namespace) -> int:
    from . import fieldio
    from .littlewood_paley import BesovParams, besov_sum, block_norms

    # bad exponents are a usage error before the snapshot is read, and so is a snapshot that does not read
    try:
        params = BesovParams(s=args.s, p=args.p, r=args.r, homogeneous=args.homogeneous)
        f = fieldio.read_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        args.error(str(exc))
    norms = block_norms(f, params)
    total = besov_sum(norms, params)
    print(f"grid n={f.grid.n} L={f.grid.half_length:g}, blocks q in "
          f"[{min(norms)}, {max(norms)}]")
    for q, norm in norms.items():
        print(f"  q={q:+d}: 2^(qs)|block|_p = {2.0 ** (q * args.s) * norm:.6e}")
    print(f"besov norm (s={args.s:g}, p={args.p:g}, r={args.r:g}): {total:.6e}")
    return 0


def _cmd_conormal(args: argparse.Namespace) -> int:
    from .conormal import _log_estimate_ratio, advect_legs, conormal_norm, family_floor, holder_quotient
    from .initdata import boundary_curve, initial_vector_family

    if args.samples < 2:
        args.error(f"--samples must be at least 2, got {args.samples}")
    config = _config(args)
    mu = args.mu if args.mu is not None else config.mu_values[0]
    t_final = args.t if args.t is not None else config.t_final
    params = _params(args, config, mu, t_final)
    checkpoints = np.linspace(0.0, t_final, args.samples)
    family = initial_vector_family(config.patch, config.grid, epsilon=config.patch.epsilon)
    # the march holds the initial fields only until it has their bands
    legs = advect_legs(*config.initial_fields(), params, checkpoints, family, boundary_curve(config.patch))
    del family  # advect_legs keeps its grid and epsilon, not the family
    rows = []
    for t, omega, family, curve, diag in legs:
        adapted = conormal_norm(omega, family)  # the ratio's log term reuses it
        rows.append((t, family_floor(family), diag["gradv_sup_integral"], adapted,
                     holder_quotient(curve.params, curve.tangents, family.epsilon),
                     _log_estimate_ratio(omega, adapted, diag["gradv_sup"])))
        del omega, family, curve, diag  # the checkpoint dies with its row, before the march goes on

    out = Path(args.csv) if args.csv else Path(config.output_dir) / "conormal.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        fh.write("t,family_floor,gradv_sup_integral,conormal_norm,"
                 "holder_quotient,log_estimate_ratio\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")

    floor0, floor_t, vint = rows[0][1], rows[-1][1], rows[-1][2]
    print(f"family floor: {floor0:.6f} -> {floor_t:.6f} "
          f"(lower envelope {floor0 * np.exp(-vint):.6f})")
    print(f"conormal vorticity norm at t={t_final:g}: {rows[-1][3]:.6g}")
    print(f"log-estimate ratio: {rows[-1][5]:.6g}")
    print(f"wrote {out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .rankine import RateSeries, fit_exponent

    # a table that cannot be read, or lacks a column or a number, is a usage error, not a traceback
    groups: dict[str, list[tuple[float, float]]] = {}
    try:
        with open(args.csv_path, newline="") as fh:
            rows = list(csv.DictReader(row for row in fh if not row.startswith("#")))
        for row in rows:
            key = row[args.group] if args.group else ""
            groups.setdefault(key, []).append((float(row[args.x]), float(row[args.y])))
    except KeyError as exc:
        args.error(f"{args.csv_path}: no column {exc}")
    except (OSError, TypeError, ValueError, csv.Error) as exc:  # TypeError: a row short of a column
        args.error(f"{args.csv_path}: {exc}")
    if not rows:
        print("no data rows", file=sys.stderr)
        return 1
    for key in sorted(groups):
        pts = sorted(groups[key])
        xs = np.array([a for a, _ in pts])
        ys = np.array([b for _, b in pts])
        if len(xs) < 2 or min(xs.min(), ys.min()) <= 0.0:  # log-log fits need positive x and y
            print(f"{args.group}={key}: not fittable")
            continue
        if len(xs) >= 6 and xs.max() / xs.min() >= 99.0:
            series = RateSeries(args.y, 2.0, xs, ys, reference_exponent=args.reference)
            fit = fit_exponent(series)
            label = f"slope {fit.slope:.5f} +- {fit.stderr:.5f}"
            if args.reference is not None:
                label += f", constants at {args.reference:g}: [{fit.c_lower:.4g}, {fit.c_upper:.4g}]"
        else:
            slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
            label = f"slope {slope:.5f} (short ladder)"
        prefix = f"{args.group}={key}: " if args.group else ""
        print(prefix + label)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="strato", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="report progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a vanishing-viscosity ladder")
    p.add_argument("config", help="JSON experiment config")
    p.add_argument("--out", default=None, help="output directory (default from config)")
    p.add_argument("--workers", type=int, default=None, help="process count (overrides STRATO_WORKERS; default: every usable core)")
    p.set_defaults(func=_cmd_sweep, error=p.error)

    p = sub.add_parser("rankine", help="closed-form disc-patch error ladders")
    p.add_argument("--p", type=float, nargs="+", default=[2.0, 4.0], help="Lebesgue exponents")
    p.add_argument("--quantity", choices=["vorticity", "velocity"], default="vorticity")
    p.add_argument("--tau-min", type=float, default=1.0e-4)
    p.add_argument("--tau-max", type=float, default=1.0e-1)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--csv", default=None, help="optional CSV output path")
    p.set_defaults(func=_cmd_rankine, error=p.error)

    p = sub.add_parser("simulate", help="single run with diagnostics")
    p.add_argument("config", help="JSON experiment config")
    p.add_argument("--mu", type=float, default=None, help="override diffusivity")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--snapshots", action="store_true", help="write field snapshots")
    p.set_defaults(func=_cmd_simulate, error=p.error)

    p = sub.add_parser("besov", help="dyadic-block norms of a snapshot")
    p.add_argument("snapshot", help=".slf snapshot path")
    p.add_argument("-s", type=float, default=0.0, help="regularity index")
    p.add_argument("-p", type=float, default=np.inf, help="Lebesgue exponent")
    p.add_argument("-r", type=float, default=np.inf, help="summation exponent")
    p.add_argument("--homogeneous", action="store_true")
    p.set_defaults(func=_cmd_besov, error=p.error)

    p = sub.add_parser("conormal", help="advected family health report")
    p.add_argument("config", help="JSON experiment config")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--t", type=float, default=None, help="horizon (default config t_final)")
    p.add_argument("--samples", type=int, default=5, help="checkpoints in the time series")
    p.add_argument("--csv", default=None, help="series path (default <output dir>/conormal.csv)")
    p.set_defaults(func=_cmd_conormal, error=p.error)

    p = sub.add_parser("fit", help="log-log slope fit over CSV columns")
    p.add_argument("csv_path", help="CSV report (e.g. rates.csv)")
    p.add_argument("--x", default="mu")
    p.add_argument("--y", default="discrepancy")
    p.add_argument("--group", default="time", help="column to group by (empty for none)")
    p.add_argument("--reference", type=float, default=None, help="reference exponent for constant bracket")
    p.set_defaults(func=_cmd_fit, error=p.error)

    return parser


def _keep_freed_heap() -> None:
    """Have glibc keep freed pages (FFT temporaries would otherwise be unmapped and faulted back in
    on every transform); forked sweep workers inherit it.  A no-op where mallopt is missing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "group", None) == "":
        args.group = None
    # -v holds only for this call: in-process callers get the logger back as it was
    log = logging.getLogger("strato")
    handler, level = logging.StreamHandler(), log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return args.func(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
