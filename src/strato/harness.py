"""Sweep harness: vanishing-viscosity ladders and rate reports.

A sweep integrates the same initial data once per vorticity diffusivity
in a ladder, plus the zero-diffusivity reference, then measures the
discrepancy between each diffusive solution and the reference at the
requested sample times.  The discrepancy functional is

    Pi(t) = |v_mu - v|_Lp + |rho_mu - rho|_Lp

with the velocity difference reconstructed from the vorticity
difference, plus the plain vorticity Lp gap as a second observable.
Each worker process receives the config once, when it starts, and
builds the initial fields itself; the parent builds them only when it
runs the rungs itself.  A rung's task carries only its diffusivity, and
it hands back the march's own 2/3 bands at its sample times, building no
grid value, norm or velocity of a sample.  The parent holds the
reference bands and the rungs that have arrived and forms each band
difference once.  For the L2 gaps (error_p = 2) it sums over that band
by the discrete Parseval identity and builds no grid at all; any other
exponent takes its gaps from inverses of it, one grid at a time.
Reports are written as rates.csv / slopes.json / manifest.json with
full-precision floats and rows in a canonical order, so the bytes do
not depend on how many worker processes produced them; what does
(timings, worker count, versions) goes to provenance.json.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import time
from contextlib import nullcontext
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, fieldio
from .grid import GridSpec, ScalarField, lp_norm
from .initdata import DensitySpec, PatchSpec, make_density, rasterize_patch
from .solver import SimParams, _march, _sample_times

__all__ = [
    "SweepConfig",
    "RateRow",
    "SweepResult",
    "run_single",
    "run_sweep",
    "emit_report",
]

log = logging.getLogger("strato")


def _name_clash(values, digits: int = 6) -> tuple[float, float] | None:
    """Two distinct values that names of ``digits`` significant digits (snapshots 6, slopes.json 12) confuse."""
    named = {}
    for v in values:
        if named.setdefault(f"{v:.{digits}g}", v) != v:
            return named[f"{v:.{digits}g}"], v
    return None


# where the JSON config keeps each SweepConfig field that is not a section of its own
_LAYOUT = {
    "mu_values": ("sweep", "mu"),
    "dt": ("params", "dt"),
    "t_final": ("params", "t_final"),
    "sample_times": ("sweep", "sample_times"),
    "error_p": ("sweep", "error_p"),
    "kappa": ("params", "kappa"),
    "output_dir": ("output", "dir"),
    "save_fields": ("output", "save_fields"),
}
_SPECS = ("grid", "patch", "density")  # sections keyed by the fields of GridSpec, PatchSpec, DensitySpec


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


# a JSON value as the field type its dataclass declares: (what it must be, the test of it, the conversion)
_CONVERT = {
    "int": ("an integer", lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), int),  # 64.0 reads as 64
    "float": ("a number", _is_number, float),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "tuple[float, float]": ("a pair of numbers", lambda v: _numbers(v) and len(v) == 2, lambda v: tuple(map(float, v))),
    "tuple[float, ...]": ("a list of numbers", _numbers, lambda v: tuple(map(float, v))),
}


def _convert(field_type: str, value, key: str, where: str):
    what, valid, convert = _CONVERT[field_type]
    if not valid(value):
        raise ValueError(f"config key {key!r} {where}: must be {what}, got {value!r}")
    return convert(value)


def _refuse_unknown(keys, known, where: str) -> None:
    for key in keys:
        if key not in known:
            raise ValueError(f"unknown config key {key!r} {where}")


def _spec(spec: type, section: dict, name: str):
    """The ``spec`` dataclass of a config section: its keys are the fields, absent ones take their defaults."""
    where = f"in section {name!r}"
    kw = {f.name: _convert(f.type, section[f.name], f.name, where)
          for f in fields(spec) if f.default is MISSING or f.name in section}
    _refuse_unknown(section, kw, where)
    return spec(**kw)


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one vanishing-viscosity experiment."""

    grid: GridSpec
    patch: PatchSpec
    density: DensitySpec | None
    mu_values: tuple[float, ...]
    dt: float
    t_final: float
    sample_times: tuple[float, ...]
    error_p: float = 2.0
    kappa: float = 1.0
    output_dir: str = "results"
    save_fields: bool = False

    def __post_init__(self) -> None:
        if len(self.mu_values) == 0 or any(not (0.0 < m < np.inf) for m in self.mu_values):
            raise ValueError("mu ladder must be nonempty, positive and finite")
        if len(set(self.mu_values)) != len(self.mu_values):
            raise ValueError("mu ladder has repeated entries")
        for what, values in (("mu values", self.mu_values), ("sample times", self.sample_times)):
            clash = _name_clash(values) if self.save_fields else None
            if clash:
                raise ValueError(f"save_fields needs {what} that differ in 6 significant digits, "
                                 f"got {clash[0]!r} and {clash[1]!r}")
        clash = _name_clash(self.sample_times, 12)
        if clash:  # slopes.json keys each sample time by its 12 significant digits
            raise ValueError(f"sample times must differ in 12 significant digits, got {clash[0]!r} and {clash[1]!r}")
        if not self.error_p >= 1.0:
            raise ValueError("error_p must be a Lebesgue exponent >= 1")
        # fail here, not inside a pool worker: SimParams checks dt, t_final and kappa
        SimParams(mu=0.0, dt=self.dt, t_final=self.t_final, kappa=self.kappa)
        _sample_times(self.sample_times, self.t_final)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """The config a JSON document describes, laid out as ``to_dict`` writes it.

        grid, patch and density are sections keyed by the fields of GridSpec, PatchSpec and
        DensitySpec, the other fields sit where ``_LAYOUT`` puts them, and each value is converted
        to its field's declared type.  An absent key takes its field's default; without sample
        times the one sample is at t_final.  A key that names no field is refused.
        """
        _refuse_unknown(raw, {*_SPECS, *(section for section, _ in _LAYOUT.values())}, "at the top level")
        density = raw.get("density")
        specs = {"grid": _spec(GridSpec, raw["grid"], "grid"), "patch": _spec(PatchSpec, raw["patch"], "patch"),
                 "density": _spec(DensitySpec, density, "density") if density else None}
        sections = {section: raw.get(section, {}) for section, _ in _LAYOUT.values()}
        for name, section in sections.items():
            _refuse_unknown(section, {key for s, key in _LAYOUT.values() if s == name}, f"in section {name!r}")
        if not sections["sweep"].get("sample_times"):
            sections["sweep"] = {**sections["sweep"], "sample_times": [sections["params"]["t_final"]]}
        own = {f.name: f for f in fields(cls)}
        return cls(**specs, **{name: _convert(own[name].type, sections[s][key], key, f"in section {s!r}")
                               for name, (s, key) in _LAYOUT.items() if key in sections[s] or own[name].default is MISSING})

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        d: dict = {name: None if (spec := getattr(self, name)) is None else asdict(spec) for name in _SPECS}
        for name, (section, key) in _LAYOUT.items():
            d.setdefault(section, {})[key] = getattr(self, name)
        return d

    def digest(self) -> str:
        import hashlib  # OpenSSL, loaded by the commands that write a manifest only

        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def initial_fields(self) -> tuple[ScalarField, ScalarField]:
        """Rasterized patch vorticity and initial density (zero without a density spec)."""
        omega0 = rasterize_patch(self.patch, self.grid)
        if self.density is None:
            return omega0, ScalarField(self.grid, np.zeros((self.grid.n, self.grid.n)))
        return omega0, make_density(self.density, self.grid)


@dataclass(frozen=True)
class RateRow:
    mu: float
    time: float
    velocity_error: float
    density_error: float
    discrepancy: float
    vorticity_error: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    config: SweepConfig
    rows: tuple[RateRow, ...]
    slopes: dict
    fields: dict = field(default_factory=dict, repr=False)
    provenance: dict = field(default_factory=dict, repr=False, compare=False)


def run_single(config: SweepConfig, mu: float, omega0: ScalarField, rho0: ScalarField):
    """Integrate one rung; returns (mu, sample times, omega bands, rho bands, stats), all picklable.

    A band is a sample's 2/3 band, the march's own state, kept as ``solver._march`` yields it: under
    half the bytes of its grid values, which ``ScalarField.from_spectrum`` gives back exactly.  No
    sample field, norm or velocity is built.  stats holds the nominal steps and the RK4 substeps
    that the march accepted, which exceed them when the CFL guard halved a step."""
    start = time.perf_counter()
    params = SimParams(mu=mu, dt=config.dt, t_final=config.t_final, kappa=config.kappa)
    times, omegas, rhos = [], [], []
    for t, what, rhat, step_stats in _march(omega0, rho0, params, _sample_times(config.sample_times, config.t_final)):
        times.append(t)
        omegas.append(what)
        rhos.append(rhat)
    stats = {"mu": mu, "wall_s": time.perf_counter() - start, "nominal_steps": step_stats["steps"],
             "substeps": step_stats["substeps"]}
    return mu, np.asarray(times), omegas, rhos, stats


def _gaps(grid: GridSpec, p: float, omega: np.ndarray, rho: np.ndarray, ref_omega: np.ndarray,
          ref_rho: np.ndarray) -> tuple[float, float, float]:
    """Velocity, density and vorticity Lp gaps of one sample, from its bands and the reference's.

    At p = 2 each gap is a sum over the band difference (the discrete Parseval identity) and no grid
    is built; any other p has no such formula, and the band difference is inverted to grid values."""
    kern = grid._kernel
    dw = omega - ref_omega
    if p == 2.0:
        return kern.l2_norm(dw, kern.band.v1, kern.band.v2), kern.l2_norm(rho - ref_rho), kern.l2_norm(dw)
    vel = kern.velocity(dw)
    verr = lp_norm(np.hypot(*vel, out=vel[0]), p, grid=grid)
    del vel  # each grid is let go of before the next inverse
    return verr, lp_norm(kern.inverse(rho - ref_rho), p, grid=grid), lp_norm(kern.inverse(dw), p, grid=grid)


def _worker_count(workers: int | str | None, rungs: int) -> int:
    """The argument, else STRATO_WORKERS, else the usable cores; at most one per rung."""
    setting = "workers"
    if workers is None:
        workers, setting = os.environ.get("STRATO_WORKERS"), "STRATO_WORKERS"
    if workers is None:
        return min(len(os.sched_getaffinity(0)), rungs)
    text = str(workers).strip()
    if not (text.isdecimal() and int(text) >= 1):
        raise ValueError(f"{setting} must be an integer >= 1, got {workers!r}")
    return min(int(text), rungs)


_inputs: tuple = ()  # (config, omega0, rho0) of the sweep this process marches rungs of


def _hand_over(config: SweepConfig | None = None) -> None:
    """Build a sweep's inputs for the rungs this process runs, or let them go without a config.

    The pool's worker initializer: each worker is sent the config alone and rasterizes its own
    initial fields, which are the same bits in every process."""
    global _inputs
    _inputs = () if config is None else (config, *config.initial_fields())


def _rung(mu: float) -> tuple:
    return run_single(_inputs[0], mu, *_inputs[1:])


def _logged(out: tuple) -> tuple:
    stats = out[-1]
    log.info("rung mu=%g: %d nominal steps (%d RK4 substeps) in %.3f s", stats["mu"], stats["nominal_steps"],
             stats["substeps"], stats["wall_s"])
    return out


def run_sweep(config: SweepConfig, workers: int | None = None) -> SweepResult:
    """Run the ladder plus the zero-diffusivity reference and tabulate rates.

    Each worker process is handed the config as it starts (inherited
    under fork, pickled once per worker otherwise, about 1 KiB) and
    rasterizes the initial fields itself; a rung's task is only its
    diffusivity.  This process builds the fields only when it runs the
    rungs itself, and lets them go before this returns; with a pool it
    holds no initial field at all.  The worker count is ``workers`` if
    given, else STRATO_WORKERS, else the number of cores this process
    may run on, capped at the rung count; a count of 1 runs every rung
    in this process.  Tasks are dispatched in ladder order and collected
    in that same order, so the emitted tables are identical however the
    work was scheduled.  The reference comes first, so each rung is
    measured as it arrives, while later rungs still run, and then
    dropped.  A slope is fitted at a sample time only when every fitted
    gap there is positive and finite (not at t = 0, where every rung
    still holds the initial data).  The L2 gaps come from the bands
    alone; grid values are rebuilt from the bands only to save fields
    and for the gaps of another exponent.
    """
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing, loaded by sweeps only

    ladder = tuple(sorted(config.mu_values))
    mus = (0.0,) + ladder
    workers = _worker_count(workers, len(mus))
    grid = config.grid
    p = config.error_p

    rows: list[RateRow] = []
    stats, fields = [], {}
    try:
        if workers == 1:
            _hand_over(config)
        with (ProcessPoolExecutor(workers, initializer=_hand_over, initargs=(config,))
              if workers > 1 else nullcontext()) as pool:
            for mu, times, om, rh, rung in map(_logged, (pool.map if pool else map)(_rung, mus)):
                stats.append(rung)
                if config.save_fields:
                    fields[mu] = (times, [grid._kernel.inverse(b) for b in om], [grid._kernel.inverse(b) for b in rh])
                if mu == 0.0:
                    ref_om, ref_rh = om, rh
                    continue
                for j, t in enumerate(times):
                    verr, derr, werr = _gaps(grid, p, om[j], rh[j], ref_om[j], ref_rh[j])
                    rows.append(RateRow(mu=mu, time=float(t), velocity_error=verr, density_error=derr,
                                        discrepancy=verr + derr, vorticity_error=werr))
                del om, rh  # before the next rung arrives
    finally:
        _hand_over()
    rows.sort(key=lambda r: (r.time, r.mu))

    slopes: dict = {}
    for t in sorted({r.time for r in rows}):
        sub = [r for r in rows if r.time == t]
        entry = {
            "mu": [r.mu for r in sub],
            "discrepancy": [r.discrepancy for r in sub],
            "vorticity_error": [r.vorticity_error for r in sub],
        }
        if len(sub) >= 3 and all(0.0 < e < np.inf for r in sub for e in (r.discrepancy, r.vorticity_error)):
            lm = np.log([r.mu for r in sub])
            entry["discrepancy_slope"] = float(np.polyfit(lm, np.log([r.discrepancy for r in sub]), 1)[0])
            entry["vorticity_slope"] = float(np.polyfit(lm, np.log([r.vorticity_error for r in sub]), 1)[0])
        slopes[f"{t:.12g}"] = entry

    provenance = {
        "workers": workers,
        "rungs": stats,
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "strato": __version__},
    }
    return SweepResult(config=config, rows=tuple(rows), slopes=slopes, fields=fields, provenance=provenance)


def emit_report(result: SweepResult, out_dir: str | Path | None = None) -> dict[str, Path]:
    """Write rates.csv, slopes.json, manifest.json and provenance.json; returns the paths."""
    out = Path(out_dir if out_dir is not None else result.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rates = out / "rates.csv"
    with open(rates, "w", newline="") as fh:
        fh.write(",".join(f.name for f in fields(RateRow)) + "\n")
        for r in result.rows:
            fh.write(",".join(repr(x) for x in astuple(r)) + "\n")

    slopes = out / "slopes.json"
    with open(slopes, "w") as fh:
        json.dump(result.slopes, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    manifest = out / "manifest.json"
    with open(manifest, "w") as fh:
        json.dump(
            {
                "config": result.config.to_dict(),
                "config_sha256": result.config.digest(),
                "mu_ladder": sorted(result.config.mu_values),
                "rows": len(result.rows),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

    provenance = out / "provenance.json"
    with open(provenance, "w") as fh:
        json.dump(result.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")

    paths = {"rates": rates, "slopes": slopes, "manifest": manifest, "provenance": provenance}
    if result.config.save_fields and result.fields:
        for mu, (times, om, _rh) in result.fields.items():
            for j, t in enumerate(times):
                snap = out / f"omega_mu{mu:.6g}_t{float(t):.6g}.slf"
                fieldio.write_snapshot(ScalarField(result.config.grid, om[j]), snap)
    return paths
