"""Pseudo-spectral march for the coupled vorticity-density system.

The state is the pair (w, rho) evolving by

    dt w + v . grad w - mu Lap w = d1 rho
    dt rho + v . grad rho - kappa Lap rho = 0,      v = curl^-1 w.

Diffusion is integrated exactly through integrating factors; advection
and the buoyancy source are treated explicitly inside a classic RK4
step, ``_rk4``, which ``strato.conormal`` also takes, with unit factors.
All quadratic products use the 2/3 dealiasing rule, which makes the
truncated advection exactly energy- and mean-preserving in space.
The march keeps its state on the 2/3 band of the grid's kernel and never
touches the zero modes outside it.  One loop, ``_march``, yields those
band states.  ``run``, its one consumer that builds fields, makes from each
a sample with full half spectra (the band spread into zeros) and its
diagnostics; the sweep's rungs and ``strato.conormal.advect_legs`` keep the bands.
Its velocity, velocity gradient and transport terms are the kernel's,
taken on the band.  An adaptive guard halves any step whose advective
CFL number would exceed the configured cap; each step builds the
velocity it checks, and the first RK4 stage reuses it.

The module also carries the damped combination (1 - mu) w - u, with u
the zero-order singular integral of rho, whose evolution equation has a
commutator source of order zero; its discrete residual is the solver's
primary self-consistency diagnostic.  These act on whole half spectra:
the kernel's transport term inverts the derivatives of the whole
spectrum, and only the product's spectrum is cut to the 2/3 band.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .fieldio import write_table
from .grid import GridSpec, ScalarField, _gradient_sup, dx1_inv_laplacian, laplacian, lp_norm
from .littlewood_paley import TimeSeries

__all__ = [
    "SimParams",
    "DiagnosticsRecord",
    "RunResult",
    "SolverBlowupError",
    "run",
    "good_unknown",
    "commutator_source",
    "good_unknown_residual",
]


class SolverBlowupError(RuntimeError):
    """Raised when the march cannot go on.

    Carries the failure time, the CFL halving depth of the failing step,
    ``field``: which of "omega", "rho" or "both" went non-finite, or None
    when a finite state still broke the CFL cap after 24 halvings, and then
    ``cfl``, the advective CFL number |v|_inf h / dx of that step (else None).
    """

    def __init__(self, time: float, depth: int, field: str | None, cfl: float | None = None):
        what = f"{field} became non-finite" if field else "velocity still broke the CFL cap"
        cfl_note = "" if cfl is None else f", CFL number {cfl:.6g}"
        super().__init__(f"{what} at t={time:.6g}, halving depth {depth}{cfl_note}")
        self.time = time
        self.depth = depth
        self.field = field
        self.cfl = cfl


@dataclass(frozen=True)
class SimParams:
    """Physical and numerical parameters of one simulation.

    mu is the vorticity diffusivity, kappa the density diffusivity
    (kappa = 1 is the calibrated regime).  dt is the target step; steps
    are halved automatically whenever |v|_inf dt / dx would exceed
    cfl_cap.
    """

    mu: float
    dt: float
    t_final: float
    kappa: float = 1.0
    cfl_cap: float = 0.4

    def __post_init__(self) -> None:
        if not (0.0 <= self.mu < np.inf and 0.0 <= self.kappa < np.inf):
            raise ValueError("diffusivities must be nonnegative and finite")
        if not (0.0 < self.dt < np.inf and 0.0 < self.t_final < np.inf):
            raise ValueError("dt and t_final must be positive and finite")
        if not (0.0 < self.cfl_cap <= 1.0):
            raise ValueError("cfl_cap must lie in (0, 1]")


@dataclass
class DiagnosticsRecord:
    """Per-sample scalar diagnostics of a run."""

    times: list[float] = field(default_factory=list)
    omega_l2: list[float] = field(default_factory=list)
    omega_sup: list[float] = field(default_factory=list)
    rho_l1: list[float] = field(default_factory=list)
    rho_sup: list[float] = field(default_factory=list)
    rho_l2: list[float] = field(default_factory=list)
    velocity_sup: list[float] = field(default_factory=list)
    gradv_sup: list[float] = field(default_factory=list)
    gradv_sup_integral: list[float] = field(default_factory=list)
    gradrho_l2_integral: list[float] = field(default_factory=list)
    circulation: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        write_table(path, [f.name for f in fields(self)], zip(*astuple(self)))


@dataclass(frozen=True, eq=False)
class RunResult:
    omega: TimeSeries
    rho: TimeSeries
    diagnostics: DiagnosticsRecord


class _Engine:
    """Stage evaluation for one grid on band arrays (the kernel's ``cut`` of masked half spectra)."""

    def __init__(self, grid: GridSpec, params: SimParams):
        self.grid = grid
        self.params = params
        self.kern = grid._kernel
        self.op = self.kern.band
        # integrating factors of the current step size only, so the cache
        # stays one entry however many remainder or halved steps a run takes
        self._exp_cache: dict[float, tuple[tuple[np.ndarray, np.ndarray], ...]] = {}
        self.substeps = 0  # RK4 steps accepted, halved ones counted each

    def decay(self, h: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(exp(-nu h |k|^2), exp(-nu h/2 |k|^2)) for nu = mu, then kappa: the step's factors for (w, rho)."""
        got = self._exp_cache.get(h)
        if got is None:
            p, ksq = self.params, self.op.ksq
            got = tuple(tuple(np.exp(-nu * s * ksq) for s in (h, h / 2.0)) for nu in (p.mu, p.kappa))
            self._exp_cache.clear()
            self._exp_cache[h] = got
        return got

    def velocity(self, what: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.kern.velocity(what)

    def nonlinear(self, what: np.ndarray, rhat: np.ndarray, vel=None) -> tuple[np.ndarray, np.ndarray]:
        """Right-hand side of the transport; vel, if given, is velocity(what)."""
        buoy = self.op.ik1 * rhat
        v1, v2 = vel if vel is not None else self.velocity(what)
        buoy -= self.kern.advection(what, v1, v2)  # before the density flux is built
        return buoy, -self.kern.advection(rhat, v1, v2)

    def advance(self, what: np.ndarray, rhat: np.ndarray, t: float, h: float, depth: int = 0):
        """One step of size h, halved (to depth 24) until it respects the CFL cap set by the stage-1 velocity.

        Halved k times, it is a piece h / 2^k whose first stage alone reuses that velocity, then the second
        halves h / 2^k, ..., h / 2, each a step of its own."""
        vel = self.velocity(what)
        vmax = float(np.max(np.hypot(*vel)))
        limit = self.params.cfl_cap * self.grid.dx / max(vmax, 1.0e-300)
        rest = []  # (size, depth) of the second halves
        while depth <= 24 and h > limit:
            h, depth = h / 2.0, depth + 1
            rest.append((h, depth))
        if depth > 24:
            field = _nonfinite(what, rhat)
            raise SolverBlowupError(t, depth, field, None if field else vmax * h / self.grid.dx)
        first, vel = [vel], None  # stage 1's velocity, let go of once stage 1 is done
        what, rhat = _rk4([what, rhat], lambda s, _: self.nonlinear(*s, first.pop() if first else None),
                          (t, t + h), h, self.decay(h))
        probe = complex(what.sum()) + complex(rhat.sum())
        if not (np.isfinite(probe.real) and np.isfinite(probe.imag)):
            raise SolverBlowupError(t + h, depth, _nonfinite(what, rhat))
        self.substeps += 1
        t += h
        for h, depth in reversed(rest):
            what, rhat, t = self.advance(what, rhat, t, h, depth)
        return what, rhat, t


def _rk4(state: list, slope: Callable[[list, float], Sequence], ends: tuple, h: float, decay: Sequence) -> list:
    """One RK4 step of size h in integrating-factor form, the one RK4 step of strato.

    slope(stage, t) gives the explicit slopes of the arrays in stage, as new arrays the step may change in
    place; t is the step's start or end, as given in ends (so consecutive steps meet on the same float), or
    their midpoint.  decay gives per array its (full-step, half-step) integrating factor, 1.0 for none: with
    unit factors the step is textbook RK4.  The slopes are folded in as soon as no stage input needs them
    alone: k1 is scaled in place once stage 2's input is built, and k2 + k3 is formed once stage 4's input
    is, so stage 4 runs beside two slopes per array, not three.
    """
    start, end = ends
    mid = 0.5 * (start + end)
    k1 = slope(state, start)
    stage = [e2 * (y + 0.5 * h * k) for y, k, (_, e2) in zip(state, k1, decay)]
    for k, (e, _) in zip(k1, decay):
        k *= e
    k2 = slope(stage, mid)
    del stage
    k3 = slope([e2 * y + 0.5 * h * k for y, k, (_, e2) in zip(state, k2, decay)], mid)
    stage = [e * y + h * e2 * k for y, k, (e, e2) in zip(state, k3, decay)]
    for k, k_next in zip(k2, k3):
        k += k_next
    del k3, k_next
    k4 = slope(stage, end)
    del stage
    return [e * y + (h / 6.0) * (a + 2.0 * e2 * b + c) for y, a, b, c, (e, e2) in zip(state, k1, k2, k4, decay)]


def _nonfinite(what: np.ndarray, rhat: np.ndarray) -> str | None:
    bad = [name for name, a in (("omega", what), ("rho", rhat)) if not np.all(np.isfinite(a))]
    return "both" if len(bad) == 2 else (bad[0] if bad else None)


def _sample_times(times, t_final: float) -> np.ndarray:
    """The distinct sample times in order; each must be finite and lie in [0, t_final], up to 1e-12."""
    samples = np.unique(np.asarray([float(t) for t in times], dtype=np.float64))
    if not (len(samples) and np.all(np.isfinite(samples)) and 0.0 <= samples[0] and samples[-1] <= t_final + 1.0e-12):
        raise ValueError("sample times must be finite and lie in [0, t_final]")
    return samples


def _band_of(f: ScalarField) -> np.ndarray:
    """The band of f's half spectrum: cut from it if f caches it, else taken from the values, caching nothing on f."""
    kern = f.grid._kernel
    half = f.__dict__.get("half_spectrum")
    return kern.band_spectrum(f.values) if half is None else kern.cut(half)


def _march(omega0: ScalarField, rho0: ScalarField, params: SimParams, samples: np.ndarray,
           record_every_step: bool = False, track_gradients: bool = False):
    """The march's band states: yields (t, what, rhat, stats) per sample of ``samples`` (checked times).

    what and rhat are the 2/3 bands of vorticity and density, the march's own state, which it never
    changes after yielding them.  stats holds the nominal ``steps`` and the accepted RK4 ``substeps`` so
    far (more than the steps once the CFL guard halved one), and ``gradv_sup``, ``gradv_sup_integral``
    and ``gradrho_l2_integral`` (NaN, 0 and 0 without gradient tracking).
    """
    g = omega0.grid
    engine = _Engine(g, params)
    kern, op = engine.kern, engine.op
    what, rhat = _band_of(omega0), _band_of(rho0)
    del omega0, rho0  # the march holds their bands; the caller may free the fields

    t = 0.0
    nsteps = 0
    v_integral = 0.0
    gr_integral = 0.0
    last_gradv = np.nan
    last_gradrho = np.nan

    def gradrho_now() -> float:
        d1, d2 = (kern.inverse(rhat, ik) for ik in (op.ik1, op.ik2))
        return float(np.sqrt((np.hypot(d1, d2) ** 2).sum() * g.dx**2))

    if track_gradients:
        last_gradv = _gradient_sup(kern, what)
        last_gradrho = gradrho_now()

    def stats() -> dict:
        return {"steps": nsteps, "substeps": engine.substeps, "gradv_sup": last_gradv,
                "gradv_sup_integral": v_integral, "gradrho_l2_integral": gr_integral}

    si = 0
    while si < len(samples) and samples[si] <= 1.0e-15:
        yield 0.0, what, rhat, stats()
        si += 1

    while si < len(samples):
        target = samples[si]
        while t < target - 1.0e-12:
            h = min(params.dt, target - t)
            what, rhat, t = engine.advance(what, rhat, t, h)
            nsteps += 1
            if track_gradients:
                gv = _gradient_sup(kern, what)
                gr = gradrho_now()
                v_integral += 0.5 * (last_gradv + gv) * h
                gr_integral += 0.5 * (last_gradrho + gr) * h
                last_gradv, last_gradrho = gv, gr
            if record_every_step and t < target - 1.0e-12:
                yield float(t), what, rhat, stats()
        t = target
        yield float(t), what, rhat, stats()
        si += 1


def run(
    omega0: ScalarField,
    rho0: ScalarField,
    params: SimParams,
    sample_times: list[float] | np.ndarray | None = None,
    record_every_step: bool = False,
    track_gradients: bool = True,
) -> RunResult:
    """March the system to t_final and collect its samples, fields and diagnostics, into a RunResult.

    sample_times defaults to [t_final], and the march lands on each exactly;
    record_every_step samples every accepted step as well (dense output for
    transport post-processing).  Gradient tracking adds the sup of grad v,
    bitwise ``velocity_gradient_sup`` of the sample's omega, and the running
    exponents of the adapted-norm bounds, at a few transforms per step.  A
    sample's fields are built from a band state of ``_march``: full half
    spectra (the band spread into zeros), values bitwise the full ``irfft2``.
    """
    if omega0.grid != rho0.grid:
        raise ValueError("initial fields must share a grid")
    samples = _sample_times([params.t_final] if sample_times is None else sample_times, params.t_final)
    g, kern = omega0.grid, omega0.grid._kernel
    diag, pairs = DiagnosticsRecord(), []
    for t, what, rhat, stats in _march(omega0, rho0, params, samples, record_every_step, track_gradients):
        fo, fr = ScalarField.from_spectrum(g, what), ScalarField.from_spectrum(g, rhat)
        pairs.append((fo, fr))
        row = (t, lp_norm(fo, 2.0), lp_norm(fo, np.inf), lp_norm(fr, 1.0), lp_norm(fr, np.inf), lp_norm(fr, 2.0),
               float(np.max(np.hypot(*kern.velocity(what)))), stats["gradv_sup"], stats["gradv_sup_integral"],
               stats["gradrho_l2_integral"], float(what[0, 0].real) * g.dx**2, stats["steps"])
        for column, value in zip(fields(diag), row, strict=True):  # row in the record's column order
            getattr(diag, column.name).append(value)
    omega, rho = (TimeSeries(np.array(diag.times), series) for series in zip(*pairs))
    return RunResult(omega=omega, rho=rho, diagnostics=diag)


def good_unknown(omega: ScalarField, rho: ScalarField, mu: float) -> ScalarField:
    """Damped combination (1 - mu) w - u of vorticity and density potential."""
    u = dx1_inv_laplacian(rho)
    return ScalarField(omega.grid, (1.0 - mu) * omega.values - u.values)


def _masked_advection(v: tuple[np.ndarray, np.ndarray], f: ScalarField) -> ScalarField:
    """v . grad f under the 2/3 rule, for v given by its grid values."""
    return ScalarField.from_spectrum(f.grid, f.grid._kernel.advection(f.half_spectrum, *v))


def commutator_source(omega: ScalarField, rho: ScalarField) -> ScalarField:
    """Order-zero commutator source driving the damped combination.

    Applies the density-potential operator to the advection of rho and
    subtracts the advection of the density potential.
    """
    v = omega.grid._kernel.velocity(omega.half_spectrum)
    adv_rho = _masked_advection(v, rho)
    pot = dx1_inv_laplacian(rho)
    adv_pot = _masked_advection(v, pot)
    first = dx1_inv_laplacian(adv_rho)
    return ScalarField(omega.grid, first.values - adv_pot.values)


def good_unknown_residual(
    omega_series: TimeSeries,
    rho_series: TimeSeries,
    mu: float,
    at_index: int | None = None,
) -> float:
    """Discrete residual of the damped combination's evolution equation.

    Uses a central difference across three consecutive samples and the
    spatial operators at the middle one.  Returns the L2 residual
    relative to the L2 sizes of the transport term and the commutator
    source; if both vanish (e.g. a single-mode stationary vorticity with
    no density) the absolute residual is returned.
    """
    if len(omega_series) < 3:
        raise ValueError("need at least three consecutive samples")
    if at_index is None:
        at_index = len(omega_series) // 2
    i = max(1, min(at_index, len(omega_series) - 2))
    t0, t1, t2 = (float(omega_series.times[j]) for j in (i - 1, i, i + 1))
    g = omega_series.grid

    gammas = [
        good_unknown(omega_series.fields[j], rho_series.fields[j], mu) for j in (i - 1, i, i + 1)
    ]
    dgamma = (gammas[2].values - gammas[0].values) / (t2 - t0)
    mid = gammas[1]
    v = g._kernel.velocity(omega_series.fields[i].half_spectrum)
    transport = _masked_advection(v, mid)
    lap = laplacian(mid).values
    source = commutator_source(omega_series.fields[i], rho_series.fields[i])
    resid = dgamma + transport.values - mu * lap - source.values
    num = lp_norm(ScalarField(g, resid), 2.0)
    denom = lp_norm(transport, 2.0) + lp_norm(source, 2.0)
    return num / denom if denom > 0.0 else num
