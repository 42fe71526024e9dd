"""Pseudo-spectral march for the coupled vorticity-density system.

The state is the pair (w, rho) evolving by

    dt w + v . grad w - mu Lap w = d1 rho
    dt rho + v . grad rho - kappa Lap rho = 0,      v = curl^-1 w.

Diffusion is integrated exactly through integrating factors; advection
and the buoyancy source are treated explicitly inside a classic RK4
cycle.  All quadratic products use the 2/3 dealiasing rule, which makes
the truncated advection exactly energy- and mean-preserving in space.
The march keeps its state on the 2/3 band of the grid's kernel and never
touches the zero modes outside it; each sample still exposes full half
spectra (the band spread into zeros).  Its velocity, velocity gradient
and transport terms are the kernel's, taken on the band.  An adaptive
guard halves any step whose advective CFL number would exceed the
configured cap; the velocity it checks is reused by the first stage, and
the velocity a sample builds for its diagnostics is the one the next
step checks.

The module also carries the damped combination (1 - mu) w - u, with u
the zero-order singular integral of rho, whose evolution equation has a
commutator source of order zero; its discrete residual is the solver's
primary self-consistency diagnostic.  These act on whole half spectra:
the kernel's transport term inverts the derivatives of the whole
spectrum, and only the product's spectrum is cut to the 2/3 band.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .grid import GridSpec, ScalarField, _gradient_sup, dx1_inv_laplacian, laplacian, lp_norm
from .littlewood_paley import TimeSeries

__all__ = [
    "SimParams",
    "DiagnosticsRecord",
    "RunResult",
    "SolverBlowupError",
    "march",
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
    cfl_cap.  frozen_velocity disables advection (testing hook).
    """

    mu: float
    dt: float
    t_final: float
    kappa: float = 1.0
    cfl_cap: float = 0.4
    frozen_velocity: bool = False

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
        cols = [f.name for f in fields(self)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(len(self.times)):
                row = (getattr(self, c)[i] for c in cols)
                fh.write(",".join(repr(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x)) for x in row) + "\n")


@dataclass(frozen=True, eq=False)
class RunResult:
    omega: TimeSeries
    rho: TimeSeries
    diagnostics: DiagnosticsRecord
    params: SimParams


class _Engine:
    """Stage evaluation for one grid on band arrays (the kernel's ``cut`` of masked half spectra)."""

    def __init__(self, grid: GridSpec, params: SimParams):
        self.grid = grid
        self.params = params
        self.kern = grid._kernel
        self.op = self.kern.band
        # integrating factors of the current step size only, so the cache
        # stays one entry however many remainder or halved steps a run takes
        self._exp_cache: dict[float, tuple[np.ndarray, ...]] = {}

    def decay(self, h: float) -> tuple[np.ndarray, ...]:
        """exp(-nu s |k|^2) for (nu, s) = (mu, h), (mu, h/2), (kappa, h), (kappa, h/2)."""
        got = self._exp_cache.get(h)
        if got is None:
            p, ksq = self.params, self.op.ksq
            got = tuple(np.exp(-nu * s * ksq) for nu in (p.mu, p.kappa) for s in (h, h / 2.0))
            self._exp_cache.clear()
            self._exp_cache[h] = got
        return got

    def velocity(self, what: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        return None if self.params.frozen_velocity else self.kern.velocity(what)

    def nonlinear(self, what: np.ndarray, rhat: np.ndarray, vel=None) -> tuple[np.ndarray, np.ndarray]:
        """Right-hand side of the transport; vel, if given, is velocity(what)."""
        buoy = self.op.ik1 * rhat
        if self.params.frozen_velocity:
            return buoy, np.zeros_like(rhat)
        v1, v2 = vel if vel is not None else self.velocity(what)
        buoy -= self.kern.advection(what, v1, v2)  # before the density flux is built
        return buoy, -self.kern.advection(rhat, v1, v2)

    def rk4(self, what: np.ndarray, rhat: np.ndarray, h: float, vel=None) -> tuple[np.ndarray, np.ndarray]:
        """One RK4 step; vel, if given, is velocity(what), let go of once stage 1 is done.

        The slopes are folded into the combination as soon as no stage input needs them alone:
        k1 is scaled by its decay once stage 2's input is built, and k2 + k3 is formed once
        stage 4's input is, so stage 4 runs beside two slopes per field, not three.  Each sum
        and product is the textbook one, so the step is bitwise the unfolded one.
        """
        ew, ew2, er, er2 = self.decay(h)
        k1w, k1r = self.nonlinear(what, rhat, vel)
        del vel
        stage2 = ew2 * (what + 0.5 * h * k1w), er2 * (rhat + 0.5 * h * k1r)
        k1w *= ew
        k1r *= er
        k2w, k2r = self.nonlinear(*stage2)
        del stage2
        k3w, k3r = self.nonlinear(ew2 * what + 0.5 * h * k2w, er2 * rhat + 0.5 * h * k2r)
        stage4 = ew * what + h * ew2 * k3w, er * rhat + h * er2 * k3r
        k2w += k3w
        k2r += k3r
        del k3w, k3r
        k4w, k4r = self.nonlinear(*stage4)
        del stage4
        new_w = ew * what + (h / 6.0) * (k1w + 2.0 * ew2 * k2w + k4w)
        new_r = er * rhat + (h / 6.0) * (k1r + 2.0 * er2 * k2r + k4r)
        return new_w, new_r

    def advance(self, what: np.ndarray, rhat: np.ndarray, t: float, h: float, depth: int = 0,
                handoff: list | None = None):
        """One step of size h, recursively halved to respect the CFL cap.

        The stage-1 velocity and its sup set the CFL limit, and the velocity
        is reused by the first stage of the step, or of the first half of a
        halved step.  handoff, if given and not empty, holds that pair
        (velocity(what), its sup); the step takes it out, so that once stage
        1 is done no frame holds the velocity through stages 2 to 4.
        """
        if not handoff:
            vel = self.velocity(what)
            handoff = [(vel, float(np.max(np.hypot(*vel))) if vel is not None else 0.0)]
            del vel
        vmax = handoff[0][1]
        if depth > 24:
            field = _nonfinite(what, rhat)
            raise SolverBlowupError(t, depth, field, None if field else vmax * h / self.grid.dx)
        limit = self.params.cfl_cap * self.grid.dx / max(vmax, 1.0e-300)
        if h > limit:
            what, rhat, t = self.advance(what, rhat, t, h / 2.0, depth + 1, handoff)
            return self.advance(what, rhat, t, h / 2.0, depth + 1)
        new_w, new_r = self.rk4(what, rhat, h, handoff.pop()[0])
        probe = complex(new_w.sum()) + complex(new_r.sum())
        if not (np.isfinite(probe.real) and np.isfinite(probe.imag)):
            raise SolverBlowupError(t + h, depth, _nonfinite(new_w, new_r))
        return new_w, new_r, t + h


def _nonfinite(what: np.ndarray, rhat: np.ndarray) -> str | None:
    bad = [name for name, a in (("omega", what), ("rho", rhat)) if not np.all(np.isfinite(a))]
    return "both" if len(bad) == 2 else (bad[0] if bad else None)


def march(
    omega0: ScalarField,
    rho0: ScalarField,
    params: SimParams,
    sample_times: list[float] | np.ndarray | None = None,
    record_every_step: bool = False,
    track_gradients: bool = True,
) -> Iterator[tuple[float, ScalarField, ScalarField, dict[str, float]]]:
    """March the system to t_final, yielding (t, omega, rho, diagnostics) per sample.

    sample_times defaults to [t_final].  The march lands on each sample
    exactly.  With record_every_step the trajectory is sampled at every
    accepted step (dense output for transport post-processing); gradient
    tracking adds the sup of grad v and the running exponents needed by
    the adapted-norm bounds, at the cost of a few transforms per step;
    a sample's ``gradv_sup`` is bitwise ``velocity_gradient_sup`` of its
    omega, so a caller that has it need not invert the velocity again.
    diagnostics maps each DiagnosticsRecord column but ``times`` to its
    value at the sample.  The arguments are checked on the call, and the
    march keeps no reference to a sample it has yielded.  Between steps
    it holds its band state and the last sample's velocity, which the
    next step's CFL guard and first RK4 stage take over and no stage
    after that holds.
    """
    if omega0.grid != rho0.grid:
        raise ValueError("initial fields must share a grid")
    if sample_times is None:
        sample_times = [params.t_final]
    samples = _sample_times(sample_times, params.t_final)
    return _march(omega0, rho0, params, samples, record_every_step, track_gradients)


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
           record_every_step: bool, track_gradients: bool):
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
    handoff = []  # (velocity, its sup) of the last sample, which the step after it takes out for its CFL guard

    def gradrho_now() -> float:
        d1, d2 = (kern.inverse(rhat, ik) for ik in (op.ik1, op.ik2))
        return float(np.sqrt((np.hypot(d1, d2) ** 2).sum() * g.dx**2))

    if track_gradients:
        last_gradv = _gradient_sup(kern, what)
        last_gradrho = gradrho_now()

    # builds the yielded tuple without binding it here, so a sample lives
    # only as long as the consumer keeps it
    def sample(sample_t: float) -> tuple[float, ScalarField, ScalarField, dict[str, float]]:
        fo = ScalarField.from_spectrum(g, what)
        fr = ScalarField.from_spectrum(g, rhat)
        vel = kern.velocity(what)
        vsup = float(np.max(np.hypot(*vel)))
        handoff[:] = [] if params.frozen_velocity else [(vel, vsup)]
        return float(sample_t), fo, fr, {
            "omega_l2": lp_norm(fo, 2.0),
            "omega_sup": lp_norm(fo, np.inf),
            "rho_l1": lp_norm(fr, 1.0),
            "rho_sup": lp_norm(fr, np.inf),
            "rho_l2": lp_norm(fr, 2.0),
            "velocity_sup": vsup,
            "gradv_sup": last_gradv if track_gradients else np.nan,
            "gradv_sup_integral": v_integral,
            "gradrho_l2_integral": gr_integral,
            "circulation": float(what[0, 0].real) * g.dx**2,
            "steps": nsteps,
        }

    si = 0
    while si < len(samples) and samples[si] <= 1.0e-15:
        yield sample(0.0)
        si += 1

    while si < len(samples):
        target = samples[si]
        while t < target - 1.0e-12:
            h = min(params.dt, target - t)
            what, rhat, t = engine.advance(what, rhat, t, h, 0, handoff)
            nsteps += 1
            if track_gradients:
                gv = _gradient_sup(kern, what)
                gr = gradrho_now()
                v_integral += 0.5 * (last_gradv + gv) * h
                gr_integral += 0.5 * (last_gradrho + gr) * h
                last_gradv, last_gradrho = gv, gr
            if record_every_step and t < target - 1.0e-12:
                yield sample(t)
        t = target
        yield sample(t)
        si += 1


def run(
    omega0: ScalarField,
    rho0: ScalarField,
    params: SimParams,
    sample_times: list[float] | np.ndarray | None = None,
    record_every_step: bool = False,
    track_gradients: bool = True,
) -> RunResult:
    """Collect the samples of ``march`` (same arguments) into a RunResult."""
    diag = DiagnosticsRecord()
    fields = []
    for t, fo, fr, row in march(omega0, rho0, params, sample_times, record_every_step, track_gradients):
        fields.append((fo, fr))
        diag.times.append(t)
        for name, value in row.items():
            getattr(diag, name).append(value)
    times = np.array(diag.times)
    omega, rho = (TimeSeries(times, series) for series in zip(*fields))
    return RunResult(omega=omega, rho=rho, diagnostics=diag, params=params)


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
