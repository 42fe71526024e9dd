"""Anisotropic (boundary-adapted) regularity machinery.

A vector-field family is a finite set of plane fields that jointly never
vanish; fields tangent to a patch boundary let one measure directional
smoothness of the vorticity across the patch edge without paying for the
jump.  The module advects families and boundary tracers with a supplied
velocity trajectory, forms directional derivatives in conservation form,
and evaluates the adapted Hoelder norm and the logarithmic gradient
bound it feeds.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .grid import GridSpec, ScalarField, VelocityField, _chunked, _phase_basis, lp_norm, velocity_gradient_sup
from .littlewood_paley import BesovParams, TimeSeries, besov_norm

__all__ = [
    "VectorFieldFamily",
    "BoundaryCurve",
    "VelocityInterpolant",
    "family_floor",
    "directional_derivative",
    "conormal_norm",
    "advect_family",
    "advect_boundary",
    "advect_legs",
    "holder_quotient",
    "log_estimate_ratio",
    "divergence",
]


@dataclass(frozen=True, eq=False)
class VectorFieldFamily:
    """Finite family of plane vector fields with a joint nondegeneracy floor."""

    members: tuple[VelocityField, ...]
    epsilon: float = 0.5
    level_set: ScalarField | None = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("family needs at least one member")
        grids = {m.grid for m in self.members}
        if len(grids) > 1:
            raise ValueError("family members must share a grid")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def grid(self) -> GridSpec:
        return self.members[0].grid


def family_floor(family: VectorFieldFamily) -> float:
    """Pointwise floor inf_x max_members |X(x)| of the family."""
    best = family.members[0].magnitude
    for m in family.members[1:]:
        best = np.maximum(best, m.magnitude)
    return float(best.min())


def divergence(x: VelocityField) -> ScalarField:
    kern = x.grid._kernel
    return ScalarField.from_spectrum(x.grid, kern.ik1 * x.u1.half_spectrum + kern.ik2 * x.u2.half_spectrum)


def directional_derivative(u: ScalarField, x: VelocityField) -> ScalarField:
    """Derivative of u along x in conservation form div(u x) - u div x.

    Agrees with x . grad u for smooth fields but stays meaningful when u
    has jumps and x is merely Hoelder.  Products are dealiased by the 2/3
    rule.
    """
    if x.grid != u.grid:
        raise ValueError("field and family member live on different grids")
    return _directional_derivative(u, x, divergence(x))


def _directional_derivative(u: ScalarField, x: VelocityField, div: ScalarField) -> ScalarField:
    """directional_derivative given div = divergence(x), for callers that use it too."""
    g = u.grid
    kern = g._kernel
    p1, p2, p3 = (kern.band_spectrum(u.values * c) for c in (x.u1.values, x.u2.values, div.values))
    return ScalarField.from_spectrum(g, kern.band.ik1 * p1 + kern.band.ik2 * p2 - p3)


def _vector_holder(x: VelocityField, s: float) -> float:
    prm = BesovParams(s=s)
    return max(besov_norm(x.u1, prm), besov_norm(x.u2, prm))


def conormal_norm(u: ScalarField, family: VectorFieldFamily, epsilon: float | None = None) -> float:
    """Boundary-adapted Hoelder norm of u relative to the family.

    Combines the sup norm of u weighted by the family's own epsilon
    regularity (including divergences) with the (epsilon - 1) Hoelder
    norms of the directional derivatives, normalized by the family floor.
    epsilon defaults to the family's own index.
    """
    floor = family_floor(family)
    if floor <= 0.0:
        raise ValueError("degenerate family: floor is zero")
    eps = family.epsilon if epsilon is None else epsilon
    fam_reg = 0.0
    dir_reg = 0.0
    prm_lo = BesovParams(s=eps - 1.0)
    for x in family.members:
        div = divergence(x)  # one inverse transform, shared by both terms
        fam_reg = max(fam_reg, _vector_holder(x, eps) + besov_norm(div, BesovParams(s=eps)))
        dir_reg = max(dir_reg, besov_norm(_directional_derivative(u, x, div), prm_lo))
    return (lp_norm(u, np.inf) * fam_reg + dir_reg) / floor


class VelocityInterpolant:
    """Divergence-free velocity snapshots from a sampled vorticity trajectory.

    Linear interpolation happens on the vorticity half spectrum; velocity
    components come out through the grid kernel's Biot-Savart multipliers.
    """

    def __init__(self, omega_series: TimeSeries):
        if len(omega_series) < 1:
            raise ValueError("need at least one sample")
        self.series = omega_series
        self.grid = omega_series.grid
        self.times = omega_series.times
        self.kern = self.grid._kernel

    def omega_spectrum(self, t: float) -> np.ndarray:
        """Vorticity half spectrum at t, clamped to the sampled span."""
        ts, fields = self.times, self.series.fields
        if t <= ts[0]:
            return fields[0].half_spectrum
        if t >= ts[-1]:
            return fields[-1].half_spectrum
        j = bisect_right(ts, t)
        w = (t - ts[j - 1]) / (ts[j] - ts[j - 1])
        return (1.0 - w) * fields[j - 1].half_spectrum + w * fields[j].half_spectrum

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


def _gradient_at(h: np.ndarray, grid: GridSpec, pts: np.ndarray) -> list[np.ndarray]:
    """v1, v2, d1 v1, d2 v1, d1 v2, d2 v2 at pts from vorticity spectrum h, three phase-basis contractions per chunk.

    With s1 = v1 h and s2 = v2 h: e1 @ s1 gives v1 and d2 v1, e1 @ s2 gives v2 and d2 v2 = -d1 v1, and
    (e1 ik1) @ s2 gives d1 v2; the ik2 factors are applied along axis 1.  A spectrum that
    vanishes beyond the 2/3 band, as march samples and their interpolants do, is summed
    over the kept modes only.
    """
    kern = grid._kernel
    band = kern.cols - 1 if kern.in_band(h) else None  # the band is |m1|, m2 <= band
    op, h = (kern, h) if band is None else (kern.band, kern.cut(h))
    s2 = op.v2 * h

    def contract(p: np.ndarray) -> list[np.ndarray]:
        e1, e2 = _phase_basis(grid, p, band)
        a1, a2 = e1 @ (op.v1 * h), e1 @ s2
        e1 *= op.ik1[:, 0]
        c2 = e1 @ s2
        w = op.ik2 * e2
        v1, d2v1, v2, d2v2, d1v2 = (np.einsum("ij,ij->i", a, x).real / grid.n**2
                                    for a, x in ((a1, e2), (a1, w), (a2, e2), (a2, w), (c2, e2)))
        return [v1, v2, -d2v2, d2v1, d1v2, d2v2]

    return _chunked(contract, pts)


def _advect_stretch_rhs(comps: list[np.ndarray], vel: tuple, grid: GridSpec) -> list[np.ndarray]:
    """RHS of d/dt X = -(v . grad) X + (X . grad) v for stacked components, in flux form: div v = 0
    makes (v . grad) X_i = d1(v1 X_i) + d2(v2 X_i), three forward transforms and one inverse each,
    all on the 2/3 band."""
    v1, v2, (d1v1, d2v1, d1v2, d2v2) = vel
    kern = grid._kernel
    op = kern.band
    out = []
    for i in range(0, len(comps), 2):
        x1, x2 = comps[i], comps[i + 1]
        for x, g1, g2 in ((x1, d1v1, d2v1), (x2, d1v2, d2v2)):
            r = kern.band_spectrum(x1 * g1 + x2 * g2)
            r -= op.ik1 * kern.band_spectrum(v1 * x)
            r -= op.ik2 * kern.band_spectrum(v2 * x)
            out.append(kern.inverse(r))
    return out


def _velocity_and_gradient(interp: VelocityInterpolant, t: float) -> tuple[np.ndarray, ...]:
    """Velocity and its gradient at t; a vorticity spectrum zero outside the 2/3 band is inverted on the band."""
    kern, h = interp.kern, interp.omega_spectrum(t)
    x = kern.cut(h) if kern.in_band(h) else h
    return (*kern.velocity(x), tuple(kern.gradient(x)))


def _rk4(
    state: list[np.ndarray],
    velocity: Callable[[float], Any],
    rhs: Callable[[list[np.ndarray], Any], list[np.ndarray]],
    interp: VelocityInterpolant,
    dt: float | None,
) -> Iterator[tuple[float, list[np.ndarray]]]:
    """Classic RK4 across the trajectory's span; yields (t, state) after each step.

    velocity(t) is called once per distinct stage time, and only one stage
    velocity is held at a time.  rhs returns new arrays; the first stage's
    are the step's accumulator, which the later stages add into.  dt
    defaults to the largest sample gap, so a short remainder step at the
    end of a leg does not set the step for all of it.
    """
    t0, t1 = interp.span
    if dt is None:
        dt = float(np.max(np.diff(interp.times)))
    nsteps = max(1, int(np.ceil((t1 - t0) / dt - 1.0e-12)))
    times = np.linspace(t0, t1, nsteps + 1)
    vel = velocity(times[0])
    for a, b in zip(times[:-1], times[1:]):
        h = b - a
        acc = k = rhs(state, vel)  # acc sums k1 + 2 k2 + 2 k3 + k4 in that order
        for frac, weight, t in ((0.5, 2.0, 0.5 * (a + b)), (0.5, 2.0, None), (1.0, 1.0, b)):
            if t is not None:
                del vel
                vel = velocity(t)
            k = rhs([c + frac * h * d for c, d in zip(state, k)], vel)
            for s, d in zip(acc, k):
                s += weight * d  # in place: the same s + weight * d, with no second accumulator
        state = [c + h / 6.0 * s for c, s in zip(state, acc)]
        yield float(b), state


def advect_family(
    family: VectorFieldFamily, omega_series: TimeSeries, dt: float | None = None
) -> VectorFieldFamily:
    """Push the family forward along the trajectory's full time span.

    Classic RK4 on the transport-stretch system, with the velocity read
    from the vorticity samples at every stage time.
    """
    interp = VelocityInterpolant(omega_series)
    t0, t1 = interp.span
    if t1 <= t0:
        return family
    g = family.grid
    if g != interp.grid:
        raise ValueError("family and trajectory grids differ")
    comps = [c.values for m in family.members for c in (m.u1, m.u2)]
    velocity = partial(_velocity_and_gradient, interp)
    rhs = partial(_advect_stretch_rhs, grid=g)
    for _, comps in _rk4(comps, velocity, rhs, interp, dt):
        pass
    return _family_of(comps, g, family.epsilon)


def _family_of(comps: list[np.ndarray], g: GridSpec, epsilon: float) -> VectorFieldFamily:
    members = (VelocityField(ScalarField(g, comps[i]), ScalarField(g, comps[i + 1])) for i in range(0, len(comps), 2))
    return VectorFieldFamily(members=tuple(members), epsilon=epsilon)


_SPACING_COLLAPSE = 4.0


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Closed boundary discretization at one instant: parameters, positions, tangents."""

    params: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        p = np.array(self.params, dtype=np.float64)
        pts = np.array(self.points, dtype=np.float64)
        tan = np.array(self.tangents, dtype=np.float64)
        if pts.shape != (len(p), 2) or tan.shape != pts.shape:
            raise ValueError("points and tangents must be (m, 2) arrays matching params")
        if np.min(np.hypot(tan[:, 0], tan[:, 1])) <= 0.0:
            raise ValueError("tangents must be nonvanishing")
        for name, arr in (("params", p), ("points", pts), ("tangents", tan)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.params)

    @property
    def enclosed_area(self) -> float:
        x, y = self.points[:, 0], self.points[:, 1]
        return 0.5 * float(np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    @property
    def spacing_ratio(self) -> float:
        """Longest over shortest edge of the closed polygon."""
        seg = np.diff(np.vstack([self.points, self.points[:1]]), axis=0)
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        return float(lengths.max() / lengths.min())


def advect_boundary(
    params: np.ndarray,
    points: np.ndarray,
    tangents: np.ndarray,
    omega_series: TimeSeries,
    dt: float | None = None,
) -> BoundaryCurve:
    """Push boundary tracers and their tangents through the flow.

    Positions follow dx/dt = v(x); tangents follow the Jacobian system
    dT/dt = (grad v) T, both integrated with RK4 and velocity evaluated
    off-grid from the spectral representation.
    """
    interp = VelocityInterpolant(omega_series)
    t0, t1 = interp.span
    g = interp.grid

    def rhs(state: list[np.ndarray], omega_half: np.ndarray) -> list[np.ndarray]:
        pts, tan = state
        v1, v2, d1v1, d2v1, d1v2, d2v2 = _gradient_at(omega_half, g, pts)
        dtan = np.stack([tan[:, 0] * d1v1 + tan[:, 1] * d2v1, tan[:, 0] * d1v2 + tan[:, 1] * d2v2], axis=1)
        return [np.stack([v1, v2], axis=1), dtan]

    state = [np.asarray(points, dtype=np.float64), np.asarray(tangents, dtype=np.float64)]
    steps = _rk4(state, interp.omega_spectrum, rhs, interp, dt) if t1 > t0 else ()
    for t, (pts, tan) in chain([(t0, state)], steps):
        curve = BoundaryCurve(params, pts, tan, time=t)
        if curve.spacing_ratio > _SPACING_COLLAPSE:
            raise ValueError(f"tracer spacing collapsed (ratio {curve.spacing_ratio:.2f}) at t = {t:.6g}")
    return curve


def advect_legs(
    trajectory: Iterable[tuple[float, ScalarField, ScalarField, dict]],
    checkpoints: Iterable[float],
    family: VectorFieldFamily,
    curve: BoundaryCurve,
) -> Iterator[tuple[float, ScalarField, VectorFieldFamily, BoundaryCurve, dict]]:
    """Push a family and boundary tracers along a dense trajectory, one sample gap at a time.

    trajectory is ``solver.march`` with record_every_step, landing on every checkpoint; yields
    (t, omega, family, curve, diagnostics) at each.  A one-thread helper marches one sample ahead
    and moves the tracers over each gap; the caller's thread takes the gap's RK4 family step from
    the last step's end velocity.  Each side computes what it would alone.

    A run holds the family's component arrays, the grid and epsilon of the initial family (not the
    family: its level set and cached magnitudes go with it), the last stage velocity, the tracers,
    no density sample, and at most three vorticity samples: the two around the family step and the
    one being marched; while the caller holds a checkpoint, that one and the one being marched.
    Once resumed it keeps no reference to the checkpoint it yielded, so that family, omega and
    diagnostics die when the caller drops them.
    """
    g, epsilon = family.grid, family.epsilon
    comps = [c.values for m in family.members for c in (m.u1, m.u2)]
    del family  # the members live on in comps only until the first family step replaces them
    rhs = partial(_advect_stretch_rhs, grid=g)
    end = [None, None]  # the last stage's time and velocity, reused as the next step's first

    def velocity(t: float) -> tuple:  # at t in the current gap
        if t != end[0]:
            end[:] = t, None  # one stage velocity at a time
            end[1] = _velocity_and_gradient(interp, t)
        return end[1]

    stream = _with_tracers(trajectory, curve)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="strato-helper") as helper:
        ahead = helper.submit(next, stream, None)
        for mark in checkpoints:
            while (sample := ahead.result()) is not None:
                ahead = helper.submit(next, stream, None)  # beside this family step and the checkpoint
                t, omega, diag, curve, gap = sample
                del sample
                if gap is not None:
                    interp = VelocityInterpolant(gap)
                    del gap
                    for _, comps in _rk4(comps, velocity, rhs, interp, None):
                        pass
                    interp = None  # frees the gap's start
                if t >= mark - 1.0e-12:
                    break
            else:
                return
            yield t, omega, _family_of(comps, g, epsilon), curve, diag
            del omega, curve, diag  # the checkpoint lives as long as the caller keeps it


def _with_tracers(trajectory: Iterable[tuple], curve: BoundaryCurve) -> Iterator[tuple]:
    """(t, omega, diagnostics, curve, gap) per march sample, the tracers advected over the gap."""
    last = None
    for t, omega, diag in map(itemgetter(0, 1, 3), trajectory):  # drops each density sample as it arrives
        gap = None
        if last is not None:
            gap = TimeSeries(np.array([last[0], t]), (last[1], omega))
            curve = advect_boundary(curve.params, curve.points, curve.tangents, gap)
        last = t, omega
        yield t, omega, diag, curve, gap
        del gap  # else the gap's start outlives the family step by a march step


def holder_quotient(params: np.ndarray, tangents: np.ndarray, epsilon: float, period: float = 2.0 * np.pi) -> float:
    """Largest pairwise tangent increment over the parameter gap to the epsilon."""
    sig = np.asarray(params, dtype=np.float64)
    tan = np.asarray(tangents, dtype=np.float64)
    dsig = np.abs(sig[:, None] - sig[None, :])
    dsig = np.minimum(dsig, period - dsig)
    num = np.hypot(tan[:, None, 0] - tan[None, :, 0], tan[:, None, 1] - tan[None, :, 1])
    mask = dsig > 0.0
    return float(np.max(num[mask] / dsig[mask] ** epsilon))


def log_estimate_ratio(omega: ScalarField, family: VectorFieldFamily) -> float:
    """Observed gradient sup over its logarithmic bound surrogate.

    Returns |grad v|_inf / (|w|_L2 + |w|_inf log(e + |w|_adapted/|w|_inf))
    with v the velocity recovered from the vorticity w.
    """
    return _log_estimate_ratio(omega, conormal_norm(omega, family), velocity_gradient_sup(omega))


def _log_estimate_ratio(omega: ScalarField, adapted: float, gradv_sup: float) -> float:
    """log_estimate_ratio given the adapted norm of omega and |grad v|_inf, for callers that have them: the
    march's ``gradv_sup`` diagnostic is bitwise ``velocity_gradient_sup`` of its sample."""
    sup = lp_norm(omega, np.inf)
    if sup == 0.0:
        raise ValueError("vorticity vanishes; ratio undefined")
    denom = lp_norm(omega, 2.0) + sup * np.log(np.e + adapted / sup)
    return gradv_sup / denom
