"""Anisotropic (boundary-adapted) regularity machinery.

A vector-field family is a finite set of plane fields that jointly never
vanish; fields tangent to a patch boundary let one measure directional
smoothness of the vorticity across the patch edge without paying for the
jump.  The module advects families and boundary tracers along the march's
own 2/3 band states (``advect_legs``, one RK4 step per march gap),
forms directional derivatives in conservation form, and evaluates the
adapted Hoelder norm and the logarithmic gradient bound it feeds.  The
transports take the solver's RK4 step with unit integrating factors.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, pairwise
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .grid import GridSpec, ScalarField, VelocityField, _chunked, _phase_basis, lp_norm, velocity_gradient_sup
from .littlewood_paley import BesovParams, besov_norm
from .solver import SimParams, _march, _rk4, _sample_times

__all__ = [
    "VectorFieldFamily",
    "BoundaryCurve",
    "VelocityInterpolant",
    "family_floor",
    "directional_derivative",
    "conormal_norm",
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


def conormal_norm(u: ScalarField, family: VectorFieldFamily) -> float:
    """Boundary-adapted Hoelder norm of u relative to the family.

    Combines the sup norm of u weighted by the family's own epsilon
    regularity (including divergences) with the (epsilon - 1) Hoelder
    norms of the directional derivatives, normalized by the family floor.
    """
    floor = family_floor(family)
    if floor <= 0.0:
        raise ValueError("degenerate family: floor is zero")
    fam_reg = 0.0
    dir_reg = 0.0
    prm_lo = BesovParams(s=family.epsilon - 1.0)
    for x in family.members:
        div = divergence(x)  # one inverse transform, shared by both terms
        fam_reg = max(fam_reg, _vector_holder(x, family.epsilon) + besov_norm(div, BesovParams(s=family.epsilon)))
        dir_reg = max(dir_reg, besov_norm(_directional_derivative(u, x, div), prm_lo))
    return (lp_norm(u, np.inf) * fam_reg + dir_reg) / floor


class VelocityInterpolant:
    """The velocity across one march gap, from the vorticity bands at its two ends.

    Holds the two 2/3 bands and their times and blends them linearly, clamped
    to the gap; the kernel's Biot-Savart multipliers give the velocity.
    """

    def __init__(self, grid: GridSpec, times: Sequence[float], spectra: Sequence[np.ndarray]):
        if not len(spectra) == len(times) == 2:
            raise ValueError("need two samples, the bands at the ends of a gap, and one time per sample")
        self.grid, self.kern = grid, grid._kernel
        self.times, self.spectra = times, tuple(spectra)

    def omega_spectrum(self, t: float) -> np.ndarray:
        """Vorticity band at t, clamped to the gap."""
        (t0, t1), (a, b) = self.times, self.spectra
        if t <= t0:
            return a
        if t >= t1:
            return b
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * a + w * b


def _gradient_at(h: np.ndarray, grid: GridSpec, pts: np.ndarray) -> list[np.ndarray]:
    """v1, v2, d1 v1, d2 v1, d1 v2, d2 v2 at pts from vorticity spectrum h, three phase-basis contractions per chunk.

    With s1 = v1 h and s2 = v2 h: e1 @ s1 gives v1 and d2 v1, e1 @ s2 gives v2 and d2 v2 = -d1 v1, and
    (e1 ik1) @ s2 gives d1 v2; the ik2 factors are applied along axis 1.  h is a 2/3 band, as march
    states and their blends are, and is summed over its modes only.
    """
    kern = grid._kernel
    op, band = kern.band, kern.cols - 1  # the band is |m1|, m2 <= band
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
    """Grid values of the velocity and its gradient at t, from the gap's blended band."""
    kern, x = interp.kern, interp.omega_spectrum(t)
    return (*kern.velocity(x), tuple(kern.gradient(x)))


def _slope(rhs: Callable[[list[np.ndarray], Any], list], velocity: Callable[[float], Any]) -> Callable:
    """rhs(stage, velocity(t)) as an RK4 slope, velocity(t) computed once per distinct stage time: stages 2 and
    3 share the midpoint's, and a step's last stage hands its velocity to the next step's first.  Only one stage
    velocity is held at a time."""
    last = [None, None]

    def slope(stage: list[np.ndarray], t: float) -> list:
        if t != last[0]:
            last[:] = t, None
            last[1] = velocity(t)
        return rhs(stage, last[1])

    return slope


def _family_step(comps: list[np.ndarray], slope: Callable, times: Sequence[float]) -> list[np.ndarray]:
    """The stacked family components moved across the partition times, slope giving the transport-stretch RHS."""
    for a, b in pairwise(times):
        comps = _rk4(comps, slope, (a, b), b - a, [(1.0, 1.0)] * len(comps))
    return comps


def _family_of(comps: list[np.ndarray], g: GridSpec, epsilon: float) -> VectorFieldFamily:
    members = (VelocityField(ScalarField(g, comps[i]), ScalarField(g, comps[i + 1])) for i in range(0, len(comps), 2))
    return VectorFieldFamily(members=tuple(members), epsilon=epsilon)


_SPACING_COLLAPSE = 4.0
_PERIOD = 2.0 * np.pi  # of a boundary curve's parameter


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
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
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


def _tracer_step(params: np.ndarray, state: list[np.ndarray], interp: VelocityInterpolant,
                 times: Sequence[float]) -> BoundaryCurve:
    """The curve of the tracers and tangents in state moved across the partition times, spacing checked at each."""

    def rhs(state: list[np.ndarray], omega: np.ndarray) -> list[np.ndarray]:
        pts, tan = state
        v1, v2, d1v1, d2v1, d1v2, d2v2 = _gradient_at(omega, interp.grid, pts)
        dtan = np.stack([tan[:, 0] * d1v1 + tan[:, 1] * d2v1, tan[:, 0] * d1v2 + tan[:, 1] * d2v2], axis=1)
        return [np.stack([v1, v2], axis=1), dtan]

    slope = _slope(rhs, interp.omega_spectrum)
    for a, b in pairwise(chain([None], times)):
        if a is not None:
            state = _rk4(state, slope, (a, b), b - a, [(1.0, 1.0)] * len(state))
        curve = BoundaryCurve(params, *state, time=float(b))
        if curve.spacing_ratio > _SPACING_COLLAPSE:
            raise ValueError(f"tracer spacing collapsed (ratio {curve.spacing_ratio:.2f}) at t = {b:.6g}")
    return curve


def advect_legs(
    omega0: ScalarField,
    rho0: ScalarField,
    params: SimParams,
    checkpoints: Iterable[float],
    family: VectorFieldFamily,
    curve: BoundaryCurve,
) -> Iterator[tuple[float, ScalarField, VectorFieldFamily, BoundaryCurve, dict]]:
    """Push a family and boundary tracers, given at t = 0, along the march of (omega0, rho0), one step at a time.

    Runs ``solver._march`` with every step recorded and gradients tracked, landing on each checkpoint;
    yields (t, omega, family, curve, diagnostics) at each, omega the field of the march's vorticity band
    and diagnostics the march's stats.  A one-thread helper marches one step ahead and moves the tracers
    over the gap it closes; the caller's thread takes the gap's family step, one RK4 step which starts
    from the last step's end velocity.  Both read the gap's one band interpolant.

    A run holds the family's component arrays (not the initial family: its level set and magnitudes go
    with it), the last stage velocity, the tracers, the march's own density band, and at most three
    vorticity bands: the two around the family step and the one being marched.  Once resumed it keeps no
    reference to the checkpoint it yielded, so that family, omega and diagnostics die with the caller's.
    """
    g, epsilon = family.grid, family.epsilon
    if g != omega0.grid:
        raise ValueError("family and trajectory grids differ")
    marks = _sample_times(checkpoints, params.t_final)
    comps = [c.values for m in family.members for c in (m.u1, m.u2)]
    del family  # the members live on in comps only until the first family step replaces them
    slope = _slope(partial(_advect_stretch_rhs, grid=g), lambda t: _velocity_and_gradient(interp, t))  # gap's interp

    stream = _with_tracers(_march(omega0, rho0, params, np.union1d(0.0, marks), True, True), g, curve)
    del omega0, rho0  # the march holds them only until it has their bands
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="strato-helper") as helper:
        ahead = helper.submit(next, stream, None)
        for mark in marks:
            while (state := ahead.result()) is not None:
                ahead = helper.submit(next, stream, None)  # beside this family step and the checkpoint
                t, what, diag, curve, interp = state
                del state
                if interp is not None:
                    comps = _family_step(comps, slope, interp.times)
                    interp = None  # frees the gap's start
                if t >= mark - 1.0e-12:
                    break
            else:
                return
            yield t, ScalarField.from_spectrum(g, what), _family_of(comps, g, epsilon), curve, diag
            del what, curve, diag  # the checkpoint lives as long as the caller keeps it


def _with_tracers(states: Iterable[tuple], g: GridSpec, curve: BoundaryCurve) -> Iterator[tuple]:
    """(t, what, stats, curve, interp) per march state, the tracers moved over the gap's band interpolant interp."""
    last = None
    for t, what, stats in map(itemgetter(0, 1, 3), states):  # drops each density band as it arrives
        interp = None
        if last is not None:
            interp = VelocityInterpolant(g, (last[0], t), (last[1], what))
            curve = _tracer_step(curve.params, [curve.points, curve.tangents], interp, interp.times)
        last = t, what
        yield t, what, stats, curve, interp
        del interp  # else the gap's start outlives the family step by a march step


def holder_quotient(params: np.ndarray, tangents: np.ndarray, epsilon: float) -> float:
    """Largest pairwise tangent increment over the parameter gap, modulo 2 pi, to the epsilon."""
    sig = np.asarray(params, dtype=np.float64)
    tan = np.asarray(tangents, dtype=np.float64)
    dsig = np.abs(sig[:, None] - sig[None, :])
    dsig = np.minimum(dsig, _PERIOD - dsig)
    mask = dsig > 0.0
    if not mask.any():
        raise ValueError(f"need at least two distinct parameters (modulo the period {_PERIOD:g})")
    num = np.hypot(tan[:, None, 0] - tan[None, :, 0], tan[:, None, 1] - tan[None, :, 1])
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
