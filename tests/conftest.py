from functools import partial
from itertools import pairwise

import numpy as np
import pytest
import scipy.fft as fft

from strato.conormal import (
    VelocityInterpolant,
    _advect_stretch_rhs,
    _family_of,
    _family_step,
    _slope,
    _tracer_step,
    _velocity_and_gradient,
)
from strato.grid import GridSpec, ScalarField, rfft2
from strato.solver import _Engine, _rk4


@pytest.fixture
def frozen_velocity(monkeypatch):
    """The march with advection off: its slope is the buoyancy term (ik1 rho, 0) alone, and its CFL guard sees
    zero velocity, so it never halves a step.  No velocity goes through the kernel's advection term, where zero
    times an overflowing derivative would turn a finite density slope into NaN."""
    def nonlinear(self, what, rhat, vel=None):
        return self.op.ik1 * rhat, np.zeros_like(rhat)

    monkeypatch.setattr(_Engine, "nonlinear", nonlinear)
    monkeypatch.setattr(_Engine, "velocity", lambda self, what: (np.zeros(self.grid.n),) * 2)


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(n=64, half_length=8.0)


@pytest.fixture(scope="session")
def grid128():
    return GridSpec(n=128, half_length=8.0)


@pytest.fixture(scope="session")
def grid256():
    return GridSpec(n=256, half_length=8.0)


def random_field(grid, seed, band=None):
    """Frozen random field; band (in |k| units) low-pass projects it.

    The projected field caches its exact band-limited half spectrum, so
    blocks above the band read exactly zero.
    """
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((grid.n, grid.n))
    if band is None:
        return ScalarField(grid, values)
    return ScalarField.from_spectrum(grid, fft.rfft2(values) * (half_kmag(grid) <= band))


def half_kmag(grid):
    """|k| on the rfft2 lattice, built from numpy alone."""
    k = (np.pi / grid.half_length) * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k2 = (np.pi / grid.half_length) * np.fft.rfftfreq(grid.n, d=1.0 / grid.n)
    return np.hypot(k[:, None], k2[None, :])


def keep_mask(n):
    """The 2/3 dealiasing mask on the n-point rfft2 lattice, |m1|, m2 <= n // 3, built from numpy alone."""
    m1, m2 = np.fft.fftfreq(n, d=1.0 / n), np.fft.rfftfreq(n, d=1.0 / n)
    return (np.abs(m1)[:, None] <= n // 3) & (m2[None, :] <= n // 3)


def dealias(kern, values):
    """Grid values with the 2/3 rule of the grid kernel ``kern`` applied."""
    return kern.inverse(rfft2(values) * keep_mask(kern.n))


def velocity_values(interp, t):
    """Grid values of the velocity at t of a VelocityInterpolant, from the whole half spectrum."""
    h = interp.kern.spread(interp.omega_spectrum(t))
    return interp.kern.inverse(interp.kern.v1 * h), interp.kern.inverse(interp.kern.v2 * h)


def sample_gaps(omega_series):
    """One two-band VelocityInterpolant per gap of consecutive samples of a run's vorticity, which is zero
    outside the 2/3 band, so that cutting its half spectra to the band loses nothing."""
    kern = omega_series.grid._kernel
    bands = [kern.cut(f.half_spectrum) for f in omega_series.fields]
    times = [float(t) for t in omega_series.times]
    return [VelocityInterpolant(omega_series.grid, times[j : j + 2], bands[j : j + 2]) for j in range(len(bands) - 1)]


def gap_steps(interp, dt=None):
    """End points of equal steps across the gap, none longer than dt; the gap's own ends for dt None."""
    t0, t1 = interp.times
    if dt is None:
        return [t0, t1]
    return np.linspace(t0, t1, max(1, int(np.ceil((t1 - t0) / dt - 1.0e-12))) + 1)


def transport(family, curve, gaps, dt=None):
    """The family and the boundary curve moved across the gaps in turn by conormal's family and tracer steps,
    in steps no longer than dt (one step per gap for dt None), as ``advect_legs`` moves them across march gaps."""
    g = family.grid
    comps = [c.values for m in family.members for c in (m.u1, m.u2)]
    for interp in gaps:
        times = gap_steps(interp, dt)
        slope = _slope(partial(_advect_stretch_rhs, grid=g), partial(_velocity_and_gradient, interp))
        comps = _family_step(comps, slope, times)
        curve = _tracer_step(curve.params, [curve.points, curve.tangents], interp, times)
    return _family_of(comps, g, family.epsilon), curve


def transport_scalar(f, gaps, dt=None):
    """Passive advection of a scalar across the gaps (no stretching), by the family's RK4 steps.

    The reference for divergence transport: the divergence of an advected family moves as a scalar.  Its
    velocity and products are formed on the whole half spectrum, in advective form."""
    g = f.grid
    kern = g._kernel

    def rhs(state, vel):
        v1, v2 = vel
        s = rfft2(state[0])
        return [dealias(kern, -(v1 * kern.inverse(kern.ik1 * s) + v2 * kern.inverse(kern.ik2 * s)))]

    state = [f.values]
    for interp in gaps:
        slope = _slope(rhs, partial(velocity_values, interp))
        for a, b in pairwise(gap_steps(interp, dt)):
            state = _rk4(state, slope, (a, b), b - a, [(1.0, 1.0)])
    return ScalarField(g, state[0])


class FullSpectrum:
    """Reference operators on the full complex numpy spectrum of one grid.

    Independent of the package's half-spectrum kernel: wavenumbers come
    from numpy ``fftfreq`` and every operator is ``ifft2(m * fft2(f)).real``.
    """

    def __init__(self, grid):
        m = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
        k = (np.pi / grid.half_length) * m
        self.grid = grid
        self.k1, self.k2 = k[:, None], k[None, :]
        self.ksq = self.k1**2 + self.k2**2
        self.inv_ksq = np.zeros_like(self.ksq)
        np.divide(1.0, self.ksq, out=self.inv_ksq, where=self.ksq != 0.0)
        keep = np.abs(m) <= grid.n // 3
        self.mask = keep[:, None] & keep[None, :]

    def apply(self, multiplier, values):
        return np.fft.ifft2(multiplier * np.fft.fft2(values)).real

    def derivative(self, values, axis):
        return self.apply(1j * (self.k1 if axis == 1 else self.k2), values)

    def velocity(self, values):
        return self.apply(1j * self.k2 * self.inv_ksq, values), self.apply(-1j * self.k1 * self.inv_ksq, values)

    def dealias(self, values):
        return self.apply(self.mask, values)

    def sample(self, values, pts):
        """The trigonometric interpolant of the grid values at off-grid points."""
        k = self.k2[0]
        e1 = np.exp(1j * np.outer(pts[:, 0] + self.grid.half_length, k))
        e2 = np.exp(1j * np.outer(pts[:, 1] + self.grid.half_length, k))
        return ((e1 @ np.fft.fft2(values)) * e2).sum(axis=1).real / self.grid.n**2


@pytest.fixture(scope="session")
def band_limited_pair(grid128):
    from strato.littlewood_paley import DyadicPartition

    part = DyadicPartition(grid128)
    band = 2.0 ** (part.q_max - 2)
    u = random_field(grid128, 11, band=band)
    v = random_field(grid128, 12, band=band)
    return u, v
