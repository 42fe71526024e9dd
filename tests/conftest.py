from functools import partial

import numpy as np
import pytest
import scipy.fft as fft

from strato.conormal import VelocityInterpolant, _rk4
from strato.grid import GridSpec, ScalarField, rfft2


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
    """Grid values of the velocity at t of a VelocityInterpolant, from the full half spectrum."""
    h = interp.omega_spectrum(t)
    return interp.kern.inverse(interp.kern.v1 * h), interp.kern.inverse(interp.kern.v2 * h)


def transport_scalar(f, omega_series, dt=None):
    """Passive advection of a scalar along the trajectory (no stretching), by the family's RK4 stepper.

    The reference for divergence transport: the divergence of an advected family moves as a scalar."""
    interp = VelocityInterpolant(omega_series)
    t0, t1 = interp.span
    if t1 <= t0:
        return f
    g = f.grid
    kern = g._kernel

    def rhs(state, vel):
        v1, v2 = vel
        s = rfft2(state[0])
        return [dealias(kern, -(v1 * kern.inverse(kern.ik1 * s) + v2 * kern.inverse(kern.ik2 * s)))]

    state = [f.values]
    for _, state in _rk4(state, partial(velocity_values, interp), rhs, interp, dt):
        pass
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
