"""One spectral kernel: every operator runs on real half spectra.

The pipeline test fails loudly if any code path still reaches for a
full complex transform; the operator tests pin the half-spectrum kernel
against references built from numpy's full complex spectrum alone.
"""

import numpy as np
import pytest

from strato.grid import (
    GridSpec,
    ScalarField,
    biot_savart,
    derivative,
    dx1_inv_laplacian,
    heat_propagate,
    laplacian,
    sample_at,
)
from strato.conormal import advect_legs, conormal_norm, log_estimate_ratio
from strato.initdata import PatchSpec, boundary_curve, initial_vector_family, level_set_data, rasterize_patch
from strato.littlewood_paley import BesovParams, DyadicPartition, besov_norm, bony_decompose
from strato.solver import SimParams, run
from conftest import FullSpectrum, random_field


def test_pipeline_never_calls_full_complex_transforms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full complex transform called")

    for name in ("fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)

    g = GridSpec(n=32, half_length=4.0)
    spec = PatchSpec(kind="star", radius=1.0, amplitude=0.1, base_mode=3)
    omega0 = rasterize_patch(spec, g)
    rho0 = random_field(g, 70, band=3.0)
    params = SimParams(mu=1e-3, dt=0.05, t_final=0.2)
    series = run(omega0, rho0, params, record_every_step=True).omega

    family0 = initial_vector_family(spec, g)
    curve0 = boundary_curve(spec, m=32)
    ((_, _, family, curve, _),) = advect_legs(omega0, rho0, params, [0.2], family0, curve0)
    part = DyadicPartition(g)
    omega = series.fields[-1]
    norm = conormal_norm(omega, family)
    ratio = log_estimate_ratio(omega, family)
    besov = besov_norm(omega, BesovParams(s=0.5))
    band = 2.0 ** (part.q_max - 2)
    pieces = bony_decompose(random_field(g, 71, band=band), random_field(g, 72, band=band))
    smooth = heat_propagate(omega, 0.1)
    _, g1, g2, _ = level_set_data(spec, g)
    samples = list(sample_at(omega, curve.points))

    scalars = [norm, ratio, besov, *samples]
    arrays = [smooth.values, g1.values, g2.values]
    arrays += [p.values for p in pieces] + [c.values for m in family.members for c in (m.u1, m.u2)]
    assert np.all(np.isfinite(scalars))
    assert all(np.all(np.isfinite(a)) for a in arrays)


@pytest.fixture(scope="module")
def noise():
    g = GridSpec(n=64, half_length=8.0)
    f = random_field(g, 80)
    return f, FullSpectrum(g)


def _close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestOperatorsMatchFullSpectrum:
    @pytest.mark.parametrize("axis", [1, 2])
    def test_derivative(self, noise, axis):
        f, ref = noise
        _close(derivative(f, axis).values, ref.derivative(f.values, axis))

    def test_laplacian(self, noise):
        f, ref = noise
        _close(laplacian(f).values, ref.apply(-ref.ksq, f.values))

    def test_biot_savart(self, noise):
        f, ref = noise
        v = biot_savart(f)
        want1, want2 = ref.velocity(f.values)
        _close(v.u1.values, want1)
        _close(v.u2.values, want2)

    def test_dx1_inv_laplacian(self, noise):
        f, ref = noise
        _close(dx1_inv_laplacian(f).values, ref.apply(-1j * ref.k1 * ref.inv_ksq, f.values))

    def test_heat_propagate(self, noise):
        f, ref = noise
        _close(heat_propagate(f, 0.05).values, ref.apply(np.exp(-0.05 * ref.ksq), f.values))

    def test_sample_at_off_grid(self, noise):
        f, ref = noise
        smooth = ScalarField(f.grid, ref.dealias(f.values))
        rng = np.random.default_rng(81)
        pts = rng.uniform(-8.0, 8.0, size=(60, 2))
        want = ref.sample(smooth.values, pts)
        assert np.abs(sample_at(smooth, pts) - want).max() <= 1e-12 * np.abs(want).max()
