"""Patch and density construction: rasters, boundary geometry, families."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from strato.grid import GridSpec, derivative, lp_norm
from strato.initdata import (
    _boundary_samples,
    BoundaryCurve,
    DensitySpec,
    PatchSpec,
    boundary_curve,
    bv_norm,
    initial_vector_family,
    level_set_data,
    make_density,
    rasterize_patch,
)


class TestPatchSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown patch kind"):
            PatchSpec(kind="square")

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            PatchSpec(kind="disc", radius=-1.0)

    def test_ellipse_axes_validation(self):
        with pytest.raises(ValueError):
            PatchSpec(kind="ellipse", axes=(2.0, 0.0))

    def test_star_epsilon_validation(self):
        with pytest.raises(ValueError):
            PatchSpec(kind="star", epsilon=1.5)

    def test_star_amplitude_cap(self):
        with pytest.raises(ValueError, match="amplitude"):
            PatchSpec(kind="star", amplitude=0.6, octaves=3)

    @pytest.mark.parametrize("kw, field", [
        ({"kind": "disc", "radius": math.nan}, "radius"), ({"kind": "star", "amplitude": math.nan}, "amplitude"),
        ({"kind": "ellipse", "axes": (math.nan, 1.0)}, "axes"), ({"kind": "ellipse", "axes": (2.0, math.inf)}, "axes"),
        ({"kind": "disc", "center": (math.nan, 0.0)}, "center"), ({"kind": "disc", "center": (0.0, -math.inf)}, "center"),
        ({"kind": "disc", "epsilon": math.nan}, "epsilon"),
    ])
    def test_nonfinite_refused(self, kw, field):
        # a NaN radius or amplitude would rasterize an empty patch without a word
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            PatchSpec(**kw)

    def test_disc_radius_constant(self):
        spec = PatchSpec(kind="disc", radius=1.5)
        theta = np.linspace(0.0, 2.0 * np.pi, 17)
        assert np.array_equal(spec.boundary_radius(theta), np.full(17, 1.5))

    def test_ellipse_radius_hits_axes(self):
        spec = PatchSpec(kind="ellipse", axes=(2.0, 1.0))
        r = spec.boundary_radius(np.array([0.0, np.pi / 2.0, np.pi]))
        assert r == pytest.approx([2.0, 1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-0.2, max_value=0.2),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.1, max_value=0.9),
    )
    def test_star_radius_stays_in_declared_band(self, amplitude, base_mode, octaves, epsilon):
        spec = PatchSpec(
            kind="star", amplitude=amplitude, base_mode=base_mode, octaves=octaves, epsilon=epsilon
        )
        theta = np.linspace(0.0, 2.0 * np.pi, 181)
        r = spec.boundary_radius(theta)
        assert np.all(r >= spec.min_radius - 1e-12)
        assert np.all(r <= spec.max_radius + 1e-12)


class TestRasterize:
    def test_disc_area(self, grid256):
        f = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid256, supersample=4)
        area = f.values.sum() * grid256.dx**2
        assert area == pytest.approx(np.pi, rel=5e-3)

    def test_values_are_cell_fractions(self, grid128):
        f = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid128, supersample=4)
        assert f.values.min() >= 0.0
        assert f.values.max() <= 1.0
        assert f.values[64, 64] == 1.0

    def test_star_zero_amplitude_is_disc(self, grid128):
        disc = rasterize_patch(PatchSpec(kind="disc"), grid128, supersample=2)
        star = rasterize_patch(PatchSpec(kind="star", amplitude=0.0), grid128, supersample=2)
        assert np.array_equal(disc.values, star.values)

    def test_margin_enforced(self, grid128):
        with pytest.raises(ValueError, match="margin"):
            rasterize_patch(PatchSpec(kind="disc", radius=6.5), grid128)
        with pytest.raises(ValueError, match="margin"):
            rasterize_patch(PatchSpec(kind="disc", radius=1.0, center=(5.5, 0.0)), grid128)

    def test_supersample_validation(self, grid128):
        with pytest.raises(ValueError):
            rasterize_patch(PatchSpec(), grid128, supersample=0)

    def test_finer_supersample_refines_edge_cells(self, grid128):
        coarse = rasterize_patch(PatchSpec(), grid128, supersample=1)
        fine = rasterize_patch(PatchSpec(), grid128, supersample=8)
        assert not np.array_equal(coarse.values, fine.values)
        edge = (fine.values > 0.0) & (fine.values < 1.0)
        assert edge.any()
        assert set(np.unique(coarse.values)) == {0.0, 1.0}

    @pytest.mark.parametrize("spec", [
        PatchSpec(kind="disc", radius=1.3, center=(0.37, -0.91)),
        PatchSpec(kind="star", amplitude=0.15, octaves=3, center=(-0.4, 0.23)),
        PatchSpec(kind="star", radius=1.1, amplitude=-0.2, base_mode=3, epsilon=0.3, center=(0.11, 0.5)),
        PatchSpec(kind="ellipse", axes=(0.8, 1.7), center=(0.52, -0.33)),
    ], ids=["disc", "star3", "star-neg", "ellipse"])
    @pytest.mark.parametrize("n, supersample", [(64, 8), (128, 3), (256, 1)])
    def test_band_matches_supersampling_every_cell(self, spec, n, supersample):
        grid = GridSpec(n=n, half_length=4.0)
        got = rasterize_patch(spec, grid, supersample=supersample).values
        assert np.array_equal(got, supersample_every_cell(spec, grid, supersample))
        assert (got == 1.0).any()


def supersample_every_cell(spec, grid, supersample):
    """The rasterizer before it skipped cells far from the boundary: all n^2 cells, every subcell."""
    x1, x2 = grid.mesh
    acc = np.zeros((grid.n, grid.n))
    offs = (np.arange(supersample) + 0.5) / supersample - 0.5
    for o1 in offs:
        for o2 in offs:
            d1 = x1 + o1 * grid.dx - spec.center[0]
            d2 = x2 + o2 * grid.dx - spec.center[1]
            if spec.kind == "ellipse":
                a, b = spec.axes
                inside = (d1 / a) ** 2 + (d2 / b) ** 2 < 1.0
            else:
                rr = np.hypot(d1, d2)
                inside = rr < spec.boundary_radius(np.arctan2(d2, d1))
            acc += inside
    return acc / supersample**2


class TestBvNorm:
    def test_disc_closed_form(self):
        r = 1.0
        assert bv_norm(PatchSpec(kind="disc", radius=r)) == pytest.approx(
            np.pi * r**2 + 2.0 * np.pi * r, rel=1e-13
        )

    def test_disc_scaling(self):
        assert bv_norm(PatchSpec(kind="disc", radius=2.0)) == pytest.approx(
            4.0 * np.pi + 4.0 * np.pi, rel=1e-13
        )

    def test_ellipse_frozen_perimeter(self):
        # area pi*2*1 plus the elliptic-integral perimeter for axes (2, 1)
        got = bv_norm(PatchSpec(kind="ellipse", axes=(2.0, 1.0)))
        assert got - 2.0 * np.pi == pytest.approx(9.688448220547679, rel=1e-12)

    @pytest.mark.parametrize("m", [64, 1001, 1 << 14])
    def test_boundary_derivative_matches_scipy_full_spectrum(self, m):
        # the real-input rfft and its conjugate mirror give scipy.fft.fft's spectrum, bit for bit
        for spec in (PatchSpec(kind="ellipse", axes=(2.0, 1.0)), PatchSpec(kind="star", amplitude=0.15, base_mode=7)):
            _, r, dr = _boundary_samples(spec, m)
            modes = scipy.fft.fftfreq(m, d=1.0 / m)
            assert np.array_equal(dr, scipy.fft.ifft(1j * modes * scipy.fft.fft(r)).real)

    def test_star_longer_than_disc(self):
        disc = bv_norm(PatchSpec(kind="disc"))
        star = bv_norm(PatchSpec(kind="star", amplitude=0.15, base_mode=7))
        assert star > disc


class TestDensity:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown density kind"):
            DensitySpec(kind="ring")

    def test_width_validation(self):
        with pytest.raises(ValueError):
            DensitySpec(kind="gaussian", width=0.0)

    @pytest.mark.parametrize("kw, field", [
        ({"width": math.nan}, "width"), ({"amplitude": math.inf}, "amplitude"),
        ({"kind": "constant", "amplitude": math.nan}, "amplitude"), ({"center": (0.0, math.nan)}, "center"),
    ])
    def test_nonfinite_refused(self, kw, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            DensitySpec(**kw)

    def test_constant(self, grid64):
        f = make_density(DensitySpec(kind="constant", amplitude=0.3), grid64)
        assert np.array_equal(f.values, np.full((64, 64), 0.3))

    def test_gaussian_mass(self, grid256):
        a, w = 0.7, 0.8
        f = make_density(DensitySpec(kind="gaussian", amplitude=a, width=w), grid256)
        mass = f.values.sum() * grid256.dx**2
        assert mass == pytest.approx(2.0 * np.pi * a * w**2, rel=1e-8)

    def test_bump_compact_support(self, grid128):
        f = make_density(DensitySpec(kind="bump", amplitude=1.0, width=1.5), grid128)
        x1, x2 = grid128.mesh
        outside = np.hypot(x1, x2) >= 1.5
        assert np.array_equal(f.values[outside], np.zeros(outside.sum()))
        assert f.values[64, 64] == 1.0

    def test_margin_enforced(self, grid128):
        with pytest.raises(ValueError, match="margin"):
            make_density(DensitySpec(kind="gaussian", width=1.5), grid128)
        with pytest.raises(ValueError, match="margin"):
            make_density(DensitySpec(kind="bump", width=1.0, center=(5.5, 0.0)), grid128)


class TestLevelSet:
    def test_disc_sign_and_saturation(self, grid256):
        spec = PatchSpec(kind="disc", radius=1.0)
        f0, g1, g2, chi = level_set_data(spec, grid256)
        x1, x2 = grid256.mesh
        rr = np.hypot(x1, x2)
        tube = 0.2 * spec.radius
        assert np.all(np.abs(f0.values) <= tube + 1e-15)
        assert np.all(f0.values[rr < 0.9] < 0.0)
        assert np.all(f0.values[rr > 1.1] > 0.0)

    def test_disc_gradient_matches_spectral(self, grid256):
        f0, g1, g2, _ = level_set_data(PatchSpec(kind="disc", radius=1.0), grid256)
        assert np.abs(derivative(f0, 1).values - g1.values).max() < 1e-4
        assert np.abs(derivative(f0, 2).values - g2.values).max() < 1e-4

    def test_ellipse_gradient_matches_spectral(self, grid256):
        # the short semi-axis steepens the profile along axis 2, so that
        # component carries the larger sampling error
        f0, g1, g2, _ = level_set_data(PatchSpec(kind="ellipse", axes=(2.0, 1.0)), grid256)
        assert np.abs(derivative(f0, 1).values - g1.values).max() < 1e-10
        assert np.abs(derivative(f0, 2).values - g2.values).max() < 1e-4

    def test_cutoff_profile(self, grid256):
        spec = PatchSpec(kind="disc", radius=1.0)
        f0, _, _, chi = level_set_data(spec, grid256)
        x1, x2 = grid256.mesh
        rr = np.hypot(x1, x2)
        near = np.abs(rr - 1.0) < 0.05
        far = np.abs(rr - 1.0) > 0.5
        assert np.all(chi.values[near] == 1.0)
        # the saturating profile decays double-exponentially off the tube
        assert chi.values[far].max() < 1e-4
        assert chi.values[np.abs(rr - 1.0) > 0.8].max() < 1e-12
        assert chi.values.min() >= 0.0 and chi.values.max() <= 1.0

    def test_star_level_set_changes_sign(self, grid256):
        spec = PatchSpec(kind="star", amplitude=0.1, base_mode=5)
        f0, g1, g2, _ = level_set_data(spec, grid256)
        assert f0.values.min() < 0.0 < f0.values.max()
        # smoothed star gradient comes from the spectrum, so it is exact
        assert np.abs(derivative(f0, 1).values - g1.values).max() < 1e-12


class TestVectorFamily:
    def test_disc_family_well_posed(self, grid128):
        fam = initial_vector_family(PatchSpec(kind="disc", radius=1.0), grid128)
        assert len(fam.members) == 2
        assert fam.epsilon == 0.5

    def test_tangent_member_annihilates_level_set_algebraically(self, grid128):
        spec = PatchSpec(kind="disc", radius=1.0)
        f0, g1, g2, _ = level_set_data(spec, grid128)
        fam = initial_vector_family(spec, grid128)
        m0 = fam.members[0]
        dot = m0.u1.values * g1.values + m0.u2.values * g2.values
        assert np.array_equal(dot, np.zeros_like(dot))

    def test_complement_member_away_from_tube(self, grid128):
        fam = initial_vector_family(PatchSpec(kind="disc", radius=1.0), grid128)
        m1 = fam.members[1]
        # far from the boundary the complement is the plain first direction
        assert m1.u1.values[0, 0] == 1.0
        assert np.array_equal(m1.u2.values, np.zeros((128, 128)))

    def test_star_family_well_posed(self, grid256):
        fam = initial_vector_family(PatchSpec(kind="star", amplitude=0.1), grid256)
        assert len(fam.members) == 2


class TestBoundaryCurve:
    def test_disc_polygon_area_closed_form(self):
        m = 256
        c = boundary_curve(PatchSpec(kind="disc", radius=1.0), m=m)
        want = 0.5 * m * np.sin(2.0 * np.pi / m)
        assert c.enclosed_area == pytest.approx(want, rel=1e-13)

    def test_disc_tangent_magnitude(self):
        c = boundary_curve(PatchSpec(kind="disc", radius=1.5), m=128)
        mags = np.hypot(c.tangents[:, 0], c.tangents[:, 1])
        assert np.abs(mags - 1.5).max() < 1e-12

    def test_ellipse_area_converges(self):
        c = boundary_curve(PatchSpec(kind="ellipse", axes=(2.0, 1.0)), m=4096)
        assert c.enclosed_area == pytest.approx(2.0 * np.pi, rel=1e-5)

    def test_off_center_patch(self):
        c = boundary_curve(PatchSpec(kind="disc", radius=1.0, center=(2.0, -1.0)), m=512)
        assert c.points[:, 0].mean() == pytest.approx(2.0, abs=1e-12)
        assert c.points[:, 1].mean() == pytest.approx(-1.0, abs=1e-12)

    def test_validation(self):
        good = boundary_curve(PatchSpec(), m=32)
        with pytest.raises(ValueError, match="nonvanishing"):
            BoundaryCurve(good.params, good.points, np.zeros_like(good.tangents))
        with pytest.raises(ValueError, match="matching"):
            BoundaryCurve(good.params[:-1], good.points, good.tangents)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["params", "points", "tangents"])
    def test_nonfinite_arrays_refused(self, name, bad):
        # a NaN point would make the spacing ratio NaN, which passes the tracers' collapse check
        good = boundary_curve(PatchSpec(), m=32)
        arrays = {"params": good.params.copy(), "points": good.points.copy(), "tangents": good.tangents.copy()}
        arrays[name][3] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            BoundaryCurve(**arrays)
