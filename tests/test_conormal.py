"""Boundary-adapted machinery: family advection, directional derivatives,
adapted norms, and flow-map boundary tracing.

The quantitative oracles here are built on a steady shear: vorticity
sin(x2) in a period-pi box induces v = (cos(x2), 0), for which family
advection, passive transport, and tracer motion all have closed forms.
"""

from bisect import bisect_right
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strato.conormal
from strato.grid import (
    GridSpec,
    ScalarField,
    VelocityField,
    biot_savart,
    derivative,
    _eval_at,
    lp_norm,
    rfft2,
    sample_at,
)
from strato.littlewood_paley import BesovParams, besov_norm
from strato.initdata import (
    DensitySpec,
    PatchSpec,
    boundary_curve,
    initial_vector_family,
    make_density,
    rasterize_patch,
)
from strato.solver import SimParams, run
from strato.conormal import (
    BoundaryCurve,
    VectorFieldFamily,
    VelocityInterpolant,
    advect_legs,
    conormal_norm,
    directional_derivative,
    divergence,
    family_floor,
    holder_quotient,
    log_estimate_ratio,
)
from conftest import (
    FullSpectrum,
    dealias,
    keep_mask,
    random_field,
    sample_gaps,
    transport,
    transport_scalar,
    velocity_values,
)


def constant_field(grid, value):
    return ScalarField(grid, np.full((grid.n, grid.n), value))


def shear_field(grid, amplitude=1.0):
    """Vorticity amplitude sin(x2), whose velocity is the steady shear v = (amplitude cos(x2), 0)."""
    x1, x2 = grid.mesh
    return ScalarField(grid, amplitude * np.sin(x2) + 0.0 * x1)


def shear_gaps(grid, t_final=0.5):
    """The steady shear across one gap [0, t_final], as the band of sin(x2) at both ends."""
    band = grid._kernel.cut(shear_field(grid).half_spectrum)
    return [VelocityInterpolant(grid, (0.0, t_final), (band, band))]


def unit_family(grid):
    return VectorFieldFamily(members=(VelocityField(constant_field(grid, 0.0), constant_field(grid, 1.0)),))


def legs(omega0, checkpoints, dt, family=None, curve=None):
    """(t, family, curve) at each checkpoint of ``advect_legs`` along the mu = 0 march of omega0 with zero
    density, one RK4 step of dt per march gap.  The family defaults to the unit field (0, 1), the curve to
    16 tracers on the unit circle."""
    g = omega0.grid
    family = unit_family(g) if family is None else family
    curve = BoundaryCurve(*circle_tracers(16)) if curve is None else curve
    params = SimParams(mu=0.0, dt=dt, t_final=max(checkpoints))
    return [(t, fam, crv) for t, _, fam, crv, _ in
            advect_legs(omega0, constant_field(g, 0.0), params, checkpoints, family, curve)]


def shear_legs(grid, dt, t_final=0.5, amplitude=1.0, family=None, curve=None):
    """The family and curve that ``legs`` moves along the march of the shear to t_final."""
    ((_, family, curve),) = legs(shear_field(grid, amplitude), [t_final], dt, family, curve)
    return family, curve


def circle_tracers(m):
    th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    tan = np.stack([-np.sin(th), np.cos(th)], axis=1)
    return th, pts, tan


@pytest.fixture(scope="module")
def pi_grid():
    return GridSpec(n=64, half_length=np.pi)


@pytest.fixture(scope="module")
def dd_fields(grid128):
    u = random_field(grid128, 11, band=8.0)
    w = random_field(grid128, 12, band=8.0)
    x = VelocityField(random_field(grid128, 13, band=8.0), random_field(grid128, 14, band=8.0))
    y = VelocityField(random_field(grid128, 15, band=8.0), random_field(grid128, 16, band=8.0))
    return u, w, x, y


@pytest.fixture(scope="module")
def patch_env():
    """Disc patch run to t = 1 (samples at 0, 0.5 and 1) with family, tracers, and their images moved across
    the two sample gaps in steps of 0.02."""
    grid = GridSpec(n=128, half_length=8.0)
    spec = PatchSpec(kind="disc", center=(0.0, 0.0), radius=1.0)
    omega0 = rasterize_patch(spec, grid)
    rho0 = make_density(DensitySpec(kind="gaussian", amplitude=0.1, width=1.0, center=(0.0, 0.5)), grid)
    result = run(omega0, rho0, SimParams(mu=1.0e-3, dt=0.02, t_final=1.0), sample_times=[0.0, 0.5, 1.0])
    gaps = sample_gaps(result.omega)
    family0 = initial_vector_family(spec, grid)
    curve0 = boundary_curve(spec, m=256)
    familyT, curveT = transport(family0, curve0, gaps, dt=0.02)
    return {
        "grid": grid,
        "result": result,
        "gaps": gaps,
        "family0": family0,
        "familyT": familyT,
        "curve0": curve0,
        "curveT": curveT,
    }


class TestFamily:
    def test_floor_of_constant_members(self, grid64):
        big = VelocityField(constant_field(grid64, 3.0), constant_field(grid64, 4.0))
        small = VelocityField(constant_field(grid64, 0.0), constant_field(grid64, 1.0))
        fam = VectorFieldFamily(members=(big, small))
        assert family_floor(fam) == 5.0

    def test_floor_takes_best_member_pointwise(self, grid64):
        x1, x2 = grid64.mesh
        left = ScalarField(grid64, np.where(x1 + 0.0 * x2 < 0.0, 1.0, 0.0))
        right = ScalarField(grid64, np.where(x1 + 0.0 * x2 < 0.0, 0.0, 1.0))
        zero = constant_field(grid64, 0.0)
        fam = VectorFieldFamily(members=(VelocityField(left, zero), VelocityField(right, zero)))
        assert family_floor(fam) == 1.0
        assert family_floor(VectorFieldFamily(members=(VelocityField(left, zero),))) == 0.0

    def test_needs_a_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            VectorFieldFamily(members=())

    def test_members_share_grid(self, grid64, grid128):
        a = VelocityField(constant_field(grid64, 1.0), constant_field(grid64, 0.0))
        b = VelocityField(constant_field(grid128, 1.0), constant_field(grid128, 0.0))
        with pytest.raises(ValueError, match="share a grid"):
            VectorFieldFamily(members=(a, b))

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_epsilon_range(self, grid64, eps):
        m = VelocityField(constant_field(grid64, 1.0), constant_field(grid64, 0.0))
        with pytest.raises(ValueError, match="epsilon"):
            VectorFieldFamily(members=(m,), epsilon=eps)


class TestDirectionalDerivative:
    def test_matches_advective_form_for_smooth_fields(self, dd_fields):
        u, _, x, _ = dd_fields
        g = u.grid
        got = directional_derivative(u, x)
        want = x.u1.values * derivative(u, 1).values + x.u2.values * derivative(u, 2).values
        want = FullSpectrum(g).dealias(want)
        scale = np.abs(want).max()
        assert np.abs(got.values - want).max() <= 1e-12 * scale

    @settings(max_examples=15, deadline=None)
    @given(
        a=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        b=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    def test_linear_in_u(self, dd_fields, a, b):
        u, w, x, _ = dd_fields
        g = u.grid
        combo = ScalarField(g, a * u.values + b * w.values)
        lhs = directional_derivative(combo, x).values
        rhs = a * directional_derivative(u, x).values + b * directional_derivative(w, x).values
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + abs(a) + abs(b))

    @settings(max_examples=15, deadline=None)
    @given(
        a=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        b=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    def test_linear_in_x(self, dd_fields, a, b):
        u, _, x, y = dd_fields
        g = u.grid
        combo = VelocityField(
            ScalarField(g, a * x.u1.values + b * y.u1.values),
            ScalarField(g, a * x.u2.values + b * y.u2.values),
        )
        lhs = directional_derivative(u, combo).values
        rhs = a * directional_derivative(u, x).values + b * directional_derivative(u, y).values
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + abs(a) + abs(b))

    def test_constant_u_gives_zero(self, dd_fields):
        _, _, x, _ = dd_fields
        one = constant_field(x.grid, 1.0)
        assert np.abs(directional_derivative(one, x).values).max() <= 1e-12

    def test_constant_e1_reduces_to_d1(self, dd_fields):
        u, _, _, _ = dd_fields
        g = u.grid
        e1 = VelocityField(constant_field(g, 1.0), constant_field(g, 0.0))
        got = directional_derivative(u, e1)
        assert np.abs(got.values - derivative(u, 1).values).max() <= 1e-12

    def test_grid_mismatch_rejected(self, grid64, grid128):
        u = random_field(grid64, 3, band=2.0)
        x = VelocityField(constant_field(grid128, 1.0), constant_field(grid128, 0.0))
        with pytest.raises(ValueError, match="different grids"):
            directional_derivative(u, x)


class TestConormalNorm:
    def test_constant_frame_identity(self, dd_fields):
        u, _, _, _ = dd_fields
        g = u.grid
        ref = FullSpectrum(g)
        e1 = VelocityField(constant_field(g, 1.0), constant_field(g, 0.0))
        e2 = VelocityField(constant_field(g, 0.0), constant_field(g, 1.0))
        frame = VectorFieldFamily(members=(e1, e2), epsilon=0.5)
        got = conormal_norm(u, frame)
        prm = BesovParams(s=-0.5)
        grads = []
        for axis in (1, 2):
            masked = ScalarField(g, ref.dealias(derivative(u, axis).values))
            grads.append(besov_norm(masked, prm))
        want = lp_norm(u, np.inf) + max(grads)
        assert abs(got - want) <= 1e-12 * want

    def test_unit_constant_against_unit_frame(self, grid64):
        one = constant_field(grid64, 1.0)
        e1 = VelocityField(one, constant_field(grid64, 0.0))
        frame = VectorFieldFamily(members=(e1,), epsilon=0.5)
        assert abs(conormal_norm(one, frame) - 1.0) <= 1e-12

    def test_homogeneous_in_u(self, dd_fields):
        u, _, x, _ = dd_fields
        fam = VectorFieldFamily(members=(x,), epsilon=0.5)
        base = conormal_norm(u, fam)
        doubled = conormal_norm(ScalarField(u.grid, 2.0 * u.values), fam)
        assert abs(doubled - 2.0 * base) <= 1e-12 * base

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_invariant_under_family_scaling(self, dd_fields, c):
        u, _, x, _ = dd_fields
        g = u.grid
        fam = VectorFieldFamily(members=(x,), epsilon=0.5)
        scaled = VectorFieldFamily(
            members=(VelocityField(ScalarField(g, c * x.u1.values), ScalarField(g, c * x.u2.values)),),
            epsilon=0.5,
        )
        base = conormal_norm(u, fam)
        assert abs(conormal_norm(u, scaled) - base) <= 1e-10 * base

    def test_one_divergence_per_member(self, patch_env, monkeypatch):
        # each member's divergence serves both its Hoelder term and its directional derivative, and the
        # norm is bit for bit the one built from the public directional_derivative
        u, fam = patch_env["result"].omega.fields[-1], patch_env["familyT"]
        eps = fam.epsilon
        fam_reg = dir_reg = 0.0
        for x in fam.members:
            holder = max(besov_norm(x.u1, BesovParams(s=eps)), besov_norm(x.u2, BesovParams(s=eps)))
            fam_reg = max(fam_reg, holder + besov_norm(divergence(x), BesovParams(s=eps)))
            dir_reg = max(dir_reg, besov_norm(directional_derivative(u, x), BesovParams(s=eps - 1.0)))
        want = (lp_norm(u, np.inf) * fam_reg + dir_reg) / family_floor(fam)
        calls = []
        monkeypatch.setattr(strato.conormal, "divergence", lambda x: calls.append(x) or divergence(x))
        assert conormal_norm(u, fam) == want
        assert calls == list(fam.members)

    def test_degenerate_family_rejected(self, grid64):
        zero = constant_field(grid64, 0.0)
        fam = VectorFieldFamily(members=(VelocityField(zero, zero),))
        with pytest.raises(ValueError, match="degenerate"):
            conormal_norm(random_field(grid64, 5, band=2.0), fam)


class TestVelocityInterpolant:
    def test_single_snapshot_matches_direct_inversion(self, pi_grid):
        g = pi_grid
        x1, x2 = g.mesh
        om = ScalarField(g, np.sin(x1) * np.cos(2.0 * x2))
        band = g._kernel.cut(om.half_spectrum)
        it = VelocityInterpolant(g, (0.0, 1.0), (band, band))
        v1, v2 = velocity_values(it, 0.7)
        vb = biot_savart(om)
        assert np.abs(v1 - vb.u1.values).max() <= 1e-14
        assert np.abs(v2 - vb.u2.values).max() <= 1e-14

    def test_linear_interpolation_and_clamping(self, pi_grid):
        kern = pi_grid._kernel
        a = kern.cut(random_field(pi_grid, 7, band=4.0).half_spectrum)
        b = kern.cut(random_field(pi_grid, 8, band=4.0).half_spectrum)
        it = VelocityInterpolant(pi_grid, (1.0, 3.0), (a, b))
        mid = it.omega_spectrum(2.0)
        assert np.abs(mid - 0.5 * (a + b)).max() <= 1e-13
        assert np.array_equal(it.omega_spectrum(0.0), a)
        assert np.array_equal(it.omega_spectrum(5.0), b)
        assert tuple(it.times) == (1.0, 3.0)

    def test_blend_is_bitwise_the_bisected_blend(self, march_gaps):
        # the two-band blend against the blend over many samples that it replaced, at every stage time of
        # the march's gaps, on their ends, and beyond them
        _, _, gaps = march_gaps
        for it in gaps:
            t0, t1 = it.times
            for t in (t0 - 1.0, t0, np.nextafter(t0, t1), 0.5 * (t0 + t1), t0 + 0.5 * (t1 - t0), 0.3 * t0 + 0.7 * t1,
                      np.nextafter(t1, t0), t1, t1 + 1.0):
                assert np.array_equal(it.omega_spectrum(t), bisected_blend(it.times, it.spectra, t))

    def test_shear_velocity_closed_form(self, pi_grid):
        x1, x2 = pi_grid.mesh
        (it,) = shear_gaps(pi_grid)
        v1, v2 = velocity_values(it, 0.25)
        assert np.abs(v1 - (np.cos(x2) + 0.0 * x1)).max() <= 1e-13
        assert np.abs(v2).max() <= 1e-13

    def test_sample_count_other_than_two_rejected(self, pi_grid):
        h = pi_grid._kernel.cut(random_field(pi_grid, 7, band=4.0).half_spectrum)
        for times, spectra in (([], []), ([0.0], [h]), ([0.0, 1.0], [h]), ([0.0], [h, h]),
                               ([0.0, 1.0, 2.0], [h, h, h])):
            with pytest.raises(ValueError, match="need two samples"):
                VelocityInterpolant(pi_grid, times, spectra)


def bisected_blend(ts, spectra, t):
    """The linear blend of sampled spectra at t, clamped to their span, over any number of samples."""
    if t <= ts[0]:
        return spectra[0]
    if t >= ts[-1]:
        return spectra[-1]
    j = bisect_right(ts, t)
    w = (t - ts[j - 1]) / (ts[j] - ts[j - 1])
    return (1.0 - w) * spectra[j - 1] + w * spectra[j]


class TestShearAdvection:
    def test_family_closed_form(self, pi_grid):
        g = pi_grid
        x1, x2 = g.mesh
        out, _ = shear_legs(g, dt=0.01, family=unit_family(g))
        m = out.members[0]
        assert np.abs(m.u1.values - (-0.5 * np.sin(x2) + 0.0 * x1)).max() <= 1e-12
        assert np.abs(m.u2.values - 1.0).max() <= 1e-12

    def test_shear_field_invariant_under_own_flow(self, pi_grid):
        g = pi_grid
        x1, x2 = g.mesh
        v1 = ScalarField(g, np.cos(x2) + 0.0 * x1)
        fam = VectorFieldFamily(members=(VelocityField(v1, constant_field(g, 0.0)),))
        out, _ = shear_legs(g, dt=0.05, family=fam)
        assert np.array_equal(out.members[0].u1.values, v1.values)
        assert np.array_equal(out.members[0].u2.values, fam.members[0].u2.values)

    def test_scalar_transport_closed_form(self, pi_grid):
        g = pi_grid
        x1, x2 = g.mesh
        f0 = ScalarField(g, np.sin(x1) + 0.0 * x2)
        out = transport_scalar(f0, shear_gaps(g), dt=0.01)
        assert np.abs(out.values - np.sin(x1 - 0.5 * np.cos(x2))).max() <= 1e-9

    def test_divergence_is_purely_transported(self, pi_grid):
        x = VelocityField(random_field(pi_grid, 31, band=6.0), random_field(pi_grid, 32, band=6.0))
        fam = VectorFieldFamily(members=(x,))
        out, _ = shear_legs(pi_grid, dt=0.01, t_final=1.0, family=fam)
        d0 = divergence(x)
        moved = transport_scalar(d0, shear_gaps(pi_grid, t_final=1.0), dt=0.01)
        num = lp_norm(ScalarField(pi_grid, divergence(out.members[0]).values - moved.values), 2.0)
        assert num <= 1e-9 * lp_norm(d0, 2.0)

    def test_zero_velocity_fixes_family_and_scalar(self, pi_grid):
        g = pi_grid
        zero = constant_field(g, 0.0)
        f = random_field(g, 9, band=4.0)
        fam = VectorFieldFamily(members=(VelocityField(f, zero),))
        ((_, out, _),) = legs(zero, [1.0], 0.25, family=fam)
        assert np.array_equal(out.members[0].u1.values, f.values)
        band = g._kernel.cut(zero.half_spectrum)
        still = [VelocityInterpolant(g, (0.0, 1.0), (band, band))]
        assert np.array_equal(transport_scalar(f, still, dt=0.25).values, f.values)

    def test_zero_span_returns_family_unchanged(self, pi_grid):
        g = pi_grid
        fam = VectorFieldFamily(
            members=(VelocityField(constant_field(g, 1.0), constant_field(g, 0.0)),)
        )
        (t, out, _), _ = legs(random_field(g, 10, band=4.0), [0.0, 0.1], 0.1, family=fam)
        assert t == 0.0
        assert np.array_equal(out.members[0].u1.values, fam.members[0].u1.values)
        assert np.array_equal(out.members[0].u2.values, fam.members[0].u2.values)

    @pytest.mark.parametrize("checkpoints, steps", [
        ([0.04], 4),  # uniform leg: four steps of 0.01
        ([0.035], 4),  # remainder leg: three steps of 0.01, then one of 0.005
        ([0.002, 0.022], 3),  # short first gap: a step to 0.002, then two of 0.01
    ])
    def test_velocity_once_per_stage_time(self, pi_grid, monkeypatch, checkpoints, steps):
        # stages 2 and 3 share the midpoint's velocity, and a step's end velocity starts the next step
        calls = []
        velocity = strato.conormal._velocity_and_gradient
        monkeypatch.setattr(strato.conormal, "_velocity_and_gradient",
                            lambda interp, t: calls.append(t) or velocity(interp, t))
        legs(shear_field(pi_grid), checkpoints, 0.01)
        assert len(calls) == 2 * steps + 1
        assert len(set(calls)) == len(calls)

    def test_rk4_bit_identical_to_four_velocity_steps(self, pi_grid):
        # a march of three steps of 0.01 and a remainder step of 0.005, against textbook RK4 over its bands
        om, rho = random_field(pi_grid, 41, band=4.0), random_field(pi_grid, 42, band=4.0)
        params = SimParams(mu=1.0e-3, dt=0.01, t_final=0.035)
        gaps = sample_gaps(run(om, rho, params, sample_times=[0.0, 0.035], record_every_step=True).omega)
        x = VelocityField(random_field(pi_grid, 46, band=6.0), random_field(pi_grid, 47, band=6.0))
        rhs = partial(strato.conormal._advect_stretch_rhs, grid=pi_grid)
        want = list(reference_rk4([x.u1.values, x.u2.values], rhs, gaps))
        assert len(want) == 4 and want[-1][0] == 0.035
        ((_, _, fam, _, _),) = advect_legs(om, rho, params, [0.035], VectorFieldFamily(members=(x,)),
                                           BoundaryCurve(*circle_tracers(16)))
        got = fam.members[0]
        assert np.array_equal(got.u1.values, want[-1][1][0])
        assert np.array_equal(got.u2.values, want[-1][1][1])

    def test_family_grid_must_match_trajectory(self, pi_grid, grid64):
        fam = VectorFieldFamily(
            members=(VelocityField(constant_field(grid64, 1.0), constant_field(grid64, 0.0)),)
        )
        with pytest.raises(ValueError, match="grids differ"):
            shear_legs(pi_grid, dt=0.1, family=fam)


def reference_rk4(state, rhs, gaps):
    """Textbook RK4 summed as k1 + 2 (k2 + k3) + k4, one step per gap, with no velocity reused: velocity at
    a, the midpoint and b of every step."""
    for interp in gaps:
        velocity = partial(strato.conormal._velocity_and_gradient, interp)
        a, b = interp.times
        h = b - a
        k1 = rhs(state, velocity(a))
        vel = velocity(0.5 * (a + b))
        k2 = rhs([c + 0.5 * h * k for c, k in zip(state, k1)], vel)
        k3 = rhs([c + 0.5 * h * k for c, k in zip(state, k2)], vel)
        k4 = rhs([c + h * k for c, k in zip(state, k3)], velocity(b))
        state = [c + h / 6.0 * (a1 + 2.0 * (a2 + a3) + a4) for c, a1, a2, a3, a4 in zip(state, k1, k2, k3, k4)]
        yield float(b), state


def advective_stretch_rhs(comps, vel, grid):
    """The family RHS in advective form: spectral derivatives of X, products, then the 2/3 rule."""
    v1, v2, (d1v1, d2v1, d1v2, d2v2) = vel
    kern = grid._kernel
    out = []
    for i in range(0, len(comps), 2):
        x1, x2 = comps[i], comps[i + 1]
        s1, s2 = np.fft.rfft2(x1), np.fft.rfft2(x2)
        d1x1, d2x1 = kern.inverse(kern.ik1 * s1), kern.inverse(kern.ik2 * s1)
        d1x2, d2x2 = kern.inverse(kern.ik1 * s2), kern.inverse(kern.ik2 * s2)
        out.append(dealias(kern, -(v1 * d1x1 + v2 * d2x1) + (x1 * d1v1 + x2 * d2v1)))
        out.append(dealias(kern, -(v1 * d1x2 + v2 * d2x2) + (x1 * d1v2 + x2 * d2v2)))
    return out


class TestFluxFormRhs:
    def test_matches_advective_form_for_band_limited_fields(self, grid64):
        # family bands up to index 20 <= n/3 and velocity up to 10: no product reaches n/2, so
        # the discrete Leibniz rule is exact and div v = 0 makes the two forms agree
        unit = np.pi / grid64.half_length
        comps = [random_field(grid64, s, band=20 * unit).values for s in (51, 52, 53, 54)]
        band = grid64._kernel.cut(random_field(grid64, 55, band=10 * unit).half_spectrum)
        interp = VelocityInterpolant(grid64, (0.0, 1.0), (band, band))
        vel = strato.conormal._velocity_and_gradient(interp, 0.0)
        got = strato.conormal._advect_stretch_rhs(comps, vel, grid64)
        want = advective_stretch_rhs(comps, vel, grid64)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_family_moves_as_with_advective_rhs(self, pi_grid, monkeypatch):
        x = VelocityField(random_field(pi_grid, 31, band=6.0), random_field(pi_grid, 32, band=6.0))
        flux = shear_legs(pi_grid, dt=0.01, t_final=0.3, family=VectorFieldFamily(members=(x,)))[0].members[0]
        monkeypatch.setattr(strato.conormal, "_advect_stretch_rhs", advective_stretch_rhs)
        ref = shear_legs(pi_grid, dt=0.01, t_final=0.3, family=VectorFieldFamily(members=(x,)))[0].members[0]
        for a, b in ((flux.u1, ref.u1), (flux.u2, ref.u2)):
            assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()


def full_spectrum_stretch_rhs(comps, vel, grid):
    """The flux-form family RHS on the full half spectrum, cut to the 2/3 band by the mask."""
    v1, v2, (d1v1, d2v1, d1v2, d2v2) = vel
    kern = grid._kernel
    out = []
    for i in range(0, len(comps), 2):
        x1, x2 = comps[i], comps[i + 1]
        for x, g1, g2 in ((x1, d1v1, d2v1), (x2, d1v2, d2v2)):
            r = rfft2(x1 * g1 + x2 * g2)
            r -= kern.ik1 * rfft2(v1 * x)
            r -= kern.ik2 * rfft2(v2 * x)
            r *= keep_mask(grid.n)
            out.append(kern.inverse(r))
    return out


def full_spectrum_velocity(interp, t):
    """Velocity and gradient at t from whole half spectra."""
    h = interp.kern.spread(interp.omega_spectrum(t))
    return (*interp.kern.velocity(h), tuple(interp.kern.gradient(h)))


@pytest.fixture(scope="module")
def march_gaps():
    """A star patch's march at n = 64 (steps of 0.02 to t = 0.06) as advect_legs' first arguments, its family,
    and its three gaps as band interpolants."""
    grid = GridSpec(n=64, half_length=4.0)
    spec = PatchSpec(kind="star", center=(0.0, 0.0), radius=1.0, amplitude=0.1, base_mode=5, octaves=1, epsilon=0.5)
    rho0 = make_density(DensitySpec(kind="gaussian", amplitude=0.1, width=0.5, center=(0.0, 0.2)), grid)
    march_args = (rasterize_patch(spec, grid), rho0, SimParams(mu=1.0e-3, dt=0.02, t_final=0.06))
    gaps = sample_gaps(run(*march_args, sample_times=[0.0, 0.06], record_every_step=True).omega)
    return march_args, initial_vector_family(spec, grid), gaps


class TestBandFamilyStep:
    """The family step on the 2/3 band against the full-spectrum formulas, bit for bit."""

    def test_bit_identical_to_full_spectrum(self, march_gaps, monkeypatch):
        march_args, family, gaps = march_gaps
        grid = family.grid
        comps = [c.values for m in family.members for c in (m.u1, m.u2)]
        assert len(gaps) == 3
        for interp in gaps:
            t0, t1 = interp.times
            for t in (t0, 0.3 * t0 + 0.7 * t1, t1):
                assert interp.omega_spectrum(t).shape == (2 * (grid.n // 3) + 1, grid.n // 3 + 1)
                got, want = strato.conormal._velocity_and_gradient(interp, t), full_spectrum_velocity(interp, t)
                for a, b in zip((*got[:2], *got[2]), (*want[:2], *want[2])):
                    assert np.array_equal(a, b)
                band_rhs = strato.conormal._advect_stretch_rhs(comps, got, grid)
                for a, b in zip(band_rhs, full_spectrum_stretch_rhs(comps, want, grid)):
                    assert np.array_equal(a, b)
        curve = BoundaryCurve(*circle_tracers(16))
        ((_, _, moved, _, _),) = advect_legs(*march_args, [0.06], family, curve)
        monkeypatch.setattr(strato.conormal, "_velocity_and_gradient", full_spectrum_velocity)
        monkeypatch.setattr(strato.conormal, "_advect_stretch_rhs", full_spectrum_stretch_rhs)
        ((_, _, ref, _, _),) = advect_legs(*march_args, [0.06], family, curve)
        for a, b in zip(moved.members, ref.members):
            assert np.array_equal(a.u1.values, b.u1.values) and np.array_equal(a.u2.values, b.u2.values)


class TestTracerEvaluator:
    @pytest.mark.parametrize("m", [256, 600])  # one phase-basis contraction, then two chunks
    def test_matches_six_spectrum_evaluation(self, grid256, m):
        ref = FullSpectrum(grid256)
        pts = np.random.default_rng(m).uniform(-8.0, 8.0, (m, 2))
        for seed in range(0, 6, 2):
            w = random_field(grid256, 60 + seed, band=6.0)
            v1, v2 = ref.velocity(w.values)
            six = [v1, v2, *(ref.derivative(v, axis) for v in (v1, v2) for axis in (1, 2))]
            got = strato.conormal._gradient_at(grid256._kernel.cut(w.half_spectrum), grid256, pts)
            for a, v in zip(got, six):
                b = ref.sample(v, pts)
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("m", [1, 512, 513, 1500])
    def test_no_phase_basis_exceeds_512_points(self, grid256, monkeypatch, m):
        h = grid256._kernel.cut(random_field(grid256, 71).half_spectrum)  # as a march state
        pts = np.random.default_rng(m).uniform(-8.0, 8.0, (m, 2))
        calls = []
        basis = strato.conormal._phase_basis
        monkeypatch.setattr(strato.conormal, "_phase_basis", lambda *a: calls.append(a) or basis(*a))
        got = strato.conormal._gradient_at(h, grid256, pts)
        assert [len(c[1]) for c in calls] == [min(512, m - i) for i in range(0, m, 512)]
        assert {c[2] for c in calls} == {grid256.n // 3}
        assert all(len(a) == m for a in got)

    def test_band_and_full_sums_match_eval_at(self, grid256, monkeypatch):
        kern = grid256._kernel
        pts = np.random.default_rng(7).uniform(-8.0, 8.0, (300, 2))
        h = random_field(grid256, 70).half_spectrum * keep_mask(grid256.n)  # as a march sample
        bands = []
        basis = strato.conormal._phase_basis
        monkeypatch.setattr(strato.conormal, "_phase_basis", lambda *a: bands.append(a[2]) or basis(*a))
        six = [kern.v1 * h, kern.v2 * h]
        six += [ik * s for s in six for ik in (kern.ik1, kern.ik2)]
        want = _eval_at(six, grid256, pts)
        got = strato.conormal._gradient_at(kern.cut(h), grid256, pts)
        assert bands == [grid256.n // 3]
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestBoundaryAdvection:
    def test_tracer_closed_form_spectral_branch(self, pi_grid):
        th, pts, tan = circle_tracers(256)
        _, out = shear_legs(pi_grid, dt=0.01, curve=BoundaryCurve(th, pts, tan))
        t = 0.5
        want_p = np.stack([np.cos(th) + t * np.cos(np.sin(th)), np.sin(th)], axis=1)
        want_t = np.stack([-np.sin(th) - t * np.cos(th) * np.sin(np.sin(th)), np.cos(th)], axis=1)
        assert out.time == t
        assert np.array_equal(out.params, th)
        assert np.abs(out.points - want_p).max() <= 1e-12
        assert np.abs(out.tangents - want_t).max() <= 1e-12

    def test_tracer_closed_form_in_chunks(self, pi_grid):
        th, pts, tan = circle_tracers(1024)  # two chunks of 512 points per evaluation
        _, out = shear_legs(pi_grid, dt=0.02, curve=BoundaryCurve(th, pts, tan))
        t = 0.5
        want_p = np.stack([np.cos(th) + t * np.cos(np.sin(th)), np.sin(th)], axis=1)
        want_t = np.stack([-np.sin(th) - t * np.cos(th) * np.sin(np.sin(th)), np.cos(th)], axis=1)
        assert np.abs(out.points - want_p).max() <= 1e-12
        assert np.abs(out.tangents - want_t).max() <= 1e-12

    def test_shear_preserves_polygon_area(self, pi_grid):
        th, pts, tan = circle_tracers(256)
        ref = BoundaryCurve(th, pts, tan)
        _, out = shear_legs(pi_grid, dt=0.01, curve=ref)
        assert abs(out.enclosed_area - ref.enclosed_area) <= 1e-10 * ref.enclosed_area

    def test_spacing_ratio_matches_closed_form(self, pi_grid):
        th, pts, tan = circle_tracers(256)
        _, out = shear_legs(pi_grid, dt=0.01, curve=BoundaryCurve(th, pts, tan))
        want_p = np.stack([np.cos(th) + 0.5 * np.cos(np.sin(th)), np.sin(th)], axis=1)
        ref = BoundaryCurve(th, want_p, tan, time=0.5)
        assert abs(out.spacing_ratio - ref.spacing_ratio) <= 1e-6
        assert out.spacing_ratio < 4.0

    def test_uniform_circle_properties(self):
        m = 128
        th, pts, tan = circle_tracers(m)
        fb = BoundaryCurve(th, pts, tan)
        assert abs(fb.enclosed_area - 0.5 * m * np.sin(2.0 * np.pi / m)) <= 1e-13 * np.pi
        assert abs(fb.spacing_ratio - 1.0) <= 1e-12

    def test_tracer_step_refuses_nonfinite_tracers(self, pi_grid):
        # a NaN velocity makes NaN tracers, whose spacing ratio is NaN and passes the collapse check
        band = pi_grid._kernel.cut(shear_field(pi_grid).half_spectrum)
        band[1, 1] = np.nan
        interp = VelocityInterpolant(pi_grid, (0.0, 0.1), (band, band))
        th, pts, tan = circle_tracers(16)
        with pytest.raises(ValueError, match="^points must be finite$"):
            strato.conormal._tracer_step(th, [pts, tan], interp, interp.times)

    def test_zero_velocity_fixes_tracers(self, pi_grid):
        th, pts, tan = circle_tracers(64)
        ((_, _, out),) = legs(constant_field(pi_grid, 0.0), [1.0], 0.25, curve=BoundaryCurve(th, pts, tan))
        assert np.array_equal(out.points, pts)
        assert np.array_equal(out.tangents, tan)

    def test_zero_span_returns_tracers_unchanged(self, pi_grid):
        th, pts, tan = circle_tracers(64)
        (t, _, out), _ = legs(random_field(pi_grid, 10, band=4.0), [0.0, 0.1], 0.1, curve=BoundaryCurve(th, pts, tan))
        assert t == 0.0 and out.time == 0.0
        assert np.array_equal(out.points, pts)

    def test_strong_shear_triggers_spacing_collapse(self, pi_grid):
        with pytest.raises(ValueError, match="collapsed"):
            shear_legs(pi_grid, dt=0.01, t_final=1.0, amplitude=10.0, curve=BoundaryCurve(*circle_tracers(64)))


class TestHolderQuotient:
    def test_unit_tangents_closed_form(self):
        m = 64
        th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        tan = np.stack([np.cos(th), np.sin(th)], axis=1)
        ks = np.arange(1, m)
        gaps = np.minimum(2.0 * np.pi * ks / m, 2.0 * np.pi * (m - ks) / m)
        chords = 2.0 * np.abs(np.sin(np.pi * ks / m))
        for eps in (0.25, 0.5, 1.0):
            want = np.max(chords / gaps**eps)
            assert abs(holder_quotient(th, tan, eps) - want) <= 1e-12

    @pytest.mark.parametrize("params", [[0.5], [0.5, 0.5], [0.0, 2.0 * np.pi], []])
    def test_needs_two_distinct_parameters(self, params):
        tan = np.ones((len(params), 2))
        with pytest.raises(ValueError, match="at least two distinct parameters"):
            holder_quotient(np.array(params), tan, 0.5)


class TestPatchTrajectory:
    def test_floor_envelope(self, patch_env):
        f0 = family_floor(patch_env["family0"])
        fT = family_floor(patch_env["familyT"])
        v_int = patch_env["result"].diagnostics.gradv_sup_integral[-1]
        assert 0.3 < f0 < 0.5
        assert fT >= 0.9 * f0 * np.exp(-v_int)

    def test_divergence_transport_along_run(self, patch_env):
        g = patch_env["grid"]
        x = VelocityField(random_field(g, 21, band=4.0), random_field(g, 22, band=4.0))
        fam = VectorFieldFamily(members=(x,))
        out, _ = transport(fam, patch_env["curve0"], patch_env["gaps"], dt=0.02)
        d0 = divergence(x)
        moved = transport_scalar(d0, patch_env["gaps"], dt=0.02)
        num = lp_norm(ScalarField(g, divergence(out.members[0]).values - moved.values), 2.0)
        assert num <= 1e-9 * lp_norm(d0, 2.0)

    def test_boundary_area_conserved(self, patch_env):
        a0 = patch_env["curve0"].enclosed_area
        aT = patch_env["curveT"].enclosed_area
        assert abs(aT - a0) <= 1e-6 * a0

    def test_tracer_spacing_stays_healthy(self, patch_env):
        assert patch_env["curveT"].spacing_ratio < 4.0

    def test_holder_quotient_growth_bounded(self, patch_env):
        c0, cT = patch_env["curve0"], patch_env["curveT"]
        q0 = holder_quotient(c0.params, c0.tangents, 0.5)
        qT = holder_quotient(cT.params, cT.tangents, 0.5)
        assert qT <= 10.0 * q0

    def test_family_stays_tangent_to_advected_boundary(self, patch_env):
        def misalignment(member, curve):
            x1 = sample_at(member.u1, curve.points)
            x2 = sample_at(member.u2, curve.points)
            cross = np.abs(x1 * curve.tangents[:, 1] - x2 * curve.tangents[:, 0])
            scale = np.hypot(x1, x2) * np.hypot(curve.tangents[:, 0], curve.tangents[:, 1])
            return np.max(cross / scale)

        r0 = misalignment(patch_env["family0"].members[0], patch_env["curve0"])
        rT = misalignment(patch_env["familyT"].members[0], patch_env["curveT"])
        assert r0 <= 1e-2
        assert rT <= 10.0 * r0

    def test_adapted_norm_finite_along_run(self, patch_env):
        g = patch_env["grid"]
        res = patch_env["result"]
        families = [
            patch_env["family0"],
            transport(patch_env["family0"], patch_env["curve0"], patch_env["gaps"][:1], dt=0.02)[0],
            patch_env["familyT"],
        ]
        norms = []
        for field, fam in zip(res.omega.fields, families):
            n = conormal_norm(field, fam)
            assert np.isfinite(n) and n > 1.0
            norms.append(n)
        assert 0.5 < norms[2] / norms[0] < 3.0

    def test_log_estimate_ratio_diagnostic(self, patch_env):
        om0 = patch_env["result"].omega.fields[0]
        fam0 = patch_env["family0"]
        r = log_estimate_ratio(om0, fam0)
        assert 0.02 < r < 1.0
        assert log_estimate_ratio(om0, fam0) == r
        doubled = ScalarField(om0.grid, 2.0 * om0.values)
        r2 = log_estimate_ratio(doubled, fam0)
        assert np.isfinite(r2) and r2 > 0.0

    def test_zero_vorticity_ratio_rejected(self, patch_env):
        g = patch_env["grid"]
        with pytest.raises(ValueError, match="vanishes"):
            log_estimate_ratio(constant_field(g, 0.0), patch_env["family0"])


class TestRefinementContrast:
    def test_raster_disc_plain_derivative_diverges_tangential_does_not(self):
        spec = PatchSpec(kind="disc", center=(0.0, 0.0), radius=1.0)
        prm = BesovParams(s=-0.5)
        plain, tangential, holder = [], [], []
        for n in (256, 512, 1024):
            g = GridSpec(n=n, half_length=8.0)
            ind = rasterize_patch(spec, g)
            fam = initial_vector_family(spec, g)
            plain.append(besov_norm(derivative(ind, 1), prm))
            tangential.append(besov_norm(directional_derivative(ind, fam.members[0]), prm))
            holder.append(besov_norm(ind, BesovParams(s=0.5)))
        for lo, hi in zip(plain, plain[1:]):
            assert hi >= 1.25 * lo
        for p, t in zip(plain, tangential):
            assert p >= 10.0 * t
            assert t <= 0.2
        assert holder[2] >= 1.4 * holder[0]

    def test_log_ratio_finite_where_plain_norm_diverges(self):
        spec = PatchSpec(kind="disc", center=(0.0, 0.0), radius=1.0)
        for n in (256, 512):
            g = GridSpec(n=n, half_length=8.0)
            ind = rasterize_patch(spec, g)
            fam = initial_vector_family(spec, g)
            r = log_estimate_ratio(ind, fam)
            assert 0.05 < r < 0.5

    def test_adapted_norm_stable_once_layer_resolved(self):
        spec = PatchSpec(kind="disc", center=(0.0, 0.0), radius=1.0)
        norms = []
        for n in (256, 512):
            g = GridSpec(n=n, half_length=4.0)
            ind = rasterize_patch(spec, g)
            fam = initial_vector_family(spec, g)
            norms.append(conormal_norm(ind, fam))
        assert 0.8 < norms[1] / norms[0] < 1.25

    def test_coherent_layer_annihilated_by_tangent_field(self):
        spec = PatchSpec(kind="disc", center=(0.0, 0.0), radius=1.0)
        prm = BesovParams(s=-0.5)
        for n in (256, 512):
            g = GridSpec(n=n, half_length=8.0)
            x1, x2 = g.mesh
            r = np.hypot(x1, x2)
            layer = ScalarField(g, 0.5 * (1.0 - np.tanh((r - 1.0) / (4.0 * g.dx))))
            fam = initial_vector_family(spec, g)
            plain = besov_norm(derivative(layer, 1), prm)
            tangential = besov_norm(directional_derivative(layer, fam.members[0]), prm)
            assert 0.3 <= plain <= 1.0
            assert tangential <= 1e-7
