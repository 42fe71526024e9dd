"""Time stepping: exact solutions, invariants, the damped-combination budget."""

import math
import weakref

import numpy as np
import pytest
import scipy.fft as fft
from hypothesis import given, settings, strategies as st

from strato.grid import GridSpec, ScalarField, _HalfKernel, dx1_inv_laplacian, velocity_gradient_sup
from strato.initdata import DensitySpec, PatchSpec, make_density, rasterize_patch
from strato.solver import (
    _Engine,
    SimParams,
    SolverBlowupError,
    commutator_source,
    good_unknown,
    good_unknown_residual,
    march,
    run,
)
from conftest import FullSpectrum, keep_mask, random_field


def zero_field(grid):
    return ScalarField(grid, np.zeros((grid.n, grid.n)))


def taylor_green(grid, k):
    return ScalarField.from_function(
        grid, lambda x1, x2: 2.0 * k * k * np.sin(k * x1) * np.sin(k * x2)
    )


class TestParams:
    def test_diffusivity_validation(self):
        with pytest.raises(ValueError):
            SimParams(mu=-0.1, dt=0.01, t_final=1.0)
        with pytest.raises(ValueError):
            SimParams(mu=0.1, dt=0.01, t_final=1.0, kappa=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SimParams(mu=bad, dt=0.01, t_final=1.0)
            with pytest.raises(ValueError, match="finite"):
                SimParams(mu=0.1, dt=0.01, t_final=1.0, kappa=bad)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            SimParams(mu=0.1, dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            SimParams(mu=0.1, dt=0.01, t_final=-1.0)
        for dt, t_final in ((np.inf, 1.0), (np.nan, 1.0), (0.1, np.inf), (0.1, np.nan)):
            with pytest.raises(ValueError, match="dt and t_final"):
                SimParams(mu=0.0, dt=dt, t_final=t_final)

    def test_cfl_validation(self):
        with pytest.raises(ValueError):
            SimParams(mu=0.1, dt=0.01, t_final=1.0, cfl_cap=1.5)


class TestExactSolutions:
    def test_taylor_green_decay(self, grid64):
        # the single-cell stationary flow self-advects to zero, so only
        # the diffusion factor acts and the march is exact to rounding
        k = np.pi / 8.0
        mu = 0.01
        w0 = taylor_green(grid64, k)
        res = run(w0, zero_field(grid64), SimParams(mu=mu, dt=0.05, t_final=0.5), track_gradients=False)
        want = np.exp(-2.0 * k * k * mu * 0.5) * w0.values
        assert np.abs(res.omega.fields[-1].values - want).max() < 1e-12

    def test_frozen_velocity_closed_form(self, grid64):
        # with advection off the system is linear and diagonal in k, and
        # each mode integrates to the two-exponential formula
        g = grid64
        w0 = random_field(g, 3, band=4.0)
        r0 = random_field(g, 4, band=4.0)
        mu, kappa, t_end = 0.1, 1.0, 0.5
        params = SimParams(mu=mu, dt=0.01, t_final=t_end, kappa=kappa, frozen_velocity=True)
        res = run(w0, r0, params, track_gradients=False)

        ref = FullSpectrum(g)
        ksq = ref.ksq
        em = np.exp(-mu * ksq * t_end)
        ek = np.exp(-kappa * ksq * t_end)
        coef = np.zeros_like(ksq, dtype=complex)
        nz = ksq > 0
        coef[nz] = (ek[nz] - em[nz]) / ((mu - kappa) * ksq[nz])
        want_w = ref.apply(em, w0.values) + ref.apply(1j * ref.k1 * coef, r0.values)
        want_r = ref.apply(ek, r0.values)

        assert np.abs(res.omega.fields[-1].values - want_w).max() < 1e-7
        assert np.abs(res.rho.fields[-1].values - want_r).max() < 1e-14

    def test_frozen_velocity_density_decay_per_step(self, grid64):
        # the density sees no forcing at all, so every step multiplies its
        # spectrum by the exact diffusion factor and nothing else
        g = grid64
        r0 = random_field(g, 5, band=4.0)
        params = SimParams(mu=0.1, dt=0.02, t_final=0.1, kappa=1.0, frozen_velocity=True)
        res = run(zero_field(g), r0, params, track_gradients=False)
        m = 5
        ref = FullSpectrum(g)
        want = ref.apply(np.exp(-params.kappa * ref.ksq * params.dt) ** m * ref.mask, r0.values)
        assert np.abs(res.rho.fields[-1].values - want).max() < 1e-13

    def test_rest_state_is_fixed(self, grid64):
        c = ScalarField(grid64, np.full((64, 64), 0.4))
        res = run(zero_field(grid64), c, SimParams(mu=0.01, dt=0.05, t_final=0.2), track_gradients=False)
        assert np.abs(res.omega.fields[-1].values).max() < 1e-14
        assert np.abs(res.rho.fields[-1].values - 0.4).max() < 1e-13


@pytest.fixture(scope="module")
def patch_run(grid128):
    w0 = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid128)
    r0 = make_density(DensitySpec(kind="gaussian", amplitude=0.1, width=1.0, center=(0.0, 0.5)), grid128)
    params = SimParams(mu=1e-3, dt=0.02, t_final=0.3)
    return run(w0, r0, params, sample_times=[0.0, 0.1, 0.2, 0.3], track_gradients=True)


class TestInvariants:

    def test_circulation_conserved(self, patch_run):
        circ = np.array(patch_run.diagnostics.circulation)
        assert np.abs(circ - circ[0]).max() < 1e-12 * max(1.0, abs(circ[0]))

    def test_density_max_principle(self, patch_run):
        sups = np.array(patch_run.diagnostics.rho_sup)
        assert np.all(sups <= sups[0] * (1.0 + 1e-9))

    def test_density_l2_nonincreasing(self, patch_run):
        l2 = np.array(patch_run.diagnostics.rho_l2)
        assert np.all(np.diff(l2) <= 1e-12 * l2[0])

    @settings(max_examples=10, deadline=None)
    @given(
        radius=st.floats(min_value=0.5, max_value=3.0),
        amplitude=st.floats(min_value=0.01, max_value=2.0),
        width=st.floats(min_value=0.5, max_value=1.0),
        center=st.tuples(st.floats(min_value=-0.9, max_value=0.9), st.floats(min_value=-0.9, max_value=0.9)),
        mu=st.floats(min_value=0.0, max_value=1.0e-2),
    )
    def test_dynamics_invariants_property(self, radius, amplitude, width, center, mu):
        # criterion 07's invariants and tolerances at n = 32, every step
        # sampled from the initial data on
        grid = GridSpec(n=32, half_length=8.0)
        w0 = rasterize_patch(PatchSpec(kind="disc", radius=radius), grid)
        r0 = make_density(DensitySpec(kind="gaussian", amplitude=amplitude, width=width, center=center), grid)
        params = SimParams(mu=mu, dt=0.02, t_final=1.0)
        trajectory = march(w0, r0, params, sample_times=[0.0, 1.0], record_every_step=True, track_gradients=False)
        rows = [d for *_, d in trajectory]
        assert len(rows) == 51
        circ = np.array([d["circulation"] for d in rows])
        rho_sup = np.array([d["rho_sup"] for d in rows])
        rho_l2 = np.array([d["rho_l2"] for d in rows])
        assert np.abs(circ - circ[0]).max() / params.t_final <= 1e-10
        assert (rho_sup - rho_sup[0]).max() <= 1e-6
        assert np.all(np.diff(rho_l2) <= 1e-12 * rho_l2[0])

    def test_gradient_tracking_populates(self, patch_run):
        d = patch_run.diagnostics
        assert len(d.gradv_sup) == 4
        assert all(np.isfinite(d.gradv_sup))
        assert d.gradv_sup_integral[0] == 0.0
        assert all(b >= a for a, b in zip(d.gradv_sup_integral, d.gradv_sup_integral[1:]))

    def test_samples_land_exactly(self, patch_run):
        assert np.array_equal(patch_run.omega.times, [0.0, 0.1, 0.2, 0.3])


class TestStepping:
    @pytest.mark.parametrize("dense", [False, True])
    def test_march_matches_run(self, grid64, dense):
        w0 = random_field(grid64, 6, band=4.0)
        r0 = random_field(grid64, 7, band=4.0)
        params = SimParams(mu=0.01, dt=0.05, t_final=0.2)
        times = [0.0, 0.07, 0.2]
        res = run(w0, r0, params, sample_times=times, record_every_step=dense)
        got = list(march(w0, r0, params, sample_times=times, record_every_step=dense))
        assert [t for t, *_ in got] == res.diagnostics.times
        for j, (_, fo, fr, row) in enumerate(got):
            assert np.array_equal(fo.values, res.omega.fields[j].values)
            assert np.array_equal(fo.half_spectrum, res.omega.fields[j].half_spectrum)
            assert np.array_equal(fr.values, res.rho.fields[j].values)
            for name, value in row.items():
                assert value == getattr(res.diagnostics, name)[j], name
        assert len(got) == (6 if dense else 3)
        # sampling every step does not change the trajectory
        other = run(w0, r0, params, sample_times=times, record_every_step=not dense)
        assert np.array_equal(other.omega.fields[-1].values, res.omega.fields[-1].values)
        assert np.array_equal(other.rho.fields[-1].values, res.rho.fields[-1].values)

    def test_march_caches_no_spectrum_on_its_inputs(self, grid64, monkeypatch):
        # the initial bands come straight from the values, unless a field already caches its
        # half spectrum, which the march then cuts; the samples are bitwise the same either way
        values = [random_field(grid64, seed).values for seed in (14, 15)]
        taken = []
        band_spectrum = _HalfKernel.band_spectrum
        monkeypatch.setattr(_HalfKernel, "band_spectrum", lambda kern, v: taken.append(v) or band_spectrum(kern, v))
        params = SimParams(mu=0.01, dt=0.05, t_final=0.1)
        runs = {}
        for cached in (False, True):
            w0, r0 = (ScalarField(grid64, v) for v in values)
            if cached:
                w0.half_spectrum, r0.half_spectrum
            taken.clear()
            runs[cached] = list(march(w0, r0, params, sample_times=[0.0, 0.1]))
            assert ("half_spectrum" in w0.__dict__, "half_spectrum" in r0.__dict__) == (cached, cached)
            from_values = [any(v is f.values for v in taken) for f in (w0, r0)]
            assert from_values == [not cached, not cached]
        for (t, fo, fr, row), (t2, fo2, fr2, row2) in zip(runs[False], runs[True]):
            assert t == t2 and row == row2
            assert fo.values.tobytes() == fo2.values.tobytes() and fr.values.tobytes() == fr2.values.tobytes()

    @pytest.mark.parametrize("from_zero", [True, False])
    def test_sample_velocity_guards_next_step(self, from_zero, monkeypatch):
        # a sample's velocity and its sup are the CFL guard of the step after it, so a dense march
        # builds the velocity only for RK4 stages 2-4 and takes one hypot per sample; without a
        # t = 0 sample the first step builds its own
        g = GridSpec(n=32, half_length=8.0)
        w0, r0 = random_field(g, 6, band=4.0), random_field(g, 7, band=4.0)
        builds, hypots = [], []
        velocity, hypot = _Engine.velocity, np.hypot
        monkeypatch.setattr(_Engine, "velocity", lambda self, what: builds.append(what) or velocity(self, what))
        monkeypatch.setattr(np, "hypot", lambda *args: hypots.append(args) or hypot(*args))
        params = SimParams(mu=0.01, dt=0.05, t_final=0.2)
        times = [0.0, 0.2] if from_zero else [0.2]
        got = list(march(w0, r0, params, sample_times=times, record_every_step=True, track_gradients=False))
        steps = got[-1][3]["steps"]
        assert steps == 4 and len(got) == steps + from_zero
        assert len(builds) == 3 * steps + (not from_zero)
        assert len(hypots) == len(got) + (not from_zero)

    @pytest.mark.parametrize("dense", [False, True])
    def test_gradv_sup_is_velocity_gradient_sup_bit_for_bit(self, grid64, dense):
        # strato conormal takes each checkpoint's |grad v|_inf from the march's diagnostics
        w0 = rasterize_patch(PatchSpec(kind="star", radius=1.0, amplitude=0.1, base_mode=5), grid64)
        r0 = make_density(DensitySpec(kind="gaussian", amplitude=0.1, width=1.0, center=(0.0, 0.5)), grid64)
        params = SimParams(mu=1e-3, dt=0.05, t_final=0.2)
        got = list(march(w0, r0, params, sample_times=[0.0, 0.07, 0.2], record_every_step=dense))
        assert got[0][0] == 0.0 and len(got) == (6 if dense else 3)
        for t, fo, _, row in got:
            assert row["gradv_sup"] == velocity_gradient_sup(fo), t

    @pytest.mark.parametrize("dense", [False, True])
    def test_cfl_velocity_is_gone_before_stage_two(self, grid64, monkeypatch, dense):
        # the velocity the CFL guard checked feeds RK4 stage 1 only; no frame holds it through
        # stages 2-4, whether a sample handed it over or the step built it, halved or not
        stage1, held = [], []
        nonlinear = _Engine.nonlinear

        def probe(self, what, rhat, vel=None):
            held.append(any(r() is not None for r in stage1))
            if vel is not None:
                stage1[:] = [weakref.ref(v) for v in vel]
            return nonlinear(self, what, rhat, vel)

        monkeypatch.setattr(_Engine, "nonlinear", probe)
        w0, r0 = random_field(grid64, 6, band=4.0), random_field(grid64, 7, band=4.0)
        params = SimParams(mu=0.01, dt=0.05, t_final=0.2)
        got = list(march(w0, r0, params, sample_times=[0.0, 0.07, 0.2], record_every_step=dense))
        assert len(held) == 4 * got[-1][3]["steps"]
        engine, kern = _Engine(grid64, params), grid64._kernel
        what, rhat = kern.cut(w0.half_spectrum), kern.cut(r0.half_spectrum)
        vmax = np.max(np.hypot(*engine.velocity(what)))
        engine.advance(what, rhat, 0.0, 1.5 * params.cfl_cap * grid64.dx / vmax)  # halved once
        assert len(held) == 4 * got[-1][3]["steps"] + 8
        assert not any(held)

    def test_march_checks_arguments_on_call(self, grid64, grid128):
        params = SimParams(mu=0.01, dt=0.05, t_final=0.1)
        w0 = random_field(grid64, 10, band=4.0)
        with pytest.raises(ValueError, match="finite"):
            march(w0, zero_field(grid64), params, sample_times=[0.5])
        with pytest.raises(ValueError, match="share a grid"):
            march(w0, zero_field(grid128), params)

    def test_cfl_halving_changes_substeps(self, grid64, monkeypatch):
        # a large-amplitude field forces the internal halving; the march
        # still lands on the target time after one nominal step
        stages = []
        rk4 = _Engine.rk4

        def spy(self, what, rhat, h, vel=None):
            stages.append(h)
            return rk4(self, what, rhat, h, vel)

        monkeypatch.setattr(_Engine, "rk4", spy)
        w0 = ScalarField(grid64, 50.0 * random_field(grid64, 8, band=4.0).values)
        params = SimParams(mu=0.01, dt=0.1, t_final=0.1)
        res = run(w0, zero_field(grid64), params, track_gradients=False)
        assert res.diagnostics.times == [0.1]
        assert res.diagnostics.steps == [1]
        assert len(stages) > 1 and max(stages) < 0.1
        assert sum(stages) == pytest.approx(0.1, abs=1e-12)

    def test_frozen_velocity_never_halves_after_a_sample(self, grid64, monkeypatch):
        # the t = 0 sample reports the velocity of a field that would force halvings, but a frozen
        # march does not advect, so its step has no CFL limit
        stages = []
        rk4 = _Engine.rk4

        def spy(self, what, rhat, h, vel=None):
            stages.append(h)
            return rk4(self, what, rhat, h, vel)

        monkeypatch.setattr(_Engine, "rk4", spy)
        w0 = ScalarField(grid64, 50.0 * random_field(grid64, 8, band=4.0).values)
        params = SimParams(mu=0.01, dt=0.1, t_final=0.1, frozen_velocity=True)
        (*_, first), (*_, last) = march(w0, zero_field(grid64), params, sample_times=[0.0, 0.1])
        assert first["velocity_sup"] * params.dt / grid64.dx > params.cfl_cap
        assert stages == [0.1] and last["steps"] == 1

    def test_blowup_raises(self, grid64):
        w0 = ScalarField(grid64, 1e12 * random_field(grid64, 9, band=4.0).values)
        params = SimParams(mu=0.0, dt=0.5, t_final=0.5)
        with pytest.raises(SolverBlowupError) as info:
            run(w0, zero_field(grid64), params, track_gradients=False)
        assert info.value.time >= 0.0
        # the state stays finite; the step runs out of CFL halvings
        assert info.value.depth == 25
        assert info.value.field is None
        assert "halving depth 25" in str(info.value)
        # the CFL number of the depth-25 step, which still breaks the cap
        cfl = info.value.cfl
        assert np.isfinite(cfl) and cfl > params.cfl_cap
        assert str(info.value).endswith(f"halving depth 25, CFL number {cfl:.6g}")

    @pytest.mark.parametrize("huge, field", [("omega", "omega"), ("rho", "both")])
    def test_blowup_names_nonfinite_field(self, grid64, huge, field):
        # spectra of a 1e307-sized field overflow; with advection off the
        # density feeds the vorticity through buoyancy but not the reverse
        big = ScalarField(grid64, 1e307 * random_field(grid64, 9, band=4.0).values)
        w0, r0 = (big, zero_field(grid64)) if huge == "omega" else (zero_field(grid64), big)
        params = SimParams(mu=0.01, dt=0.05, t_final=0.1, frozen_velocity=True)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverBlowupError) as info:
            run(w0, r0, params, track_gradients=False)
        assert info.value.field == field
        assert info.value.depth == 0
        assert info.value.cfl is None
        assert f"{field} became non-finite" in str(info.value)
        assert "CFL number" not in str(info.value)

    def test_exp_cache_bounded_across_remainder_steps(self, grid64, monkeypatch):
        # irregular sample times give a different remainder step before
        # each landing; the integrating factors are kept for one step size
        sizes, steps = [], set()
        rk4 = _Engine.rk4

        def spy(self, what, rhat, h, vel=None):
            out = rk4(self, what, rhat, h, vel)
            sizes.append(len(self._exp_cache))
            steps.add(h)
            return out

        monkeypatch.setattr(_Engine, "rk4", spy)
        w0 = random_field(grid64, 20, band=4.0)
        times = [0.013, 0.029, 0.041, 0.067, 0.071, 0.093, 0.1]
        run(w0, zero_field(grid64), SimParams(mu=0.01, dt=0.02, t_final=0.1), sample_times=times, track_gradients=False)
        assert len(steps) >= 6
        assert max(sizes) == 1

    def test_sample_times_validated(self, grid64):
        w0 = random_field(grid64, 10, band=4.0)
        params = SimParams(mu=0.01, dt=0.05, t_final=0.1)
        with pytest.raises(ValueError):
            run(w0, zero_field(grid64), params, sample_times=[0.5])
        with pytest.raises(ValueError):
            run(w0, zero_field(grid64), params, sample_times=[-0.1])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                run(w0, zero_field(grid64), params, sample_times=[bad])
            with pytest.raises(ValueError, match="finite"):
                run(w0, zero_field(grid64), params, sample_times=[0.05, bad])

    def test_initial_grid_mismatch(self, grid64, grid128):
        params = SimParams(mu=0.01, dt=0.05, t_final=0.1)
        with pytest.raises(ValueError):
            run(random_field(grid64, 11), random_field(grid128, 12), params)


def full_spectrum_advance(g, params, what, rhat, h, vel=None):
    """One CFL-guarded RK4 step on whole masked half spectra, as the march took it
    before it kept its state on the 2/3 band; a reference for the band march."""
    kern, keep = g._kernel, keep_mask(g.n)

    def velocity(w):
        return kern.inverse(kern.v1 * w), kern.inverse(kern.v2 * w)

    def nonlinear(w, r, vel=None):
        v1, v2 = vel if vel is not None else velocity(w)
        adv_w = kern.inverse(kern.ik1 * w) * v1 + kern.inverse(kern.ik2 * w) * v2
        adv_r = kern.inverse(kern.ik1 * r) * v1 + kern.inverse(kern.ik2 * r) * v2
        return kern.ik1 * r - fft.rfft2(adv_w) * keep, -(fft.rfft2(adv_r) * keep)

    if vel is None:
        vel = velocity(what)
    if h > params.cfl_cap * g.dx / float(np.max(np.hypot(*vel))):
        what, rhat = full_spectrum_advance(g, params, what, rhat, h / 2.0, vel)
        return full_spectrum_advance(g, params, what, rhat, h / 2.0)
    ew, ew2, er, er2 = (np.exp(-nu * s * kern.ksq) for nu in (params.mu, params.kappa) for s in (h, h / 2.0))
    k1w, k1r = nonlinear(what, rhat, vel)
    k2w, k2r = nonlinear(ew2 * (what + 0.5 * h * k1w), er2 * (rhat + 0.5 * h * k1r))
    k3w, k3r = nonlinear(ew2 * what + 0.5 * h * k2w, er2 * rhat + 0.5 * h * k2r)
    k4w, k4r = nonlinear(ew * what + h * ew2 * k3w, er * rhat + h * er2 * k3r)
    new_w = ew * what + (h / 6.0) * (ew * k1w + 2.0 * ew2 * (k2w + k3w) + k4w)
    new_r = er * rhat + (h / 6.0) * (er * k1r + 2.0 * er2 * (k2r + k3r) + k4r)
    return new_w, new_r


class TestHalfSpectrumKernel:
    def test_nonlinear_matches_full_complex_reference(self, grid64):
        # band 10 reaches past the 2/3 cut, so the input mask matters too
        g = grid64
        w = random_field(g, 18, band=10.0)
        r = random_field(g, 19, band=10.0)
        kern = g._kernel
        got_w, got_r = _Engine(g, SimParams(mu=0.01, dt=0.05, t_final=0.1)).nonlinear(
            kern.cut(w.half_spectrum * keep_mask(g.n)), kern.cut(r.half_spectrum * keep_mask(g.n))
        )

        ref = FullSpectrum(g)
        wm = ref.dealias(w.values)
        rm = ref.dealias(r.values)
        v1, v2 = ref.velocity(wm)

        def masked_advection(f):
            return ref.dealias(v1 * ref.derivative(f, 1) + v2 * ref.derivative(f, 2))

        want_w = ref.derivative(rm, 1) - masked_advection(wm)
        want_r = -masked_advection(rm)
        for got, want in ((got_w, want_w), (got_r, want_r)):
            sup = np.abs(want).max()
            assert np.abs(kern.inverse(kern.spread(got)) - want).max() <= 1e-12 * sup

    @pytest.mark.parametrize("halvings", [0, 1])
    def test_advance_transform_count(self, grid64, monkeypatch, halvings):
        # unhalved: 2 for the CFL velocity, reused by stage 1, which adds 4
        # inverse and 2 forward transforms; stages 2-4 take 6 + 2 each.
        # Each band inverse is one ifft plus one irfft, each band forward
        # one rfft plus one fft, and no 2-d transform runs.  Halved once:
        # the first half reuses the velocity the guard checked, so the
        # step costs exactly two unhalved steps.
        g = grid64
        params = SimParams(mu=0.01, dt=0.01, t_final=0.1)
        engine = _Engine(g, params)
        kern = g._kernel
        what = kern.cut(random_field(g, 21, band=4.0).half_spectrum)
        rhat = kern.cut(random_field(g, 22, band=4.0).half_spectrum)
        vmax = np.max(np.hypot(*engine.velocity(what)))
        h = (1.5 if halvings else 0.5) * params.cfl_cap * g.dx / vmax
        calls = {name: 0 for name in ("fft", "ifft", "rfft", "irfft", "rfft2", "irfft2", "fft2", "ifft2")}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        *_, t = engine.advance(what, rhat, 0.0, h)
        assert t == h
        steps = 2**halvings
        assert calls == {"ifft": 24 * steps, "irfft": 24 * steps, "rfft": 8 * steps, "fft": 8 * steps,
                         "rfft2": 0, "irfft2": 0, "fft2": 0, "ifft2": 0}

    @pytest.mark.parametrize("halvings", [0, 1])
    def test_advance_matches_full_spectrum_step(self, grid64, halvings):
        # the band march takes bit for bit the step of the full-spectrum one
        g = grid64
        kern = g._kernel
        params = SimParams(mu=0.01, dt=0.01, t_final=0.1, kappa=0.5)
        what = random_field(g, 23, band=10.0).half_spectrum * keep_mask(g.n)
        rhat = random_field(g, 24, band=10.0).half_spectrum * keep_mask(g.n)
        vmax = np.max(np.hypot(*(kern.inverse(v * what) for v in (kern.v1, kern.v2))))
        h = (1.5 if halvings else 0.5) * params.cfl_cap * g.dx / vmax
        new_w, new_r, t = _Engine(g, params).advance(kern.cut(what), kern.cut(rhat), 0.0, h)
        want_w, want_r = full_spectrum_advance(g, params, what, rhat, h)
        assert t == h
        assert np.array_equal(kern.spread(new_w), want_w)
        assert np.array_equal(kern.spread(new_r), want_r)
        assert np.array_equal(kern.inverse(new_w), kern.inverse(want_w))


class TestDampedCombination:
    def test_good_unknown_formula(self, grid64):
        w = random_field(grid64, 13, band=4.0)
        r = random_field(grid64, 14, band=4.0)
        mu = 0.05
        got = good_unknown(w, r, mu)
        want = (1.0 - mu) * w.values - dx1_inv_laplacian(r).values
        assert np.array_equal(got.values, want)

    def test_source_vanishes_without_flow(self, grid64):
        r = random_field(grid64, 15, band=4.0)
        h = commutator_source(zero_field(grid64), r)
        assert np.abs(h.values).max() < 1e-14

    def test_source_vanishes_for_uniform_density(self, grid64):
        w = random_field(grid64, 16, band=4.0)
        c = ScalarField(grid64, np.full((64, 64), 2.0))
        h = commutator_source(w, c)
        assert np.abs(h.values).max() < 1e-13

    def test_source_is_order_zero_sized(self, grid128):
        # the two first-order pieces cancel to something no bigger than
        # velocity times density, not velocity times density gradient
        w = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid128)
        r = make_density(DensitySpec(kind="gaussian", amplitude=1.0, width=1.0), grid128)
        from strato.grid import biot_savart, lp_norm

        h = commutator_source(w, r)
        v = biot_savart(w)
        vmax = float(np.max(v.magnitude))
        assert lp_norm(h, 2.0) <= 2.0 * vmax * lp_norm(r, 2.0)

    def test_residual_small_and_second_order(self, grid128):
        w0 = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid128)
        r0 = make_density(DensitySpec(kind="gaussian", amplitude=0.1, width=1.0, center=(0.0, 0.5)), grid128)
        mu = 1e-3
        resids = {}
        for dt in (0.02, 0.01):
            res = run(w0, r0, SimParams(mu=mu, dt=dt, t_final=0.2), record_every_step=True, track_gradients=False)
            resids[dt] = good_unknown_residual(res.omega, res.rho, mu)
        assert resids[0.02] < 5e-2
        assert resids[0.02] / resids[0.01] > 3.0

    def test_residual_needs_three_samples(self, grid64):
        from strato.littlewood_paley import TimeSeries

        f = random_field(grid64, 17, band=4.0)
        series = TimeSeries(np.array([0.0, 0.1]), (f, f))
        with pytest.raises(ValueError):
            good_unknown_residual(series, series, 0.1)
