"""Spectral substrate: grids, fields, multiplier operators, norms."""

import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.fft as fft
from hypothesis import given, settings, strategies as st

import strato.grid
from strato.grid import (
    GridSpec,
    ScalarField,
    VelocityField,
    biot_savart,
    derivative,
    dx1_inv_laplacian,
    grad_tensor_magnitude,
    heat_propagate,
    laplacian,
    lp_norm,
    rfft2,
    sample_at,
    velocity_gradient_sup,
)
from strato.littlewood_paley import BesovParams, block_norms
from conftest import keep_mask, random_field


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(n=100, half_length=8.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(n=8, half_length=8.0)

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            GridSpec(n=64, half_length=0.0)

    def test_spacing_and_nodes(self, grid64):
        assert grid64.dx == pytest.approx(0.25)
        assert grid64.nodes[0] == -8.0
        assert grid64.nodes[-1] == pytest.approx(8.0 - 0.25)

    def test_wavenumber_layout(self, grid64):
        kern = grid64._kernel
        assert kern.ik1.shape == (64, 1)
        assert kern.ik2.shape == (1, 33)
        # fundamental wavenumber is pi / L; the unpaired Nyquist entries are 0
        assert kern.ik1[1, 0] == pytest.approx(1j * np.pi / 8.0)
        assert kern.ik2[0, 1] == pytest.approx(1j * np.pi / 8.0)
        assert kern.ik1[32, 0] == 0.0 and kern.ik2[0, 32] == 0.0
        assert kern.v1[0, 0] == 0.0 and kern.v2[0, 0] == 0.0

    def test_dealias_keeps_low_and_kills_high(self, grid64):
        kern = grid64._kernel
        mask = kern.spread(kern.cut(np.ones(kern.half_shape))) != 0.0
        assert np.array_equal(mask, keep_mask(grid64.n))
        assert mask[0, 0]
        assert mask[grid64.n // 3, 0]
        assert not mask[grid64.n // 3 + 1, 0]
        assert not mask[grid64.n // 2, 0]
        assert mask[0, grid64.n // 3]
        assert not mask[0, grid64.n // 3 + 1]


class TestSharedKernel:
    """One kernel per grid size among the live grids, its multipliers built on first use."""

    def test_equal_live_grids_share_one_kernel(self):
        g1, g2 = GridSpec(n=32, half_length=2.5), GridSpec(n=32, half_length=2)
        assert g1._kernel is GridSpec(n=32, half_length=2.5)._kernel
        assert g2._kernel is not g1._kernel and g2._kernel is GridSpec(n=32, half_length=2.0)._kernel
        assert GridSpec(n=64, half_length=2.5)._kernel is not g1._kernel

    def test_kernel_dies_with_its_last_grid(self):
        g1, g2 = GridSpec(n=16, half_length=1.25), GridSpec(n=16, half_length=1.25)
        kernel = weakref.ref(g1._kernel)
        assert g2._kernel is kernel()
        del g1
        gc.collect()
        assert kernel() is not None
        del g2
        gc.collect()
        assert kernel() is None

    def test_pickle_holds_the_fields_only(self):
        g = GridSpec(n=256, half_length=1.75)
        kern = g._kernel
        kern.v1, kern.v2, kern.band.v1, g.mesh  # every cache built
        data = pickle.dumps(g)
        assert len(data) < 1024
        back = pickle.loads(data)
        assert back == g and back._kernel is kern

    def test_heat_and_besov_build_no_velocity_multipliers(self):
        g = GridSpec(n=64, half_length=2.75)
        f = random_field(g, 12)
        block_norms(heat_propagate(f, 0.01), BesovParams(s=0.5, p=2.0))
        kern = g._kernel
        assert "ksq" in kern.__dict__
        assert not {"v1", "v2", "band"} & set(kern.__dict__)

    def test_threads_share_one_kernel_and_see_whole_multipliers(self):
        # threads that touch a kernel or multiplier first together may build a multiplier twice,
        # but every equal grid gets the one kernel and no thread sees an array half built
        n, half_length, count = 256, 1.125, 6
        start, seen = threading.Barrier(count), []

        def touch():
            g = GridSpec(n=n, half_length=half_length)
            start.wait(timeout=30)
            seen.append((g, g._kernel, g._kernel.v1.copy(), g._kernel.band.v2.copy()))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch) for _ in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and len(seen) == count
        kern = seen[0][1]
        assert all(k is kern for _, k, _, _ in seen)
        for _, _, v1, v2 in seen:
            assert v1.tobytes() == kern.v1.tobytes() and v2.tobytes() == kern.band.v2.tobytes()


class TestScalarField:
    def test_rejects_wrong_shape(self, grid64):
        with pytest.raises(ValueError):
            ScalarField(grid64, np.zeros((32, 32)))

    def test_rejects_nonfinite(self, grid64):
        bad = np.zeros((64, 64))
        bad[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid64, bad)

    def test_half_spectrum_is_rfft2(self, grid64):
        f = random_field(grid64, 2)
        assert np.array_equal(f.half_spectrum, fft.rfft2(f.values))

    def test_half_spectrum_round_trip(self, grid64):
        f = random_field(grid64, 3)
        g = ScalarField.from_spectrum(grid64, f.half_spectrum)
        assert np.allclose(g.values, f.values, atol=1e-13)
        assert g.half_spectrum is f.half_spectrum

    def test_values_read_only(self, grid64):
        f = random_field(grid64, 1)
        with pytest.raises(ValueError):
            f.values[0, 0] = 3.0


class TestRfft2:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_scipy_bit_for_bit(self, n):
        values = 1e3 * np.random.default_rng(n).standard_normal((2 * n, 2 * n))
        for x in (values[:n, :n].copy(), values[::2, 1::2], values[:n, :n].T):
            assert np.array_equal(rfft2(x), fft.rfft2(x))


class TestBandTransforms:
    """The 2/3-band operators of the kernel against the 2-d half-spectrum transforms, bit for bit."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_band_transforms_match_2d(self, n, scale):
        g = GridSpec(n=n, half_length=8.0)
        kern = g._kernel
        b = n // 3
        assert kern.band.ksq.shape == (2 * b + 1, b + 1)
        values = scale * random_field(g, n + 5).values
        masked = fft.rfft2(values) * keep_mask(n)
        band = kern.cut(masked)
        assert np.array_equal(kern.spread(band), masked)
        assert np.array_equal(kern.inverse(band), fft.irfft2(kern.spread(band), s=(n, n)))
        assert np.array_equal(kern.band_spectrum(values), band)
        f = ScalarField.from_spectrum(g, band)
        assert np.array_equal(f.values, fft.irfft2(masked, s=(n, n)))
        assert np.array_equal(f.half_spectrum, masked)

    @pytest.mark.parametrize("n", [64, 128])
    def test_band_inverse_with_multiplier_matches_product(self, n):
        # a row (ik1), a column (ik2) and a full (v1) multiplier, written into the spread buffer
        g = GridSpec(n=n, half_length=2.0)
        kern = g._kernel
        band = kern.band_spectrum(1e3 * random_field(g, n + 3).values)
        for name, shape in (("ik1", (2 * (n // 3) + 1, 1)), ("ik2", (1, n // 3 + 1)), ("v1", band.shape)):
            m = getattr(kern.band, name)
            assert m.shape == shape
            got, want = kern.inverse(band, m), kern.inverse(m * band)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), name

    def test_column_pass_transforms_in_place(self, grid64):
        # the band's columns of half are overwritten with scipy's out-of-place transform, bit for bit
        kern = grid64._kernel
        for name in ("fft", "ifft"):
            half = fft.rfft(random_field(grid64, 9).values, axis=1)
            want = half.copy()
            want[:, : kern.cols] = getattr(fft, name)(half[:, : kern.cols], axis=0)
            assert kern._columns(getattr(np.fft, name), half) is half
            assert np.array_equal(half, want)

    @pytest.mark.parametrize("n", [64, 512])
    def test_head_inverse_matches_2d_inverse(self, n):
        # a half spectrum zero beyond its first c columns, inverted on those columns only, bit for bit
        g = GridSpec(n=n, half_length=2.0)
        kern = g._kernel
        spectrum = fft.rfft2(1e3 * random_field(g, n + 7).values)
        for c in (0, 1, 5, n // 3 + 1, n // 2, n // 2 + 1):
            half = spectrum.copy()
            half[:, c:] = 0.0
            head = spectrum[:, :c]
            assert np.array_equal(kern.spread(head), half)
            got, want = kern.inverse(head), np.fft.irfft2(half, s=(n, n))
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
            f = ScalarField.from_spectrum(g, head)
            assert np.array_equal(f.values, got) and np.array_equal(f.half_spectrum, half)

    def test_band_multipliers_are_cut_from_the_half_spectrum(self, grid64):
        kern = grid64._kernel
        shape = kern.ksq.shape
        for name in ("ksq", "ik1", "ik2", "v1", "v2"):
            full = np.broadcast_to(getattr(kern, name), shape)
            assert np.array_equal(np.broadcast_to(getattr(kern.band, name), kern.band.ksq.shape), kern.cut(full))


class TestKernelContract:
    """One inverse and one spread for the three spectrum layouts, and the velocity operators written once."""

    @staticmethod
    def layouts(kern, spectrum):
        """(x, multiplier on its modes, the half spectrum that is x on its modes and zero elsewhere) per layout."""
        n, c = kern.n, kern.n // 4
        masked = spectrum * keep_mask(n)
        head = spectrum.copy()
        head[:, c:] = 0.0
        return [(kern.cut(masked), kern.band.v1, masked), (spectrum[:, :c], kern.v1[:, :c], head),
                (spectrum, kern.v1, spectrum)]

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("multiplied", [False, True])
    def test_inverse_is_irfft2_of_spread(self, n, multiplied):
        g = GridSpec(n=n, half_length=2.0)
        kern = g._kernel
        spectrum = np.fft.rfft2(1e3 * random_field(g, n + 13).values)
        for (x, m, half), layout in zip(self.layouts(kern, spectrum), ("band", "head", "whole")):
            m = m if multiplied else None
            spread = kern.spread(x, m)
            assert np.array_equal(spread, half if m is None else np.broadcast_to(kern.v1, half.shape) * half), layout
            got, want = kern.inverse(x, m), np.fft.irfft2(spread, s=(n, n))
            assert got.tobytes() == want.tobytes(), layout
        assert kern.spread(spectrum) is spectrum

    @pytest.mark.parametrize("n", [64, 128])
    def test_operators_on_a_band_match_its_spread(self, n):
        g = GridSpec(n=n, half_length=2.0)
        kern = g._kernel
        band = kern.band_spectrum(1e2 * random_field(g, n + 17).values)
        whole = kern.spread(band)
        vel = kern.velocity(band)
        for a, b in zip((*vel, *kern.gradient(band)), (*kern.velocity(whole), *kern.gradient(whole))):
            assert a.tobytes() == b.tobytes()
        f = kern.band_spectrum(random_field(g, n + 19).values)
        assert kern.advection(f, *vel).tobytes() == kern.advection(kern.spread(f), *vel).tobytes()

    @pytest.mark.parametrize("n", [64, 128, 512])
    def test_l2_norm_is_the_norm_of_the_inverse(self, n):
        # the band sum (discrete Parseval) against lp_norm of the inverse: a band with a zero mode, one on
        # column 0 alone and the zero mode alone, bare, under one multiplier and as the velocity pair
        g = GridSpec(n=n, half_length=2.0)
        kern, op = g._kernel, g._kernel.band
        x1, x2 = g.mesh
        column0 = np.cos(np.pi * x1) + 0.5 * np.sin(3.0 * np.pi * x1) + 2.0 + 0.0 * x2
        for values in (3.0 + random_field(g, n + 29).values, column0, np.full((n, n), 1.5)):
            band = kern.band_spectrum(values)
            for ms in ((), (op.v1,), (op.v2,), (op.ik1,), (op.v1, op.v2)):
                grid_values = np.sqrt(sum(kern.inverse(band, m) ** 2 for m in ms)) if ms else kern.inverse(band)
                want = lp_norm(grid_values, 2.0, grid=g)
                assert abs(kern.l2_norm(band, *ms) - want) <= 1.0e-14 * want, (len(ms), want)
        assert kern.l2_norm(band) > 0.0 and kern.l2_norm(band, op.v1, op.v2) == 0.0
        with pytest.raises(ValueError, match="Nyquist"):
            kern.l2_norm(rfft2(values))

    @pytest.mark.parametrize("band", [None, 4.0])
    def test_velocity_gradient_sup_is_the_tensor_magnitude_sup(self, grid64, monkeypatch, band):
        # bit for bit the independent reference, in four inverse transforms and no velocity field
        w = random_field(grid64, 23, band=band)
        want = lp_norm(grad_tensor_magnitude(biot_savart(w)), np.inf)
        calls = []
        for name in ("irfft", "irfft2"):
            monkeypatch.setattr(np.fft, name, lambda *a, _fn=getattr(np.fft, name), _name=name, **k: calls.append(_name) or _fn(*a, **k))
        assert velocity_gradient_sup(w) == want
        assert calls == ["irfft"] * 4
        zero = ScalarField(grid64, np.zeros((64, 64)))
        monkeypatch.undo()
        assert velocity_gradient_sup(zero) == lp_norm(grad_tensor_magnitude(biot_savart(zero)), np.inf) == 0.0


class TestDerivatives:
    def test_first_derivative_exact_on_modes(self, grid128):
        k = np.pi / 8.0
        f = ScalarField.from_function(grid128, lambda x1, x2: np.sin(3 * k * x1) * np.cos(2 * k * x2))
        d1 = derivative(f, 1)
        want = ScalarField.from_function(grid128, lambda x1, x2: 3 * k * np.cos(3 * k * x1) * np.cos(2 * k * x2))
        assert np.abs(d1.values - want.values).max() < 1e-12

    def test_axis_two(self, grid128):
        k = np.pi / 8.0
        f = ScalarField.from_function(grid128, lambda x1, x2: np.cos(5 * k * x2))
        d2 = derivative(f, 2)
        want = ScalarField.from_function(grid128, lambda x1, x2: -5 * k * np.sin(5 * k * x2))
        assert np.abs(d2.values - want.values).max() < 1e-12

    def test_bad_axis(self, grid64):
        with pytest.raises(ValueError):
            derivative(random_field(grid64, 2), 3)

    def test_laplacian_matches_eigenvalue(self, grid128):
        k = np.pi / 8.0
        f = ScalarField.from_function(grid128, lambda x1, x2: np.sin(3 * k * x1) * np.cos(2 * k * x2))
        lap = laplacian(f)
        assert np.abs(lap.values + 13 * k * k * f.values).max() < 1e-11

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_derivative_linear(self, seed):
        g = GridSpec(n=32, half_length=4.0)
        a = random_field(g, seed)
        b = random_field(g, seed + 1)
        lhs = derivative(ScalarField(g, 2.0 * a.values - b.values), 1).values
        rhs = 2.0 * derivative(a, 1).values - derivative(b, 1).values
        assert np.abs(lhs - rhs).max() < 1e-10


class TestBiotSavart:
    def test_curl_recovers_zero_mean_vorticity(self, grid128):
        w = random_field(grid128, 3, band=6.0)
        v = biot_savart(w)
        curl = derivative(v.u2, 1).values - derivative(v.u1, 2).values
        centered = w.values - w.values.mean()
        assert np.abs(curl - centered).max() < 1e-11

    def test_divergence_free(self, grid128):
        w = random_field(grid128, 4, band=6.0)
        v = biot_savart(w)
        div = derivative(v.u1, 1).values + derivative(v.u2, 2).values
        assert np.abs(div).max() < 1e-11

    def test_positive_blob_spins_counterclockwise(self, grid128):
        w = ScalarField.from_function(grid128, lambda x1, x2: np.exp(-(x1**2 + x2**2)))
        v = biot_savart(w)
        i = int(np.argmin(np.abs(grid128.nodes - 1.0)))
        j = int(np.argmin(np.abs(grid128.nodes)))
        assert v.u2.values[i, j] > 0.0
        assert v.u1.values[j, i] < 0.0

    def test_single_mode_closed_form(self, grid128):
        # omega = sin(k.x) has stream function -sin(k.x)/|k|^2, so the
        # perpendicular gradient gives v = (k2, -k1) cos(k.x) / |k|^2
        k1, k2 = 3 * np.pi / 8.0, 2 * np.pi / 8.0
        ksq = k1 * k1 + k2 * k2
        w = ScalarField.from_function(grid128, lambda x1, x2: np.sin(k1 * x1 + k2 * x2))
        v = biot_savart(w)
        want1 = ScalarField.from_function(grid128, lambda x1, x2: k2 / ksq * np.cos(k1 * x1 + k2 * x2))
        want2 = ScalarField.from_function(grid128, lambda x1, x2: -k1 / ksq * np.cos(k1 * x1 + k2 * x2))
        assert np.abs(v.u1.values - want1.values).max() < 1e-13
        assert np.abs(v.u2.values - want2.values).max() < 1e-13

    def test_gaussian_azimuthal_profile(self, grid256):
        # free-space closed form v_theta = (1 - exp(-r^2)) / (2 r), corrected
        # for the gauged zero mode: the periodic inversion sees the vorticity
        # minus its mean, which adds a solid-body term -mean * r / 2
        w = ScalarField.from_function(grid256, lambda x1, x2: np.exp(-(x1**2 + x2**2)))
        v = biot_savart(w)
        mean = w.values.mean()
        j = int(np.argmin(np.abs(grid256.nodes)))
        for r in (0.5, 1.0, 2.0):
            i = int(np.argmin(np.abs(grid256.nodes - r)))
            rr = grid256.nodes[i]
            want = (1.0 - np.exp(-(rr**2))) / (2.0 * rr) - 0.5 * mean * rr
            assert v.u2.values[i, j] == pytest.approx(want, rel=0.005)

    def test_gradient_sup_single_mode(self, grid128):
        # omega = 2k^2 sin(kx1) sin(kx2) comes from the stream function
        # psi = sin(kx1) sin(kx2), whose gradient tensor has Frobenius
        # magnitude k^2 sqrt(2) * max over phases = sqrt(2) k^2
        k = np.pi / 8.0
        w = ScalarField.from_function(grid128, lambda x1, x2: 2 * k * k * np.sin(k * x1) * np.sin(k * x2))
        got = velocity_gradient_sup(w)
        assert got == pytest.approx(np.sqrt(2.0) * k * k, rel=1e-6)


class TestSingularIntegral:
    def test_laplacian_of_output_is_dx1(self, grid128):
        rho = random_field(grid128, 5, band=6.0)
        u = dx1_inv_laplacian(rho)
        lap = laplacian(u)
        d1 = derivative(rho, 1)
        assert np.abs(lap.values - d1.values).max() < 1e-11

    def test_zero_mode_removed(self, grid64):
        rho = ScalarField(grid64, np.full((64, 64), 3.7))
        u = dx1_inv_laplacian(rho)
        assert np.abs(u.values).max() < 1e-14

    def test_order_zero_boundedness(self, grid128):
        # the operator has a degree-zero symbol, so L2 norms never grow
        for seed in range(4):
            rho = random_field(grid128, 60 + seed)
            u = dx1_inv_laplacian(rho)
            assert lp_norm(u, 2.0) <= lp_norm(rho, 2.0) + 1e-12


class TestLpNorms:
    def test_constant_field(self, grid64):
        c = ScalarField(grid64, np.full((64, 64), -2.0))
        area = (2 * grid64.half_length) ** 2
        assert lp_norm(c, 1.0) == pytest.approx(2.0 * area)
        assert lp_norm(c, 2.0) == pytest.approx(2.0 * np.sqrt(area))
        assert lp_norm(c, np.inf) == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, 4.0, 8.0])
    def test_bitwise_the_midpoint_sum(self, grid64, p):
        # the in-place power runs the ufunc of np.abs(vals) ** p, so the sum is bit for bit the same
        vals = 1e3 * random_field(grid64, 8).values
        assert lp_norm(vals, p, grid=grid64) == float((np.sum(np.abs(vals) ** p) * grid64.dx**2) ** (1.0 / p))

    @pytest.mark.parametrize("kind", ["random", "negative", "zeros", "negative zeros", "signed zeros"])
    def test_sup_is_max_abs_bit_for_bit(self, grid64, kind):
        # taken from the max and the min, with no |v| array, and never -0.0
        rng = np.random.default_rng(9)
        vals = {
            "random": 1e3 * random_field(grid64, 8).values,
            "negative": -1.0 - rng.random((64, 64)),
            "zeros": np.zeros((64, 64)),
            "negative zeros": np.full((64, 64), -0.0),
            "signed zeros": np.where(rng.random((64, 64)) < 0.5, 0.0, -0.0),
        }[kind]
        got = lp_norm(vals, np.inf, grid=grid64)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.max(np.abs(vals)).tobytes()
        assert lp_norm(ScalarField(grid64, vals), np.inf) == got

    @pytest.mark.parametrize("p", [0.5, -np.inf])
    def test_rejects_sub_one(self, grid64, p):
        with pytest.raises(ValueError):
            lp_norm(random_field(grid64, 6), p)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1.0, 2.0, 4.0, np.inf]))
    def test_triangle_and_scaling(self, seed, p):
        g = GridSpec(n=32, half_length=4.0)
        a = random_field(g, seed)
        b = random_field(g, seed + 77)
        s = ScalarField(g, a.values + b.values)
        assert lp_norm(s, p) <= lp_norm(a, p) + lp_norm(b, p) + 1e-10
        assert lp_norm(ScalarField(g, -3.0 * a.values), p) == pytest.approx(3.0 * lp_norm(a, p))


class TestHeatPropagate:
    def test_gaussian_spreads_exactly(self, grid128):
        a = 0.5
        tau = 0.3
        f0 = ScalarField.from_function(grid128, lambda x1, x2: np.exp(-(x1**2 + x2**2) / (4 * a)))
        got = heat_propagate(f0, tau)
        want = ScalarField.from_function(
            grid128, lambda x1, x2: a / (a + tau) * np.exp(-(x1**2 + x2**2) / (4 * (a + tau)))
        )
        # limited only by periodic-image truncation of the gaussian tails
        assert np.abs(got.values - want.values).max() < 1e-8

    def test_semigroup(self, grid64):
        f = random_field(grid64, 7)
        one = heat_propagate(heat_propagate(f, 0.2), 0.3)
        two = heat_propagate(f, 0.5)
        assert np.abs(one.values - two.values).max() < 1e-12

    def test_zero_time_identity(self, grid64):
        f = random_field(grid64, 8)
        assert np.abs(heat_propagate(f, 0.0).values - f.values).max() < 1e-14

    def test_rejects_backward(self, grid64):
        with pytest.raises(ValueError):
            heat_propagate(random_field(grid64, 9), -0.1)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=2.0))
    def test_sup_never_grows(self, seed, tau):
        g = GridSpec(n=32, half_length=4.0)
        f = random_field(g, seed, band=4.0)
        assert lp_norm(heat_propagate(f, tau), np.inf) <= lp_norm(f, np.inf) * (1.0 + 1e-9)


class TestCalderonZygmund:
    @staticmethod
    def ratio(omega, p):
        """|grad v|_Lp / |omega|_Lp for the Biot-Savart velocity of omega."""
        return lp_norm(grad_tensor_magnitude(biot_savart(omega)), p) / lp_norm(omega, p)

    def test_frozen_gaussian_value(self, grid128):
        w = ScalarField.from_function(grid128, lambda x1, x2: np.exp(-(x1**2 + x2**2)))
        assert self.ratio(w, 4.0) == pytest.approx(0.7302233307382394, rel=1e-8)

    def test_bounded_p_growth_on_corpus(self, grid128):
        # ratio should stay O(p) with a modest constant (symbol is degree zero)
        for seed in (21, 22, 23):
            w = random_field(grid128, seed, band=8.0)
            for p in (1.5, 2.0, 4.0, 8.0):
                r = self.ratio(w, p)
                assert r <= 4.0 * max(p, p / (p - 1.0))


class TestOffGridSampling:
    def test_matches_closed_form_between_nodes(self, grid64):
        k = np.pi / 8.0
        f = ScalarField.from_function(grid64, lambda x1, x2: np.sin(2 * k * x1) * np.cos(k * x2))
        rng = np.random.default_rng(31)
        pts = rng.uniform(-8.0, 8.0, size=(40, 2))
        got = sample_at(f, pts)
        want = np.sin(2 * k * pts[:, 0]) * np.cos(k * pts[:, 1])
        assert np.abs(got - want).max() < 1e-11

    def test_grid_points_reproduced(self, grid64):
        f = random_field(grid64, 13)
        pts = np.array([[grid64.nodes[5], grid64.nodes[9]], [grid64.nodes[0], grid64.nodes[63]]])
        got = sample_at(f, pts)
        want = np.array([f.values[5, 9], f.values[0, 63]])
        assert np.abs(got - want).max() < 1e-10

    def test_transpose_symmetric_with_nyquist_content(self, grid64):
        # white noise carries Nyquist modes on both axes
        f = random_field(grid64, 34)
        ft = ScalarField(grid64, f.values.T)
        pts = np.random.default_rng(35).uniform(-8.0, 8.0, size=(40, 2))
        assert np.abs(sample_at(f, pts) - sample_at(ft, pts[:, ::-1])).max() < 1e-12

    def test_large_batches_are_exact_chunk_by_chunk(self, grid64):
        k = np.pi / 8.0
        f = ScalarField.from_function(grid64, lambda x1, x2: np.sin(2 * k * x1) * np.cos(k * x2))
        pts = np.random.default_rng(32).uniform(-8.0, 8.0, size=(1500, 2))
        got = sample_at(f, pts)
        want = np.sin(2 * k * pts[:, 0]) * np.cos(k * pts[:, 1])
        assert np.abs(got - want).max() < 1e-11
        sliced = np.concatenate([sample_at(f, pts[i : i + 512]) for i in range(0, len(pts), 512)])
        assert got.tobytes() == sliced.tobytes()

    @pytest.mark.parametrize("m", [1, 512, 513, 2048])
    def test_no_phase_basis_exceeds_512_points(self, grid64, monkeypatch, m):
        sizes = []
        basis = strato.grid._phase_basis
        monkeypatch.setattr(strato.grid, "_phase_basis", lambda grid, pts: sizes.append(len(pts)) or basis(grid, pts))
        got = sample_at(random_field(grid64, 36), np.random.default_rng(m).uniform(-8.0, 8.0, size=(m, 2)))
        assert sizes == [min(512, m - i) for i in range(0, m, 512)]
        assert len(got) == m


class TestVelocityField:
    def test_grid_mismatch_rejected(self, grid64, grid128):
        a = random_field(grid64, 14)
        b = random_field(grid128, 15)
        with pytest.raises(ValueError):
            VelocityField(a, b)

    def test_magnitude(self, grid64):
        a = random_field(grid64, 16)
        b = random_field(grid64, 17)
        v = VelocityField(a, b)
        assert np.allclose(v.magnitude, np.hypot(a.values, b.values))
