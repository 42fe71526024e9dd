"""Heat-evolved patch profiles: closed forms, error ladders, rate fits.

The reference values below were produced by two independent quadrature
routes (direct 2-d polar integration of the heat kernel over the disc,
and adaptive 1-d quadrature of the kernel mass) agreeing to 1e-14; they
pin the implementation bit-for-bit up to quadrature tolerance.  The
Gauss-Kronrod pairs that rankine integrates with are checked as rules,
against reference routes that walk the same (G16, K33) ... (G128, K257)
ladder bit for bit, and against an independent Gauss-Legendre-only route
to 1e-13.  The profile and error functions refuse tau below 1e-8.
"""

import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import i0e as scipy_i0e

from strato import rankine
from strato.rankine import (
    FitResult,
    RateSeries,
    exact_vorticity,
    fit_exponent,
    mass_defect,
    patch_deficit,
    similarity_deficit,
    truncation_radius,
    velocity_lp_error,
    vorticity_lp_error,
)


PROFILE_TABLE = [
    (1e-4, 0.0, 1.0000000000000002),
    (1e-4, 0.98, 0.920296770186316),
    (1e-4, 1.0, 0.4971789815506278),
    (1e-4, 1.02, 0.07762712132990164),
    (1e-3, 0.5, 1.0),
    (1e-2, 0.9, 0.736414414507323),
    (1e-2, 1.1, 0.21925554523883725),
    (0.1, 0.0, 0.9179150013761012),
    (0.1, 1.3, 0.19158787120285578),
    (0.5, 2.0, 0.08189230363059395),
]


class TestExactVorticity:
    @pytest.mark.parametrize("tau,r,want", PROFILE_TABLE)
    def test_frozen_table(self, tau, r, want):
        assert float(exact_vorticity(tau, r)) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_center_closed_form(self):
        # at the origin the disc integral collapses to 1 - exp(-1/(4 tau))
        for tau in (1e-3, 1e-2, 0.1, 0.5):
            want = 1.0 - math.exp(-1.0 / (4.0 * tau))
            assert float(exact_vorticity(tau, 0.0)) == pytest.approx(want, rel=1e-13)

    def test_rim_approaches_half(self):
        vals = [float(exact_vorticity(tau, 1.0)) for tau in (1e-3, 1e-4, 1e-5)]
        assert all(abs(v - 0.5) < 0.02 for v in vals)
        assert abs(vals[2] - 0.5) < abs(vals[0] - 0.5)

    def test_radially_nonincreasing(self):
        rs = np.linspace(0.0, 2.5, 200)
        for tau in (1e-3, 1e-2, 0.1):
            vals = np.asarray(exact_vorticity(tau, rs))
            assert np.all(np.diff(vals) <= 1e-12)

    def test_deficit_complement(self):
        rs = np.array([0.0, 0.5, 0.9, 1.0, 1.1, 2.0])
        for tau in (1e-3, 1e-2, 0.1):
            w = np.asarray(exact_vorticity(tau, rs))
            d = np.asarray(patch_deficit(tau, rs))
            assert np.abs(w + d - 1.0).max() < 1e-12

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            exact_vorticity(0.0, 0.5)
        with pytest.raises(ValueError):
            exact_vorticity(-1.0, 0.5)

    @pytest.mark.parametrize("entry", [
        partial(exact_vorticity, r=0.5), partial(patch_deficit, r=0.5), partial(vorticity_lp_error, p=2.0),
        partial(velocity_lp_error, p=2.0), mass_defect, partial(similarity_deficit, radius=0.5),
    ])
    def test_unresolved_tau_refused(self, entry):
        for tau in (1e-300, 1e-12, np.nextafter(1e-8, 0.0)):
            with pytest.raises(ValueError, match="tau must be >= 1e-08"):
                entry(tau)
        entry(1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=0.9),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_profile_range(self, tau, r):
        w = float(exact_vorticity(tau, r))
        assert -1e-12 <= w <= 1.0 + 1e-12


class TestMassAndErrors:
    def test_mass_defect_vanishes(self):
        # heat flow conserves the patch mass, so the signed discrepancy
        # integrates to zero up to quadrature error
        for tau in (1e-4, 1e-2, 0.5):
            assert abs(mass_defect(tau)) < 1e-12

    def test_velocity_error_frozen(self):
        assert velocity_lp_error(1e-3, 2.0) == pytest.approx(0.007865748669813492, rel=1e-12)
        assert velocity_lp_error(1e-2, 2.0) == pytest.approx(0.044099261175484884, rel=1e-12)
        assert velocity_lp_error(1e-2, 4.0) == pytest.approx(0.042565690525445024, rel=1e-12)

    def test_vorticity_error_frozen(self):
        assert vorticity_lp_error(1e-3, 2.0) == pytest.approx(0.2563002378844104, rel=1e-12)
        assert vorticity_lp_error(1e-2, 3.0) == pytest.approx(0.422399981894362, rel=1e-12)

    def test_errors_increase_with_tau(self):
        taus = (1e-4, 1e-3, 1e-2)
        werrs = [vorticity_lp_error(t, 2.0) for t in taus]
        verrs = [velocity_lp_error(t, 2.0) for t in taus]
        assert werrs == sorted(werrs)
        assert verrs == sorted(verrs)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            vorticity_lp_error(1e-2, 0.5)
        with pytest.raises(ValueError):
            vorticity_lp_error(1e-2, math.inf)

    def test_short_ladder_slope(self):
        # quarter-power decay of the L2 vorticity error, on a light ladder
        taus = np.geomspace(1e-3, 1e-1, 5)
        errs = np.array([vorticity_lp_error(t, 2.0) for t in taus])
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert slope == pytest.approx(0.25, abs=0.02)


def gk_panels(fn, a, b, n):
    """Gauss and Kronrod sums of fn over 8 equal pieces of [a, b], fn evaluated once per piece."""
    x, wk, wg = rankine._kronrod(n)
    edges = np.linspace(a, b, 9)
    gauss = kronrod = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2.0
        f = fn((hi + lo) / 2.0 + half * x)
        gauss += float(f[1::2] @ wg) * half
        kronrod += float(f @ wk) * half
    return gauss, kronrod


def gk_adaptive(fn, a, b):
    """The Kronrod sum of the first pair (G16, K33), (G32, K65), (G64, K129), (G128, K257) whose
    sums agree to 1e-12, else the K257 one."""
    if b <= a:
        return 0.0
    for n in (16, 32, 64, 128):
        gauss, kronrod = gk_panels(fn, a, b, n)
        if abs(kronrod - gauss) <= 1.0e-12 * max(1.0, abs(kronrod)):
            break
    return kronrod


def closure_vorticity_lp_error(tau, p):
    """The uncached route: the profile is evaluated inside the integrand, once per p."""
    inner, outer = rankine._layer_bounds(tau)
    inside = gk_adaptive(lambda r: patch_deficit(tau, r) ** p * 2.0 * np.pi * r, inner, 1.0)
    beyond = gk_adaptive(lambda r: exact_vorticity(tau, r) ** p * 2.0 * np.pi * r, 1.0, outer)
    return (inside + beyond) ** (1.0 / p)


@pytest.fixture
def fresh_profiles():
    rankine._layer_profile.cache_clear()
    yield rankine._layer_profile
    rankine._layer_profile.cache_clear()


class TestProfileCache:
    @pytest.mark.parametrize("tau", [1e-5, 1e-3, 1e-1, 1.0])
    def test_bit_identical_to_uncached_route(self, tau, fresh_profiles):
        for p in (1.0, 2.0, 3.0, 8.0):
            assert vorticity_lp_error(tau, p) == closure_vorticity_lp_error(tau, p)
        assert not any(arr.flags.writeable for side in fresh_profiles(tau, 16) for arr in side)

    def test_kernel_quadrature_shared_by_exponents(self, monkeypatch, fresh_profiles):
        calls = []
        real = rankine._kernel_mass_adaptive
        monkeypatch.setattr(rankine, "_kernel_mass_adaptive", lambda *args: calls.append(1) or real(*args))
        taus = np.geomspace(1e-4, 1e-1, 4)

        def count(ps):
            fresh_profiles.cache_clear()
            calls.clear()
            for p in ps:
                for tau in taus:
                    vorticity_lp_error(tau, p)
            return len(calls)

        one = count([2.0])
        assert one > 0
        assert count([2.0, 3.0, 4.0, 8.0]) == one

    def test_cache_stays_bounded(self, monkeypatch, fresh_profiles):
        # a flat stand-in profile keeps the long ladder cheap; the bound is the cache's
        flat = lambda tau, r: np.full_like(r, 0.5)
        monkeypatch.setattr(rankine, "patch_deficit", flat)
        monkeypatch.setattr(rankine, "exact_vorticity", flat)
        maxsize = fresh_profiles.cache_info().maxsize
        assert maxsize is not None
        for tau in np.geomspace(1e-4, 1.0, 200):
            vorticity_lp_error(tau, 2.0)
            assert fresh_profiles.cache_info().currsize <= maxsize
        assert fresh_profiles.cache_info().currsize == maxsize


def all_panel_kernel_mass(tau, rs, s_lo, s_hi, n):
    """The kernel mass's Gauss and Kronrod sums before empty panels were skipped: all 8 panels for every r."""
    root = math.sqrt(tau)
    rs = np.asarray(rs, dtype=np.float64)
    u_lo = np.maximum((s_lo - rs) / (2.0 * root), -rankine._U_CUT)
    u_hi = (
        np.full_like(rs, rankine._U_CUT)
        if math.isinf(s_hi)
        else np.minimum((s_hi - rs) / (2.0 * root), rankine._U_CUT)
    )
    x, wk, wg = rankine._kronrod(n)
    gauss, kronrod = np.zeros_like(rs), np.zeros_like(rs)
    for e0, e1 in zip(rankine._PANEL_EDGES[:-1], rankine._PANEL_EDGES[1:]):
        lo = np.maximum(u_lo, e0)
        hi = np.minimum(u_hi, e1)
        half = np.maximum(hi - lo, 0.0) / 2.0
        mid = (np.maximum(hi, lo) + lo) / 2.0
        nodes = mid[:, None] + half[:, None] * x[None, :]
        s = np.maximum(rs[:, None] + 2.0 * root * nodes, 0.0)
        vals = s * np.exp(-nodes**2) * rankine.i0e(rs[:, None] * s / (2.0 * tau))
        gauss += (vals[:, 1::2] @ wg) * half
        kronrod += (vals @ wk) * half
    return gauss / root, kronrod / root


def layer_rows(tau, n):
    """Deficit-side and vorticity-side node rows of the layer profile (first, middle, last piece)."""
    inner, outer = rankine._layer_bounds(tau)
    for a, b, s_lo, s_hi in ((inner, 1.0, 1.0, math.inf), (1.0, outer, 0.0, 1.0)):
        nodes = rankine._panel_profile(lambda r: r, a, b, n)[0]
        for row in nodes[[0, 3, -1]] if len(nodes) else ():
            yield row, s_lo, s_hi


KERNEL_TAUS = [1e-300, 1e-30, 1e-12, *np.geomspace(1e-6, 3.7, 7)]
CROSS_TAUS = list(np.geomspace(1e-8, 3.7, 9))


class TestLivePanels:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_kernel_mass_bit_identical_to_all_panels(self, n):
        for tau in KERNEL_TAUS:
            for rs, s_lo, s_hi in layer_rows(tau, n):
                got = rankine._kernel_mass(tau, rs, s_lo, s_hi, n)
                assert np.array_equal(got, all_panel_kernel_mass(tau, rs, s_lo, s_hi, n))

    def test_deficit_side_skips_panels_below_zero(self, monkeypatch):
        # rs <= 1 = s_lo puts every node at u >= 0: the four panels ending at or below 0 are empty
        args = []
        i0e = rankine.i0e
        monkeypatch.setattr(rankine, "i0e", lambda z: args.append(z) or i0e(z))
        tau = 1e-3
        rs = np.linspace(0.9, 1.0, 33)
        rankine._kernel_mass(tau, rs, 1.0, math.inf, 64)
        assert len(args) == 1  # one call on the live panels' stacked arguments
        assert 0 < len(args[0]) <= 4
        for z in args:
            s = z * 2.0 * tau / rs[:, None]
            assert np.all(s >= rs[:, None] * (1.0 - 1e-12))

    def test_one_pass_velocity_profile_matches_per_piece(self, monkeypatch):
        with pytest.raises(ValueError, match="tau must be >= 1e-08"):
            velocity_lp_error(1e-12, 1.0)
        taus = [1e-8, 1e-5, 1e-3, 0.3]
        rankine._speed_profile.cache_clear()
        one_pass = [velocity_lp_error(tau, p) for tau in taus for p in (1.0, 2.5, 8.0)]
        panel_profile = rankine._panel_profile
        monkeypatch.setattr(rankine, "_panel_profile", lambda fn, *a: panel_profile(rankine._by_row(fn), *a))
        rankine._speed_profile.cache_clear()  # else the per-piece route is never built
        assert [velocity_lp_error(tau, p) for tau in taus for p in (1.0, 2.5, 8.0)] == one_pass
        rankine._speed_profile.cache_clear()


class TestI0e:
    """The Cephes port against scipy.special.i0e, bit for bit on both sides of x = 8."""

    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(0)
        edges = [0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, np.inf), 1e-300, 1e300, np.inf]
        x = np.concatenate([rng.uniform(0.0, 8.0, 200_000), rng.uniform(8.0, 64.0, 200_000),
                            np.exp(rng.uniform(-700.0, 700.0, 100_000)), edges])
        x = np.concatenate([x, -x])
        assert np.array_equal(rankine.i0e(x), scipy_i0e(x))


def uncached_velocity_lp_error(tau, p):
    """The velocity error with its profile evaluated inside the integrand, once per p."""
    inner, outer = rankine._layer_bounds(tau)

    def speed(r):
        return np.divide(np.abs(rankine._running_moment(tau, r)), r, out=np.zeros_like(r), where=r > 0.0)

    sides = ((inner, 1.0), (1.0, outer))
    return sum(gk_adaptive(lambda r: speed(r) ** p * 2.0 * np.pi * r, a, b) for a, b in sides) ** (1.0 / p)


class TestVelocityProfileCache:
    def test_one_profile_per_tau_and_order(self, monkeypatch):
        # no check of these tau escalates, so one n = 16 profile per tau serves every p
        calls = []
        panel_profile = rankine._panel_profile
        monkeypatch.setattr(rankine, "_panel_profile", lambda *a: calls.append(1) or panel_profile(*a))
        rankine._speed_profile.cache_clear()
        taus = np.geomspace(1e-4, 1e-1, 8)
        for tau in taus:
            for p in (2.0, 4.0):
                velocity_lp_error(tau, p)
        assert rankine._speed_profile.cache_info().misses == 8  # 8 tau x n = 16
        assert len(calls) == 2 * 8  # one per side of the rim
        rankine._speed_profile.cache_clear()

    def test_bit_identical_to_uncached_route(self):
        rankine._speed_profile.cache_clear()
        for tau in (1e-300, 1e-12):
            with pytest.raises(ValueError, match="tau must be >= 1e-08"):
                velocity_lp_error(tau, 1.0)
        for tau in [1e-8, *np.geomspace(1e-6, 3.7, 6)]:
            for p in (1.0, 2.0, 2.5, 8.0):
                assert repr(velocity_lp_error(tau, p)) == repr(uncached_velocity_lp_error(tau, p))
        assert not any(arr.flags.writeable for side in rankine._speed_profile(1e-3, 16) for arr in side)
        rankine._speed_profile.cache_clear()


class TestKronrodRule:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_rule(self, n):
        x, wk, wg = rankine._kronrod(n)
        assert x.shape == wk.shape == (2 * n + 1,)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(wk, wk[::-1]) and np.all(np.diff(x) > 0.0)
        assert np.all(wk > 0.0)
        assert abs(wk.sum() - 2.0) <= 1e-14
        for d in range(3 * n + 2):
            assert abs(wk @ x**d - (1.0 + (-1.0) ** d) / (d + 1.0)) <= 1e-14
        gx, gw = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x[1::2] - gx)) <= 1e-15
        assert np.array_equal(wg, gw)
        assert not any(arr.flags.writeable for arr in (x, wk, wg))

    def test_built_on_first_use(self):
        code = "import strato.cli, strato.rankine as r; print(r._kronrod.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert out.split() == ["0"]


class TestOrderLadder:
    """Every check starts at (G16, K33) and moves up the ladder only when its sums disagree."""

    def test_kernel_mass_moves_to_next_rule(self, monkeypatch):
        # a stub whose (G16, K33) sums disagree by 1e-10 and whose (G32, K65) ones agree
        orders, kronrods = [], {}

        def stub(tau, rs, s_lo, s_hi, n):
            orders.append(n)
            kronrods[n] = np.full(3, 1.0 + n)
            return kronrods[n] + (1e-10 if n == 16 else 0.0), kronrods[n]

        monkeypatch.setattr(rankine, "_kernel_mass", stub)
        got = rankine._kernel_mass_adaptive(1e-3, np.zeros(3), 0.0, 1.0)
        assert orders == [16, 32]
        assert got is kronrods[32]

    def test_kernel_mass_takes_finest_rule_when_no_pair_agrees(self, monkeypatch):
        orders = []

        def stub(tau, rs, s_lo, s_hi, n):
            orders.append(n)
            return np.full(3, 2.0), np.full(3, float(n))

        monkeypatch.setattr(rankine, "_kernel_mass", stub)
        got = rankine._kernel_mass_adaptive(1e-3, np.zeros(3), 0.0, 1.0)
        assert orders == [16, 32, 64, 128]
        assert np.array_equal(got, np.full(3, 128.0))

    def test_profile_side_moves_to_next_rule(self, monkeypatch):
        # velocity at tau = 3.7, p = 8: beyond the rim the (G16, K33) sums differ by 2.3e-12, the
        # (G32, K65) ones agree; inside, (G16, K33) already agrees
        tau, p = 3.7, 8.0
        rankine._speed_profile.cache_clear()
        sums = {n: [rankine._panel_quadrature(p, *side) for side in rankine._speed_profile(tau, n)] for n in (16, 32)}
        agree = {n: [abs(k - g) <= 1.0e-12 * max(1.0, abs(k)) for g, k in row] for n, row in sums.items()}
        assert agree == {16: [True, False], 32: [True, True]}
        orders = []
        speed_profile = rankine._speed_profile
        monkeypatch.setattr(rankine, "_speed_profile", lambda t, n: orders.append(n) or speed_profile(t, n))
        assert velocity_lp_error(tau, p) == (sums[16][0][1] + sums[32][1][1]) ** (1.0 / p)
        assert orders == [16, 16, 32]
        speed_profile.cache_clear()

    def test_benchmark_ladders_build_only_the_coarsest_rule(self):
        # the perfbench analysis ladders, in a fresh interpreter: no check escalates
        code = (
            "import strato.cli, strato.rankine as r\n"
            "built, kronrod = [], r._kronrod\n"
            "r._kronrod = lambda n: built.append(n) or kronrod(n)\n"
            "for q, ps in (('vorticity', ['2', '3', '4', '8']), ('velocity', ['2', '4'])):\n"
            "    strato.cli.main(['rankine', '--quantity', q, '--p', *ps, '--tau-min', '1e-4', '--tau-max', '1e-1',\n"
            "                     '--points', '8'])\n"
            "print('built', *sorted(set(built)), kronrod.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert out.splitlines()[-1].split() == ["built", "16", "1"]


def fixed_degree_moment_panels(tau):
    """The moment fits before the degree ladder: degree 220 on each side, refitted at degree 440
    (unchecked) when the degree-220 model misses the profile by more than 1e-11 at the probe points."""
    inner, outer = rankine._layer_bounds(tau)

    def fit(a, b, func):
        raw = cheb.chebinterpolate(lambda xi: func(a + (b - a) * (xi + 1.0) / 2.0), 220)
        probe = np.linspace(-0.97, 0.97, 37)
        exact = func(a + (b - a) * (probe + 1.0) / 2.0)
        if np.max(np.abs(cheb.chebval(probe, raw) - exact)) > 1.0e-11:
            raw = cheb.chebinterpolate(lambda xi: func(a + (b - a) * (xi + 1.0) / 2.0), 440)
        return raw, cheb.chebint(raw, m=1, lbnd=-1.0, scl=(b - a) / 2.0)

    c0, m0 = fit(inner, 1.0, lambda r: -r * patch_deficit(tau, r))
    c1, m1 = fit(1.0, outer, lambda r: r * exact_vorticity(tau, r))
    return inner, 1.0, c0, m0, outer, c1, m1


class TestChebyshevLadder:
    """Each side of the velocity reference keeps the first degree of 64, 128, 256, 512 that passes the probe check."""

    def test_fit_moves_to_next_degree(self):
        # T_100 aliases on the 65 nodes of degree 64 and is exact at degree 128
        sizes = []

        def side(r):
            sizes.append(len(r))
            return np.cos(100.0 * np.arccos(np.clip(r, -1.0, 1.0)))

        raw, moment = rankine._chebyshev_fit(side, -1.0, 1.0)
        assert sizes == [37, 65, 129]  # the probe values once, then one interpolant per degree tried
        want = cheb.chebinterpolate(lambda xi: side(-1.0 + 2.0 * (xi + 1.0) / 2.0), 128)
        assert raw.shape == (129,) and np.array_equal(raw, want)
        assert np.array_equal(moment, cheb.chebint(want, m=1, lbnd=-1.0, scl=1.0))

    def test_fit_takes_last_degree_when_none_passes(self):
        rng = np.random.default_rng(7)
        sizes, values = [], []

        def side(r):
            sizes.append(len(r))
            values.append(rng.standard_normal(len(r)))
            return values[-1]

        raw, moment = rankine._chebyshev_fit(side, 0.25, 1.0)
        assert sizes == [37, 65, 129, 257, 513]
        want = cheb.chebinterpolate(lambda xi: values[-1], 512)
        assert raw.shape == (513,) and np.array_equal(raw, want)
        assert np.array_equal(moment, cheb.chebint(want, m=1, lbnd=-1.0, scl=0.375))

    def test_benchmark_velocity_ladder_fits_at_degree_64(self):
        # the perfbench analysis velocity ladder, in a fresh interpreter: every side passes at the first rung
        code = (
            "import numpy.polynomial.chebyshev as cheb, strato.cli\n"
            "degrees, interpolate = [], cheb.chebinterpolate\n"
            "cheb.chebinterpolate = lambda f, deg, args=(): degrees.append(deg) or interpolate(f, deg, args)\n"
            "strato.cli.main(['rankine', '--quantity', 'velocity', '--p', '2', '4', '--tau-min', '1e-4',\n"
            "                 '--tau-max', '1e-1', '--points', '8'])\n"
            "print('degrees', *degrees)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert out.splitlines()[-1].split() == ["degrees", *["64"] * 16]

    @pytest.mark.parametrize("tau", [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 3.7])
    def test_matches_fixed_degree_route(self, tau, monkeypatch):
        # the largest relative change over geomspace(1e-8, 3.7, 23) and p in 1 ... 16 measured 5.8e-13
        ps = (1.0, 2.0, 8.0, 16.0)
        rankine._speed_profile.cache_clear()
        got = [velocity_lp_error(tau, p) for p in ps]
        assert abs(mass_defect(tau)) < 1e-12
        monkeypatch.setattr(rankine, "_signed_moment_panels", fixed_degree_moment_panels)
        rankine._speed_profile.cache_clear()
        want = [velocity_lp_error(tau, p) for p in ps]
        rankine._speed_profile.cache_clear()
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def gauss_kernel_mass_adaptive(tau, rs, s_lo, s_hi):
    """The kernel mass by Gauss-Legendre rules alone: G64 if it matches G32 to 1e-13, else G128 or G256."""
    root = math.sqrt(tau)
    rs = np.asarray(rs, dtype=np.float64)
    u_lo = np.maximum((s_lo - rs) / (2.0 * root), -rankine._U_CUT)
    u_hi = np.minimum((s_hi - rs) / (2.0 * root), rankine._U_CUT)  # +inf - rs -> the cut

    def mass(order):
        x, w = np.polynomial.legendre.leggauss(order)
        total = np.zeros_like(rs)
        for e0, e1 in zip(rankine._PANEL_EDGES[:-1], rankine._PANEL_EDGES[1:]):
            lo, hi = np.maximum(u_lo, e0), np.minimum(u_hi, e1)
            half = np.maximum(hi - lo, 0.0) / 2.0
            nodes = ((np.maximum(hi, lo) + lo) / 2.0)[:, None] + half[:, None] * x
            s = np.maximum(rs[:, None] + 2.0 * root * nodes, 0.0)
            total += (s * np.exp(-nodes**2) * scipy_i0e(rs[:, None] * s / (2.0 * tau)) @ w) * half
        return total / root

    coarse = mass(32)
    for order in (64, 128, 256):
        fine = mass(order)
        if np.max(np.abs(fine - coarse)) <= 1.0e-13 * max(1.0, float(np.max(np.abs(fine)))):
            return fine
        coarse = fine
    return coarse


def gauss_lp_errors(tau, ps, side_fns):
    """(int |f|^p 2 pi r dr)^(1/p) for each p, f = side_fns[k] on layer side k, by Gauss-Legendre rules
    alone: G128 on 8 pieces, or G256 where G64 and G128 differ by 1e-12.  One profile per order serves every p."""
    inner, outer = rankine._layer_bounds(tau)
    totals = dict.fromkeys(ps, 0.0)
    for fn, (a, b) in zip(side_fns, ((inner, 1.0), (1.0, outer))):
        if b <= a:
            continue
        edges = np.linspace(a, b, 9)
        half = (edges[1:] - edges[:-1]) / 2.0

        def profile(order):
            x, w = np.polynomial.legendre.leggauss(order)
            nodes = ((edges[1:] + edges[:-1]) / 2.0)[:, None] + half[:, None] * x
            return nodes, np.array([fn(row) for row in nodes]), w

        coarse, fine = profile(64), profile(128)
        finest = None
        for p in ps:
            c, f = (float(sum((v**p * 2.0 * np.pi * r) @ w * h for r, v, h in zip(nodes, vals, half)))
                    for nodes, vals, w in (coarse, fine))
            if abs(f - c) > 1.0e-12 * max(1.0, abs(f)):
                finest = finest or profile(256)
                nodes, vals, w = finest
                f = float(sum((v**p * 2.0 * np.pi * r) @ w * h for r, v, h in zip(nodes, vals, half)))
            totals[p] += f
    return [totals[p] ** (1.0 / p) for p in ps]


def gauss_only_errors(tau, ps):
    """Vorticity and velocity errors for each p with the Gauss-only kernel mass behind every profile,
    the moment fits of the velocity error included."""
    def speed(r):
        return np.divide(np.abs(rankine._running_moment(tau, r)), r, out=np.zeros_like(r), where=r > 0.0)

    real = rankine._kernel_mass_adaptive
    rankine._kernel_mass_adaptive = gauss_kernel_mass_adaptive
    rankine._signed_moment_panels.cache_clear()
    try:
        return (gauss_lp_errors(tau, ps, (partial(patch_deficit, tau), partial(exact_vorticity, tau))),
                gauss_lp_errors(tau, ps, (speed, speed)))
    finally:
        rankine._kernel_mass_adaptive = real
        rankine._signed_moment_panels.cache_clear()


class TestGaussOnlyCrossCheck:
    """The Gauss-Kronrod route against the former Gauss-Legendre-only one, on the closed-form layer."""

    @pytest.mark.parametrize("tau", CROSS_TAUS)
    def test_within_1e13_of_gauss_only_route(self, tau):
        ps = (1.0, 2.0, 2.5, 8.0)
        got = ([vorticity_lp_error(tau, p) for p in ps], [velocity_lp_error(tau, p) for p in ps])
        for new, old in zip(got, gauss_only_errors(tau, ps)):
            assert np.allclose(new, old, rtol=1e-13, atol=0.0)


class TestSimilarityWindow:
    def test_matches_deficit_inside(self):
        tau = 1e-2
        xs = np.array([0.0, 3.0, 8.0, 1.0 / math.sqrt(tau)])
        got = np.asarray(similarity_deficit(tau, xs))
        want = np.asarray(patch_deficit(tau, np.minimum(xs * math.sqrt(tau), 1.0)))
        assert np.abs(got - want).max() < 1e-14

    def test_window_validation(self):
        with pytest.raises(ValueError):
            similarity_deficit(2.0, 0.5)
        with pytest.raises(ValueError):
            similarity_deficit(1e-2, 11.0)
        with pytest.raises(ValueError):
            similarity_deficit(1e-2, -0.5)

    @staticmethod
    def annulus_floor(tau):
        """Minimum deficit over the unit-width annulus at the rim, 129 samples."""
        hi = 1.0 / math.sqrt(tau)
        return float(np.min(similarity_deficit(tau, np.linspace(max(0.0, hi - 1.0), hi, 129))))

    def test_annulus_floor_frozen(self):
        assert self.annulus_floor(1e-2) == pytest.approx(0.2635855854926769, rel=1e-10)

    def test_annulus_floor_uniform(self):
        # the rim discrepancy never washes out as the diffusion time
        # drops; the limit of the scan is erfc(1/2)/2 ~ 0.2398, so 0.24
        # bounds the whole ladder
        for tau in (1e-3, 1e-2, 1e-1):
            assert self.annulus_floor(tau) >= 0.24

    def test_truncation_radius_grows(self):
        taus = (1e-4, 1e-2, 1.0)
        rads = [truncation_radius(t) for t in taus]
        assert rads == sorted(rads)
        assert rads[0] > 3.0


class TestRateFits:
    def test_exact_power_law_recovered(self):
        taus = np.geomspace(1e-4, 1e-1, 8)
        errs = 3.0 * taus**0.25
        fit = fit_exponent(RateSeries("w", 2.0, taus, errs, reference_exponent=0.25))
        assert fit.slope == pytest.approx(0.25, abs=1e-12)
        assert fit.stderr < 1e-12
        assert fit.c_lower == pytest.approx(3.0, rel=1e-10)
        assert fit.c_upper == pytest.approx(3.0, rel=1e-10)

    def test_reference_defaults_to_fit(self):
        taus = np.geomspace(1e-4, 1e-1, 8)
        errs = 2.0 * taus**0.5
        fit = fit_exponent(RateSeries("v", 2.0, taus, errs))
        assert fit.reference_exponent == pytest.approx(0.5, abs=1e-12)

    def test_needs_six_points(self):
        taus = np.geomspace(1e-4, 1e-1, 5)
        with pytest.raises(ValueError, match="6"):
            fit_exponent(RateSeries("w", 2.0, taus, taus**0.25))

    def test_needs_two_decades(self):
        taus = np.geomspace(1e-2, 1e-1, 8)
        with pytest.raises(ValueError, match="decades"):
            fit_exponent(RateSeries("w", 2.0, taus, taus**0.25))

    def test_series_validation(self):
        taus = np.geomspace(1e-4, 1e-1, 8)
        with pytest.raises(ValueError):
            RateSeries("w", 2.0, taus, -(taus**0.25))
        with pytest.raises(ValueError):
            RateSeries("w", 2.0, taus, taus[:-1] ** 0.25)

    def test_result_is_frozen(self):
        fit = FitResult(0.25, 0.0, 1.0, 1.0, 0.25)
        with pytest.raises(Exception):
            fit.slope = 0.3
