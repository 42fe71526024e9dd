"""Dyadic analysis: profiles, partitions, Besov norms, paraproducts."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strato.grid import GridSpec, ScalarField, _HalfKernel, lp_norm
from strato.littlewood_paley import (
    BesovParams,
    DyadicPartition,
    TimeSeries,
    _ladder,
    annulus_profile,
    bernstein_ratio,
    besov_norm,
    block,
    block_norms,
    bony_decompose,
    lowpass_profile,
    smooth_ramp,
    time_besov_norm,
)
from conftest import half_kmag, random_field


class TestProfiles:
    def test_ramp_endpoints_exact(self):
        x = np.array([-2.0, -0.0, 0.0, 1.0, 1.5])
        out = smooth_ramp(x)
        assert np.array_equal(out, [0.0, 0.0, 0.0, 1.0, 1.0])

    def test_ramp_monotone(self):
        x = np.linspace(-0.5, 1.5, 401)
        out = smooth_ramp(x)
        assert np.all(np.diff(out) >= 0.0)

    def test_ramp_symmetry(self):
        x = np.linspace(0.01, 0.99, 99)
        assert np.abs(smooth_ramp(x) + smooth_ramp(1.0 - x) - 1.0).max() < 1e-14

    def test_lowpass_frozen_table(self):
        r = np.array([0.0, 0.25, 0.5, 0.55, 0.625, 0.75, 0.875, 0.95, 1.0, 1.5])
        want = np.array([
            1.0, 1.0, 1.0,
            0.99986211, 0.93503083, 0.5, 0.06496917, 0.00013789,
            0.0, 0.0,
        ])
        assert np.abs(lowpass_profile(r) - want).max() < 1e-8

    def test_lowpass_midpoint_exact(self):
        assert lowpass_profile(np.array([0.75]))[0] == 0.5

    def test_annulus_support(self):
        r = np.array([0.0, 0.25, 0.5, 2.0, 3.0])
        assert np.array_equal(annulus_profile(r), np.zeros(5))
        inside = annulus_profile(np.linspace(0.6, 1.9, 20))
        assert np.all(inside > 0.0)

    def test_annulus_peak(self):
        # the two low passes cross over at r = 1, where the difference
        # peaks at exactly 1; nearby it stays within the ramp tails
        assert annulus_profile(np.array([1.0]))[0] == 1.0
        near = annulus_profile(np.linspace(0.95, 1.05, 11))
        assert near.min() > 0.999


class TestPartition:
    @pytest.mark.parametrize(
        "n,half_length,want_qmax,want_qlow",
        [(512, 8.0, 5, -5), (512, 2.0, 7, -3), (256, 8.0, 4, -5), (128, 8.0, 3, -5)],
    )
    def test_ladder_endpoints(self, n, half_length, want_qmax, want_qlow):
        part = DyadicPartition(GridSpec(n=n, half_length=half_length))
        assert part.q_max == want_qmax
        assert part.q_low == want_qlow

    def test_multipliers_sum_to_one_on_band(self, grid128):
        part = DyadicPartition(grid128)
        total = sum(part.multiplier(q) for q in part.qs())
        on_band = half_kmag(grid128) <= 2.0**part.q_max
        assert np.abs(total[on_band] - 1.0).max() < 1e-14

    def test_reconstruction_band_limited(self, grid128):
        part = DyadicPartition(grid128)
        f = random_field(grid128, 40, band=2.0**part.q_max)
        total = sum(block(f, q).values for q in part.qs())
        assert np.abs(total - f.values).max() < 1e-12 * np.abs(f.values).max()

    def test_distant_blocks_orthogonal(self, grid128):
        part = DyadicPartition(grid128)
        f = random_field(grid128, 41, band=2.0**part.q_max)
        twice = block(block(f, 1), 3)
        assert lp_norm(twice, np.inf) < 1e-13

    def test_adjacent_blocks_interact(self, grid128):
        part = DyadicPartition(grid128)
        f = random_field(grid128, 42, band=2.0**part.q_max)
        once = block(block(f, 2), 3)
        assert lp_norm(once, np.inf) > 1e-6

    def test_q_bounds_enforced(self, grid128):
        part = DyadicPartition(grid128)
        with pytest.raises(ValueError):
            part.multiplier(part.q_max + 1)
        with pytest.raises(ValueError):
            part.multiplier(-2)
        with pytest.raises(ValueError):
            part.multiplier(part.q_low - 1, homogeneous=True)

    def test_homogeneous_ladder_extends_down(self, grid128):
        part = DyadicPartition(grid128)
        assert list(part.qs()) == list(range(-1, part.q_max + 1))
        assert list(part.qs(homogeneous=True)) == list(range(part.q_low, part.q_max + 1))

    def test_single_mode_block_weights(self, grid128):
        # a pure mode at |k| = 4pi/8 sees each annulus as the scalar
        # annulus_profile(|k| 2^-q), acting pointwise on its two spikes
        m = 4
        kappa = m * np.pi / 8.0
        f = ScalarField.from_function(grid128, lambda x1, x2: np.cos(kappa * x1))
        part = DyadicPartition(grid128)
        for q in range(0, part.q_max + 1):
            want = annulus_profile(np.array([kappa * 2.0**-q]))[0]
            got = block(f, q)
            assert np.abs(got.values - want * f.values).max() < 1e-12


class TestBesovNorm:
    def test_monotone_in_s(self, grid128):
        f = random_field(grid128, 43, band=8.0)
        for p in (2.0, np.inf):
            norms = [besov_norm(f, BesovParams(s=s, p=p)) for s in (-1.0, 0.0, 0.5, 2.0)]
            assert all(a <= b * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_l2_equivalence_band_limited(self, grid128):
        part = DyadicPartition(grid128)
        f = random_field(grid128, 44, band=2.0**part.q_max)
        nb = besov_norm(f, BesovParams(s=0.0, p=2.0, r=2.0))
        l2 = lp_norm(f, 2.0)
        assert l2 / np.sqrt(2.0) <= nb <= l2 * (1.0 + 1e-12)

    def test_interpolation_sup_norm(self, grid128):
        # 2^(q s) a_q factors through the endpoint weights, so the sup
        # norm at the intermediate s is at most the product of powers
        f = random_field(grid128, 45, band=8.0)
        s1, s2, theta = -0.5, 1.5, 0.4
        s = theta * s1 + (1.0 - theta) * s2
        n1 = besov_norm(f, BesovParams(s=s1))
        n2 = besov_norm(f, BesovParams(s=s2))
        ns = besov_norm(f, BesovParams(s=s))
        assert ns <= 2.0 * n1**theta * n2 ** (1.0 - theta)

    def test_homogeneous_ignores_constants(self, grid64):
        f = random_field(grid64, 47, band=4.0)
        shifted = ScalarField(grid64, f.values + 5.0)
        params = BesovParams(s=1.0, p=2.0, r=2.0, homogeneous=True)
        a = besov_norm(f, params)
        b = besov_norm(shifted, params)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_nonfinite_regularity_rejected(self, s):
        with pytest.raises(ValueError, match="s must be finite"):
            BesovParams(s=s)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BesovParams(s=0.0, p=0.5)
        with pytest.raises(ValueError):
            BesovParams(s=0.0, r=0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_absolute_homogeneity(self, seed, s, c):
        g = GridSpec(n=32, half_length=4.0)
        f = random_field(g, seed, band=4.0)
        params = BesovParams(s=s, p=2.0, r=1.0)
        assert besov_norm(ScalarField(g, c * f.values), params) == pytest.approx(
            c * besov_norm(f, params), rel=1e-10
        )


class TestBernstein:
    @staticmethod
    def wave_packet(grid, q):
        # carrier at |k| = 2^q under a gaussian envelope two wavelengths
        # wide; the spectrum then fills a fixed fraction of the annulus
        lam = 2.0**q
        width = 2.0 / lam

        def fn(x1, x2):
            env = np.exp(-(x1**2 + x2**2) / (2.0 * width**2))
            return env * np.cos(lam * x1)

        return ScalarField.from_function(grid, fn)

    def test_packet_corpus_brackets(self, grid256):
        # two-sided gain brackets need spatially concentrated blocks; a
        # packet one annulus wide in frequency is the extremal shape, and
        # exponent pairs with p >= 2 keep the mass comparison honest
        for q in (1, 2, 3, 4):
            f = self.wave_packet(grid256, q)
            for p, b in ((2.0, np.inf), (2.0, 4.0)):
                deriv, gain = bernstein_ratio(f, q, p, b)
                assert 1.0 / 8.0 <= deriv <= 8.0
                assert 1.0 / 8.0 <= gain <= 8.0

    def test_random_corpus_brackets(self, grid256):
        # spread fields: the derivative ratio stays two-sided, while the
        # integrability gain only obeys the upper bar (its lower end
        # scales away with the support fraction, so no floor is asserted)
        part = DyadicPartition(grid256)
        for seed in (11, 12, 13):
            f = random_field(grid256, seed, band=2.0**part.q_max)
            for q in range(1, part.q_max - 1):
                for p, b in ((1.0, 2.0), (2.0, np.inf)):
                    deriv, gain = bernstein_ratio(f, q, p, b)
                    assert 1.0 / 8.0 <= deriv <= 8.0
                    assert gain <= 8.0

    def test_deriv_ratio_scale_free(self, grid256):
        # the normalized derivative ratio should be flat across the ladder
        ratios = [bernstein_ratio(self.wave_packet(grid256, q), q, 2.0, 2.0)[0] for q in (1, 2, 3, 4)]
        assert max(ratios) / min(ratios) < 2.0

    def test_zero_block_rejected(self, grid128):
        f = random_field(grid128, 48, band=4.0)
        part = DyadicPartition(grid128)
        with pytest.raises(ValueError, match="vanishes"):
            bernstein_ratio(f, part.q_max, 2.0, np.inf)

    def test_exponent_order_enforced(self, grid128):
        f = random_field(grid128, 49, band=4.0)
        with pytest.raises(ValueError):
            bernstein_ratio(f, 1, 4.0, 2.0)


class TestBony:
    def test_pieces_recompose_product(self, band_limited_pair):
        u, v = band_limited_pair
        t_uv, t_vu, rem = bony_decompose(u, v)
        got = t_uv.values + t_vu.values + rem.values
        want = u.values * v.values
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    def test_paraproducts_swap_roles(self, band_limited_pair):
        u, v = band_limited_pair
        t_uv, t_vu, _ = bony_decompose(u, v)
        s_vu, s_uv, _ = bony_decompose(v, u)
        assert np.abs(t_uv.values - s_uv.values).max() < 1e-12
        assert np.abs(t_vu.values - s_vu.values).max() < 1e-12

    def test_band_violation_rejected(self, grid128):
        part = DyadicPartition(grid128)
        good = random_field(grid128, 50, band=2.0 ** (part.q_max - 2))
        bad = random_field(grid128, 51)
        with pytest.raises(ValueError, match="frequency content"):
            bony_decompose(good, bad)
        with pytest.raises(ValueError, match="frequency content"):
            bony_decompose(bad, good)

    def test_grid_mismatch_rejected(self, grid64, grid128):
        with pytest.raises(ValueError):
            bony_decompose(random_field(grid64, 52, band=2.0), random_field(grid128, 53, band=2.0))

    def test_paraproduct_of_constant_vanishes(self, grid128):
        # low passes of a mean-free high field never see the constant
        part = DyadicPartition(grid128)
        c = ScalarField(grid128, np.ones((128, 128)))
        f = random_field(grid128, 54, band=2.0 ** (part.q_max - 2))
        t_cf, t_fc, rem = bony_decompose(c, f)
        got = t_cf.values + t_fc.values + rem.values
        assert np.abs(got - f.values).max() < 1e-12


class TestTimeSeries:
    def test_validation(self, grid64):
        f = random_field(grid64, 55)
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries(np.array([0.0, 0.0]), (f, f))
        with pytest.raises(ValueError, match="align"):
            TimeSeries(np.array([0.0, 1.0, 2.0]), (f, f))

    def test_grid_mismatch(self, grid64, grid128):
        with pytest.raises(ValueError, match="share a grid"):
            TimeSeries(np.array([0.0, 1.0]), (random_field(grid64, 56), random_field(grid128, 57)))

    def test_constant_series_closed_form(self, grid64):
        f = random_field(grid64, 58, band=4.0)
        series = TimeSeries(np.array([0.0, 0.5, 1.0, 1.5, 2.0]), (f,) * 5)
        params = BesovParams(s=0.5, p=2.0, r=2.0)
        nb = besov_norm(f, params)
        tilde, plain = time_besov_norm(series, 1.0, params)
        assert tilde == pytest.approx(2.0 * nb, rel=1e-12)
        assert plain == pytest.approx(2.0 * nb, rel=1e-12)

    def test_tilde_below_plain_for_sup_ladder(self, grid64):
        # with r = inf the blockwise time integral is dominated by the
        # time integral of the blockwise sup
        rng = np.random.default_rng(59)
        fields = tuple(
            ScalarField(grid64, random_field(grid64, 600 + i, band=6.0).values * rng.uniform(0.2, 1.0))
            for i in range(4)
        )
        series = TimeSeries(np.array([0.0, 0.3, 0.7, 1.0]), fields)
        params = BesovParams(s=0.25, p=2.0, r=np.inf)
        tilde, plain = time_besov_norm(series, 1.0, params)
        assert tilde <= plain * (1.0 + 1e-12)

    def test_sup_in_time_matches_max(self, grid64):
        fields = tuple(random_field(grid64, 700 + i, band=4.0) for i in range(3))
        series = TimeSeries(np.array([0.0, 1.0, 2.0]), fields)
        params = BesovParams(s=0.0, p=np.inf)
        _, plain = time_besov_norm(series, np.inf, params)
        assert plain == pytest.approx(max(besov_norm(f, params) for f in fields), rel=1e-12)

    def test_beta_validation(self, grid64):
        f = random_field(grid64, 61)
        series = TimeSeries(np.array([0.0, 1.0]), (f, f))
        with pytest.raises(ValueError):
            time_besov_norm(series, 0.5, BesovParams(s=0.0))


class TestPrunedLadder:
    """Blocks inverted on their nonzero columns only, from multipliers cached per grid, bit for bit."""

    @pytest.mark.parametrize("n,half_length", [(128, 8.0), (256, 2.0)])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_block_norms_match_full_inverse(self, n, half_length, homogeneous, monkeypatch):
        g = GridSpec(n=n, half_length=half_length)
        part = DyadicPartition(g)
        f = random_field(g, n + 11)
        empty = [q for q in part.qs(homogeneous) if not part.multiplier(q, homogeneous).any()]
        # the lowest homogeneous blocks have no lattice point in their annulus
        assert bool(empty) == homogeneous and empty == list(part.qs(homogeneous))[: len(empty)]
        inverses = []
        head_real = _HalfKernel.head_real
        monkeypatch.setattr(_HalfKernel, "head_real", lambda kern, head, m=None: inverses.append(head) or head_real(kern, head, m))
        for p in (1.0, 2.0, 4.0, np.inf):
            inverses.clear()
            got = block_norms(f, BesovParams(s=0.5, p=p, homogeneous=homogeneous))
            assert list(got) == list(part.qs(homogeneous))
            assert len(inverses) == len(got) - len(empty)  # an empty block costs no transform
            for q, norm in got.items():
                full = ScalarField.from_half_spectrum(g, part.multiplier(q, homogeneous) * f.half_spectrum)
                assert norm == lp_norm(full, p)
                assert type(norm) is float and (q not in empty or norm == 0.0)
            for q in part.qs(homogeneous):
                full = ScalarField.from_half_spectrum(g, part.multiplier(q, homogeneous) * f.half_spectrum)
                assert np.array_equal(block(f, q, homogeneous=homogeneous).values, full.values)

    def test_equal_grids_share_one_ladder(self):
        _ladder.cache_clear()
        g1, g2 = GridSpec(n=32, half_length=3.0), GridSpec(n=32, half_length=3.0)
        assert g1 is not g2
        params = BesovParams(s=0.5, p=2.0)
        a = block_norms(random_field(g1, 1), params)
        b = block_norms(random_field(g2, 1), params)
        assert a == b
        info = _ladder.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cache_keeps_no_kernel_alive(self):
        g = GridSpec(n=32, half_length=3.7)
        f = random_field(g, 2)
        kernel = weakref.ref(g._kernel)
        besov_norm(f, BesovParams(s=0.5, p=2.0))
        besov_norm(f, BesovParams(s=0.5, p=2.0, homogeneous=True))
        del f, g
        gc.collect()
        assert kernel() is None
        # nor any other kernel of this grid size; only the key is read, so no multiplier is built on a live kernel
        assert not [k for k in gc.get_objects() if isinstance(k, _HalfKernel) and (k.n, k.half_length) == (32, 3.7)]

    def test_ladder_leaves_no_ksq_on_the_shared_kernel(self):
        _ladder.cache_clear()
        g = GridSpec(n=512, half_length=2.3)
        block_norms(random_field(g, 5), BesovParams(s=0.5))
        block_norms(random_field(g, 5), BesovParams(s=0.5, homogeneous=True))
        assert "ksq" not in g._kernel.__dict__

    @pytest.mark.parametrize("n,half_length", [(16, 0.5), (256, 8.0), (512, 2.0)])
    def test_kmag_is_the_kernel_formula_bit_for_bit(self, n, half_length):
        g = GridSpec(n=n, half_length=half_length)
        assert DyadicPartition(g).kmag().tobytes() == np.sqrt(g._kernel.ksq).tobytes()


class TestReachLadder:
    """Each block's profile is evaluated only on the columns its support reaches, plus one margin column."""

    @pytest.mark.parametrize("half_length", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("n", [16, 64, 256, 512, 1024])
    def test_heads_equal_cropped_multipliers(self, n, half_length):
        part = DyadicPartition(GridSpec(n=n, half_length=half_length))
        empty = []
        for homogeneous in (False, True):
            heads = _ladder.__wrapped__(n, half_length, homogeneous)  # uncached: built here
            assert list(heads) == list(part.qs(homogeneous))
            for q, head in heads.items():
                full = part.multiplier(q, homogeneous)
                want = full[:, : int(np.flatnonzero(full.any(axis=0)).max(initial=-1)) + 1]
                assert head.shape == want.shape and head.dtype == want.dtype
                assert head.tobytes() == want.tobytes()
                if not want.size:
                    empty.append((homogeneous, q))
        # the lowest homogeneous blocks hold no lattice point (on a small box, neither do low annuli)
        assert any(homogeneous for homogeneous, _ in empty)

    @pytest.mark.parametrize("n,half_length", [(64, 0.5), (256, 8.0), (512, 2.0)])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_profiles_evaluated_within_reach(self, n, half_length, homogeneous, monkeypatch):
        import strato.littlewood_paley as lp

        widths = []
        ramp = lp.smooth_ramp  # every profile evaluation goes through it: once per low pass, twice per annulus
        monkeypatch.setattr(lp, "smooth_ramp", lambda x: widths.append(np.shape(x)[1]) or ramp(x))
        _ladder.__wrapped__(n, half_length, homogeneous)
        k2 = (np.pi / half_length) * np.arange(n // 2 + 1)
        bounds = []
        for q in DyadicPartition(GridSpec(n=n, half_length=half_length)).qs(homogeneous):
            reach = int(np.count_nonzero(k2 < 2.0 ** (q + 1)))  # block q vanishes for |k| >= 2^(q+1)
            bounds += [reach + 1] * (1 if q == -1 and not homogeneous else 2)
        assert len(widths) == len(bounds)
        assert all(w <= b for w, b in zip(widths, bounds))
        assert min(widths) < n // 2 + 1
