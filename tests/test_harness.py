"""Sweep orchestration, report emission, and the command line front end."""

import argparse
import concurrent.futures
import gc
import importlib.util
import json
import logging
import math
import multiprocessing
import os
import pickle
import platform
import re
import shutil
import subprocess
import sys
import threading
import warnings
import weakref
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import strato.cli
import strato.conormal
import strato.grid
import strato.harness
import strato.rankine
import strato.solver
from strato import fieldio
from strato.cli import build_parser, main
from strato.grid import GridSpec, ScalarField, _HalfKernel, lp_norm, rfft2
from strato.harness import (
    RateRow,
    SweepConfig,
    emit_report,
    run_single,
    run_sweep,
)
from strato.conormal import (
    advect_boundary,
    advect_family,
    conormal_norm,
    family_floor,
    holder_quotient,
    log_estimate_ratio,
)
from strato.initdata import (
    DensitySpec,
    PatchSpec,
    boundary_curve,
    initial_vector_family,
    make_density,
    rasterize_patch,
)
from strato.littlewood_paley import TimeSeries
from strato.solver import SimParams, run
from conftest import random_field


def field_distance(a, b, p=2.0):
    """Lp size of the gap between two fields on one grid."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    return lp_norm(ScalarField(a.grid, a.values - b.values), p)


def velocity_distance(omega_a, omega_b, p=2.0):
    """Lp size of the velocity gap induced by two vorticity fields."""
    g = omega_a.grid
    kern = g._kernel
    diff = rfft2(omega_a.values - omega_b.values)
    v1, v2 = kern.inverse(kern.v1 * diff), kern.inverse(kern.v2 * diff)
    return lp_norm(np.hypot(v1, v2), p, grid=g)


def field_gaps(grid, p, omega, rho, ref_omega, ref_rho):
    """Velocity, density and vorticity gaps of one sample from grid values, as sweeps measured them
    before rungs came back as bands."""
    wa, wb = ScalarField(grid, omega), ScalarField(grid, ref_omega)
    return (velocity_distance(wa, wb, p), field_distance(ScalarField(grid, rho), ScalarField(grid, ref_rho), p),
            field_distance(wa, wb, p))


def tiny_config_dict(out_dir="results", mus=(1.0e-3, 3.0e-3, 1.0e-2)):
    return {
        "grid": {"n": 64, "half_length": 8.0},
        "patch": {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "density": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0, "center": [0.0, 0.5]},
        "params": {"dt": 0.05, "t_final": 0.2, "kappa": 1.0},
        "sweep": {"mu": list(mus), "sample_times": [0.1, 0.2], "error_p": 2.0},
        "output": {"dir": str(out_dir), "save_fields": False},
    }


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = SweepConfig.from_dict(tiny_config_dict(out_dir=out))
    return config, run_sweep(config)


class TestSweepConfig:
    def test_from_dict_defaults(self):
        raw = {
            "grid": {"n": 32},
            "patch": {"kind": "disc"},
            "params": {"dt": 0.1, "t_final": 1.0},
            "sweep": {"mu": [0.01]},
        }
        cfg = SweepConfig.from_dict(raw)
        assert cfg.grid == GridSpec(n=32, half_length=8.0)
        assert cfg.density is None
        assert cfg.sample_times == (1.0,)
        assert cfg.error_p == 2.0
        assert cfg.kappa == 1.0
        assert cfg.output_dir == "results"
        assert cfg.save_fields is False

    def test_dict_round_trip(self):
        cfg = SweepConfig.from_dict(tiny_config_dict())
        assert SweepConfig.from_dict(cfg.to_dict()) == cfg

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        kind=st.sampled_from(["disc", "ellipse", "star"]),
        mus=st.lists(st.floats(min_value=1.0e-6, max_value=1.0), min_size=1, max_size=5, unique_by=lambda m: f"{m:.6g}"),
        dt=st.floats(min_value=1.0e-4, max_value=0.5),
        steps=st.integers(min_value=1, max_value=50),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
        error_p=st.one_of(st.floats(min_value=1.0, max_value=64.0), st.just(math.inf)),
        density=st.booleans(),
        save_fields=st.booleans(),
    )
    @example(n=16, kind="disc", mus=[0.01], dt=0.5, steps=1, fractions=[1.0, 0.9999999999999999],
             error_p=2.0, density=False, save_fields=True)  # times 0.5 and 0.49999999999999994
    @example(n=16, kind="disc", mus=[0.01], dt=0.5, steps=1, fractions=[1.0, 0.9999999999999999],
             error_p=2.0, density=False, save_fields=False)
    def test_dict_round_trip_property(self, n, kind, mus, dt, steps, fractions, error_p, density, save_fields):
        raw = tiny_config_dict(mus=mus)
        raw["grid"]["n"] = n
        raw["patch"] = {"kind": kind, "center": [0.25, -0.5], "radius": 1.5, "axes": [2.5, 1.0]}
        t_final = steps * dt
        raw["params"] = {"dt": dt, "t_final": t_final, "kappa": 0.5}
        raw["sweep"] = {"mu": mus, "sample_times": [f * t_final for f in fractions], "error_p": error_p}
        raw["output"]["save_fields"] = save_fields
        if not density:
            raw["density"] = None
        times = set(raw["sweep"]["sample_times"])
        if save_fields and len({f"{t:.6g}" for t in times}) < len(times):
            # snapshot names hold 6 significant digits, so two times they would not tell apart are refused
            with pytest.raises(ValueError, match="save_fields needs sample times that differ"):
                SweepConfig.from_dict(raw)
            return
        if len({f"{t:.12g}" for t in times}) < len(times):
            # slopes.json keys sample times by 12 significant digits, so two it would not tell apart are refused
            with pytest.raises(ValueError, match="sample times must differ in 12 significant digits"):
                SweepConfig.from_dict(raw)
            return
        cfg = SweepConfig.from_dict(raw)
        back = SweepConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_from_dict_refuses_sample_times_alike_in_12_digits(self):
        # slopes.json keys each sample time by 12 significant digits, so it would hold one entry for both
        raw = tiny_config_dict()
        raw["sweep"]["sample_times"] = [0.01, 0.0100000000000001, 0.02]
        with pytest.raises(ValueError, match=r"^sample times must differ in 12 significant digits, "
                                             r"got 0\.01 and 0\.0100000000000001$"):
            SweepConfig.from_dict(raw)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config_dict()))
        cfg = SweepConfig.from_json(path)
        assert cfg.mu_values == (1.0e-3, 3.0e-3, 1.0e-2)
        assert cfg.density == DensitySpec(kind="gaussian", amplitude=0.1, width=1.0, center=(0.0, 0.5))

    def test_density_without_amplitude_takes_the_spec_default(self):
        raw = tiny_config_dict()
        del raw["density"]["amplitude"]
        assert SweepConfig.from_dict(raw).density == DensitySpec(kind="gaussian", width=1.0, center=(0.0, 0.5))

    @pytest.mark.parametrize("section, key", [
        (None, "ouput"), ("grid", "half_lenght"), ("patch", "raduis"), ("density", "amplitud"),
        ("params", "kapa"), ("sweep", "errorp"), ("output", "directory"),
    ])
    def test_unknown_key_refused(self, section, key):
        raw = tiny_config_dict()
        (raw if section is None else raw[section])[key] = 1.0
        where = "at the top level" if section is None else f"in section {section!r}"
        with pytest.raises(ValueError, match=f"^unknown config key {key!r} {where}$"):
            SweepConfig.from_dict(raw)

    @pytest.mark.parametrize("section, key, bad, match", [
        ("grid", "n", 64.9, "must be an integer"), ("grid", "n", "64", "must be an integer"),
        ("grid", "n", True, "must be an integer"), ("patch", "base_mode", 5.7, "must be an integer"),
        ("patch", "octaves", 1.5, "must be an integer"), ("output", "save_fields", "false", "must be true or false"),
        ("output", "save_fields", 1, "must be true or false"), ("output", "save_fields", None, "must be true or false"),
        ("patch", "center", [0, 0, 1], "must be a pair of numbers"), ("patch", "center", "ab", "must be a pair of numbers"),
        ("density", "center", [0.0, "0.5"], "must be a pair of numbers"), ("params", "dt", "0.05", "must be a number"),
        ("patch", "radius", "1", "must be a number"), ("grid", "half_length", True, "must be a number"),
        ("params", "kappa", None, "must be a number"), ("sweep", "mu", "0.1", "must be a list of numbers"),
        ("sweep", "mu", [0.1, "0.2"], "must be a list of numbers"), ("sweep", "sample_times", [0.1, False], "must be a list of numbers"),
        ("patch", "kind", 5, "must be a string"), ("output", "dir", None, "must be a string"),
    ])
    def test_coerced_value_refused(self, section, key, bad, match):
        raw = tiny_config_dict()
        raw[section][key] = bad
        with pytest.raises(ValueError, match="^" + re.escape(f"config key {key!r} in section {section!r}: {match}, got {bad!r}") + "$"):
            SweepConfig.from_dict(raw)

    @pytest.mark.parametrize("section, text, field", [
        ("patch", '{"kind": "disc", "radius": NaN}', "radius"),
        ("patch", '{"kind": "star", "amplitude": NaN}', "amplitude"),
        ("patch", '{"kind": "ellipse", "axes": [NaN, 1.0]}', "axes"),
        ("patch", '{"kind": "disc", "center": [0.0, Infinity]}', "center"),
        ("density", '{"kind": "gaussian", "width": NaN}', "width"),
        ("density", '{"kind": "gaussian", "amplitude": Infinity}', "amplitude"),
        ("density", '{"kind": "gaussian", "center": [NaN, 0.0]}', "center"),
    ])
    def test_nonfinite_spec_value_refused_at_construction(self, section, text, field):
        # Python's json reads NaN and Infinity; the config refuses them before any field is built
        raw = tiny_config_dict()
        raw[section] = json.loads(text)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            SweepConfig.from_dict(raw)

    def test_integral_floats_are_integers(self):
        raw = tiny_config_dict()
        raw["grid"]["n"] = 64.0
        raw["patch"].update(kind="star", base_mode=5.0, octaves=2.0)
        cfg = SweepConfig.from_dict(raw)
        assert (cfg.grid.n, cfg.patch.base_mode, cfg.patch.octaves) == (64, 5, 2)
        assert all(type(x) is int for x in (cfg.grid.n, cfg.patch.base_mode, cfg.patch.octaves))
        raw["grid"]["n"], raw["patch"]["base_mode"], raw["patch"]["octaves"] = 64, 5, 2
        assert SweepConfig.from_dict(raw).digest() == cfg.digest()

    def test_known_configs_keep_their_digest(self, tmp_path):
        # the tiny test config and the benchmark's sweep and conormal configs (unshifted and seed 100)
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        assert SweepConfig.from_dict(tiny_config_dict()).digest() == (
            "388eed907299a32613658870684a117eb505a3664edef1752faa64e0abbe3c38")
        want = {
            ("sweep", None): "c2ed6589e96fdd508320af1b65c1e716479e7e575354530a789c117ff609f3e6",
            ("sweep", 100): "32a3dd2a0c3b1a9e5125105480530bc818ae1f75571ce12d2429ef57b7bb3ef3",
            ("conormal", None): "c77c3949f2fc826d72f2070c3d400ba9b42823590ae533d8ffd5124317d6fcff",
            ("conormal", 100): "67c12f6f2b7b2beb786d5c399ff5bedbb00bb0d5b16638e1890f0f1b574bb403",
        }
        for (workload, seed), digest in want.items():
            spec = workloads.make_spec(workload, seed, False, tmp_path)
            assert SweepConfig.from_json(spec["config"]).digest() == digest, (workload, seed)

    def test_readme_config_loads_and_round_trips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("A sweep config is a small JSON file:", 1)[1].split("\n## ", 1)[0]
        raw = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        cfg = SweepConfig.from_dict(raw)
        assert SweepConfig.from_dict(cfg.to_dict()) == cfg
        back = json.loads(json.dumps(cfg.to_dict()))
        for name, keys in raw.items():
            assert {k: back[name][k] for k in keys} == keys
        # the README's table names every key of every section
        rows = {line.split("`")[1]: line for line in section.splitlines() if line.startswith("| `")}
        assert rows.keys() == back.keys()
        for name, keys in back.items():
            assert all(f"`{k}`" in rows[name] for k in keys), name

    def test_digest_is_stable_and_sensitive(self):
        a = SweepConfig.from_dict(tiny_config_dict())
        b = SweepConfig.from_dict(tiny_config_dict())
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64
        c = SweepConfig.from_dict(tiny_config_dict(mus=(1.0e-3, 1.0e-2)))
        assert c.digest() != a.digest()

    def test_mu_ladder_validation(self):
        base = tiny_config_dict()
        for bad in ([], [0.0], [-1.0e-3], [1.0e-3, 1.0e-3], [float("nan")], [1.0e-3, float("inf")]):
            raw = dict(base)
            raw["sweep"] = dict(base["sweep"], mu=bad)
            with pytest.raises(ValueError):
                SweepConfig.from_dict(raw)

    def test_error_p_validation(self):
        for bad in (0.5, float("nan"), -float("inf")):
            raw = tiny_config_dict()
            raw["sweep"]["error_p"] = bad
            with pytest.raises(ValueError, match="error_p"):
                SweepConfig.from_dict(raw)
        raw = tiny_config_dict()
        raw["sweep"]["error_p"] = float("inf")
        assert SweepConfig.from_dict(raw).error_p == float("inf")

    @pytest.mark.parametrize(
        "key, bad, match",
        [
            ("dt", 0.0, "dt and t_final"),
            ("dt", -0.05, "dt and t_final"),
            ("t_final", 0.0, "dt and t_final"),
            ("t_final", -1.0, "dt and t_final"),
            ("t_final", math.inf, "dt and t_final"),
            ("dt", math.inf, "dt and t_final"),
            ("dt", math.nan, "dt and t_final"),
            ("kappa", -0.1, "diffusivities"),
            ("kappa", float("nan"), "diffusivities"),
            ("kappa", float("inf"), "diffusivities"),
        ],
    )
    def test_params_validated_at_construction(self, key, bad, match):
        raw = tiny_config_dict()
        raw["params"][key] = bad
        with pytest.raises(ValueError, match=match):
            SweepConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "times",
        [[-0.1, 0.2], [0.1, 0.3], [0.2 + 1.0e-9], [math.nan], [0.1, math.nan], [math.inf], [-math.inf, 0.1]],
    )
    def test_sample_times_outside_horizon_rejected(self, times):
        raw = tiny_config_dict()
        raw["sweep"]["sample_times"] = times
        with pytest.raises(ValueError, match="sample times"):
            SweepConfig.from_dict(raw)

    def test_sample_times_share_run_slack(self):
        raw = tiny_config_dict()
        raw["sweep"]["sample_times"] = [0.0, 0.2 + 1.0e-13]
        assert SweepConfig.from_dict(raw).sample_times == (0.0, 0.2 + 1.0e-13)

    def test_empty_sample_times_rejected(self):
        cfg = SweepConfig.from_dict(tiny_config_dict())
        with pytest.raises(ValueError, match="sample times"):
            replace(cfg, sample_times=())

    def test_initial_fields(self):
        cfg = SweepConfig.from_dict(tiny_config_dict())
        omega0, rho0 = cfg.initial_fields()
        assert omega0.values.max() == 1.0 and omega0.values.min() == 0.0
        assert np.array_equal(rho0.values, make_density(cfg.density, cfg.grid).values)
        raw = tiny_config_dict()
        raw["density"] = None
        _, rho0 = SweepConfig.from_dict(raw).initial_fields()
        assert not rho0.values.any()


class TestDistances:
    def test_field_distance_constants(self, grid64):
        a = ScalarField(grid64, np.full((64, 64), 3.0))
        b = ScalarField(grid64, np.full((64, 64), 1.0))
        box = 2.0 * grid64.half_length
        assert abs(field_distance(a, b, 2.0) - 2.0 * box) <= 1e-12 * box
        assert field_distance(a, b, np.inf) == 2.0

    def test_field_distance_grid_mismatch(self, grid64, grid128):
        a = ScalarField(grid64, np.zeros((64, 64)))
        b = ScalarField(grid128, np.zeros((128, 128)))
        with pytest.raises(ValueError, match="different grids"):
            field_distance(a, b)

    def test_velocity_distance_single_mode(self, grid64):
        x1, x2 = grid64.mesh
        k = np.pi / 2.0
        omega = ScalarField(grid64, np.sin(k * x1) + 0.0 * x2)
        zero = ScalarField(grid64, np.zeros((64, 64)))
        got = velocity_distance(omega, zero, 2.0)
        want = np.sqrt(2.0) * grid64.half_length * 2.0 / (2.0 * k)
        assert abs(got - want) <= 1e-12 * want

    def test_velocity_distance_symmetric(self, grid64):
        a = random_field(grid64, 41, band=4.0)
        b = random_field(grid64, 42, band=4.0)
        assert velocity_distance(a, b, 2.0) == velocity_distance(b, a, 2.0)


class TestRunSweep:
    def test_single_rung_output_shape(self):
        cfg = SweepConfig.from_dict(tiny_config_dict())
        mu, times, omegas, rhos, stats = run_single(cfg, 0.0, *cfg.initial_fields())
        assert mu == 0.0
        assert stats["mu"] == 0.0 and stats["nominal_steps"] == 4 and stats["wall_s"] > 0.0
        assert np.allclose(times, [0.1, 0.2])
        assert len(omegas) == len(rhos) == 2
        assert omegas[0].shape == (43, 22)  # the 2/3 band, (2b + 1, b + 1) with b = 64 // 3

    @pytest.mark.parametrize("mu", [0.0, 1.0e-2])
    def test_rung_bands_give_back_the_run_samples(self, mu):
        cfg = SweepConfig.from_dict(tiny_config_dict())
        omega0, rho0 = cfg.initial_fields()
        _, times, omegas, rhos, _ = run_single(cfg, mu, omega0, rho0)
        params = SimParams(mu=mu, dt=cfg.dt, t_final=cfg.t_final, kappa=cfg.kappa)
        want = run(omega0, rho0, params, sample_times=list(cfg.sample_times), track_gradients=False)
        assert np.array_equal(times, want.omega.times)
        b = cfg.grid.n // 3
        for bands, series in ((omegas, want.omega), (rhos, want.rho)):
            assert len(bands) == len(series.fields)
            for band, f in zip(bands, series.fields):
                assert band.shape == (2 * b + 1, b + 1)
                assert np.array_equal(ScalarField.from_spectrum(cfg.grid, band).values, f.values)

    def test_pickled_rung_is_at_most_half_its_grid_values(self):
        cfg = SweepConfig.from_dict(tiny_config_dict())
        out = run_single(cfg, 1.0e-2, *cfg.initial_fields())
        mu, times, omegas, rhos, stats = out
        values = [[ScalarField.from_spectrum(cfg.grid, b).values for b in bands] for bands in (omegas, rhos)]
        assert len(pickle.dumps(out)) <= 0.5 * len(pickle.dumps((mu, times, *values, stats)))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    def test_band_gaps_match_field_formulas(self, p, tmp_path):
        raw = tiny_config_dict(out_dir=tmp_path)
        raw["sweep"]["error_p"] = p
        raw["output"]["save_fields"] = True
        cfg = SweepConfig.from_dict(raw)
        result = run_sweep(cfg, workers=1)
        g, zero = cfg.grid, np.zeros((cfg.grid.n, cfg.grid.n))
        _, ref_om, ref_rh = result.fields[0.0]
        assert len(result.rows) == 6
        for row in result.rows:
            times, om, rh = result.fields[row.mu]
            j = list(times).index(row.time)
            want = field_gaps(g, p, om[j], rh[j], ref_om[j], ref_rh[j])
            sizes = np.add(field_gaps(g, p, om[j], rh[j], zero, zero), field_gaps(g, p, ref_om[j], ref_rh[j], zero, zero))
            got = (row.velocity_error, row.density_error, row.vorticity_error)
            assert np.all(np.abs(np.subtract(got, want)) <= 1.0e-13 * sizes), (row, want)

    def test_l2_gaps_are_taken_from_the_bands_alone(self, monkeypatch):
        # at p = 2 the three gaps are band sums and no band is inverted; any other p inverts (their
        # accuracy is test_band_gaps_match_field_formulas')
        cfg = SweepConfig.from_dict(tiny_config_dict())
        fields = cfg.initial_fields()
        _, _, om, rh, _ = run_single(cfg, 1.0e-2, *fields)
        _, _, ref_om, ref_rh, _ = run_single(cfg, 0.0, *fields)
        g = cfg.grid
        inverses = []
        inverse = _HalfKernel.inverse
        monkeypatch.setattr(_HalfKernel, "inverse", lambda *a, **k: inverses.append(a) or inverse(*a, **k))
        got = strato.harness._gaps(g, 2.0, om[-1], rh[-1], ref_om[-1], ref_rh[-1])
        assert inverses == [] and min(got) > 0.0
        strato.harness._gaps(g, 3.5, om[-1], rh[-1], ref_om[-1], ref_rh[-1])
        assert len(inverses) == 4  # the velocity pair, the density and the vorticity

    def test_rung_builds_no_sample_field_or_norm(self, monkeypatch):
        cfg = SweepConfig.from_dict(tiny_config_dict())
        fields = cfg.initial_fields()

        def refuse(*args, **kwargs):
            raise AssertionError("a rung built a sample field or a norm")

        monkeypatch.setattr(ScalarField, "from_spectrum", classmethod(refuse))
        for module in (strato.grid, strato.solver, strato.harness):
            monkeypatch.setattr(module, "lp_norm", refuse)
        _, times, omegas, rhos, stats = run_single(cfg, 1.0e-2, *fields)
        assert len(times) == len(omegas) == len(rhos) == 2 and stats["nominal_steps"] == 4

    def test_rung_counts_its_rk4_substeps(self):
        # equal to the nominal steps unless the CFL guard halves a step, as it does for the
        # large-amplitude field of test_cfl_halving_changes_substeps
        cfg = SweepConfig.from_dict(tiny_config_dict())
        *_, calm = run_single(cfg, 1.0e-2, *cfg.initial_fields())
        assert calm["substeps"] == calm["nominal_steps"] == 4
        raw = tiny_config_dict()
        raw["params"] = {"dt": 0.1, "t_final": 0.1, "kappa": 1.0}
        raw["sweep"]["sample_times"] = [0.1]
        cfg = SweepConfig.from_dict(raw)
        w0 = ScalarField(cfg.grid, 50.0 * random_field(cfg.grid, 8, band=4.0).values)
        *_, halved = run_single(cfg, 1.0e-2, w0, ScalarField(cfg.grid, np.zeros((64, 64))))
        assert halved["nominal_steps"] == 1 and halved["substeps"] > halved["nominal_steps"]

    def test_no_slope_where_a_gap_is_zero(self, tmp_path, capsys):
        # every rung still holds the initial data at t = 0, so the gaps there are zero: no slope, no
        # log of zero, and slopes.json stays strict JSON
        raw = tiny_config_dict(out_dir=tmp_path / "unused")
        raw["sweep"]["sample_times"] = [0.0, 0.2]
        cfg = SweepConfig.from_dict(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(cfg, workers=1)
        assert all(r.discrepancy == r.vorticity_error == 0.0 for r in result.rows if r.time == 0.0)
        assert set(result.slopes["0"]) == {"mu", "discrepancy", "vorticity_error"}
        assert {"discrepancy_slope", "vorticity_slope"} <= set(result.slopes["0.2"])

        def refuse(name):
            raise ValueError(f"{name} in slopes.json")

        paths = emit_report(result, tmp_path / "report")
        assert json.loads(paths["slopes"].read_text(), parse_constant=refuse) == result.slopes
        bad = replace(result, slopes={"0.2": {**result.slopes["0.2"], "vorticity_slope": math.nan}})
        with pytest.raises(ValueError):
            emit_report(bad, tmp_path / "bad")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "out"), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "t=0.2: discrepancy slope" in out and "t=0:" not in out and "nan" not in out

    def test_patch_rasterized_once_per_sweep(self, tmp_path, monkeypatch):
        import strato.harness as harness

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return rasterize_patch(*args, **kwargs)

        monkeypatch.setattr(harness, "rasterize_patch", counting)
        monkeypatch.setenv("STRATO_WORKERS", "1")
        raw = tiny_config_dict(out_dir=tmp_path)
        raw["sweep"]["sample_times"] = [0.2]
        run_sweep(SweepConfig.from_dict(raw))
        assert len(calls) == 1

    @pytest.mark.parametrize("env, arg", [("abc", "abc"), ("-3", -3), ("0", 0), ("2.5", 2.5), ("", "")])
    def test_bad_worker_setting_rejected_before_rasterizing(self, env, arg, monkeypatch):
        import strato.harness as harness

        def never(*args, **kwargs):
            raise AssertionError("rasterized before the worker count was checked")

        monkeypatch.setattr(harness, "rasterize_patch", never)
        monkeypatch.setenv("STRATO_WORKERS", env)
        cfg = SweepConfig.from_dict(tiny_config_dict())
        with pytest.raises(ValueError, match="STRATO_WORKERS must be an integer >= 1"):
            run_sweep(cfg)
        monkeypatch.delenv("STRATO_WORKERS")
        with pytest.raises(ValueError, match="^workers must be an integer >= 1"):
            run_sweep(cfg, workers=arg)

    @pytest.mark.parametrize("cores, want", [({0}, 1), ({0, 1}, 2), (set(range(64)), 3)])
    def test_default_workers_follow_affinity_capped_at_rungs(self, cores, want, tmp_path, monkeypatch):
        monkeypatch.delenv("STRATO_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        raw = tiny_config_dict(out_dir=tmp_path, mus=(1.0e-3, 1.0e-2))
        raw["sweep"]["sample_times"] = [0.2]
        result = run_sweep(SweepConfig.from_dict(raw))
        assert result.provenance["workers"] == want

    def test_worker_argument_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATO_WORKERS", "2")
        raw = tiny_config_dict(out_dir=tmp_path, mus=(1.0e-2,))
        raw["sweep"]["sample_times"] = [0.2]
        assert run_sweep(SweepConfig.from_dict(raw), workers=1).provenance["workers"] == 1

    def test_provenance_records_the_run(self, tiny_sweep):
        cfg, result = tiny_sweep
        prov = result.provenance
        assert [r["mu"] for r in prov["rungs"]] == [0.0] + sorted(cfg.mu_values)
        assert all(r["nominal_steps"] == r["substeps"] == 4 and r["wall_s"] > 0.0 for r in prov["rungs"])
        assert 1 <= prov["workers"] <= len(cfg.mu_values) + 1
        assert set(prov["versions"]) == {"python", "numpy", "strato"}

    def test_rows_sorted_and_consistent(self, tiny_sweep):
        cfg, result = tiny_sweep
        keys = [(r.time, r.mu) for r in result.rows]
        assert keys == sorted(keys)
        assert len(result.rows) == len(cfg.mu_values) * len(cfg.sample_times)
        for r in result.rows:
            assert r.discrepancy == r.velocity_error + r.density_error
            assert r.vorticity_error > 0.0

    def test_errors_increase_with_diffusivity(self, tiny_sweep):
        _, result = tiny_sweep
        for t in (0.1, 0.2):
            sub = [r for r in result.rows if r.time == t]
            for small, large in zip(sub, sub[1:]):
                assert small.mu < large.mu
                assert small.velocity_error < large.velocity_error
                assert small.vorticity_error < large.vorticity_error

    def test_slopes_reported_per_time(self, tiny_sweep):
        cfg, result = tiny_sweep
        assert set(result.slopes) == {"0.1", "0.2"}
        for entry in result.slopes.values():
            assert entry["mu"] == sorted(cfg.mu_values)
            assert "discrepancy_slope" in entry
            assert "vorticity_slope" in entry
            assert 0.0 < entry["vorticity_slope"] < 2.0

    def test_short_ladder_has_no_slope(self, tmp_path):
        raw = tiny_config_dict(out_dir=tmp_path, mus=(1.0e-3, 1.0e-2))
        raw["sweep"]["sample_times"] = [0.2]
        result = run_sweep(SweepConfig.from_dict(raw))
        (entry,) = result.slopes.values()
        assert "discrepancy_slope" not in entry

    def test_save_fields_round_trip(self, tmp_path):
        raw = tiny_config_dict(out_dir=tmp_path, mus=(1.0e-2,))
        raw["sweep"]["sample_times"] = [0.2]
        raw["output"]["save_fields"] = True
        cfg = SweepConfig.from_dict(raw)
        result = run_sweep(cfg)
        assert set(result.fields) == {0.0, 1.0e-2}
        emit_report(result)
        assert len(sorted(tmp_path.glob("omega_mu*.slf"))) == 2
        back = fieldio.read_snapshot(tmp_path / "omega_mu0_t0.2.slf")
        times, omegas, _ = result.fields[0.0]
        assert np.array_equal(back.values, omegas[0])

    def test_snapshot_names_must_differ(self, tmp_path):
        # snapshots are named by mu to 6 significant digits, so two such rungs would share a file
        raw = tiny_config_dict(out_dir=tmp_path, mus=(1.0e-3, 1.0000001e-3, 1.0e-2))
        assert len(SweepConfig.from_dict(raw).mu_values) == 3  # no snapshots, no clash
        raw["output"]["save_fields"] = True
        with pytest.raises(ValueError, match=r"got 0\.001 and 0\.0010000001$"):
            SweepConfig.from_dict(raw)
        raw["sweep"]["mu"] = [1.0e-3, 1.00001e-3]
        result = run_sweep(SweepConfig.from_dict(raw), workers=1)
        emit_report(result)
        assert len(list(tmp_path.glob("omega_mu*.slf"))) == 3 * len(raw["sweep"]["sample_times"])

    def test_snapshot_times_must_differ(self, tmp_path):
        # snapshots are named by t to 6 significant digits too, so two such samples would share a file
        raw = tiny_config_dict(out_dir=tmp_path, mus=(1.0e-3,))
        raw["sweep"]["sample_times"] = [0.1, 0.1000001, 0.2]
        assert len(SweepConfig.from_dict(raw).sample_times) == 3  # no snapshots, no clash
        raw["output"]["save_fields"] = True
        with pytest.raises(ValueError, match=r"sample times that differ in 6 significant digits, got 0\.1 and 0\.1000001$"):
            SweepConfig.from_dict(raw)
        raw["sweep"]["sample_times"] = [0.1, 0.10001, 0.1, 0.2]  # a repeated time is one sample, one file
        result = run_sweep(SweepConfig.from_dict(raw), workers=1)
        emit_report(result)
        assert len(list(tmp_path.glob("omega_mu*.slf"))) == 2 * 3


class TestEmitReport:
    def test_files_and_headers(self, tiny_sweep, tmp_path):
        _, result = tiny_sweep
        paths = emit_report(result, tmp_path)
        assert set(paths) == {"rates", "slopes", "manifest", "provenance"}
        lines = paths["rates"].read_text().splitlines()
        assert lines[0] == "mu,time,velocity_error,density_error,discrepancy,vorticity_error"
        assert len(lines) == 1 + len(result.rows)
        assert "np.float64" not in paths["rates"].read_text()

    def test_rates_parse_back_exactly(self, tiny_sweep, tmp_path):
        _, result = tiny_sweep
        paths = emit_report(result, tmp_path)
        lines = paths["rates"].read_text().splitlines()[1:]
        for line, row in zip(lines, result.rows):
            vals = [float(tok) for tok in line.split(",")]
            assert vals == [
                row.mu, row.time, row.velocity_error, row.density_error,
                row.discrepancy, row.vorticity_error,
            ]

    def test_slopes_json_round_trip(self, tiny_sweep, tmp_path):
        _, result = tiny_sweep
        paths = emit_report(result, tmp_path)
        assert json.loads(paths["slopes"].read_text()) == result.slopes

    def test_manifest_contents(self, tiny_sweep, tmp_path):
        cfg, result = tiny_sweep
        paths = emit_report(result, tmp_path)
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["config"] == json.loads(json.dumps(cfg.to_dict()))
        assert manifest["config_sha256"] == cfg.digest()
        assert manifest["rows"] == len(result.rows)
        assert manifest["mu_ladder"] == sorted(cfg.mu_values)

    def test_default_directory_from_config(self, tiny_sweep):
        cfg, result = tiny_sweep
        paths = emit_report(result)
        assert paths["rates"].parent == Path(cfg.output_dir)
        assert paths["rates"].exists()


class TestDeterminism:
    def test_rungs_measured_as_they_arrive(self, tmp_path, monkeypatch):
        # the reference rung comes first; each later rung is measured before the next one runs,
        # and its arrays are gone by then
        events, made = [], {}
        real_run, real_gaps = strato.harness.run_single, strato.harness._gaps

        def run_rung(config, mu, *fields):
            gc.collect()
            events.append(("run", mu, sorted(m for m, refs in made.items() if any(r() is not None for r in refs))))
            out = real_run(config, mu, *fields)
            made[mu] = [weakref.ref(a) for a in out[2] + out[3]]
            return out

        monkeypatch.setattr(strato.harness, "run_single", run_rung)
        monkeypatch.setattr(strato.harness, "_gaps",
                            lambda *args: events.append(("measure",)) or real_gaps(*args))
        run_sweep(SweepConfig.from_dict(tiny_config_dict(out_dir=tmp_path)), workers=1)
        mus = sorted(tiny_config_dict()["sweep"]["mu"])
        want = [("run", 0.0, [])]
        for k, mu in enumerate(mus):
            want.append(("run", mu, [0.0]))
            want += [("measure",)] * 2  # two sample times
        assert events == want

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        raw = tiny_config_dict(out_dir=tmp_path, mus=(1.0e-3, 1.0e-2))
        cfg = SweepConfig.from_dict(raw)
        monkeypatch.setenv("STRATO_WORKERS", "1")
        serial = emit_report(run_sweep(cfg), tmp_path / "serial")
        monkeypatch.setenv("STRATO_WORKERS", "2")
        pooled = emit_report(run_sweep(cfg), tmp_path / "pooled")
        assert serial["rates"].read_bytes() == pooled["rates"].read_bytes()
        assert serial["slopes"].read_bytes() == pooled["slopes"].read_bytes()
        assert serial["manifest"].read_bytes() == pooled["manifest"].read_bytes()

    def test_default_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STRATO_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = SweepConfig.from_dict(tiny_config_dict(out_dir=tmp_path, mus=(1.0e-3, 1.0e-2)))
        serial = emit_report(run_sweep(cfg, workers=1), tmp_path / "serial")
        default = emit_report(run_sweep(cfg), tmp_path / "default")
        for key in ("rates", "slopes", "manifest"):
            assert serial[key].read_bytes() == default[key].read_bytes()
        assert json.loads(serial["provenance"].read_text())["workers"] == 1
        assert json.loads(default["provenance"].read_text())["workers"] == 2


    def test_pooled_task_carries_only_its_viscosity(self, tmp_path, monkeypatch):
        # spawn inherits nothing, so these rungs can only run if the initializer handed the config over
        # and each worker built its own initial fields from it
        pools = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, mp_context=multiprocessing.get_context("spawn"), **kwargs)
                self.made_with, self.tasks = kwargs, []
                pools.append(self)

            def map(self, fn, *iterables, **kwargs):
                tasks = list(zip(*iterables))  # zip stops with the shortest, so a repeat() is fine
                self.tasks += [pickle.dumps((fn, *task)) for task in tasks]
                return super().map(fn, *zip(*tasks), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)  # run_sweep imports it on use
        cfg = SweepConfig.from_dict(tiny_config_dict(out_dir=tmp_path, mus=(1.0e-3, 1.0e-2)))
        pooled = emit_report(run_sweep(cfg, workers=2), tmp_path / "pooled")
        [pool] = pools
        assert len(pool.tasks) == 3
        assert all(len(task) < 1024 for task in pool.tasks)
        assert pool.made_with["initializer"] is strato.harness._hand_over
        assert pool.made_with["initargs"] == (cfg,)
        assert len(pickle.dumps(pool.made_with["initargs"])) < 2048
        serial = emit_report(run_sweep(cfg, workers=1), tmp_path / "serial")
        for key in ("rates", "slopes", "manifest"):
            assert serial[key].read_bytes() == pooled[key].read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_lets_go_of_its_inputs(self, workers, tmp_path, monkeypatch):
        # one worker: this process marches the rungs and lets their inputs go; a pool: the workers
        # build the inputs, and this process builds none (forked workers append to their own copy of refs)
        refs, initial_fields = [], SweepConfig.initial_fields

        def tracked(config):
            fields = initial_fields(config)
            refs.extend(weakref.ref(x) for f in fields for x in (f, f.values))
            return fields

        monkeypatch.setattr(SweepConfig, "initial_fields", tracked)
        result = run_sweep(SweepConfig.from_dict(tiny_config_dict(out_dir=tmp_path)), workers=workers)
        assert len(refs) == (4 if workers == 1 else 0) and strato.harness._inputs == ()
        del result
        assert [r() for r in refs] == [None] * len(refs)

    def test_pooled_sweep_parent_holds_no_inputs(self, tmp_path, monkeypatch):
        # _gaps runs in this process as each rung arrives, while the workers still march
        seen, real_gaps = [], strato.harness._gaps

        def gaps(*args):
            seen.append(strato.harness._inputs)
            return real_gaps(*args)

        monkeypatch.setattr(strato.harness, "_gaps", gaps)
        run_sweep(SweepConfig.from_dict(tiny_config_dict(out_dir=tmp_path)), workers=2)
        assert seen == [()] * 6  # three rungs, two sample times


class TestCli:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_console_script_installed(self):
        assert shutil.which("strato") is not None
        proc = subprocess.run(
            [sys.executable, "-m", "strato.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout and "rankine" in proc.stdout

    def test_fit_exact_power_law(self, tmp_path, capsys):
        path = tmp_path / "rates.csv"
        xs = np.geomspace(1.0e-3, 1.0, 8)
        with open(path, "w") as fh:
            fh.write("mu,discrepancy\n")
            for x in xs:
                fh.write(f"{float(x)!r},{float(2.0 * x ** 0.75)!r}\n")
        rc = main(["fit", str(path), "--group", "", "--reference", "0.75"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slope 0.75000" in out
        assert "[2, 2]" in out

    def test_fit_grouped_short_ladder(self, tmp_path, capsys):
        path = tmp_path / "rates.csv"
        with open(path, "w") as fh:
            fh.write("mu,time,discrepancy\n")
            for t, theta in (("0.1", 0.5), ("0.2", 1.0)):
                for x in np.geomspace(1.0e-2, 1.0, 4):
                    fh.write(f"{float(x)!r},{t},{float(x ** theta)!r}\n")
        rc = main(["fit", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "time=0.1: slope 0.50000 (short ladder)" in out
        assert "time=0.2: slope 1.00000 (short ladder)" in out

    @pytest.mark.parametrize("points", [2, 6])  # the short-ladder fit, then the rate fit
    def test_fit_nonpositive_x_not_fittable(self, tmp_path, capsys, points):
        # a log-log fit needs positive abscissae as it needs positive ordinates
        path = tmp_path / "rates.csv"
        ladders = {"0.1": np.geomspace(1.0e-3, 1.0, points), "0.2": np.linspace(0.0, 1.0, points),
                   "0.3": -np.geomspace(1.0e-3, 1.0, points)}
        with open(path, "w") as fh:
            fh.write("mu,time,discrepancy\n")
            for t, xs in ladders.items():
                for x in xs:
                    fh.write(f"{float(x)!r},{t},{float(abs(x) + 1.0)!r}\n")
        rc = main(["fit", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines()[1:] == ["time=0.2: not fittable", "time=0.3: not fittable"]
        assert captured.out.startswith("time=0.1: slope ")
        assert "Traceback" not in captured.err

    def test_fit_empty_table(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("mu,discrepancy\n")
        assert main(["fit", str(path)]) == 1
        assert "no data rows" in capsys.readouterr().err

    def test_rankine_ladder_and_csv(self, tmp_path, capsys):
        path = tmp_path / "rankine.csv"
        rc = main([
            "rankine", "--p", "2", "--points", "6",
            "--tau-min", "1e-3", "--tau-max", "1e-1", "--csv", str(path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "vorticity p=2" in out
        assert "(ref 0.25000)" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "quantity,p,tau,error"
        assert len(lines) == 7
        assert "np.float64" not in path.read_text()
        errs = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a < b for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("flags, message", [
        (["--points", "3"], "need >= 6 ladder points, got 3"),
        (["--tau-min", "0"], "tau must be positive and finite, got 0.0"),
        (["--tau-min", "1e-9"], "tau must be >= 1e-08, below which the rim layer is unresolved, got 1e-09"),
        (["--tau-max", "5e-9", "--tau-min", "1e-11"], "tau must be >= 1e-08"),
        (["--tau-min", "1e-3", "--tau-max", "1e-2"], "ladder must span at least two decades"),
        (["--p", "2", "0.5"], "p must be finite with p >= 1, got 0.5"),
    ])
    def test_rankine_bad_ladder_is_usage_error(self, monkeypatch, capsys, flags, message):
        calls = []
        monkeypatch.setattr(strato.rankine, "_kernel_mass", lambda *args: calls.append(args))
        with pytest.raises(SystemExit) as info:
            main(["rankine", *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"strato rankine: error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert calls == []

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict(out_dir=tmp_path / "unused")))
        rc = main(["sweep", str(cfg_path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "discrepancy slope" in captured.out
        assert captured.err == ""
        assert (tmp_path / "out" / "rates.csv").exists()
        assert (tmp_path / "out" / "slopes.json").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
        assert (tmp_path / "out" / "provenance.json").exists()

    def test_sweep_workers_flag_leaves_environment_alone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("STRATO_WORKERS", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict(out_dir=tmp_path / "unused", mus=(1.0e-2,))))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "out"), "--workers", "2"]) == 0
        assert "STRATO_WORKERS" not in os.environ
        assert json.loads((tmp_path / "out" / "provenance.json").read_text())["workers"] == 2

    def test_verbose_reports_each_rung_on_stderr(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict(out_dir=tmp_path / "unused")))
        logger = logging.getLogger("strato")
        before = (logger.level, list(logger.handlers))
        assert main(["-v", "sweep", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["rung mu=0", "rung mu=0.001", "rung mu=0.003", "rung mu=0.01"]
        assert all("4 nominal steps (4 RK4 substeps)" in line for line in err)
        assert (logger.level, list(logger.handlers)) == before

    @pytest.mark.parametrize("command", ["sweep", "simulate", "conormal"])
    @pytest.mark.parametrize("text, message", [
        (json.dumps({**tiny_config_dict(), "sweep": {"mu": [1.0e-3, 1.0e-3]}}), "mu ladder has repeated entries"),
        (json.dumps({**tiny_config_dict(), "sweep": {"mu": [1.0e-3, 1.0000001e-3]}, "output": {"save_fields": True}}),
         "save_fields needs mu values that differ in 6 significant digits, got 0.001 and 0.0010000001"),
        (json.dumps({**tiny_config_dict(), "sweep": {"mu": [1.0e-3], "sample_times": [0.01, 0.0100000000000001, 0.02]}}),
         "sample times must differ in 12 significant digits, got 0.01 and 0.0100000000000001"),
        (json.dumps({**tiny_config_dict(), "params": {"dt": 0.05}}), "missing key 't_final'"),
        (json.dumps({**tiny_config_dict(), "grid": 64}), "'int' object is not subscriptable"),
        (json.dumps({**tiny_config_dict(), "ouput": {}}), "unknown config key 'ouput' at the top level"),
        (json.dumps({**tiny_config_dict(), "params": {"dt": 0.05, "t_final": 0.2, "kapa": 1.0}}),
         "unknown config key 'kapa' in section 'params'"),
        ("{", "Expecting property name enclosed in double quotes"),
        (None, "No such file or directory"),
    ])
    def test_bad_config_is_usage_error(self, command, text, message, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        with pytest.raises(SystemExit) as info:
            main([command, str(cfg_path)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"strato {command}: error: {cfg_path}: " in captured.err and message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, flags, message", [
        ("simulate", ["--mu", "-1"], "diffusivities must be nonnegative and finite"),
        ("simulate", ["--mu", "nan"], "diffusivities must be nonnegative and finite"),
        ("conormal", ["--mu", "nan"], "diffusivities must be nonnegative and finite"),
        ("conormal", ["--t", "-1"], "dt and t_final must be positive and finite"),
        ("conormal", ["--t", "0"], "dt and t_final must be positive and finite"),
        ("conormal", ["--t", "inf"], "dt and t_final must be positive and finite"),
    ])
    def test_bad_run_flags_are_usage_error(self, command, flags, message, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict(out_dir=tmp_path / "unused")))
        built = []
        monkeypatch.setattr(SweepConfig, "initial_fields", lambda self: built.append(self))
        with pytest.raises(SystemExit) as info:
            main([command, str(cfg_path), *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"strato {command}: error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert built == []  # rejected before any field is built
        assert not (tmp_path / "unused").exists()

    def test_simulate_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict()))
        rc = main([
            "simulate", str(cfg_path), "--mu", "1e-3",
            "--out", str(tmp_path / "sim"), "--snapshots",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steps to t=0.2" in out
        diag = (tmp_path / "sim" / "diagnostics.csv").read_text().splitlines()
        assert diag[0].startswith("times,omega_l2,omega_sup")
        assert len(sorted((tmp_path / "sim").glob("omega_t*.slf"))) == 2
        assert len(sorted((tmp_path / "sim").glob("rho_t*.slf"))) == 2

    def test_simulate_snapshot_times_must_differ(self, tmp_path, monkeypatch, capsys):
        raw = tiny_config_dict(out_dir=tmp_path / "unused")
        raw["sweep"]["sample_times"] = [0.1, 0.1000001, 0.2]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        built = []
        monkeypatch.setattr(SweepConfig, "initial_fields", lambda self: built.append(self))
        with pytest.raises(SystemExit) as info:
            main(["simulate", str(cfg_path), "--out", str(tmp_path / "sim"), "--snapshots"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines() if not line.startswith("usage:")]
        assert err == ["strato simulate: error: --snapshots needs sample times that differ in "
                       "6 significant digits, got 0.1 and 0.1000001"]
        assert captured.out == ""
        assert built == [] and not (tmp_path / "sim").exists()

    def test_besov_command_matches_direct_norm(self, tmp_path, capsys, grid64):
        from strato.littlewood_paley import BesovParams, besov_norm

        f = random_field(grid64, 51, band=6.0)
        snap = tmp_path / "field.slf"
        fieldio.write_snapshot(f, snap)
        rc = main(["besov", str(snap), "-s", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        want = besov_norm(f, BesovParams(s=0.5))
        assert f"besov norm (s=0.5, p=inf, r=inf): {want:.6e}" in out

    @pytest.mark.parametrize("flags, message", [
        (["-s", "nan"], "s must be finite, got nan"),
        (["-s", "inf"], "s must be finite, got inf"),
        (["-p", "0.5"], "p must be >= 1, got 0.5"),
        (["-r", "nan"], "r must be >= 1, got nan"),
    ])
    def test_besov_bad_exponent_is_usage_error(self, tmp_path, monkeypatch, capsys, flags, message):
        reads = []
        monkeypatch.setattr(fieldio, "read_snapshot", lambda path: reads.append(path))
        with pytest.raises(SystemExit) as info:
            main(["besov", str(tmp_path / "field.slf"), *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"strato besov: error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert reads == []

    @pytest.mark.parametrize("content, message", [
        (None, "No such file or directory"),
        (b"SLF1\x00\x00", "truncated header"),
    ], ids=["missing", "six_bytes"])
    def test_besov_bad_snapshot_is_usage_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "field.slf"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as info:
            main(["besov", str(path)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "strato besov: error: " in captured.err and str(path) in captured.err and message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, flags, message", [
        (None, [], "No such file or directory"),
        ("mu,discrepancy\n0.1,0.2\n", ["--group", "", "--x", "nu"], "no column 'nu'"),
        ("mu,discrepancy\n0.1,0.2\n", ["--group", "", "--y", "gap"], "no column 'gap'"),
        ("mu,discrepancy\n0.1,0.2\n", [], "no column 'time'"),
        ("mu,discrepancy\n0.1,abc\n", ["--group", ""], "could not convert string to float: 'abc'"),
    ], ids=["missing", "x_column", "y_column", "group_column", "not_a_number"])
    def test_fit_bad_table_is_usage_error(self, tmp_path, capsys, text, flags, message):
        path = tmp_path / "rates.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as info:
            main(["fit", str(path), *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"strato fit: error: {path}: " in captured.err and message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_every_subcommand_reports_usage_errors(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == ["besov", "conormal", "fit", "rankine", "simulate", "sweep"]
        for p in sub.choices.values():
            assert p.get_default("error") == p.error

    def test_conormal_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        csv_path = tmp_path / "series.csv"
        cfg_path.write_text(json.dumps(tiny_config_dict()))
        rc = main([
            "conormal", str(cfg_path), "--mu", "1e-3", "--t", "0.1",
            "--samples", "3", "--csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "family floor" in out
        assert "conormal vorticity norm" in out
        assert "log-estimate ratio" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("t,family_floor,gradv_sup_integral,conormal_norm,"
                            "holder_quotient,log_estimate_ratio")
        table = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        assert table.shape == (3, 6)
        assert np.allclose(table[:, 0], [0.0, 0.05, 0.1])
        assert table[0, 2] == 0.0
        assert np.all(np.diff(table[:, 2]) > 0.0)
        assert np.all(table[:, 1] > 0.0)
        assert np.all(np.isfinite(table))

    def _conormal_config(self, tmp_path):
        raw = tiny_config_dict()
        raw["grid"]["n"] = 32
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        return cfg_path

    def test_conormal_matches_dense_reference(self, tmp_path):
        # checkpoints 0, 0.065, 0.13 at dt = 0.05: each leg ends on a remainder step
        cfg_path = self._conormal_config(tmp_path)
        csv_path = tmp_path / "series.csv"
        assert main(["conormal", str(cfg_path), "--mu", "1e-3", "--t", "0.13",
                     "--samples", "3", "--csv", str(csv_path)]) == 0
        rows = dense_reference_rows(SweepConfig.from_json(cfg_path), 1.0e-3, 0.13, 3)
        assert csv_path.read_text().splitlines()[1:] == rows

    @pytest.mark.parametrize("samples", ["5", "3", "2"])  # legs of 1 march step, of 2, then one leg of 4
    @pytest.mark.parametrize("inline", [True, False])
    def test_conormal_holds_three_vorticity_samples_and_no_density(self, tmp_path, monkeypatch, samples, inline):
        # weak references to every band state the march yields, (omega, rho), and the fields built from them
        bands, fields = [], []
        march = strato.conormal._march

        def tracked(*args):
            for state in march(*args):
                bands.append([weakref.ref(a) for a in state[1:3]])
                yield state
                del state

        class Tracked(ScalarField):
            @classmethod
            def from_spectrum(cls, grid, x):
                fields.extend(i for i, (w, _) in enumerate(bands) if w() is x)
                return super().from_spectrum(grid, x)

        held = []
        rhs = strato.conormal._advect_stretch_rhs

        def checked(*args, **kwargs):
            gc.collect()
            alive = [[r() is not None for r in pair] for pair in bands]
            held.append(sum(w for w, _ in alive))
            # the helper thread drops each density band as it arrives: the march's own, the last, is the one left
            assert not inline or not any(r for _, r in alive[:-1]), "a density band is held"
            return rhs(*args, **kwargs)

        monkeypatch.setattr(strato.conormal, "_march", tracked)
        monkeypatch.setattr(strato.conormal, "ScalarField", Tracked)
        monkeypatch.setattr(strato.conormal, "_advect_stretch_rhs", checked)
        if inline:
            monkeypatch.setattr(strato.conormal, "ThreadPoolExecutor", InlineExecutor)
        cfg_path = self._conormal_config(tmp_path)
        assert main(["conormal", str(cfg_path), "--mu", "1e-3", "--t", "0.2",
                     "--samples", samples, "--csv", str(tmp_path / "series.csv")]) == 0
        assert len(held) == 4 * 4  # four RK4 stages in each of the four sample gaps
        assert max(held) <= 3
        assert not inline or max(held) == 3  # the inline helper marches ahead at once
        assert len(bands) == 5
        assert sorted(fields) == list(range(0, 5, 4 // (int(samples) - 1)))  # one field per checkpoint, from its band

    def test_conormal_velocity_once_per_stage_time(self, tmp_path, monkeypatch):
        calls = []
        velocity = strato.conormal._velocity_and_gradient
        monkeypatch.setattr(strato.conormal, "_velocity_and_gradient",
                            lambda interp, t: calls.append(t) or velocity(interp, t))
        cfg_path = self._conormal_config(tmp_path)
        assert main(["conormal", str(cfg_path), "--mu", "1e-3", "--t", "0.2",
                     "--samples", "3", "--csv", str(tmp_path / "series.csv")]) == 0
        assert len(calls) == 2 * 4 + 1  # four sample gaps: each end velocity starts the next step
        assert len(set(calls)) == len(calls)

    def test_advect_legs_gaps_meet_on_their_sample_times(self, tmp_path, monkeypatch):
        # 0.003 + (0.013 - 0.003) is not 0.013 in floats; the family step takes the gap's end as the march
        # gave it, so that end velocity still starts the next gap's step
        calls = []
        velocity = strato.conormal._velocity_and_gradient
        monkeypatch.setattr(strato.conormal, "_velocity_and_gradient",
                            lambda interp, t: calls.append(t) or velocity(interp, t))
        config = SweepConfig.from_json(self._conormal_config(tmp_path))
        checkpoints = [0.0, 0.003, 0.013, 0.023]
        params = SimParams(mu=1.0e-3, dt=0.01, t_final=0.023, kappa=config.kappa)
        family = initial_vector_family(config.patch, config.grid, epsilon=config.patch.epsilon)
        list(strato.conormal.advect_legs(*config.initial_fields(), params, checkpoints, family,
                                         boundary_curve(config.patch)))
        assert 0.003 + (0.013 - 0.003) != 0.013
        assert calls == [0.0, 0.0015, 0.003, 0.008, 0.013, 0.018, 0.023]

    def test_conormal_norm_once_per_checkpoint(self, tmp_path, monkeypatch):
        # and no velocity_gradient_sup: the log-estimate ratio takes the march's gradv_sup
        calls = []
        norm = strato.conormal.conormal_norm
        monkeypatch.setattr(strato.conormal, "conormal_norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
        monkeypatch.setattr(strato.conormal, "velocity_gradient_sup", lambda omega: pytest.fail("inverted again"))
        cfg_path = self._conormal_config(tmp_path)
        assert main(["conormal", str(cfg_path), "--mu", "1e-3", "--t", "0.1",
                     "--samples", "3", "--csv", str(tmp_path / "series.csv")]) == 0
        assert len(calls) == 3

    def test_conormal_threaded_tracers_match_inline(self, tmp_path, monkeypatch):
        cfg_path = self._conormal_config(tmp_path)
        threads = []
        tracers = strato.conormal._tracer_step
        monkeypatch.setattr(strato.conormal, "_tracer_step",
                            lambda *a: threads.append(threading.current_thread()) or tracers(*a))
        argv = ["conormal", str(cfg_path), "--mu", "1e-3", "--t", "0.13", "--samples", "3", "--csv"]
        assert main([*argv, str(tmp_path / "threaded.csv")]) == 0
        assert threads and threading.main_thread() not in threads
        monkeypatch.setattr(strato.conormal, "ThreadPoolExecutor", InlineExecutor)
        threads.clear()
        assert main([*argv, str(tmp_path / "inline.csv")]) == 0
        assert threads and set(threads) == {threading.main_thread()}
        assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()

    def test_conormal_tracer_error_surfaces_and_helper_exits(self, tmp_path, monkeypatch):
        start = threading.active_count()
        monkeypatch.setattr(strato.conormal, "_SPACING_COLLAPSE", 0.5)  # every curve fails its check
        raised = []
        tracers = strato.conormal._tracer_step

        def checked(*args):
            try:
                return tracers(*args)
            except ValueError:
                raised.append(threading.current_thread())
                raise

        monkeypatch.setattr(strato.conormal, "_tracer_step", checked)
        cfg_path = self._conormal_config(tmp_path)
        with pytest.raises(ValueError, match="tracer spacing collapsed"):
            main(["conormal", str(cfg_path), "--mu", "1e-3", "--t", "0.1",
                  "--samples", "3", "--csv", str(tmp_path / "series.csv")])
        assert raised and threading.main_thread() not in raised
        assert threading.active_count() == start

    def test_conormal_blowup_surfaces_and_helper_exits(self, tmp_path, monkeypatch):
        start = threading.active_count()
        raised = []
        advance = strato.solver._Engine.advance

        def failing(self, what, rhat, t, h, *guard):
            if t > 0.05:
                raised.append(threading.current_thread())
                raise strato.solver.SolverBlowupError(t + h, 0, "omega")
            return advance(self, what, rhat, t, h, *guard)

        monkeypatch.setattr(strato.solver._Engine, "advance", failing)
        cfg_path = self._conormal_config(tmp_path)
        with pytest.raises(strato.solver.SolverBlowupError, match="omega became non-finite"):
            main(["conormal", str(cfg_path), "--mu", "1e-3", "--t", "0.2",
                  "--samples", "3", "--csv", str(tmp_path / "series.csv")])
        assert raised and threading.main_thread() not in raised
        assert threading.active_count() == start

    def test_conormal_helper_exits_when_legs_closed(self, tmp_path):
        start = threading.active_count()
        config = SweepConfig.from_json(self._conormal_config(tmp_path))
        omega0, rho0 = config.initial_fields()
        params = SimParams(mu=1.0e-3, dt=config.dt, t_final=0.2, kappa=config.kappa)
        checkpoints = np.linspace(0.0, 0.2, 3)
        family = initial_vector_family(config.patch, config.grid, epsilon=config.patch.epsilon)
        legs = strato.conormal.advect_legs(omega0, rho0, params, checkpoints, family, boundary_curve(config.patch))
        next(legs)
        next(legs)  # the first leg has started the helper thread
        assert threading.active_count() == start + 1
        legs.close()
        assert threading.active_count() == start

    def test_advect_legs_lets_go_of_spent_families(self, tmp_path, monkeypatch):
        # the family steps run without the initial family's level set and magnitudes, its member arrays
        # are gone once the first step has replaced them, and a yielded family is gone as soon as the
        # caller drops it
        config = SweepConfig.from_json(self._conormal_config(tmp_path))
        params = SimParams(mu=1.0e-3, dt=config.dt, t_final=0.2, kappa=config.kappa)
        checkpoints = [0.05, 0.15]  # march steps every 0.05 from t = 0, so one family step, then two
        family = initial_vector_family(config.patch, config.grid, epsilon=config.patch.epsilon)
        probed = [weakref.ref(family.level_set), *(weakref.ref(m.magnitude) for m in family.members)]
        members = [weakref.ref(a) for m in family.members for a in (m.u1.values, m.u2.values)]
        alive = []
        rhs = strato.conormal._advect_stretch_rhs
        monkeypatch.setattr(strato.conormal, "_advect_stretch_rhs",
                            lambda *a, **k: alive.append(any(r() is not None for r in probed)) or rhs(*a, **k))
        legs = strato.conormal.advect_legs(*config.initial_fields(), params, checkpoints, family,
                                           boundary_curve(config.patch))
        del family
        t, omega, family, curve, diag = next(legs)
        assert t == 0.05 and len(alive) == 4 and not any(alive)
        assert [r() for r in members] == [None] * 4
        family_floor(family)  # caches each member's magnitude on the yielded family
        probed[:] = [weakref.ref(x) for x in (family, *family.members, *(m.magnitude for m in family.members))]
        del t, omega, family, curve, diag
        alive.clear()
        assert next(legs)[0] == 0.15
        assert len(alive) == 2 * 4 and not any(alive)
        legs.close()

    def test_keep_freed_heap_is_noop_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(strato.cli.ctypes, "CDLL", lambda name: object())
        strato.cli._keep_freed_heap()
        calls = []
        monkeypatch.setattr(strato.cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=lambda *a: calls.append(a)))
        strato.cli._keep_freed_heap()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
    def test_keep_freed_heap_stops_fft_page_faults(self):
        # minor page faults per kernel inverse (numpy.fft.irfft2) at n = 256 after warm-up, in a fresh
        # interpreter each
        code = (
            "import resource, sys, numpy as np\n"
            "from strato.cli import _keep_freed_heap\n"
            "from strato.grid import GridSpec, rfft2\n"
            "if sys.argv[1] == '1': _keep_freed_heap()\n"
            "kern = GridSpec(n=256)._kernel\n"
            "h = rfft2(np.random.default_rng(0).standard_normal((256, 256)))\n"
            "for _ in range(5): kern.inverse(h)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20): kern.inverse(h)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        faults = [float(subprocess.run([sys.executable, "-c", code, flag], env=env, capture_output=True,
                                       text=True, check=True, timeout=120).stdout) for flag in ("0", "1")]
        assert faults[1] <= 1.0, faults
        assert faults[0] > faults[1]

    def test_no_scipy_module_is_loaded(self):
        # scipy is a test-only dependency: in a fresh interpreter where any scipy import raises, strato
        # imports, runs a ladder, samples 2048 points and advects 600 tracers, and loads none of it
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np, strato, strato.cli\n"
            "from strato.conormal import advect_boundary\n"
            "from strato.grid import GridSpec, ScalarField, sample_at\n"
            "from strato.initdata import PatchSpec, boundary_curve, rasterize_patch\n"
            "from strato.littlewood_paley import TimeSeries\n"
            "strato.cli.main(['rankine', '--p', '2', '--points', '6', '--tau-min', '1e-3', '--tau-max', '1e-1'])\n"
            "g = GridSpec(n=32, half_length=4.0)\n"
            "spec = PatchSpec(kind='star', radius=1.0, amplitude=0.1, base_mode=3)\n"
            "omega = rasterize_patch(spec, g)\n"
            "pts = np.random.default_rng(0).uniform(-4.0, 4.0, (2048, 2))\n"
            "print(np.isfinite(sample_at(omega, pts)).all())\n"
            "shifted = ScalarField(g, np.roll(omega.values, 1, axis=0))\n"
            "c = boundary_curve(spec, m=600)\n"
            "moved = advect_boundary(c.params, c.points, c.tangents, TimeSeries(np.array([0.0, 0.05]), (omega, shifted)))\n"
            "print(len(moved), np.isfinite(moved.points).all())\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m] is not None))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert "vorticity p=2: slope" in out
        assert out.splitlines()[-3:] == ["True", "600 True", "[]"]

    def test_sweep_only_modules_load_on_use(self):
        # the process pool (multiprocessing) and hashlib (OpenSSL) are loaded by strato sweep only
        code = (
            "import sys\n"
            "import strato, strato.cli\n"
            "print(sorted(m for m in ('_hashlib', 'multiprocessing', 'concurrent.futures.process') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert out.splitlines() == ["[]"]

    def test_sweep_memory_script_splits_parent_and_workers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config_dict(out_dir=tmp_path / "unused", mus=(1.0e-3, 1.0e-2))))
        script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_memory.py"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        peaks = {}
        for workers in ("1", "2"):
            out = subprocess.run([sys.executable, str(script), str(cfg), "--workers", workers, "--setup",
                                  "--out", str(tmp_path / workers)], env=env, capture_output=True, text=True,
                                 check=True, timeout=120).stdout
            assert (tmp_path / workers / "rates.csv").exists()
            peaks[workers] = [float(line.split(":")[1].split()[0]) for line in out.splitlines()]
        assert peaks["1"][0] > 0.0 and peaks["1"][1] == 0.0  # one process: no worker was waited for
        assert min(peaks["2"]) > 0.0

    def test_output_digests_script_prints_relative_digests(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, str(script), "--n", "64"], env=env, cwd=tmp_path, capture_output=True,
                             text=True, check=True, timeout=300).stdout
        digests = dict(reversed(line.split("  ", 1)) for line in out.splitlines())
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
        assert list(digests) == sorted(digests) and not any(p.startswith("/") or "provenance" in p for p in digests)
        for name in ("rates.csv", "slopes.json"):  # the same bytes from 1 and 2 workers, with and without snapshots
            assert digests[f"sweep-1/{name}"] == digests[f"sweep-2/{name}"] == digests[f"sweep-fields/{name}"]
        assert digests["sweep-1/manifest.json"] == digests["sweep-2/manifest.json"]
        assert {"conormal/conormal.csv", "simulate/diagnostics.csv", "simulate/omega_t0.02.slf",
                "sweep-fields/omega_mu0.001_t0.02.slf", "besov/omega_t0.02-2.txt"} <= set(digests)
        # a sweep snapshot and the simulated one at the same viscosity are the same march sample
        assert digests["sweep-fields/omega_mu0.001_t0.02.slf"] == digests["simulate/omega_t0.02.slf"]
        assert list(tmp_path.iterdir()) == []  # every output went to the script's own temporary directory

    def test_output_digests_keeps_and_compares_outputs(self, tmp_path, monkeypatch, capsys):
        # --keep copies the outputs; --against prints each changed CSV's largest relative difference per column,
        # and each changed JSON file's per key (list items under their list's key)
        script = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
        spec = importlib.util.spec_from_file_location("output_digests", script)
        digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digests)
        old = tmp_path / "old"
        (old / "c").mkdir(parents=True)
        (old / "c" / "a.csv").write_text("t,v,s\n0.5,1.0,x\n1.0,4.0,y\n")
        (old / "same.csv").write_text("t\n1\n")
        (old / "s.json").write_text('{"0.5": {"mu": [1.0, 2.0], "slope": 0.5, "kind": "disc"}, "1": {"slope": 0.25}}')
        (old / "k.json").write_text('{"mu": [1.0]}')
        (old / "provenance.json").write_text('{"wall_s": 1.0}')

        def produce(n):
            Path("c").mkdir()
            Path("c", "a.csv").write_text("t,v,s\n0.5,1.0,x\n1.0,4.000000001,y\n")
            Path("same.csv").write_text("t\n1\n")
            Path("extra.csv").write_text("t\n1\n")
            Path("s.json").write_text('{"0.5": {"mu": [1.0, 2.0000002], "slope": 0.5, "kind": "disc"}, "1": {"slope": 0.2}}')
            Path("k.json").write_text('{"mu": [1.0, 2.0]}')
            Path("provenance.json").write_text('{"wall_s": 2.0, "substeps": 4}')  # neither digested nor compared

        monkeypatch.setattr(digests, "produce", produce)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["output_digests.py", "--keep", "kept", "--against", "old"])
        assert digests.cli() == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[1] for line in lines[:5]] == ["c/a.csv", "extra.csv", "k.json", "s.json", "same.csv"]
        assert lines[5:] == ["# c/a.csv: largest relative difference per column against old",
                             "#   t  0", "#   v  2.5e-10", "#   s  0", "# extra.csv: not in old",
                             "# k.json: keys or lengths differ from old",
                             "# s.json: largest relative difference per key against old",
                             "#   kind  0", "#   mu  1e-07", "#   slope  0.2"]
        assert (tmp_path / "kept" / "c" / "a.csv").read_text().endswith("4.000000001,y\n")

    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_conormal_needs_two_samples(self, tmp_path, capsys, samples):
        cfg_path = self._conormal_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["conormal", str(cfg_path), "--samples", samples])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"strato conormal: error: --samples must be at least 2, got {samples}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag, env", [(["--workers", "0"], None), (["--workers", "-3"], None), ([], "abc")])
    def test_sweep_bad_worker_count_is_usage_error(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is None:
            monkeypatch.delenv("STRATO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("STRATO_WORKERS", env)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict(out_dir=tmp_path / "unused")))
        with pytest.raises(SystemExit) as info:
            main(["sweep", str(cfg_path), *flag])
        assert info.value.code == 2
        err = capsys.readouterr().err
        setting = "STRATO_WORKERS" if env else "workers"
        assert f"strato sweep: error: {setting} must be an integer >= 1" in err
        assert "Traceback" not in err


class InlineExecutor:
    """Stand-in for a one-thread pool: submit runs the call at once in the caller's thread."""

    def __init__(self, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def dense_reference_rows(config, mu, t_final, samples):
    """The conormal CSV rows as computed from one dense run, one RK4 step per sample gap.

    The whole trajectory is held; the family and the tracers are advected
    over each pair of consecutive samples in turn.
    """
    omega0, rho0 = config.initial_fields()
    params = SimParams(mu=mu, dt=config.dt, t_final=t_final, kappa=config.kappa)
    checkpoints = np.linspace(0.0, t_final, samples)
    result = run(omega0, rho0, params, record_every_step=True, sample_times=checkpoints)
    family = initial_vector_family(config.patch, config.grid, epsilon=config.patch.epsilon)
    curve = boundary_curve(config.patch)
    pts, tan = curve.points, curve.tangents
    d = result.diagnostics
    series_t = result.omega.times
    rows = []
    prev = 0
    for t in checkpoints:
        k = int(np.searchsorted(series_t, t - 1.0e-12))
        for j in range(prev, k):
            gap = TimeSeries(series_t[j:j + 2], result.omega.fields[j:j + 2])
            family = advect_family(family, gap)
            moved = advect_boundary(curve.params, pts, tan, gap)
            pts, tan = moved.points, moved.tangents
        prev = k
        omega_t = result.omega.fields[k]
        row = (float(t), family_floor(family), float(np.interp(t, d.times, d.gradv_sup_integral)),
               conormal_norm(omega_t, family), holder_quotient(curve.params, tan, family.epsilon),
               log_estimate_ratio(omega_t, family))
        rows.append(",".join(repr(float(x)) for x in row))
    return rows
