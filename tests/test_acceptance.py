"""Acceptance gate: ten numbered end-to-end checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(visible under pytest -s or on failure) and then asserts.  The checks
exercise the closed-form heated-disc ladders, the solver against the
heat semigroup, the full stratified sweep exponents, the dyadic-block
toolbox, the advected-family diagnostics, and report determinism.
"""

import numpy as np

from strato import (
    BesovParams,
    DensitySpec,
    DyadicPartition,
    PatchSpec,
    RateSeries,
    ScalarField,
    SimParams,
    SweepConfig,
    TimeSeries,
    advect_legs,
    besov_norm,
    bony_decompose,
    boundary_curve,
    emit_report,
    family_floor,
    fit_exponent,
    good_unknown_residual,
    heat_propagate,
    holder_quotient,
    initial_vector_family,
    lp_norm,
    make_density,
    rasterize_patch,
    run,
    run_sweep,
    time_besov_norm,
    velocity_lp_error,
    vorticity_lp_error,
)
from strato.grid import GridSpec
from strato.littlewood_paley import bernstein_ratio, block
from conftest import half_kmag, random_field


def verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def heated_disc_fit(error_fn, p, taus, reference):
    errors = np.array([error_fn(float(t), p) for t in taus])
    return fit_exponent(RateSeries("error", p, taus, errors, reference_exponent=reference))


def test_criterion_01_vorticity_rate_and_sandwich():
    taus = np.geomspace(1.0e-4, 1.0e-1, 8)
    wide = np.geomspace(1.0e-4, 1.0, 12)
    details = []
    ok = True
    for p in (2.0, 3.0, 4.0, 8.0):
        ref = 1.0 / (2.0 * p)
        fit = heated_disc_fit(vorticity_lp_error, p, taus, ref)
        band = heated_disc_fit(vorticity_lp_error, p, wide, ref)
        ratio = band.c_upper / band.c_lower
        ok = ok and abs(fit.slope - ref) <= 0.02 and ratio <= 5.0
        details.append(f"p={p:g} slope {fit.slope:.4f} (ref {ref:.4f}) C2/C1 {ratio:.2f}")
    verdict(1, ok, "; ".join(details))


def test_criterion_02_velocity_rate():
    taus = np.geomspace(1.0e-4, 1.0e-1, 8)
    details = []
    ok = True
    for p, ref in ((2.0, 0.75), (4.0, 0.625)):
        fit = heated_disc_fit(velocity_lp_error, p, taus, ref)
        ok = ok and abs(fit.slope - ref) <= 0.03
        details.append(f"p={p:g} slope {fit.slope:.4f} (ref {ref:.3f})")
    verdict(2, ok, "; ".join(details))


def test_criterion_03_solver_matches_heat_semigroup():
    grid = GridSpec(n=512, half_length=8.0)
    omega0 = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid)
    rho0 = ScalarField(grid, np.zeros((grid.n, grid.n)))
    mu = 1.0e-3
    res = run(omega0, rho0, SimParams(mu=mu, dt=0.02, t_final=1.0), track_gradients=False)
    want = heat_propagate(omega0, mu * 1.0)
    diff = ScalarField(grid, res.omega.fields[-1].values - want.values)
    rel = lp_norm(diff, 2.0) / lp_norm(want, 2.0)
    verdict(3, rel <= 0.02, f"radial patch vs heat semigroup, relative L2 {rel:.4%}")


def test_criterion_04_full_system_sweep_exponents(tmp_path):
    config = SweepConfig.from_dict({
        "grid": {"n": 512, "half_length": 2.0},
        "patch": {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "density": {"kind": "gaussian", "amplitude": 0.1, "width": 0.25, "center": [0.0, 0.0]},
        "params": {"dt": 0.005, "t_final": 1.0, "kappa": 1.0},
        "sweep": {"mu": [1.0e-4, 3.0e-4, 1.0e-3, 3.0e-3, 1.0e-2], "error_p": 2.0},
        "output": {"dir": str(tmp_path)},
    })
    result = run_sweep(config)
    entry = result.slopes[f"{1.0:.12g}"]
    dslope = entry["discrepancy_slope"]
    wslope = entry["vorticity_slope"]
    ok = abs(dslope - 0.75) <= 0.10 and abs(wslope - 0.25) <= 0.07
    verdict(4, ok, f"discrepancy slope {dslope:.4f} (ref 0.75 +- 0.10), "
                   f"vorticity slope {wslope:.4f} (ref 0.25 +- 0.07)")


def test_criterion_05_dyadic_block_toolbox():
    grid = GridSpec(n=256, half_length=8.0)
    part = DyadicPartition(grid)

    total = sum(part.multiplier(q) for q in part.qs())
    on_band = half_kmag(grid) <= 2.0 ** part.q_max
    unity = float(np.abs(total[on_band] - 1.0).max())

    f = random_field(grid, 40, band=2.0 ** part.q_max)
    resum = sum(block(f, q).values for q in part.qs())
    recon = float(np.abs(resum - f.values).max() / np.abs(f.values).max())

    ortho = lp_norm(block(block(f, 1), 3), np.inf)

    u = random_field(grid, 41, band=2.0 ** (part.q_max - 2))
    v = random_field(grid, 42, band=2.0 ** (part.q_max - 2))
    t_uv, t_vu, rem = bony_decompose(u, v)
    product = u.values * v.values
    bony = float(
        np.abs(t_uv.values + t_vu.values + rem.values - product).max()
        / np.abs(product).max()
    )

    def wave_packet(q):
        lam = 2.0 ** q
        width = 2.0 / lam

        def fn(x1, x2):
            return np.exp(-(x1**2 + x2**2) / (2.0 * width**2)) * np.cos(lam * x1)

        return ScalarField.from_function(grid, fn)

    bern_ok = True
    for q in (1, 2, 3, 4):
        packet = wave_packet(q)
        for p, b in ((2.0, np.inf), (2.0, 4.0)):
            deriv, gain = bernstein_ratio(packet, q, p, b)
            bern_ok = bern_ok and 1.0 / 8.0 <= deriv <= 8.0 and 1.0 / 8.0 <= gain <= 8.0

    ok = unity <= 1e-12 and recon <= 1e-12 and ortho <= 1e-12 and bony <= 1e-10 and bern_ok
    verdict(5, ok, f"partition {unity:.1e}, reconstruction {recon:.1e}, "
                   f"orthogonality {ortho:.1e}, paraproduct {bony:.1e}, "
                   f"derivative/gain brackets C=8 {'held' if bern_ok else 'broken'}")


def test_criterion_06_heat_smoothing_scaling():
    grid = GridSpec(n=512, half_length=2.0)
    a0 = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid)
    times = np.concatenate([[0.0], np.geomspace(1.0e-5, 1.0, 60)])
    base = besov_norm(a0, BesovParams(s=0.0))
    values = []
    for mu in (1.0e-4, 1.0e-3, 1.0e-2):
        fields = tuple(heat_propagate(a0, mu * float(t)) for t in times)
        tilde, _ = time_besov_norm(TimeSeries(times, fields), 1.0, BesovParams(s=2.0))
        values.append(mu * tilde / ((1.0 + mu * 1.0) * base))
    spread = max(values) / min(values)
    verdict(6, spread <= 10.0,
            f"mu-normalized smoothing ratio spread x{spread:.2f} over three decades of mu")


def test_criterion_07_dynamics_invariants():
    grid = GridSpec(n=128, half_length=8.0)
    omega0 = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid)
    rho0 = make_density(DensitySpec(kind="gaussian", amplitude=0.5, width=1.0, center=(0.0, 0.5)), grid)
    res = run(omega0, rho0, SimParams(mu=1.0e-3, dt=0.02, t_final=1.0),
              record_every_step=True, track_gradients=False)
    d = res.diagnostics
    circ = np.asarray(d.circulation)
    drift = float(np.abs(circ - circ[0]).max()) / 1.0
    rho_sup = np.asarray(d.rho_sup)
    overshoot = float((rho_sup - rho_sup[0]).max())
    rho_l2 = np.asarray(d.rho_l2)
    monotone = bool(np.all(np.diff(rho_l2) <= 1e-12 * rho_l2[0]))

    cell = GridSpec(n=64, half_length=8.0)
    k = np.pi / 8.0
    w0 = ScalarField.from_function(
        cell, lambda x1, x2: 2.0 * k * k * np.sin(k * x1) * np.sin(k * x2))
    tg = run(w0, ScalarField(cell, np.zeros((64, 64))),
             SimParams(mu=0.01, dt=0.05, t_final=0.5), track_gradients=False)
    tg_err = float(np.abs(tg.omega.fields[-1].values
                          - np.exp(-2.0 * k * k * 0.01 * 0.5) * w0.values).max())

    ok = drift <= 1e-10 and overshoot <= 1e-6 and monotone and tg_err <= 1e-6
    verdict(7, ok, f"circulation drift {drift:.2e}/unit time, density overshoot {overshoot:.2e}, "
                   f"L2 {'nonincreasing' if monotone else 'INCREASED'}, "
                   f"single-cell decay error {tg_err:.2e}")


def test_criterion_08_advected_family_health():
    grid = GridSpec(n=128, half_length=8.0)
    patch = PatchSpec(kind="disc", radius=1.0)
    omega0 = rasterize_patch(patch, grid)
    rho0 = make_density(DensitySpec(kind="gaussian", amplitude=0.1, width=1.0, center=(0.0, 0.5)), grid)
    family0 = initial_vector_family(patch, grid)
    curve = boundary_curve(patch, m=256)
    ((_, _, family_t, moved, diag),) = advect_legs(omega0, rho0, SimParams(mu=1.0e-3, dt=0.02, t_final=1.0),
                                                   [1.0], family0, curve)
    floor0, floor_t = family_floor(family0), family_floor(family_t)
    envelope = 0.9 * floor0 * float(np.exp(-diag["gradv_sup_integral"]))

    area0 = abs(0.5 * np.sum(
        curve.points[:, 0] * np.roll(curve.points[:, 1], -1)
        - curve.points[:, 1] * np.roll(curve.points[:, 0], -1)))
    area_drift = abs(moved.enclosed_area - area0) / area0
    hq0 = holder_quotient(curve.params, curve.tangents, 0.5)
    hq_t = holder_quotient(moved.params, moved.tangents, 0.5)

    resids = {}
    for dt in (0.02, 0.01):
        short = run(omega0, rho0, SimParams(mu=1.0e-3, dt=dt, t_final=0.2),
                    record_every_step=True, track_gradients=False)
        resids[dt] = good_unknown_residual(short.omega, short.rho, 1.0e-3)

    ok = (floor_t >= envelope and area_drift <= 0.005 and hq_t <= 10.0 * hq0
          and resids[0.02] <= 5e-2 and resids[0.02] / resids[0.01] >= 3.0)
    verdict(8, ok, f"floor {floor0:.4f}->{floor_t:.4f} (envelope {envelope:.4f}), "
                   f"area drift {area_drift:.2e}, quotient x{hq_t / hq0:.3f}, "
                   f"residual {resids[0.02]:.3f} with x{resids[0.02] / resids[0.01]:.1f} "
                   f"reduction under dt halving")


def test_criterion_09_patch_block_regularity():
    bound = 4.0 * (np.pi + 2.0 * np.pi)
    values = {}
    for n in (256, 512):
        grid = GridSpec(n=n, half_length=8.0)
        f = rasterize_patch(PatchSpec(kind="disc", radius=1.0), grid)
        for p in (1.0, 2.0, 4.0):
            values[n, p] = besov_norm(f, BesovParams(s=1.0 / p, p=p, homogeneous=True))
    ok = True
    details = []
    for p in (1.0, 2.0, 4.0):
        lo, hi = values[256, p], values[512, p]
        stable = abs(hi / lo - 1.0) <= 0.2
        ok = ok and hi <= bound and lo <= bound and stable
        details.append(f"p={p:g}: {lo:.2f}/{hi:.2f} (cap {bound:.1f})")
    verdict(9, ok, "; ".join(details))


def test_criterion_10_report_determinism(tmp_path, monkeypatch):
    raw = {
        "grid": {"n": 64, "half_length": 8.0},
        "patch": {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "density": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0, "center": [0.0, 0.5]},
        "params": {"dt": 0.05, "t_final": 0.2, "kappa": 1.0},
        "sweep": {"mu": [1.0e-3, 1.0e-2], "sample_times": [0.1, 0.2], "error_p": 2.0},
        "output": {"dir": str(tmp_path)},
    }
    config = SweepConfig.from_dict(raw)
    reports = {}
    for workers in (1, 2):
        monkeypatch.setenv("STRATO_WORKERS", str(workers))
        paths = emit_report(run_sweep(config), tmp_path / f"w{workers}")
        reports[workers] = paths["rates"].read_bytes()
    ok = reports[1] == reports[2]
    verdict(10, ok, f"rates.csv byte-identical across worker counts "
                    f"({len(reports[1])} bytes)")
