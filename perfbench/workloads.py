"""The benchmark's workloads: seeded inputs, set-up, and output checks.

The seed picks only where the patch and density sit (one shared shift of
whole grid cells, inside the box margin) and, for ``analysis``, the heat
times of the snapshots.  On the periodic box a whole-cell shift moves
the solution without changing it, so every seed has the same amount of
work and the same outputs up to round-off; one stored reference
(``reference.json``) checks them all.

Each workload is a list of commands run back to back in one fresh
interpreter through ``strato.cli.main``:

* ``sweep``: ``strato sweep`` with the physics of acceptance criterion 04
  (n = 512, half-length 2, unit disc, Gaussian density of amplitude 0.1
  and width 0.25, five viscosities plus the inviscid reference,
  dt = 0.005, two sample times), with the horizon cut to a few steps.
* ``conormal``: ``strato conormal`` on a ``star`` patch at n = 256,
  dt = 0.01, five checkpoints.
* ``analysis``: ``strato rankine`` on the heated-disc ladders of criteria
  01 and 02, a ``fieldio`` write and read of heat-smoothed n = 512 disc
  snapshots, and ``strato besov`` on each snapshot.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

NAMES = ("sweep", "conormal", "analysis")
HALF_LENGTH = 2.0
MU_LADDER = [1.0e-4, 3.0e-4, 1.0e-3, 3.0e-3, 1.0e-2]
HEAT_MENU = [1.0e-4, 2.0e-4, 5.0e-4, 1.0e-3, 2.0e-3, 5.0e-3]
BESOV_ARGS = [["-s", "0.5", "-p", "2"], ["-s", "0.25", "-p", "4", "--homogeneous"],
              ["-s", "0", "-p", "inf"]]
RANKINE = [("vorticity", ["2", "3", "4", "8"]), ("velocity", ["2", "4"])]
RTOL = 1.0e-6
PRINTED_RTOL = 1.0e-5  # besov prints seven significant digits

# size of each workload; the smoke set runs everything at n = 64
SIZES = {
    False: {"sweep": {"n": 512, "steps": 4}, "conormal": {"n": 256, "steps": 16},
            "analysis": {"n": 512, "snapshots": 3, "points": 8, "p": None}},
    True: {"sweep": {"n": 64, "steps": 4}, "conormal": {"n": 64, "steps": 4},
           "analysis": {"n": 64, "snapshots": 2, "points": 6, "p": ["2"]}},
}


def _shift(rng: random.Random, n: int, reach: float) -> list[float]:
    """Centre a whole number of cells from the origin, at most ``reach`` away."""
    dx = 2.0 * HALF_LENGTH / n
    m = int(reach / dx)
    return [rng.randint(-m, m) * dx, rng.randint(-m, m) * dx]


def _config(n: int, patch: dict, centre: list[float], dt: float, steps: int) -> dict:
    t_final = round(steps * dt, 12)
    return {
        "grid": {"n": n, "half_length": HALF_LENGTH},
        "patch": dict(patch, center=centre),
        "density": {"kind": "gaussian", "amplitude": 0.1, "width": 0.25, "center": centre},
        "params": {"dt": dt, "t_final": t_final, "kappa": 1.0},
        "sweep": {"mu": MU_LADDER, "sample_times": [round(t_final / 2, 12), t_final],
                  "error_p": 2.0},
        "output": {"dir": "results"},
    }


def make_spec(workload: str, seed: int | None, smoke: bool, work: Path,
              taus: list[float] | None = None) -> dict:
    """Inputs and commands of one workload; ``seed=None`` is the unshifted case.

    Command arguments may hold ``{rep}``, the repetition's output directory.
    """
    size = SIZES[smoke][workload]
    rng = random.Random(seed)
    n = size["n"]
    spec: dict = {"workload": workload, "seed": seed, "smoke": smoke}
    if workload == "sweep":
        centre = _shift(rng, n, 0.24) if seed is not None else [0.0, 0.0]
        cfg = _config(n, {"kind": "disc", "radius": 1.0}, centre, 0.005, size["steps"])
        spec["config"] = str(work / "sweep.json")
        spec["commands"] = [["sweep", spec["config"], "--out", "{rep}/report"]]
        spec["nominal_steps"] = size["steps"] * (len(MU_LADDER) + 1)
    elif workload == "conormal":
        centre = _shift(rng, n, 0.24) if seed is not None else [0.0, 0.0]
        star = {"kind": "star", "radius": 1.0, "amplitude": 0.1, "base_mode": 5,
                "octaves": 1, "epsilon": 0.5}
        cfg = _config(n, star, centre, 0.01, size["steps"])
        spec["config"] = str(work / "conormal.json")
        spec["commands"] = [["conormal", spec["config"], "--mu", "1e-3",
                             "--t", repr(cfg["params"]["t_final"]), "--samples", "5",
                             "--csv", "{rep}/conormal.csv"]]
        spec["nominal_steps"] = size["steps"]
    else:
        centre = _shift(rng, n, 0.49) if seed is not None else [0.0, 0.0]
        cfg = None
        if taus is None:
            taus = sorted(rng.sample(HEAT_MENU, size["snapshots"]))
        spec.update(n=n, centre=centre, taus=taus)
        cmds = []
        for quantity, ps in RANKINE:
            cmds.append(["rankine", "--quantity", quantity, "--p", *(size["p"] or ps),
                         "--tau-min", "1e-4", "--tau-max", "1e-1",
                         "--points", str(size["points"]), "--csv", "{rep}/" + quantity + ".csv"])
        cmds.append(["snapshot-io"])
        for i in range(len(taus)):
            for extra in BESOV_ARGS:
                cmds.append(["besov", f"{{rep}}/snap{i}.slf", *extra])
        spec["commands"] = cmds
        spec["nominal_steps"] = 0
    if cfg is not None:
        Path(spec["config"]).write_text(json.dumps(cfg, indent=1))
        spec["centre"] = centre
    return spec


# ---------------------------------------------------------------- child side

def setup(spec: dict) -> dict:
    """Build the inputs in the measuring process; runs inside set-up time."""
    from strato.grid import GridSpec, heat_propagate
    from strato.harness import SweepConfig
    from strato.initdata import (PatchSpec, boundary_curve, initial_vector_family,
                                 make_density, rasterize_patch)

    if spec["workload"] == "analysis":
        grid = GridSpec(n=spec["n"], half_length=HALF_LENGTH)
        patch = PatchSpec(kind="disc", center=tuple(spec["centre"]), radius=1.0)
        disc = rasterize_patch(patch, grid)
        _check_area(disc, patch)
        return {"snapshots": [heat_propagate(disc, tau) for tau in spec["taus"]]}
    config = SweepConfig.from_json(spec["config"])
    omega0 = rasterize_patch(config.patch, config.grid)
    _check_area(omega0, config.patch)
    make_density(config.density, config.grid)
    if spec["workload"] == "conormal":
        initial_vector_family(config.patch, config.grid, epsilon=config.patch.epsilon)
        boundary_curve(config.patch)
    return {}


def _check_area(field, patch) -> None:
    import numpy as np

    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    exact = 0.5 * float(np.mean(patch.boundary_radius(theta) ** 2)) * 2.0 * np.pi
    got = float(field.values.sum()) * field.grid.dx ** 2
    if abs(got - exact) > 0.01 * exact:
        raise ValueError(f"rasterized patch area {got:.5f}, expected {exact:.5f}")


# --------------------------------------------------------------- parent side

_SLOPE = re.compile(r"^(vorticity|velocity) p=(\S+): slope (\S+) \(ref (\S+)\)")
_BLOCK = re.compile(r"^\s+q=(\S+): 2\^\(qs\)\|block\|_p = (\S+)$")
_TOTAL = re.compile(r"^besov norm \(.*\): (\S+)$")


def _floats(row) -> list[float]:
    return [float(x) for x in row]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def observe(spec: dict, rep: Path, result: dict) -> tuple[dict, list]:
    """Outputs of one repetition as ``{key: [values]}``, plus pass/fail checks.

    Missing files or lines leave their keys out, which the comparison
    with the reference counts as failures.
    """
    values: dict[str, list[float]] = {}
    checks: list[tuple[str, bool]] = []
    w = spec["workload"]
    try:
        if w == "sweep":
            for row in _read_csv(rep / "report" / "rates.csv"):
                mu, t, *rest = _floats(row)
                values[f"rates mu={mu!r} t={t!r}"] = rest
            slopes = json.loads((rep / "report" / "slopes.json").read_text())
            for t, entry in slopes.items():
                values[f"slopes t={t}"] = [entry["discrepancy_slope"], entry["vorticity_slope"]]
        elif w == "conormal":
            for row in _read_csv(rep / "conormal.csv"):
                vals = _floats(row)
                values[f"checkpoint t={vals[0]!r}"] = vals[1:]
        else:
            for quantity, _ in RANKINE:
                for q, p, tau, err in _read_csv(rep / f"{quantity}.csv"):
                    values[f"{q} p={float(p)!r} tau={float(tau)!r}"] = [float(err)]
            for cmd, out in zip(spec["commands"], result["commands"]):
                if cmd[0] == "rankine":
                    for m in map(_SLOPE.match, out["stdout"].splitlines()):
                        if m:
                            q, p, slope, ref = m.group(1), float(m.group(2)), float(m.group(3)), float(m.group(4))
                            tol = 0.02 if q == "vorticity" else 0.03
                            checks.append((f"{q} p={p!r} slope {slope} vs {ref}",
                                           abs(slope - ref) <= tol))
                elif cmd[0] == "besov":
                    i = int(re.search(r"snap(\d+)", cmd[1]).group(1))
                    tag = f"besov tau={spec['taus'][i]!r} {' '.join(cmd[2:])}"
                    for line in out["stdout"].splitlines():
                        m = _BLOCK.match(line)
                        if m:
                            values[f"{tag} q={int(m.group(1))}"] = [float(m.group(2))]
                        m = _TOTAL.match(line)
                        if m:
                            values[f"{tag} total"] = [float(m.group(1))]
            checks.extend((f"snapshot {i} round trip", ok) for i, ok in enumerate(result.get("io", [])))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        checks.append((f"reading outputs: {exc}", False))
    return values, checks


def expected(spec: dict, reference: dict) -> dict:
    """The reference entries that this spec's outputs must reproduce."""
    if spec["workload"] != "analysis":
        return reference
    taus = {f"tau={t!r} " for t in spec["taus"]}
    return {k: v for k, v in reference.items()
            if not k.startswith("besov") or any(t in k for t in taus)}


def compare(spec: dict, values: dict, checks: list, reference: dict) -> tuple[int, list[str]]:
    """Operations attempted and the list of those that failed."""
    want = expected(spec, reference)
    failed = []
    for key, ref in want.items():
        got = values.get(key)
        if got is None or len(got) != len(ref):
            failed.append(f"{key}: missing")
            continue
        rtol, atol = RTOL, 0.0
        if key.startswith("besov"):
            total = want[key.rsplit(" ", 1)[0] + " total"][0]
            rtol, atol = PRINTED_RTOL, 1.0e-9 * abs(total)
        for g, r in zip(got, ref):
            if not math.isfinite(g) or abs(g - r) > rtol * abs(r) + atol:
                failed.append(f"{key}: got {g!r}, reference {r!r}")
                break
    for name, ok in checks:
        if not ok:
            failed.append(name)
    return len(want) + len(checks), failed
