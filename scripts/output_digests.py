#!/usr/bin/env python3
"""SHA-256 of every science output of the strato commands, on small built-in configs.

Runs, through ``strato.cli.main`` in this interpreter, in a temporary
directory:

* ``strato sweep`` with 1 and with 2 workers (``sweep-1``, ``sweep-2``), and
  with 2 workers and ``save_fields`` on (``sweep-fields``): the physics of
  acceptance criterion 04 (half-length 2, unit disc, Gaussian density,
  five viscosities, dt = 0.005) cut to four steps;
* ``strato conormal`` on a star patch, dt = 0.01, 16 steps, five checkpoints;
* ``strato simulate --snapshots`` on the sweep config at mu = 1e-3;
* ``strato besov`` on each snapshot, with three exponent sets.

It prints ``<sha256>  <path>`` for each output file, the captured standard
output of each command included, with paths relative to the run directory
and in sorted order.  ``provenance.json`` (timings, worker count) is left
out.  So two checkouts produce the same bytes exactly when ``diff`` of
their printouts is empty:

    PYTHONPATH=src python scripts/output_digests.py [--n N] > digests.txt

``--n`` sets the points per side of every config (default 64); n = 512
gives the sweep of the benchmark's ``sweep`` workload and n = 256 the
conormal run of its ``conormal`` workload.  strato is imported from
PYTHONPATH, so the same script measures any checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from strato.cli import main

MU_LADDER = [1.0e-4, 3.0e-4, 1.0e-3, 3.0e-3, 1.0e-2]
BESOV_ARGS = [["-s", "0.5", "-p", "2"], ["-s", "0.25", "-p", "4", "--homogeneous"], ["-s", "0", "-p", "inf"]]


def config(n: int, patch: dict, dt: float, steps: int, save_fields: bool = False) -> dict:
    t_final = round(steps * dt, 12)
    return {
        "grid": {"n": n, "half_length": 2.0},
        "patch": dict(patch, center=[0.0, 0.0]),
        "density": {"kind": "gaussian", "amplitude": 0.1, "width": 0.25, "center": [0.0, 0.0]},
        "params": {"dt": dt, "t_final": t_final, "kappa": 1.0},
        "sweep": {"mu": MU_LADDER, "sample_times": [round(t_final / 2, 12), t_final], "error_p": 2.0},
        "output": {"dir": "results", "save_fields": save_fields},
    }


def run(argv: list[str], stdout: Path) -> None:
    """strato ``argv``, its standard output kept in ``stdout``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"strato {' '.join(argv)} exited with {status}")
    stdout.parent.mkdir(parents=True, exist_ok=True)
    stdout.write_text(buf.getvalue())


def produce(n: int) -> None:
    """Write every output under the current directory."""
    disc = {"kind": "disc", "radius": 1.0}
    star = {"kind": "star", "radius": 1.0, "amplitude": 0.1, "base_mode": 5, "octaves": 1, "epsilon": 0.5}
    Path("configs").mkdir()
    for name, cfg in (("sweep", config(n, disc, 0.005, 4)), ("fields", config(n, disc, 0.005, 4, True)),
                      ("conormal", config(n, star, 0.01, 16))):
        Path("configs", f"{name}.json").write_text(json.dumps(cfg, indent=1))
    for out, cfg, workers in (("sweep-1", "sweep", "1"), ("sweep-2", "sweep", "2"), ("sweep-fields", "fields", "2")):
        run(["sweep", f"configs/{cfg}.json", "--out", out, "--workers", workers], Path(out, "stdout.txt"))
    run(["conormal", "configs/conormal.json", "--mu", "1e-3", "--t", "0.16", "--samples", "5",
         "--csv", "conormal/conormal.csv"], Path("conormal", "stdout.txt"))
    run(["simulate", "configs/sweep.json", "--mu", "1e-3", "--out", "simulate", "--snapshots"],
        Path("simulate", "stdout.txt"))
    for snap in sorted(Path("simulate").glob("*.slf")):
        for i, extra in enumerate(BESOV_ARGS):
            run(["besov", str(snap), *extra], Path("besov", f"{snap.stem}-{i}.txt"))


def digests(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "provenance.json"):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}")
    return lines


def cli() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=64, help="points per side of every config (default 64)")
    args = ap.parse_args()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths in every argument, so the printed outputs name no directory of this run
        try:
            produce(args.n)
        finally:
            os.chdir(here)
        print("\n".join(digests(Path(tmp))))
    return 0


if __name__ == "__main__":
    raise SystemExit(cli())
