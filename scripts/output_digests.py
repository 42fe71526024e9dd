#!/usr/bin/env python3
"""SHA-256 of every science output of the strato commands, on small built-in configs.

Runs, through ``strato.cli.main`` in this interpreter, in a temporary
directory:

* ``strato sweep`` with 1 and with 2 workers (``sweep-1``, ``sweep-2``), and
  with 2 workers and ``save_fields`` on (``sweep-fields``): the physics of
  acceptance criterion 04 (half-length 2, unit disc, Gaussian density,
  five viscosities, dt = 0.005) cut to four steps;
* ``strato conormal`` on a star patch, dt = 0.01, 16 steps, five checkpoints
  (``conormal``), and to t = 0.155 with four checkpoints (``conormal_remainder``),
  whose legs each end on a remainder step before the checkpoint;
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

``--keep DIR`` copies the outputs to DIR.  ``--against DIR`` compares them
with such a copy: for each CSV or JSON output whose digest differs from
DIR's, it prints after the digests, as ``#`` lines, the largest relative
difference |a - b| / max(|a|, |b|) per CSV column or per JSON key (0 for
a bitwise one; a JSON key gathers every value under that name, list
items included).  So a round-off change reads, with two checkouts
``old`` and ``new``:

    PYTHONPATH=old/src python scripts/output_digests.py --keep out-old
    PYTHONPATH=new/src python scripts/output_digests.py --against out-old
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
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
    run(["conormal", "configs/conormal.json", "--mu", "1e-3", "--t", "0.155", "--samples", "4",
         "--csv", "conormal_remainder/conormal.csv"], Path("conormal_remainder", "stdout.txt"))
    run(["simulate", "configs/sweep.json", "--mu", "1e-3", "--out", "simulate", "--snapshots"],
        Path("simulate", "stdout.txt"))
    for snap in sorted(Path("simulate").glob("*.slf")):
        for i, extra in enumerate(BESOV_ARGS):
            run(["besov", str(snap), *extra], Path("besov", f"{snap.stem}-{i}.txt"))


def outputs(root: Path) -> list[Path]:
    """Every output file under root in sorted order, ``provenance.json`` (timings, worker count) left out."""
    return sorted(p for p in root.rglob("*") if p.is_file() and p.name != "provenance.json")


def digests(root: Path) -> list[str]:
    lines = []
    for path in outputs(root):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}")
    return lines


def relative_difference(a, b) -> float:
    """|a - b| / max(|a|, |b|) of two CSV cells or JSON values; 0 when they are the same number or text, inf for
    other text."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def csv_differences(path: Path, old: Path) -> list[tuple[str, float]] | None:
    """(column, largest relative difference) per column of two CSV files; None if their columns or rows differ."""
    (head, *new_rows), (old_head, *old_rows) = (list(csv.reader(p.open(newline=""))) for p in (path, old))
    if head != old_head or len(new_rows) != len(old_rows):
        return None
    return [(name, max((relative_difference(r[j], o[j]) for r, o in zip(new_rows, old_rows)), default=0.0))
            for j, name in enumerate(head)]


def json_leaves(doc, key: str = "") -> list[tuple[str, object]]:
    """(key, value) of every number or text in a JSON document, each under the name of the object key that holds
    it (list items under their list's key), in document order."""
    if isinstance(doc, dict):
        return [leaf for k in sorted(doc) for leaf in json_leaves(doc[k], k)]
    if isinstance(doc, list):
        return [leaf for item in doc for leaf in json_leaves(item, key)]
    return [(key, doc)]


def json_differences(path: Path, old: Path) -> list[tuple[str, float]] | None:
    """(key, largest relative difference) per key of two JSON files; None if their keys or list lengths differ."""
    new_leaves, old_leaves = (json_leaves(json.loads(p.read_text())) for p in (path, old))
    if [k for k, _ in new_leaves] != [k for k, _ in old_leaves]:
        return None
    worst: dict[str, float] = {}
    for (key, a), (_, b) in zip(new_leaves, old_leaves):
        worst[key] = max(worst.get(key, 0.0), relative_difference(a, b))
    return sorted(worst.items())


def compare(root: Path, against: Path) -> list[str]:
    """``#`` lines giving, for each CSV or JSON file under root whose bytes differ from its copy under against, the
    largest relative difference of each CSV column or JSON key."""
    lines = []
    for path in (p for p in outputs(root) if p.suffix in (".csv", ".json")):
        rel = path.relative_to(root)
        old = against / rel
        if not old.is_file():
            lines.append(f"# {rel.as_posix()}: not in {against}")
            continue
        if old.read_bytes() == path.read_bytes():
            continue
        csv_file = path.suffix == ".csv"
        worst = (csv_differences if csv_file else json_differences)(path, old)
        if worst is None:
            what = "columns or row count" if csv_file else "keys or lengths"
            lines.append(f"# {rel.as_posix()}: {what} differ from {against}")
            continue
        lines.append(f"# {rel.as_posix()}: largest relative difference per {'column' if csv_file else 'key'} "
                     f"against {against}")
        lines += [f"#   {name}  {value:.3g}" for name, value in worst]
    return lines


def cli() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=64, help="points per side of every config (default 64)")
    ap.add_argument("--keep", metavar="DIR", type=Path, help="copy the outputs to DIR")
    ap.add_argument("--against", metavar="DIR", type=Path,
                    help="print each CSV column's or JSON key's largest relative difference from the outputs in DIR")
    args = ap.parse_args()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths in every argument, so the printed outputs name no directory of this run
        try:
            produce(args.n)
        finally:
            os.chdir(here)
        lines = digests(Path(tmp))
        if args.against is not None:
            lines += compare(Path(tmp), args.against)
        if args.keep is not None:
            shutil.copytree(tmp, args.keep, dirs_exist_ok=True)
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(cli())
