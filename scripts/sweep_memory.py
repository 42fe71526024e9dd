#!/usr/bin/env python3
"""Peak memory of one ``strato sweep``, split between the parent and its workers.

perfbench's ``peak_rss_mb`` is the largest peak of any process of a run,
so it cannot tell the sweep's parent from its pool workers.  This runs
``strato sweep CONFIG`` in this interpreter through ``strato.cli.main``,
as the benchmark does, then prints the parent's peak resident set
(``getrusage(RUSAGE_SELF)``) and the largest peak of any worker process
it waited for (``getrusage(RUSAGE_CHILDREN)``; 0 when the sweep ran in
one process).  ``--setup`` first builds and drops the config's initial
fields, as the benchmark's set-up does before it runs the command.  The
report goes to ``--out``, else to a temporary directory.

    PYTHONPATH=src python scripts/sweep_memory.py CONFIG [--workers N] [--setup] [--out DIR]
"""

import argparse
import contextlib
import io
import resource
import tempfile

from strato.cli import main
from strato.harness import SweepConfig


def peak_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run(args: argparse.Namespace, out: str) -> int:
    argv = ["sweep", args.config, "--out", out] + ([] if args.workers is None else ["--workers", args.workers])
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def cli() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("config", help="sweep config (JSON)")
    ap.add_argument("--workers", help="worker count passed to strato sweep (default: its own)")
    ap.add_argument("--setup", action="store_true", help="build and drop the initial fields first")
    ap.add_argument("--out", help="report directory (default: a temporary one)")
    args = ap.parse_args()
    if args.setup:
        SweepConfig.from_json(args.config).initial_fields()
    if args.out is not None:
        status = run(args, args.out)
    else:
        with tempfile.TemporaryDirectory() as out:
            status = run(args, out)
    print(f"parent peak RSS:         {peak_mib(resource.RUSAGE_SELF):7.1f} MiB")
    print(f"largest worker peak RSS: {peak_mib(resource.RUSAGE_CHILDREN):7.1f} MiB")
    return status


if __name__ == "__main__":
    raise SystemExit(cli())
