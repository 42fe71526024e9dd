"""Maintenance of the benchmark's stored data.

    python3 perfbench/calibrate.py reference
        Run every workload once, unshifted, at both sizes and store its
        outputs in reference.json.  The analysis reference covers every
        heat time a seed can pick.  Run it only when the expected
        outputs change on purpose, and say why in the change.

    python3 perfbench/calibrate.py smoke
        Self-check of the benchmark: every workload at n = 64, untraced
        and traced, must be correct and report exactly the metrics that
        BENCHMARK.json names.  Takes about half a minute.

    python3 perfbench/calibrate.py spread --workload W --seeds 1-10 [--seconds S]
        Run run.py once per seed and print each end-to-end metric's
        median and quartile spread (Q3 - Q1) / median.

    python3 perfbench/calibrate.py baseline [--seeds 1-10] [--seconds S]
        Record baseline.json: machine provenance, per-workload medians
        and spreads, two traced seeds per workload with their per-layer
        metrics, and the seed-invariance check of nominal steps and
        fft.calls_per_step.

Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def record_reference() -> None:
    out: dict = {}
    for smoke in (False, True):
        sizes = out.setdefault("smoke" if smoke else "full", {})
        for name in workloads.NAMES:
            work = ROOT / ".perfbench_work" / f"reference-{name}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                spec = workloads.make_spec(name, None, smoke, work,
                                           taus=workloads.HEAT_MENU if name == "analysis" else None)
                (work / "spec.json").write_text(json.dumps(spec))
                result = run._child(work / "spec.json", work / "rep", "full", None,
                                    time.monotonic() + run.RUN_LIMIT_S)
                if result is None or not all(c["ok"] for c in result["commands"]):
                    raise SystemExit(f"{name}: a command failed; no reference written")
                values, checks = workloads.observe(spec, work / "rep", result)
                bad = [c for c, ok in checks if not ok]
                if bad:
                    raise SystemExit(f"{name}: checks failed: {bad}")
                sizes[name] = values
                print(f"{'smoke' if smoke else 'full'} {name}: {len(values)} entries", flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int, smoke: bool = False) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else []),
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return result


def smoke() -> None:
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in cfg["end_to_end"]], 1: [m["name"] for m in cfg["per_layer"]]}
    for workload in workloads.NAMES:
        for trace in (0, 1):
            metrics = bench(workload, 1, 1, trace, smoke=True)["metrics"]
            if sorted(metrics) != sorted(names[trace]):
                raise SystemExit(f"{workload} trace {trace}: metrics {sorted(metrics)} "
                                 f"differ from BENCHMARK.json")
            print(f"smoke {workload} trace {trace}: correct, {len(metrics)} metrics", flush=True)


def spread(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = []
    for seed in seeds:
        r = bench(workload, seed, seconds, 0)
        runs.append({k: v["value"] for k, v in r["metrics"].items()})
        print(f"  {workload} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
              flush=True)
    summary = {}
    for name in runs[0]:
        vals = [r[name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
                         "runs": len(vals)}
        print(f"{workload} {name}: median {med:.6g}, spread {(q3 - q1) / med:.4f}", flush=True)
    return summary


def provenance() -> dict:
    import numpy
    import scipy

    def cache(level: int) -> str | None:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")):
            if (idx / "level").read_text().strip() == str(level):
                return (idx / "size").read_text().strip()
        return None

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": dict(run.BLAS_THREADS, STRATO_WORKERS="unset"),
    }


def baseline(seeds: list[int], seconds: int) -> None:
    bench_cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in bench_cfg["workloads"]}
    out: dict = {"provenance": provenance(), "run_seconds": seconds, "workloads": {}}
    for name in workloads.NAMES:
        entry: dict = {"why": whys.get(name), "end_to_end": spread(name, seeds, seconds)}
        traced = {}
        for seed in seeds[:2]:
            r = bench(name, seed, seconds, 1)
            traced[str(seed)] = {k: v["value"] for k, v in r["metrics"].items()}
        a, b = traced.values()
        entry["per_layer"] = traced
        entry["seed_invariance"] = {
            key: {"seeds": list(traced), "values": [a[key], b[key]], "equal": a[key] == b[key]}
            for key in ("solver.nominal_steps", "fft.calls_per_step",
                        "initdata.rasterize_patch.calls", "littlewood_paley.block.calls")}
        out["workloads"][name] = entry
    # rung-running processes seen by the trace; the program's own default
    sweep_layers = next(iter(out["workloads"]["sweep"]["per_layer"].values()))
    out["provenance"]["effective_sweep_workers"] = sweep_layers["harness.workers"]
    out["targets"] = json.loads((HERE / "targets.json").read_text())
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("reference")
    sub.add_parser("smoke")
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", type=int, default=None)
    p = sub.add_parser("baseline")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    if args.cmd == "reference":
        record_reference()
        return 0
    if args.cmd == "smoke":
        smoke()
        return 0
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.cmd == "spread":
        spread(args.workload, _seeds(args.seeds), seconds)
    else:
        baseline(_seeds(args.seeds), seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
