"""strato benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload sweep|conormal|analysis --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; it needs ``src/strato``.  Each
repetition is a fresh interpreter (``child.py``) that sets up the inputs
and runs the workload's commands back to back: a closed loop with one
client.  Repetitions follow each other while the next one is expected to
end within half a repetition of the ``--seconds`` window (at least one
runs), then extra set-up-only processes bring the set-up samples to
``SETUP_SAMPLES``.  Every repetition's
outputs are checked against ``reference.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
medians over repetitions of ``wall_s``, ``setup_s`` and ``cpu_s``, and
the largest ``peak_rss_mb`` of any process.  With ``--trace 1``
untraced and traced repetitions alternate; it reports the per-layer
metrics of the traced ones and ``trace.overhead``, traced over
untraced ``wall_s``.  ``--smoke`` runs the small n = 64 variant, a quick
self-check of the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 165.0  # a run must end within 180 s, whatever its children do
# one BLAS thread per process, so that load stays within the cores
# however many sweep workers the program starts
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def _child(spec_path: Path, rep: Path, mode: str, trace_dir: Path | None,
           deadline: float) -> dict | None:
    rep.mkdir(parents=True)
    env = dict(os.environ)
    path = [str(ROOT / "src")]
    env.pop("PERFBENCH_TRACE_DIR", None)
    env.pop("STRATO_WORKERS", None)  # the program's own default picks the worker count
    env.update(BLAS_THREADS)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
        path.append(str(HERE / "hook"))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    t_spawn = time.monotonic()
    # its own process group, so that a timeout also stops the pool workers
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(rep), repr(t_spawn), mode],
        env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("repetition stopped at the run's time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repetition exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads((rep / "result.json").read_text())


def _reference(smoke: bool) -> dict:
    return json.loads((HERE / "reference.json").read_text())["smoke" if smoke else "full"]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            work: Path) -> dict:
    """Run the repetitions and return the collected numbers."""
    spec = workloads.make_spec(workload, seed, smoke, work)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    reference = _reference(smoke)[workload]
    walls = {False: [], True: []}
    cpus, setups, layers = [], [], []
    attempted = 0
    failures: list[str] = []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    longest = 0.0
    k = 0
    # start another repetition while it is expected to end no later than
    # half a repetition past the window
    while time.monotonic() < deadline and (
            k == 0 or (trace and k < 2) or time.monotonic() + longest / 2 <= start + seconds):
        traced = trace and k % 2 == 1
        rep = work / f"rep{k}"
        trace_dir = rep / "trace" if traced else None
        t0 = time.monotonic()
        result = _child(spec_path, rep, "full", trace_dir, deadline)
        longest = max(longest, time.monotonic() - t0)
        k += 1
        if result is None:
            n, failed = workloads.compare(spec, {}, [], reference)
            attempted += n
            failures += failed
            continue
        values, checks = workloads.observe(spec, rep, result)
        checks += [(f"{c['name']} raised or returned non-zero", c["ok"]) for c in result["commands"]]
        n, failed = workloads.compare(spec, values, checks, reference)
        attempted += n
        failures += failed
        wall = sum(c["wall_s"] for c in result["commands"])
        walls[traced].append(wall)
        if traced:
            cmd_cpu: dict[str, float] = {}
            for c in result["commands"]:
                cmd_cpu[c["name"]] = cmd_cpu.get(c["name"], 0.0) + c["cpu_s"]
            layers.append(spans.layer_metrics(spans.load(trace_dir), cmd_cpu))
        else:
            setups.append(result["setup_s"])
            cpus.append(sum(c["cpu_s"] for c in result["commands"]))
        shutil.rmtree(rep)
    while not trace and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        rep = work / f"setup{len(setups)}"
        result = _child(spec_path, rep, "setup", None, deadline)
        if result is None:
            failures.append("set-up process failed")
            attempted += 1
            break
        setups.append(result["setup_s"])
        shutil.rmtree(rep)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"spec": spec, "walls": walls, "cpus": cpus, "setups": setups, "layers": layers,
            "attempted": attempted, "failures": failures, "peak_rss_mb": peak_kib / 1024.0}


def _median(xs: list[float]) -> float:
    # 0 only when every repetition failed, which the result marks incorrect
    return statistics.median(xs) if xs else 0.0


def report(m: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    spec = m["spec"]
    failed = len(m["failures"])
    for reason in m["failures"][:20]:
        print(f"FAILED {reason}")
    walls = m["walls"][False]
    head = f"workload {spec['workload']} seed {spec['seed']}"
    print(f"{head}: {len(walls)} untraced and {len(m['walls'][True])} traced repetitions, "
          f"{len(m['setups'])} set-up samples")
    print("repetition wall_s: " + " ".join(f"{w:.4f}" for w in walls)
          + "".join(f" {w:.4f}(traced)" for w in m["walls"][True]))
    if trace:
        untraced = _median(walls)
        values = {name: _median([lm[name] for lm in m["layers"]])
                  for name in spans.LAYERS if name != "trace.overhead"}
        values["trace.overhead"] = _median(m["walls"][True]) / untraced if untraced else 0.0
        metrics = {name: {"value": v, "unit": spans.LAYERS[name][0]} for name, v in values.items()}
    else:
        wall = _median(walls)
        values = {"wall_s": wall, "setup_s": _median(m["setups"]), "cpu_s": _median(m["cpus"]),
                  "peak_rss_mb": m["peak_rss_mb"]}
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
        if spec["nominal_steps"] and wall:
            print(f"steps_per_s {spec['nominal_steps'] / wall:.6g} 1/s "
                  f"({spec['nominal_steps']} nominal steps)")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"fail_frac {failed / max(m['attempted'], 1):.6g} ({failed} of {m['attempted']} operations)")
    return {"correct": failed == 0, "attempted": max(m["attempted"], 1), "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="n = 64 self-check variant")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strato" / "__init__.py").is_file():
        print(f"no strato sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(report(m, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
