"""Span recording around strato's public functions and the shared FFTs.

``install`` replaces every public function of the strato modules, and
the ``scipy.fft`` transforms they share, with a wrapper that records a
span: name, start, end, parent span and a few per-call notes.  Spans live
in memory and are appended to ``spans-<pid>.jsonl`` in the trace
directory whenever a top-level span closes, so pool workers (forked or
spawned) report their spans too.  ``layer_metrics`` turns the spans of
one traced repetition into the per-layer metrics.

Solver internals stay unwrapped.  The only look inside the solver is
the FFT wrapper asking whether ``_Engine.advance`` is on the call stack,
which separates the transforms of the step itself from sample emission
and gradient tracking.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
import types
from pathlib import Path

MODULES = ("grid", "littlewood_paley", "initdata", "solver", "conormal",
           "rankine", "harness", "fieldio")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")
MIB = float(1 << 20)
_PAGE = os.sysconf("SC_PAGE_SIZE")

ACTIVE = None  # the process's Recorder once ``install`` has run

# per-layer metrics: unit and which direction is better
LAYERS = {
    "fft.calls_per_step": ("count", "lower"),
    "fft.ms_per_step": ("ms", "lower"),
    "fft.mb_per_step": ("MiB", "lower"),
    "fft.share": ("ratio", "lower"),
    "solver.nominal_steps": ("count", "lower"),
    "solver.run.busy_s": ("s", "lower"),
    "solver.ms_per_step": ("ms", "lower"),
    "solver.self_ms_per_step": ("ms", "lower"),
    "solver.run.rss_growth_mb": ("MiB", "lower"),
    "solver.mb_per_sample": ("MiB", "lower"),
    "harness.run_single.busy_s.median": ("s", "lower"),
    "harness.run_single.busy_s.max": ("s", "lower"),
    "harness.pool_efficiency": ("ratio", "higher"),
    "harness.workers": ("count", "higher"),
    "harness.velocity_distance.busy_s": ("s", "lower"),
    "harness.emit_report.busy_s": ("s", "lower"),
    "initdata.rasterize_patch.calls": ("count", "lower"),
    "initdata.rasterize_patch.busy_s": ("s", "lower"),
    "initdata.initial_vector_family.busy_s": ("s", "lower"),
    "conormal.advect_family.busy_s": ("s", "lower"),
    "conormal.advect_boundary.busy_s": ("s", "lower"),
    "conormal.conormal_norm.busy_s": ("s", "lower"),
    "conormal.log_estimate_ratio.busy_s": ("s", "lower"),
    "littlewood_paley.block.calls": ("count", "lower"),
    "littlewood_paley.besov_norm.busy_s": ("s", "lower"),
    "rankine.vorticity_lp_error.busy_s": ("s", "lower"),
    "rankine.velocity_lp_error.busy_s": ("s", "lower"),
    "rankine.ms_per_point": ("ms", "lower"),
    "fieldio.write_snapshot.busy_s": ("s", "lower"),
    "fieldio.read_snapshot.busy_s": ("s", "lower"),
    "fieldio.mb": ("MiB", "lower"),
    "fieldio.mib_per_s": ("MiB/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Recorder:
    """In-memory span list of one process; parent links are list indices."""

    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.stack: list[int] = []
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # a forked worker starts its own span list; the parent's stay put
        self.spans = []
        self.stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, note=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = note
        self.stack.pop()
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def _nbytes(args) -> int:
    return sum(getattr(a, "nbytes", 0) for a in args)


def _wrap_fft(rec: Recorder, name: str, fn, step_code):
    def in_step() -> bool:
        f = sys._getframe(2)
        while f is not None:
            if f.f_code is step_code:
                return True
            f = f.f_back
        return False

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx, [_nbytes(args) + getattr(out, "nbytes", 0),
                            step_code is not None and in_step()])
        return out

    return wrapper


def _note_solver_run(args, out, rss0):
    d = out.diagnostics
    return {"steps": int(d.steps[-1]) if d.steps else 0,
            "samples": len(out.omega.times), "rss0": rss0, "rss1": rss_bytes()}


_NOTES = {
    "solver.run": _note_solver_run,
    "fieldio.write_snapshot": lambda args, out, pre: {"bytes": args[0].values.nbytes},
    "fieldio.read_snapshot": lambda args, out, pre: {"bytes": out.values.nbytes},
}


def _wrap(rec: Recorder, name: str, fn):
    note = _NOTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pre = rss_bytes() if note else None
        idx = rec.open(name)
        extra = None
        try:
            out = fn(*args, **kwargs)
            if note:
                extra = note(args, out, pre)
        finally:
            rec.close(idx, extra)
        return out

    return wrapper


def install(out_dir: str) -> Recorder:
    """Wrap the strato modules and scipy.fft in this process."""
    global ACTIVE
    import scipy.fft as sfft

    mods = [importlib.import_module(f"strato.{m}") for m in MODULES]
    mods.append(importlib.import_module("strato"))
    rec = Recorder(out_dir)
    solver = importlib.import_module("strato.solver")
    advance = getattr(getattr(solver, "_Engine", None), "advance", None)
    step_code = getattr(advance, "__code__", None)
    for fname in FFT_NAMES:
        fn = getattr(sfft, fname, None)
        if fn is not None:
            setattr(sfft, fname, _wrap_fft(rec, f"fft.{fname}", fn, step_code))
    for mod in mods[:-1]:
        short = mod.__name__.rsplit(".", 1)[1]
        for fname in getattr(mod, "__all__", ()):
            fn = getattr(mod, fname, None)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            wrapped = _wrap(rec, f"{short}.{fname}", fn)
            for other in mods:
                for key, val in list(vars(other).items()):
                    if val is fn:
                        setattr(other, key, wrapped)
    ACTIVE = rec
    return rec


def load(trace_dir: str | Path) -> list[tuple[int, list[list]]]:
    """(pid, span list) pairs, one per flushed top-level span tree."""
    groups = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        with open(path) as fh:
            groups.extend((pid, json.loads(line)) for line in fh)
    return groups


def _has_ancestor(spans, idx, name) -> bool:
    p = spans[idx][3]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(groups: list[tuple[int, list[list]]],
                  cmd_cpu: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``groups`` comes from ``load``; ``cmd_cpu`` holds the CPU seconds of
    each command, pool workers included, keyed by its span name.  Only
    the commands count: set-up spans are left out.  Layers the workload
    never calls read 0.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    run_single: list[float] = []
    workers = set()
    steps = 0
    rss_growth = per_sample = 0.0
    fft_step_calls = 0
    fft_step_s = fft_step_bytes = fft_s = fft_in_run_s = 0.0
    cli_self = 0.0
    io_bytes = 0
    for pid, spans in groups:
        if spans[0][0] == "bench.setup":
            continue
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[3] is not None:
                child_s[s[3]] += s[2] - s[1]
        for i, (name, t0, t1, parent, note) in enumerate(spans):
            dur = t1 - t0
            busy[name] = busy.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name.startswith("cli."):
                cli_self += dur - child_s[i]
            elif name.startswith("fft."):
                fft_s += dur
                if _has_ancestor(spans, i, "solver.run"):
                    fft_in_run_s += dur
                    if note and note[1]:
                        fft_step_calls += 1
                        fft_step_s += dur
                        fft_step_bytes += note[0]
            elif name == "harness.run_single":
                run_single.append(dur)
                workers.add(pid)
            elif name == "solver.run" and note:
                steps += note["steps"]
                growth = (note["rss1"] - note["rss0"]) / MIB
                if growth > rss_growth:
                    rss_growth = growth
                    per_sample = growth / max(note["samples"], 1)
            elif name.startswith("fieldio.") and note:
                io_bytes += note["bytes"]
    n_workers = len(workers)
    run_s = busy.get("solver.run", 0.0)
    per_step = 1000.0 / steps if steps else 0.0
    io_s = busy.get("fieldio.write_snapshot", 0.0) + busy.get("fieldio.read_snapshot", 0.0)
    sweep_wall = busy.get("cli.sweep", 0.0)
    sweep_cpu = cmd_cpu.get("cli.sweep", 0.0)
    all_cpu = sum(cmd_cpu.values())
    rank_calls = calls.get("rankine.vorticity_lp_error", 0) + calls.get("rankine.velocity_lp_error", 0)
    rank_s = busy.get("rankine.vorticity_lp_error", 0.0) + busy.get("rankine.velocity_lp_error", 0.0)
    return {
        "fft.calls_per_step": fft_step_calls / steps if steps else 0.0,
        "fft.ms_per_step": fft_step_s * per_step,
        "fft.mb_per_step": fft_step_bytes / MIB / steps if steps else 0.0,
        "fft.share": fft_s / all_cpu if all_cpu else 0.0,
        "solver.nominal_steps": float(steps),
        "solver.run.busy_s": run_s,
        "solver.ms_per_step": run_s * per_step,
        "solver.self_ms_per_step": (run_s - fft_in_run_s) * per_step,
        "solver.run.rss_growth_mb": rss_growth,
        "solver.mb_per_sample": per_sample,
        "harness.run_single.busy_s.median": statistics.median(run_single) if run_single else 0.0,
        "harness.run_single.busy_s.max": max(run_single, default=0.0),
        "harness.pool_efficiency": (sweep_cpu / (n_workers * sweep_wall)
                                    if n_workers and sweep_wall else 0.0),
        "harness.workers": float(n_workers),
        "harness.velocity_distance.busy_s": busy.get("harness.velocity_distance", 0.0),
        "harness.emit_report.busy_s": busy.get("harness.emit_report", 0.0),
        "initdata.rasterize_patch.calls": float(calls.get("initdata.rasterize_patch", 0)),
        "initdata.rasterize_patch.busy_s": busy.get("initdata.rasterize_patch", 0.0),
        "initdata.initial_vector_family.busy_s": busy.get("initdata.initial_vector_family", 0.0),
        "conormal.advect_family.busy_s": busy.get("conormal.advect_family", 0.0),
        "conormal.advect_boundary.busy_s": busy.get("conormal.advect_boundary", 0.0),
        "conormal.conormal_norm.busy_s": busy.get("conormal.conormal_norm", 0.0),
        "conormal.log_estimate_ratio.busy_s": busy.get("conormal.log_estimate_ratio", 0.0),
        "littlewood_paley.block.calls": float(calls.get("littlewood_paley.block", 0)),
        "littlewood_paley.besov_norm.busy_s": busy.get("littlewood_paley.besov_norm", 0.0),
        "rankine.vorticity_lp_error.busy_s": busy.get("rankine.vorticity_lp_error", 0.0),
        "rankine.velocity_lp_error.busy_s": busy.get("rankine.velocity_lp_error", 0.0),
        "rankine.ms_per_point": 1000.0 * rank_s / rank_calls if rank_calls else 0.0,
        "fieldio.write_snapshot.busy_s": busy.get("fieldio.write_snapshot", 0.0),
        "fieldio.read_snapshot.busy_s": busy.get("fieldio.read_snapshot", 0.0),
        "fieldio.mb": io_bytes / MIB,
        "fieldio.mib_per_s": io_bytes / MIB / io_s if io_s else 0.0,
        "cli.self_s": cli_self,
    }
