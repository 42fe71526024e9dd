"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC REP_DIR T_SPAWN full|setup

``run.py`` starts this with ``src`` on PYTHONPATH and passes the
CLOCK_MONOTONIC reading taken just before the spawn, so set-up time runs
from process start through ``import strato`` and building the inputs.
It then runs the workload's commands back to back through
``strato.cli.main`` and writes ``result.json`` into REP_DIR.  When the
trace hook is on PYTHONPATH the strato modules are already wrapped; the
set-up and each command then get a span of their own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _snapshot_io(snapshots: list, rep: Path) -> list[bool]:
    from strato import fieldio

    paths = [rep / f"snap{i}.slf" for i in range(len(snapshots))]
    for f, path in zip(snapshots, paths):
        fieldio.write_snapshot(f, path)
    back = [fieldio.read_snapshot(path) for path in paths]
    return [b.grid == f.grid and bool((b.values == f.values).all())
            for f, b in zip(snapshots, back)]


def main() -> int:
    spec_path, rep, t_spawn, mode = sys.argv[1], Path(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import spans
    import workloads
    import strato
    from strato.cli import main as strato_main

    expected_src = (here.parent / "src" / "strato").resolve()
    if Path(strato.__file__).resolve().parent != expected_src:
        raise SystemExit(f"strato imported from {strato.__file__}, not {expected_src}")
    rec = spans.ACTIVE
    tracing = contextlib.nullcontext if rec is None else rec.span
    spec = json.loads(Path(spec_path).read_text())
    with tracing("bench.setup"):
        inputs = workloads.setup(spec)
    result: dict = {"setup_s": time.monotonic() - t_spawn, "commands": []}
    if mode == "full":
        for argv in spec["commands"]:
            argv = [a.replace("{rep}", str(rep)) for a in argv]
            name = "bench.snapshot_io" if argv[0] == "snapshot-io" else f"cli.{argv[0]}"
            buf = io.StringIO()
            entry = {"name": name, "ok": True, "error": None}
            c0, w0 = _cpu(), time.perf_counter()
            try:
                with tracing(name), contextlib.redirect_stdout(buf):
                    if argv[0] == "snapshot-io":
                        result["io"] = _snapshot_io(inputs["snapshots"], rep)
                    elif strato_main(argv) != 0:
                        entry["ok"] = False
            except Exception:  # a failing command is a counted failure, not a crash
                entry["ok"] = False
                entry["error"] = traceback.format_exc()
                print(entry["error"], file=sys.stderr)
            entry["wall_s"] = time.perf_counter() - w0
            entry["cpu_s"] = _cpu() - c0
            entry["stdout"] = buf.getvalue()
            result["commands"].append(entry)
    (rep / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
