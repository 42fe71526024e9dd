"""Turns span recording on at interpreter start in traced repetitions.

``run.py`` puts this directory on PYTHONPATH, and sets
PERFBENCH_TRACE_DIR, only for a traced repetition.  Every Python process
of that repetition, spawned pool workers included, then wraps strato
before any of its code runs; forked workers inherit the wrapping.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    spans.ACTIVE = spans.install(os.environ["PERFBENCH_TRACE_DIR"])
