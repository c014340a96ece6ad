"""Path set-up for the benchmark's own tests.

Run with ``python -m pytest remo_bench/tests`` from the repo root; they
are not part of the tier-1 suite (they run the benchmark, which takes
minutes, and judge timings, which tier-1 must never do).
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(REPO_ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
