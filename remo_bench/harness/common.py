"""Shared pieces of the harness: paths, the spec, statistics, outcomes."""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
#: Everything a run leaves behind (traces, result sets, announce files)
#: goes here; the directory is git-ignored.
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

LOOPBACK_NOTE = "TCP traffic crosses the host's loopback interface, not a real link"


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def results_path(*parts: str) -> str:
    path = os.path.join(RESULTS_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def sub_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` independent input seeds derived from the run's ``--seed``.

    A run measures many inputs so that one unusually easy or hard
    input cannot move a median; each comes from its own sub-seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Output checks that did not hold (any entry makes the run incorrect).
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Samples behind each reported statistic.
    samples: Dict[str, int] = field(default_factory=dict)
    #: Facts worth keeping beside the numbers (fingerprints, regime).
    info: Dict[str, Any] = field(default_factory=dict)

    def check(self, condition: bool, problem: str) -> None:
        if not condition and len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def environment_block(seed: int, seconds: float) -> Dict[str, Any]:
    """Where and on what a result set was measured."""
    from repro.net import codec
    from repro.trees import model

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    kernel = "numpy" if getattr(model, "_np", None) is not None else "stdlib"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "tree_kernel": kernel,
        "msgpack": codec.default_codec() != codec.CODEC_JSON,
        "wire_codec": codec.default_codec(),
        "seed": seed,
        "seconds": seconds,
        "network": LOOPBACK_NOTE,
        "argv": sys.argv[1:],
    }
