"""Workload table and the small helpers every benchmark file shares.

The metric catalogue (names, units, directions, bounds) lives in
``BENCHMARK.json`` at the repo root and nowhere else; this module only
reads it.  What each metric *means* on each workload is in README.md.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RAW_DIR = os.path.join(HERE, "raw")
WORK_DIR = os.path.join(HERE, "work")

#: Metrics that must repeat exactly for one seed on one commit: they are
#: counts and simulated-clock sums, not wall time.
EXACT_METRICS = ("sim_s", "bytes_read", "bytes_per_edge")


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    ``mem_factor`` sets ``EngineConfig.memory_bytes`` as a multiple of the
    tile payload ``P`` (``segment_bytes`` is always ``P/16``); every other
    ``EngineConfig`` field stays at its default so a changed default shows.
    ``cal_calls`` is the share of small-array calls in the calibration the
    workload's timings are scaled by (``slowdown``): 0 where fused kernels
    over |V|-sized arrays take the time, a half where per-tile work does.
    The ``smoke_*`` geometry is what ``--smoke`` substitutes.
    """

    name: str
    kind: str  # "ingest" | "batch" | "serve"
    scale: int
    edge_factor: int
    tile_bits: int
    algo: "str | None"
    mem_factor: float
    cal_calls: float
    smoke_scale: int
    smoke_tile_bits: int
    why: str

    def geometry(self, smoke: bool) -> "tuple[int, int]":
        if smoke:
            return self.smoke_scale, self.smoke_tile_bits
        return self.scale, self.tile_bits


GROUP_Q = 8

# Sizes are the issue's table scaled down until one run — three set-ups,
# a warm-up, the measured window and the oracle check — fits the driver's
# ~25 s per-run budget on two cores, with enough ops in the window for a
# steady median.  Each workload keeps the regime it was chosen for; the
# edges-per-tile figures and what they decide are in README.md "Sizing".
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest", "ingest", 17, 8, 10, None, 0.25, 0.5, 12, 8,
            "format write path only (tile, save, load): the counterweight "
            "to every decode-side change",
        ),
        Workload(
            "pr_stream", "batch", 17, 8, 10, "pagerank", 0.25, 0.0, 12, 8,
            "cache a quarter of the graph, dense tiles: kernel and apply "
            "dominate, storage is re-read every iteration",
        ),
        Workload(
            "pr_resident", "batch", 17, 8, 10, "pagerank", 2.0, 0.0, 12, 8,
            "cache holds the graph: after iteration 0 everything rewinds "
            "from the SCR pool, so fetch and slide-decode drop out",
        ),
        Workload(
            "bfs_sparse", "batch", 17, 8, 9, "bfs", 0.25, 0.5, 12, 6,
            "many small tiles with selective skipping: per-tile decode and "
            "planning dominate, the kernel does little",
        ),
        Workload(
            "sssp_pertile", "batch", 15, 8, 9, "sssp", 0.25, 0.5, 11, 6,
            "the process_tile dispatch path the unported algorithms "
            "still use",
        ),
        Workload(
            "serve_mix", "serve", 13, 16, 10, None, 0.25, 0.25, 10, 7,
            "closed loop, 2 clients, five query kinds over one shared "
            "engine: GIL and lock contention plus per-query fixed costs",
        ),
    )
}

SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_QUEUE_DEPTH = 32
#: Whole passes of the 32-query mix an untraced ``serve_mix`` run times at
#: least: 224 queries, enough for a 95th percentile (``supported_p95``).
SERVE_MIN_PASSES = 7
PAGERANK_ITERATIONS = 10
#: What every prepare/measure/trace process runs under, so that one process
#: is like the next.  A fresh process lands by chance in one of two glibc
#: malloc regimes: |V|-sized numpy temporaries either come from the heap,
#: or are mmapped, page-faulted and unmapped each time, and PageRank runs
#: twice as slowly (README.md "Findings").  The thresholds below are the
#: values glibc's own dynamic adjustment ends at in a long-lived process.
#: The hash seed fixes set and dict order.
PROCESS_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
    "PYTHONHASHSEED": "0",
}
#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A measuring process times at least this many ops, however short
#: ``--seconds`` is.
MIN_OPS = 2


# --------------------------------------------------------------------- #
# Calibration: timings in seconds of a machine of fixed speed
# --------------------------------------------------------------------- #

#: What the two kernels of one ``calibration_pass`` take on the reference
#: machine (the 2-vCPU sandbox of README.md "Sizing", in a quiet minute).
CAL_SWEEP_REF_S = 0.0075
CAL_CALLS_REF_S = 0.0075
#: Calibration passes after an op take about this share of the op's time.
CALIBRATION_SHARE = 0.04
CALIBRATION_MAX_PASSES = 8
#: ``Workload.cal_calls`` of a set-up (generate, tile, save): as ``ingest``.
SETUP_CAL_CALLS = 0.5


@functools.lru_cache(maxsize=None)
def _calibration_arrays():
    import numpy as np

    n = 1 << 17
    return (np.arange(256, dtype=np.int64), np.arange(n, dtype=np.float64),
            (np.arange(n, dtype=np.int64) * 7919) % n)


def calibration_pass() -> "tuple[float, float]":
    """Time two fixed pieces of numpy work that call nothing in ``src/``:
    sweeps over |V|-sized arrays, then many calls on small arrays - the
    two things the engine's hot paths are made of.  Returns both times.

    Neither allocates anything the cyclic collector tracks, and the
    collector is paused, so the times do not depend on how many objects
    the program under test keeps alive.
    """
    import numpy as np

    small, big, index = _calibration_arrays()
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(14):
            gathered = np.bincount(index, weights=big, minlength=big.size)
            gathered += big
            gathered *= 0.85
        t1 = time.perf_counter()
        for _ in range(1500):
            picked = small[small % 3 == 0]
            np.bincount(picked & 63, minlength=64).cumsum()
        return t1 - t0, time.perf_counter() - t1
    finally:
        if collecting:
            gc.enable()


def slowdown(cal_calls: float, op_seconds: float = 0.0) -> float:
    """How much slower than the reference machine this one is right now
    (1.0: as fast), for work that is ``cal_calls`` small-array calls and
    the rest array sweeps.

    The sandbox is a few cores of a shared host: its speed flickers by a
    third from one tenth of a second to the next and drifts by 10-30 %
    over minutes, far more than the bounds allow, and no averaging inside
    a run removes a drift slower than the run.  So every timed op is
    bracketed by two of these measurements and its wall time divided by
    their mean (``normalised``): a timing reads in seconds of the
    reference machine, whatever the host is doing.  The host's bad
    moments slow interpreter-bound code about twice as much as array
    sweeps, hence the two kernels and a mix per workload (README.md
    "Calibration" has the traces the mixes were chosen on).

    Runs as many passes as fill ``CALIBRATION_SHARE`` of ``op_seconds``
    (the op just ended), at least one.
    """
    passes = round(op_seconds * CALIBRATION_SHARE
                   / (CAL_SWEEP_REF_S + CAL_CALLS_REF_S))
    passes = min(max(passes, 1), CALIBRATION_MAX_PASSES)
    total = 0.0
    for _ in range(passes):
        sweep_s, calls_s = calibration_pass()
        total += ((1.0 - cal_calls) * sweep_s / CAL_SWEEP_REF_S
                  + cal_calls * calls_s / CAL_CALLS_REF_S)
    return total / passes


def normalised(seconds: float, slow_before: float, slow_after: float) -> float:
    """``seconds`` as the reference machine would have taken them, given
    the ``slowdown`` measured just before and just after."""
    return seconds / (0.5 * (slow_before + slow_after))


def load_catalogue() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def supported_p95(values: "list[float]") -> float:
    """The 95th percentile (nearest rank) of a sample that supports it -
    at least ten values beyond it, so 200 or more - and the median of a
    smaller one.  A ``serve_mix`` run times ``SERVE_MIN_PASSES`` passes of
    the mix for that reason; a dozen batch ops have a tail of one or two
    ops, which says nothing that repeats.
    """
    s = sorted(values)
    if len(s) < 200:
        return median(s)
    return s[math.ceil(0.95 * len(s)) - 1]


def fingerprint(seed: int) -> dict:
    """Where and on what a run was made (every raw file carries one)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": nproc,
        "commit": commit,
        "seed": seed,
    }
