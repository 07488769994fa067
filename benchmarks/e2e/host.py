"""Host description, the host's speed reference and its two ceilings.

``host_block`` identifies the machine and toolchain a result came from.
``HostClock`` times a fixed NumPy kernel next to the work being
measured, so that times can be reported in units of that kernel: on a
shared host the same code runs 20-60 % slower from one minute to the
next, and the reference slows down with it.  ``measure_copy`` and
``measure_dispatch`` give the ceilings the step layers are read
against: sustained copy bandwidth on arrays too large for any cache,
and the fixed cost of one NumPy kernel launch.
"""

from __future__ import annotations

import glob
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

#: One thread per process, so W=2 shards never exceed two busy threads.
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Assumed when sysfs does not describe the caches (non-Linux hosts).
FALLBACK_LLC_BYTES = 32 << 20


#: The reference kernel's time on the quiet host the first baseline was
#: recorded on.  Normalised times are ``raw * REFERENCE_NOMINAL_S /
#: reference``, so on that host, when quiet, they read as plain seconds.
REFERENCE_NOMINAL_S = 10.0e-3


class HostClock:
    """Samples the host's current speed with a fixed reference kernel.

    The kernel is a frozen miniature of the program's own step on 250k
    particles (the dense workloads' population): elementwise motion and
    clamping, a cell histogram and prefix sum, a stable sort by cell, a
    gather of every column by the sorted order, uniform draws and a
    compare, a strided gather / arithmetic / scatter over the accepted
    pairs, then 2500 eight-element ufunc calls for interpreter and
    dispatch cost.  In sizing runs it was the one candidate that tracked
    the bandwidth-bound, the dispatch-bound and the forked workloads
    alike (the spread of their raw times over ten minutes, 10-17 %, fell
    to 3-5 % after dividing by it; a plain gather did as well on the
    dense step but left 12-25 % on the other two).  A timed section
    divides by the median of the samples taken while it ran.  The
    slowdowns of a shared host are per core, so a sample only speaks
    for work that shares its core.
    """

    #: Least seconds between two samples of a step loop: bounds the
    #: share of a run spent on the reference to about a tenth.
    STEP_PERIOD_S = 0.1
    #: Period beside one long call, whose core the samples interrupt.
    CALL_PERIOD_S = 0.2

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        n, n_cells = 250_000, 98 * 64
        self._cols = [rng.random(n) for _ in range(5)]
        self._sorted = [np.empty(n) for _ in range(5)]
        # 16-bit keys: NumPy's stable sort is then a radix sort, O(n)
        # like the program's counting sort.
        self._cell = rng.integers(0, n_cells, size=n).astype(np.uint16)
        self._n_cells = n_cells
        self._draws = np.empty(n // 2)
        self._accept = np.empty(n // 2, dtype=bool)
        self._rng = np.random.default_rng(1)
        self._small = np.ones(8)
        self._out = np.empty(8)
        #: ``(time taken, kernel CPU seconds)`` per sample.  CPU time of
        #: this thread, not wall: beside a forked worker on a shared
        #: core the sample's wall time would include the worker's time
        #: slices; alone on a core the two are the same.
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> float:
        x, y, u, v, _ = cols = self._cols
        sorted_cols = self._sorted
        small, out, add = self._small, self._out, np.add
        t0 = time.thread_time()
        for pos, vel in ((x, u), (y, v)):
            np.add(pos, vel, out=pos)
            np.minimum(pos, 1.0, out=pos)
            np.subtract(pos, vel, out=pos)
        counts = np.bincount(self._cell, minlength=self._n_cells)
        np.cumsum(counts)
        order = np.argsort(self._cell, kind="stable")
        for col, dst in zip(cols, sorted_cols):
            np.take(col, order, out=dst)
        self._rng.random(out=self._draws)
        np.less(self._draws, 0.5, out=self._accept)
        first = 2 * np.flatnonzero(self._accept)
        w = sorted_cols[4]
        a, b = np.take(w, first), np.take(w, first + 1)
        mean, half = 0.5 * (a + b), 0.5 * np.abs(a - b)
        w[first] = mean + half
        w[first + 1] = mean - half
        for _ in range(2500):
            add(small, small, out=out)
        seconds = time.thread_time() - t0
        self.samples.append((time.perf_counter(), seconds))
        return seconds

    def sample_if_due(self, period: float = STEP_PERIOD_S) -> None:
        if (not self.samples
                or time.perf_counter() - self.samples[-1][0] >= period):
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample from an interval timer while one long call runs.

        The handler runs on the main thread between two bytecodes, so
        the reference interleaves with the call on the same core without
        touching the program.  The caller subtracts ``spent`` from the
        call's wall and CPU time.
        """
        period = self.CALL_PERIOD_S
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Start of a section: pass the result to the readers below."""
        return len(self.samples)

    def spent(self, mark: int) -> float:
        """Seconds the reference itself took since ``mark``."""
        return sum(s for _, s in self.samples[mark:])

    def reference(self, mark: int) -> float:
        """Median kernel seconds since ``mark``."""
        return statistics.median(s for _, s in self.samples[mark:])

    def factor(self, mark: int) -> float:
        """Multiplier that turns raw seconds since ``mark`` into
        host-normalised seconds."""
        return REFERENCE_NOMINAL_S / self.reference(mark)


@contextmanager
def one_core():
    """Confine this process, and what it forks, to one core.

    Used where the measured work runs in a forked worker: the reference
    can only speak for the worker's core if it shares it.  A no-op where
    the platform has no affinity call.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def llc_bytes() -> int:
    """Size of the largest cache level cpu0 sees."""
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        text = pathlib.Path(path).read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best or FALLBACK_LLC_BYTES


def _available_bytes() -> Optional[int]:
    try:
        for line in pathlib.Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) << 10
    except OSError:
        pass
    return None


def blas_build() -> str:
    """Name and version of the BLAS NumPy was built against."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "{} {}".format(info.get("name"), info.get("version"))
    except (TypeError, KeyError, AttributeError):  # NumPy < 1.25
        return "unknown"


def git_sha(root: pathlib.Path) -> Optional[str]:
    """HEAD of ``root`` (``None`` outside a git checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_block(root: pathlib.Path) -> Dict[str, object]:
    return {
        "git_sha": git_sha(root),
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "llc_bytes": llc_bytes(),
        "platform": platform.platform(),
    }


def measure_copy(
    repeats: int = 3, max_bytes: Optional[int] = None
) -> Dict[str, float]:
    """``np.copyto`` bandwidth on float64 arrays of >= 4x the LLC.

    Returns the array size actually used: it is cut (and the ratio to
    the LLC falls below 4) only when two such arrays would not fit in
    half of the available memory, or by ``max_bytes`` (smoke runs).
    """
    llc = llc_bytes()
    nbytes = 4 * llc
    avail = _available_bytes()
    if avail is not None:
        nbytes = min(nbytes, avail // 4)
    if max_bytes is not None:
        nbytes = min(nbytes, max_bytes)
    n = max(nbytes // 8, 1 << 20)
    src = np.ones(n)
    dst = np.empty(n)  # the first copy faults its pages in; best-of drops it
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return {
        "host.llc_bytes": float(llc),
        "host.copy_array_bytes": float(n * 8),
        # A copy reads and writes each element: 16 bytes of traffic.
        "host.copy_gbps": 16.0 * n / best / 1e9,
        "host.copy_ns_per_f64": best / n * 1e9,
    }


def measure_dispatch(calls: int = 20000) -> float:
    """Microseconds per 1-element ufunc call: the per-kernel floor."""
    a = np.ones(1)
    out = np.empty(1)
    add = np.add
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            add(a, a, out=out)
        best = min(best, time.perf_counter() - t0)
    return best / calls * 1e6
