"""Operation recorder and summary statistics shared by every workload.

A workload runs whole *rounds*; each round issues a fixed sequence of
operations, and every operation belongs to one *class*. The recorder
times each attempt (whether or not its check then passes), runs the
check outside the timed interval, and keeps the per-class samples the
end-to-end latency metrics are summarised from.

Every attempt is timed on three clocks. ``path`` is the CPU time on the
operation's critical path: the main thread's CPU time plus that of the
busiest other thread (a scan worker) over the same interval. A
partition-parallel scan therefore counts once, not once per worker, and
a change that parallelises work shows as faster. Being a CPU clock, it
excludes the time the hypervisor steals on a paravirtualised guest and
the time spent waiting for a CPU. ``process`` is the CPU time of all
threads and ``wall`` is ``perf_counter``; both are reported beside it.
``calibrate()`` times a fixed interpreter loop between rounds; the gated
figures are ``path`` times scaled to a host on which that loop takes
``REFERENCE_CALIBRATION_S``, which takes out the host's own speed drift.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CLOCKS", "REFERENCE_CALIBRATION_S", "Recorder", "calibrate",
    "class_quantile", "geometric_mean", "read_clocks", "since",
]

CLOCKS = ("path", "process", "wall")
#: CPU seconds ``calibrate()`` takes on the reference host (2-vCPU guest,
#: Python 3.11); gated times are scaled to this host speed.
REFERENCE_CALIBRATION_S = 0.00045

_MAIN = threading.main_thread().ident


def calibrate() -> float:
    """Main-thread CPU seconds of a fixed, allocation-free interpreter loop.

    It allocates no container, so it never triggers a collection and
    its time does not depend on the program's heap.
    """
    started = time.thread_time()
    total = 0
    for i in range(5000):
        total += (i * 7) % 13
    return time.thread_time() - started


def _other_threads() -> dict[int, float]:
    """CPU seconds of every live thread but the main one, by ident."""
    seconds = {}
    for thread in threading.enumerate():
        if thread.ident is None or thread.ident == _MAIN:
            continue
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            seconds[thread.ident] = time.clock_gettime(clock)
        except OSError:  # the thread ended meanwhile
            pass
    return seconds


def read_clocks() -> dict:
    others = _other_threads()
    return {
        "path": (time.thread_time(), others),
        "process": time.process_time(),
        "wall": time.perf_counter(),
    }


def since(started: dict) -> dict[str, float]:
    now = {
        "path": time.thread_time(),
        "process": time.process_time(),
        "wall": time.perf_counter(),
    }
    main, others = started["path"]
    # A thread started meanwhile (the scan pool grows lazily) began at 0.
    busiest = max(
        (value - others.get(ident, 0.0)
         for ident, value in _other_threads().items()),
        default=0.0,
    )
    return {
        "path": now["path"] - main + busiest,
        "process": now["process"] - started["process"],
        "wall": now["wall"] - started["wall"],
    }


class Recorder:
    """Times operations per class and counts failed checks."""

    def __init__(self, classes: tuple[str, ...]) -> None:
        self.classes = classes
        #: clock (see ``CLOCKS``) -> class -> seconds per attempt.
        self.samples = {
            clock: {name: [] for name in classes} for clock in CLOCKS
        }
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.errors: dict[str, str] = {}
        #: Time spent inside checks per clock; excluded from the timed phase.
        self.check_seconds = {clock: 0.0 for clock in CLOCKS}
        #: True while a check runs (the tracer leaves its collections out).
        self.checking = False
        #: Engine that answered each class last (from ``Result.engine``).
        self.engines: dict[str, str] = {}
        #: Called with the class name before each attempt (the tracer's
        #: operation id hook); None when not tracing.
        self.on_operation: Optional[Callable[[str], None]] = None

    def op(self, name: str, thunk: Callable, check: Callable) -> tuple:
        """Run ``thunk`` timed, then ``check(result)`` untimed.

        Returns ``(result, ok)``. An exception from ``thunk`` counts as a
        failed attempt (its time is still recorded); ``check`` returns a
        bool and must not raise for a wrong answer.
        """
        if self.on_operation is not None:
            self.on_operation(name)
        result = None
        error: Optional[BaseException] = None
        started = read_clocks()
        try:
            result = thunk()
        except Exception as exc:  # the system under test failed this op
            error = exc
        for clock, value in since(started).items():
            self.samples[clock][name].append(value)
        self.attempted += 1
        check_started = read_clocks()
        self.checking = True
        ok = error is None and bool(check(result))
        self.checking = False
        for clock, value in since(check_started).items():
            self.check_seconds[clock] += value
        engine = getattr(result, "engine", None)
        if engine:
            self.engines[name] = engine
        if not ok:
            self.failed += 1
            self.failures[name] += 1
            if name not in self.errors:
                self.errors[name] = (
                    f"{type(error).__name__}: {error}"
                    if error is not None
                    else "wrong result"
                )
        return result, ok


def class_quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of one class's samples (numpy default)."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
