"""Closed-loop measurement of a list of cases, with a wall-time cap per case.

A case is one operation: ``run()`` makes the timed calls into jetlaw and
``check(result)`` compares the result with the answer known by
construction, returning None when it is right or a one-line reason when it
is not.  Only ``run()`` is timed.  An exception out of ``run()``, a wrong
answer, or a run that hits its cap counts as a failed operation; failures
are never dropped from the count.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

MIN_OPS = 100  # so that at least ten samples lie beyond p90

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env() -> dict:
    """This process's environment with ``src`` first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CaseTimeout(BaseException):
    """A case ran past its cap.  BaseException, so program code cannot swallow it."""


@dataclass
class Case:
    item: int
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    cap_s: float
    terms: int = 0  # input term count, for the term-sweep scaling fits


@dataclass
class Workload:
    """One workload's cases, and how they are measured; built by each workload module."""

    cases: list
    params: dict
    window: int  # operations per throughput window: one period of the input mix
    stride: int = 1  # a run ends only after a multiple of this many operations
    per_case_medians: bool = False  # throughput and percentiles over each case's median time
    setup_code: str = "import jetlaw"  # what a fresh interpreter runs before the first call
    scaling: dict = field(default_factory=dict)  # metric prefix -> operation, for log-log slopes
    # when the operations run in child processes: their peak RSS in MB and the
    # measurement of the pass that read it, and the same cases run in this process
    peak_rss: "Callable[[], tuple] | None" = None
    in_process: "Callable[[], Workload] | None" = None


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)  # seconds per successful operation
    case_times: dict = field(default_factory=dict)  # label -> [seconds, ...]
    failures: list = field(default_factory=list)  # (label, reason)
    attempted: int = 0
    busy_s: float = 0.0  # time inside run(), failed operations included
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.timed_s if self.latencies else 0.0

    def windowed_throughput(self, window: int) -> tuple:
        """(operations per second over the middle half of the windows, number of windows).

        A window is ``window`` consecutive operations, one period of the
        workload's input mix, so windows are alike.  The slowest and the
        fastest quarter of the window rates are dropped and the rest
        averaged.  A short burst of load on the machine moves a few windows,
        which drop out.  A change of machine speed that lasts a good part of
        the run moves the result in proportion to how long it lasted, not
        all or nothing as a median would.  Falls back to the whole run below
        four windows.
        """
        sizes = range(0, len(self.latencies) - window + 1, window)
        rates = sorted(window / sum(self.latencies[k:k + window]) for k in sizes)
        if len(rates) < 4:
            return self.throughput, 1
        quarter = len(rates) // 4
        return statistics.mean(rates[quarter:len(rates) - quarter]), len(rates)


@contextmanager
def capped(seconds: float):
    """Raise CaseTimeout in the main thread once ``seconds`` of wall time pass."""

    def expire(_signum, _frame):
        raise CaseTimeout(f"over the {seconds:g} s cap")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(cases, seconds: float, *, stride: int = 1, tracer=None, min_ops: int = MIN_OPS) -> Measurement:
    """Run the cases in order, cyclically, in a closed loop with one caller.

    Stops at a multiple of ``stride`` operations once at least ``min_ops``
    have run and another ``stride`` would probably end past ``seconds``.
    With a tracer, spans are recorded only inside ``run()``.
    """
    out = Measurement()
    clock = time.perf_counter
    began = clock()
    index = 0
    while True:
        if index and index % stride == 0 and index >= min_ops:
            elapsed = clock() - began
            if elapsed + elapsed / (index // stride) > seconds:
                break
        case = cases[index % len(cases)]
        index += 1
        out.attempted += 1
        if tracer is not None:
            tracer.current_item = case.item
            tracer.enabled = True
        t0 = clock()
        try:
            with capped(case.cap_s):
                result = case.run()
        except CaseTimeout as exc:
            out.failures.append((case.label, str(exc)))
            continue
        except Exception as exc:  # an unexpected error is a failed operation, not a crash
            out.failures.append((case.label, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            dt = clock() - t0
            out.busy_s += dt
            if tracer is not None:
                tracer.enabled = False
        reason = case.check(result)
        if reason is not None:
            out.failures.append((case.label, reason))
            continue
        out.latencies.append(dt)
        out.case_times.setdefault(case.label, []).append(dt)
    out.wall_s = clock() - began
    return out
