"""Timing helpers of the scripts in ``benchmarks/``, which find this
module beside them when run as ``python3 benchmarks/<script>.py``."""

from __future__ import annotations

import resource
import statistics
import time
import tracemalloc


def interleaved(cases, rounds: int) -> list[list[float]]:
    """The wall times of each of ``cases``, callables of no arguments,
    over ``rounds`` rounds, each round calling every one of them in turn,
    every other round in reverse, so that no case always runs on the
    caches the one before it left."""
    walls = [[] for _ in cases]
    for r in range(rounds):
        for wall, fn in list(zip(walls, cases))[:: 1 - 2 * (r % 2)]:
            start = time.perf_counter()
            fn()
            wall.append(time.perf_counter() - start)
    return walls


def spread(values, scale: float = 1e3) -> str:
    """Median [quartiles] of ``values`` times ``scale``: by default,
    seconds in milliseconds."""
    low, median, high = statistics.quantiles([v * scale for v in values], n=4)
    return f"{median:.3f} [{low:.3f}, {high:.3f}]"


def best_of(fn, *args, repeat: int) -> tuple[float, object]:
    """Best wall time of ``fn(*args)`` over ``repeat`` calls, and its
    result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def peak(fn, *args) -> int:
    """The tracemalloc peak of one ``fn(*args)`` call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def faults(fn, *args, repeat: int) -> tuple[float, float]:
    """The median minor page faults and system seconds of ``repeat``
    calls of ``fn(*args)``."""
    minor, system = [], []
    for _ in range(repeat):
        before = resource.getrusage(resource.RUSAGE_SELF)
        fn(*args)
        after = resource.getrusage(resource.RUSAGE_SELF)
        minor.append(after.ru_minflt - before.ru_minflt)
        system.append(after.ru_stime - before.ru_stime)
    return statistics.median(minor), statistics.median(system)
