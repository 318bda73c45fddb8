"""Machine-speed calibration, so that timings survive a shared host.

On a small shared machine the speed of a fixed piece of Python and
numpy work drifts by up to 1.8x over tens of seconds, with no steal time
visible from inside. Raw wall times of one command then spread by about
20% (quartile distance over median) between runs of a few minutes apart.

The benchmark therefore runs this fixed loop next to every timed
command and every set-up probe, and states each time at a nominal
machine speed: ``elapsed * NOMINAL_S / calibration``, where
``calibration`` is the mean of the loop's wall times just before and
just after. On the same host this cut the spread of 20-second medians
from 0.19 to 0.03 for a command and from 0.26 to 0.08 for set-up. A
change to the program leaves the loop untouched, so a faster program
shows in full.
The loop mixes interpreter work with small numpy calls, like the
package's per-feature paths; it does not track work on arrays larger
than a core's cache, which is why ``tune-ent`` is kept small. A program
that left work running after a command returned would slow the loop and
flatter its own figures. Do not change the loop: doing so rescales every
time the benchmark reports.
"""

from __future__ import annotations

import time

import numpy as np

#: The loop's median time on the 2-core host the baseline was recorded on.
NOMINAL_S = 0.035

_RNG = np.random.default_rng(0)
_ARRAYS = [_RNG.random(100) for _ in range(64)]


def calibration_s() -> float:
    """Wall time of one run of the fixed calibration loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(4500):
        a = _ARRAYS[i & 63]
        s = np.sort(a)
        acc += np.cumsum(s)[-1] + np.searchsorted(s, a[:8])[0]
        x = 0
        for k in range(20):
            x += k * i
    return time.perf_counter() - start


def at_nominal_speed(elapsed: float, calibration: float) -> float:
    """``elapsed`` restated at the nominal machine speed."""
    return elapsed * NOMINAL_S / calibration
