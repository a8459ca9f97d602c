"""Host speed calibration for the benchmark's time metrics.

The host's CPU speed drifts by up to 40% over tens of seconds when other
tenants are busy (a fixed pure-Python loop ran 225 to 380 times a second
within one two-minute window).  Each timed section is therefore bracketed
by a fixed calibration loop, and its CPU seconds are scaled to the speed at
which that loop takes REFERENCE_PROBE_S, about its median on the 2-core
Xeon host the bounds were set on.
"""

import time

PROBE_LOOPS = 100_000
REFERENCE_PROBE_S = 0.0085


def speed_probe() -> float:
    """CPU seconds of the fixed calibration loop."""
    start = time.process_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.process_time() - start


def scaled(cpu_seconds: float, probe_before: float, probe_after: float) -> float:
    """CPU seconds at the reference speed, from the probes on either side."""
    return cpu_seconds * 2 * REFERENCE_PROBE_S / (probe_before + probe_after)
