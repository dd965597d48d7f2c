"""Host-speed normalisation of the benchmark's times.

The shared hosts this benchmark runs on change their CPU throughput by up to
2x from one minute to the next, with no steal time to show for it, so raw
wall times of identical code spread far wider than any useful bound. A fixed
pure-Python reference loop, which shares no code with ``dcreduce``, is timed
before the first and after every timed call of a round, for a share of each
call's time. Every wall time of the round is then scaled by
``REFERENCE_NOMINAL_S`` over the loop's mean time across the round. On a host
where the loop takes ``REFERENCE_NOMINAL_S`` the scaled times are wall times;
on a host running at half speed they still read the same.

One factor per round, from all of its samples, is used rather than one per
call: a factor from a single short sample is noisy, and dividing by a noisy
time biases the result upwards, the more so the noisier the host.

The loop is interpreter work (integer arithmetic and dict updates), the kind
that dominates ``dcreduce.run()``; on the hosts measured its time tracked the
rounds' wall time within about 1 % while that wall time moved by 70 %.
"""

from __future__ import annotations

import time

# One reference loop on a quiet 2-core x86-64 VM (Python 3.11); only a scale.
REFERENCE_NOMINAL_S = 0.8e-3

REFERENCE_ITERATIONS = 6000

# Reference loops run after a timed interval amount to this share of it.
SAMPLE_SHARE = 0.1


def reference_loop() -> int:
    table = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += key * key
    return total


class Meter:
    """Reference-loop samples taken around the timed intervals of one round."""

    def __init__(self):
        self.seconds = 0.0
        self.loops = 0

    def sample(self, busy_s: float = 0.0, at_least_s: float = 0.0) -> None:
        """Run at least one loop, for at least ``at_least_s`` and
        ``SAMPLE_SHARE`` of ``busy_s``, the interval just measured."""
        clock = time.perf_counter
        start = clock()
        while True:
            reference_loop()
            self.loops += 1
            spent = clock() - start
            if spent >= max(SAMPLE_SHARE * busy_s, at_least_s):
                self.seconds += spent
                return

    def scale(self, seconds: float) -> float:
        """``seconds`` measured among the samples, at nominal host speed."""
        return seconds * REFERENCE_NOMINAL_S * self.loops / self.seconds
