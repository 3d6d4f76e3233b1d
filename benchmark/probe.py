"""Machine-speed probes: turn wall times into reference-speed times.

On a shared machine the same code runs up to twice as fast in one ten-second
stretch as in the next, and CPU time moves with wall time, so neither is
steady. A probe times a fixed piece of work like the measured one, close in
time to it; its speed, reference time / probe time, says how fast the machine
ran at that moment. A wall time multiplied by that speed is the time the work
would have taken at reference speed, and the benchmark's timed metrics are
reported in those seconds. The probes use numpy and the standard library
only, so no change to the program can change them.

How much a slow stretch slows a piece of code depends on what it does, so
each workload names the kernel that matches its hot path (``KERNELS``):

* ``small_ops``: a few numpy operations on 5-vectors, the per-call overhead
  that makes up the d=5 OMD update and the deploy pair choice;
* ``pair_scan``: one quadratic-form scan over 896 x 20 rows, the kind of
  vectorised loop that makes up the uncertainty scan;
* ``mixed``: both, in the 2:3 time shares of per-call overhead (implicit-OMD
  update) and vectorised loops (MLE refit, policy enumeration) of the
  passive workload.

Set-up time is probed with ``spawn_seconds``: a fresh interpreter importing a
fixed set of standard library modules.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_SPAWN_S = 0.1
SPAWN_IMPORTS = ("import argparse, asyncio, decimal, email.parser, http.client, json, "
                 "logging, unittest, xml.dom.minidom")

_RNG = np.random.default_rng(0)
_A, _Z = _RNG.random((5, 5)), _RNG.random(5)
_ROWS, _M = _RNG.random((896, 20)), _RNG.random((20, 20))


def _small_ops() -> None:
    for _ in range(200):
        u = _A @ _Z
        float(_Z @ u)
        np.outer(u, u)


def _pair_scan() -> None:
    np.einsum("ij,jk,ik->i", _ROWS, _M, _ROWS)


def _mixed() -> None:
    _small_ops()
    _pair_scan()
    _pair_scan()


# kernel -> (function, its seconds on a fast stretch of the machine the
# benchmark was defined on); only ratios matter, any fixed value compares.
KERNELS = {
    "small_ops": (_small_ops, 8.0e-4),
    "pair_scan": (_pair_scan, 6.0e-4),
    "mixed": (_mixed, 2.0e-3),
}


def speed_now(kernel: str) -> float:
    """Reference time / wall time of one run of the kernel."""
    fn, reference = KERNELS[kernel]
    start = time.perf_counter()
    fn()
    return reference / (time.perf_counter() - start)


def bracket_speed(kernel: str) -> float:
    """Median speed of five kernel runs back to back."""
    return statistics.median(speed_now(kernel) for _ in range(5))


def spawn_seconds() -> float:
    """Wall seconds of a fresh interpreter importing SPAWN_IMPORTS and exiting."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_IMPORTS], check=True, timeout=60)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples machine speed every PERIOD_S while installed as a context manager.

    The samples are taken by a SIGALRM handler, so they run on the main
    thread between two bytecodes of the measured work, on the same core and
    never in parallel with it. Main thread only.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.samples = []                # (perf_counter at sample start, seconds, speed)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        speed = speed_now(self.kernel)
        self.samples.append((start, time.perf_counter() - start, speed))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done in [start, end], probe time excluded.

        Uses the mean speed sampled inside the interval, or the nearest sample
        if none fell inside.
        """
        inside = [(busy, speed) for t, busy, speed in self.samples if start <= t <= end]
        if inside:
            speed = statistics.fmean(s for _, s in inside)
        elif self.samples:
            middle = 0.5 * (start + end)
            speed = min(self.samples, key=lambda sample: abs(sample[0] - middle))[2]
        else:
            speed = speed_now(self.kernel)
        return (end - start - sum(busy for busy, _ in inside)) * speed
