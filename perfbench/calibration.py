"""Machine-speed probe that the benchmark's times are scaled by.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds, with other tenants' load, and CPU time drifts with it.  A fixed
loop of the small complex numpy operations that dominate disentsim (4x4
matmuls, einsum contractions, a Hermitian eigendecomposition) slows down in
step with the workloads, so each measured time is multiplied by the probe's
speed relative to ``REFERENCE_RATE``: the values read as seconds on a core
where the probe runs ``REFERENCE_RATE`` iterations per second.  The probe
uses no disentsim code, so a change to the program moves only the measured
time, never the probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Probe iterations per second on the reference core (a quiet core of the
#: 2-core x86-64 host the reference figures in README.md come from).
REFERENCE_RATE = 40000.0
ITERATIONS = 1000
#: Seconds between the probes taken while a measured call runs.
INTERVAL = 0.25

_rng = np.random.default_rng(20260810)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H = _A + _A.conj().T
_G = _rng.standard_normal((9, 4, 4)) + 0j


def speed() -> float:
    """Current probe speed as a multiple of the reference (1.0 = reference core)."""
    t0 = time.perf_counter()
    r = np.eye(4, dtype=complex) / 4.0
    for _ in range(ITERATIONS):
        k = 1j * (r @ _H - _H @ r)
        c = np.einsum("kij,ji->k", _G, r).real
        np.linalg.eigh(_H)
        r = r + 1e-4 * (k + 1e-3 * np.einsum("k,kij->ij", c, _G))
    return ITERATIONS / (time.perf_counter() - t0) / REFERENCE_RATE


def timed(fn, probe_inside: bool = True, on_probe=None):
    """Run ``fn()``; return its result, its seconds and the mean probe speed.

    Probes run before and after the call and, with ``probe_inside``, every
    ``INTERVAL`` seconds during it from a SIGALRM timer, so a long call is
    scaled by the speed of the core while it ran.  The seconds the inner
    probes took are taken out of the call's time and passed to
    ``on_probe``.
    """
    samples = [speed()]
    spent = 0.0

    def on_alarm(_signum, _frame):
        nonlocal spent
        t0 = time.perf_counter()
        samples.append(speed())
        took = time.perf_counter() - t0
        spent += took
        if on_probe is not None:
            on_probe(took)

    previous = signal.signal(signal.SIGALRM, on_alarm) if probe_inside else None
    if probe_inside:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - t0
        if probe_inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
    samples.append(speed())
    return result, elapsed - spent, statistics.fmean(samples)
