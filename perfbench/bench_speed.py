"""Rescaling timings to a reference core speed.

On a 2-vCPU virtual machine (Python 3.11.7, numpy 2.4.6), the same CPU-bound
loop runs about 1.8x slower in some periods, which last from a fraction of a
second to over a minute.  CPU time slows with wall time, so this is not
descheduling; most likely another tenant shares the physical core.  A 30 s
run can fall wholly in either state, which moved raw job medians by up to
30% between runs of identical work.

The reference probe is fixed work in pure Python and small numpy calls, the
mix the jet engine runs, that calls no ewbench code, so a change to the
program never moves it.  Each timing is multiplied by REF_PROBE_S divided by
the mean of the probes just before, during and just after it.  Measured
over 90 s of alternating probes and jobs, the job/probe ratio held within
4% of its median while raw job times ranged over 70%.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# the probe's time on an unloaded core of the machine above
REF_PROBE_S = 1.0e-3

_A = np.arange(16.0).reshape(4, 4)
_V = np.arange(4.0)


def reference_probe(reps=150):
    acc = 0.0
    for i in range(reps):
        m = np.outer(_V, _V) + _A * 0.5
        t = np.einsum("ij,k->ijk", m, _V)
        acc += float(t[1, 2, 3]) + i * 0.5
    return acc


def probe_s():
    t0 = perf_counter()
    reference_probe()
    return perf_counter() - t0


class Rescaler:
    """Time sections back to back, with the probe run around each one.

    With ``every`` (seconds), a wall-clock timer also runs the probe inside
    the section at that interval.  This follows speed changes that happen
    during a long section; the probes' own time is taken out of the
    section's time.  Sections must run in the main thread.
    """

    def __init__(self, every=None, probe=probe_s):
        self.every = every
        self.probe = probe
        self.last = probe()

    def time(self, fn):
        """Run ``fn()``; return (result, raw seconds, factor), where the
        rescaled time is raw seconds times factor."""
        samples = [self.last]
        inside = 0.0

        def on_alarm(signum, frame):
            nonlocal inside
            t0 = perf_counter()
            samples.append(self.probe())
            inside += perf_counter() - t0

        if self.every:
            old = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            raw = perf_counter() - t0
            if self.every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        self.last = self.probe()
        samples.append(self.last)
        return result, raw - inside, REF_PROBE_S * len(samples) / sum(samples)
