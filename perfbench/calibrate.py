"""Machine-speed calibration for job times on a shared, drifting host.

A fixed pure-Python kernel (sparse dict updates over GF(p) and Fraction
arithmetic, the operations qshape's inner loops are made of) runs between
jobs and, while the Sampler is entered, from a SIGALRM handler every
PERIOD_S seconds during them, so it samples the speed of the very core the
jobs run on, at the same moment.  A job's reference time is its own time
(the kernel's time inside it taken out) scaled by REF_KERNEL_S / (mean
kernel time during and next to the job): the seconds the job would take on
a machine where the kernel takes REF_KERNEL_S.  Drifts in host speed move
both numbers alike and cancel; a change to qshape moves only the job.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
BRACKET_RUNS = 10         # kernel runs between two jobs
NEAR_S = 0.1              # samples this close to a job count for its speed
REF_KERNEL_S = 0.002
_P = 32003
_A = {i: (i * 7919) % _P for i in range(0, 400, 3)}
_B = {i: (i * 104729) % _P for i in range(0, 400, 2)}


def kernel():
    out = dict(_A)
    for _ in range(6):
        for k, x in _B.items():
            y = (out.get(k, 0) + 17 * x) % _P
            if y:
                out[k] = y
            else:
                out.pop(k, None)
        f = Fraction(3, 7)
        for k in range(40):
            f = f * Fraction(k + 1, k + 3) + 1
    return out


class Sampler:
    """Kernel timings; `samples` holds (start, seconds) pairs."""

    def __init__(self):
        self.samples = []

    def bracket(self):
        """Time the kernel a few times now, between two jobs."""
        # a timer tick inside would double one sample; it is held back instead
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            for _ in range(BRACKET_RUNS):
                self._tick(None, None)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def reference_seconds(self, start, end):
        """(reference seconds, kernel seconds) for the interval [start, end].

        Each stretch of the job between two timer samples is scaled by the
        speed measured at its start (median of that sample and its two
        neighbours), so a change of host speed within a long job is followed.
        The stretch before the first sample, and a job without samples, take
        the mean speed of the samples next to the job.
        """
        inside = [(t, d) for t, d in self.samples if start <= t <= end]
        near = [d for t, d in self.samples if start - NEAR_S <= t <= end + NEAR_S]
        first = inside[0][0] if inside else end
        ref = (first - start) * REF_KERNEL_S / statistics.mean(near)
        for i, (t, d) in enumerate(inside):
            stop = inside[i + 1][0] if i + 1 < len(inside) else end
            speed = statistics.median(x for _, x in inside[max(0, i - 1):i + 2])
            ref += (stop - t - d) * REF_KERNEL_S / speed
        return ref, sum(d for _, d in inside)
