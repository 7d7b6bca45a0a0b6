"""Reference seconds: wall time corrected for the machine's momentary speed.

On shared virtual machines the same code runs up to twice as slowly for
stretches of a fraction of a second to minutes while co-tenants load the
host, so raw wall times of identical 30-second runs spread by 15 to 35 %.
`SpeedClock` therefore runs a short calibration kernel on a timer signal,
inside the measured thread, every `INTERVAL_S` seconds, and counts each
stretch of work from one sample to the next as

    reference seconds = work seconds * kernel reference time / kernel seconds

the time the work would take at the speed at which the kernel runs in its
reference time.  Work seconds are wall seconds minus the time spent in the
kernel, and are recorded beside the reference seconds.  Two kernels exist: a
pure-interpreter one for set-up time, measured while numpy is being imported,
and one that adds the small numpy calls limitcone's loops are made of.
"""

import signal
import time

INTERVAL_S = 0.02


def _mix(a, b):
    return (a * b + 1.0) / (b + 2.0)


def python_kernel():
    acc = 0.0
    for i in range(3000):
        acc += _mix(i * 0.5, i + 1.0)
    return acc


def make_numpy_kernel():
    import numpy as np

    a, b = np.ones(3), np.zeros(3)
    m = np.array([[2.0, 1.0, 0.0], [0.5, 1.0, 0.2], [0.1, 0.3, 1.5]])

    def numpy_kernel():
        for _ in range(100):
            np.linalg.norm(a - b)
            np.linalg.norm(a + b)
        for _ in range(10):
            np.linalg.eigvals(m)
        return python_kernel()

    return numpy_kernel


# kind -> (kernel factory, the kernel's time on an unloaded host of the machine
# class the benchmark was tuned on: x86-64, CPython 3.11, numpy 2.4).  Any
# constant serves for comparisons; these keep reference seconds close to wall
# seconds there.
KERNELS = {
    "python": (lambda: python_kernel, 0.00057),
    "numpy": (make_numpy_kernel, 0.00105),
}


class SpeedClock:
    """Reference and work seconds since sampling started, inside a `with` block.

    The stretch of work after a speed sample is counted at that sample's speed.
    """

    def __init__(self, kernel="numpy"):
        make, self.reference_s = KERNELS[kernel]
        self._kernel = make()
        self.samples = []  # kernel seconds of each speed sample
        # at the end of the last sample: (reference s, work s, perf_counter,
        # reference seconds per work second); replaced whole, so that a reader
        # interrupted by a sample sees one consistent state
        self._state = (0.0, 0.0, time.perf_counter(), 1.0)
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        ref, work, since, rate = self._state
        self.samples.append(end - start)
        self._state = (
            ref + (start - since) * rate,
            work + (start - since),
            end,
            self.reference_s / (end - start),
        )

    def read(self):
        """(reference seconds, work seconds) so far."""
        while True:
            state = self._state
            elapsed = time.perf_counter() - state[2]
            if state is self._state:
                return state[0] + elapsed * state[3], state[1] + elapsed

    def now(self):
        """Reference seconds so far: the clock the tracer's spans use."""
        return self.read()[0]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """Mean kernel speed against its reference: below 1 on a loaded host."""
        return sum(self.reference_s / k for k in self.samples) / len(self.samples)
