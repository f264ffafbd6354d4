"""The host's speed, sampled inside an op's process.

On a shared machine a core's speed changes by up to 2x within seconds, as
other tenants load its SMT sibling, so raw op times spread by a quarter of
their median between runs.  `Sampler` times one fixed CHUNK of pure-Python
integer work right after set-up and then every PERIOD_S seconds during the
op (a SIGALRM handler).  The benchmark reports times scaled to the speed at
which the chunk takes REF_S seconds:

    normalised = seconds * REF_S / median(chunk times of the process)

`Sampler.clock()` is `time.perf_counter()` minus the time spent in the
sampler, so the chunks never count as the program's time.
"""

import signal
import statistics
import time

PERIOD_S = 0.1
REF_S = 0.0035     # about the chunk's time on an idle core of a 2-vCPU VM
READY_SAMPLES = 5  # taken right after set-up, so short ops have samples

_X = 3 ** 400


def chunk():
    """Fixed pure-Python work: big-int products and reductions, like the
    pure-Python mpmath backend's."""
    s = 0
    for i in range(10_000):
        s = (s + _X * i) % 1_000_000_007 ^ (i << 40)
    return s


class Sampler:
    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def clock(self):
        """Seconds, not counting the time spent in the sampler."""
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self, periodic=True):
        """READY_SAMPLES chunks now, then, if periodic, one every PERIOD_S."""
        for _ in range(READY_SAMPLES):
            self.sample()
        if periodic:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_s(self):
        """The median chunk time: the process's typical speed."""
        return statistics.median(self.samples)
