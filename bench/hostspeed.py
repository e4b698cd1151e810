"""Host-speed calibration for the timing metrics.

The reference host is a shared 2-vCPU VM whose speed switches between states
about 1.4-2x apart that last from under a second to minutes; wall and CPU
time of identical ops move together with it.  Raw op times therefore spread
across runs by more than any useful regression bound.  To cancel that, the
benchmark times a fixed calibration kernel before every op and after the
last one (and around every set-up probe), and reports each op's time scaled
by ``NOMINAL_S / measured kernel time`` (the mean of the calibrations on
either side of the op): seconds at the host speed at which the kernel takes
``NOMINAL_S``.  The kernel runs in a child process, so that its memory
stays out of the measured process and its peak RSS.

The kernel imitates the estimator's gaussian generator without importing the
package, so a change to the package moves the ops and not the kernel: 64-bit
mixing and ``ndtri`` over 2^18 lanes (2 MB arrays), four times.  On the
reference host its time tracked op times best among the kernels tried
(per-op correlation 0.7-0.9 with slope near 1; tiny-array or shorter kernels
swung more than the ops did).  It runs on one thread for every workload:
two concurrent copies, tried for the 2-worker workload, drifted by 40%
between two sets of runs while its ops moved 10%.  A workload whose ops are
long runs several kernels per calibration, so that calibrating takes about a
tenth as long as an op.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np
from scipy.special import ndtri

# kernel seconds at the reference speed, about the fast state of the
# reference host (Intel Xeon, 2 vCPU)
NOMINAL_S = 0.035
WARMUP = 3

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SCALE = 2.0 ** -53


def _mix(z):
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z = z * _M1
        z = z ^ (z >> np.uint64(27))
        z = z * _M2
        return z ^ (z >> np.uint64(31))


def _gaussians(lanes, k):
    w = (_mix(lanes + np.uint64(k)) >> np.uint64(11)).astype(np.float64)
    return ndtri((w + 0.5) * _SCALE)


def kernel(lanes):
    """Fixed work; returns a checksum that must be the same on every call."""
    return sum(float(_gaussians(lanes, k).sum()) for k in range(4))


def serve():
    """Child side: for each line ``k`` on stdin, run ``k`` kernels; answer
    ``seconds checksum``."""
    lanes = np.arange(1 << 18, dtype=np.uint64)
    for line in sys.stdin:
        kernels = int(line)
        start = perf_counter()
        checksum = sum(kernel(lanes) for _ in range(kernels))
        seconds = perf_counter() - start
        print(repr(seconds), repr(checksum), flush=True)


class HostSpeed:
    """Times ``kernels`` calibration kernels in a child process."""

    def __init__(self, kernels=1):
        self.kernels = kernels
        self.nominal_s = NOMINAL_S * kernels
        self._checksum = None
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            for _ in range(WARMUP):
                self.measure()
        except BaseException:
            self.close()
            raise

    def measure(self):
        """Seconds one calibration takes now."""
        self._child.stdin.write(f"{self.kernels}\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended")
        seconds, checksum = line.split()
        if self._checksum is None:
            self._checksum = checksum
        if checksum != self._checksum:
            raise RuntimeError("calibration kernel is not deterministic")
        return float(seconds)

    def scale(self, before, after):
        """Factor that takes a time measured between two calibrations to
        the reference speed."""
        return 2.0 * self.nominal_s / (before + after)

    def close(self):
        try:
            self._child.stdin.close()  # end of input: the child exits
        except BrokenPipeError:
            pass
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
