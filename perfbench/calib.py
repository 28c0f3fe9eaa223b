"""Reference kernels that track the speed of the CPU a run is pinned to.

The host this benchmark was built on runs each virtual CPU at full speed or
up to about 1.9x slower, in phases of seconds to minutes, and how much a
slow phase slows code depends on the code: interpreter-bound Fraction
arithmetic and array-bound numpy work slow by different factors.  So there
are two kernels, one of each kind.  run.py times both right before and after
each operation, and divides the operation's time by the CPU's slowdown: the
mean, over the two kernels, of the kernel's time over its time at full speed
(REFERENCE_S).  The result is in reference seconds, seconds on the build
host's CPU at full speed.

numpy is imported here, so worker.py imports this module only after it has
taken setup_s.
"""

import math
import time
from fractions import Fraction

import numpy as np

# each kernel's time at full speed on the build host (a 2-vCPU KVM guest,
# "Intel(R) Xeon(R) Processor"): about the 5th percentile of 600 runs
REFERENCE_S = (0.0027, 0.0085)

_GRID = np.linspace(0.01, 1.0, 400000)


def _interp_kernel():
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    d = {}
    for i in range(6000):
        d[(i, i & 7)] = math.sin(i * 0.001)
    return s, len(d)


def _array_kernel():
    for _ in range(2):
        np.exp(_GRID) * _GRID**0.3


def reference_s():
    """Seconds each kernel takes now."""
    out = []
    for kernel in (_interp_kernel, _array_kernel):
        t = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t)
    return out


def settled_reference_s():
    """reference_s in a process that has not run the kernels yet: the second of two."""
    reference_s()
    return reference_s()


def mean_reference_s(a, b):
    """The kernels' times before and after an operation, averaged."""
    return [(x + y) / 2 for x, y in zip(a, b)]


def slowdown(ref_s):
    """How many times slower than at full speed the CPU ran while the kernels took ref_s."""
    return sum(r / r0 for r, r0 in zip(ref_s, REFERENCE_S)) / len(REFERENCE_S)


def in_reference_s(seconds, ref_s):
    """A time measured while the kernels took ref_s, in reference seconds."""
    return seconds / slowdown(ref_s)
