"""The reference kernel: fixed pure-Python work whose time tracks machine speed.

On a shared host the speed of one core drifts by tens of percent over
seconds (one lambda_star call measured 88 to 150 ms within two minutes).
The benchmark runs this kernel between program calls and reports every time
at reference speed:

    reported = measured * REFERENCE_SECONDS / (kernel time around the call)

so a drift that slows the program and the kernel alike cancels.  The kernel
shares no code with the program; it is integer and Fraction arithmetic in
the interpreter, which is what the program spends most of its time on.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's time on the machine the reported figures refer to.
REFERENCE_SECONDS = 0.0015


def kernel() -> int:
    s = 0
    f = Fraction(0)
    for i in range(1, 6000):
        s += i * i % 7
        if i % 20 == 0:
            f += Fraction(1, i)
    return s + f.denominator % 3


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
