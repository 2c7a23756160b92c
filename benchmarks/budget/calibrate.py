"""Machine-speed calibration: times are reported for a machine of fixed speed.

The reference box is a 2-vCPU virtual machine whose speed moves by up to a
quarter for seconds to minutes at a time (other tenants, turbo): measured on
it, the same repetition of ``line_sat_sim`` ran anywhere between 52k and 67k
deliveries/s inside one process, while a fixed pure-Python loop timed right
before and after each repetition sped up and slowed down with it.  Dividing
one by the other removes most of the drift: the spread between ten runs fell
from around 10 % to 2-5 % on the simulator workloads and stayed near 3 % on
the socket ones.  So every repetition is bracketed by two timings of that
loop, and the CPU-bound part of every duration it reports is rescaled to a
machine on which the loop takes :data:`NOMINAL_S`; time spent waiting (socket
settle windows, paced idle gaps) does not depend on CPU speed and is left
alone.
"""

from __future__ import annotations

import gc
from time import perf_counter, process_time

#: the reference loop's duration on the machine all times are reported for
NOMINAL_S = 0.010


def _reference_loop() -> float:
    """A fixed mix of dict, tuple, string and sort work; seconds it took."""
    start = perf_counter()
    table = {}
    for i in range(60000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    pairs = [(i, str(i)) for i in range(20000)]
    pairs.sort(key=lambda pair: pair[1])
    return perf_counter() - start


def reference_s() -> float:
    """The loop's duration right now, on a warm CPU.

    After a socket repetition the CPU has idled through the settle window and
    needs tens of milliseconds to clock back up; a cold reading says nothing
    about the speed the repetition ran at.  Three discarded passes warm it,
    the faster of two more is the reading.
    """
    for _ in range(3):
        _reference_loop()
    return min(_reference_loop(), _reference_loop())


def slowdown(before_s: float, after_s: float) -> float:
    """How much slower than nominal the machine ran between two readings."""
    return (before_s + after_s) / 2 / NOMINAL_S


def timed_rep(workload, before_s: float, **options):
    """One repetition between two readings: (rep with its time scales set, reading after).

    ``rep.op_scale`` turns a timed operation into its nominal-machine duration:
    an operation is timed while it is being worked on, so all of it scales.
    ``rep.wall_scale`` does the same for the measured phase and the set-up,
    which may also hold waiting (settle windows, paced gaps): only the share of
    the repetition the process spent on the CPU scales.  The reading after one
    repetition serves as the reading before the next.
    """
    gc.collect()
    cpu_start, start = process_time(), perf_counter()
    rep = workload.rep(**options)
    cpu_share = min(1.0, (process_time() - cpu_start) / (perf_counter() - start))
    after_s = reference_s()
    rep.op_scale = 1.0 / slowdown(before_s, after_s)
    rep.wall_scale = (1.0 - cpu_share) + cpu_share * rep.op_scale
    return rep, after_s
