"""Counters, clocks and latency summaries shared by the benchmark driver and
``compare.py``.

On a shared host a neighbour on the same physical core slows a vCPU by up
to about 1.7 times for seconds at a time, and CPU clocks slow with it, so
raw CPU time spreads as much as wall time does between runs.  The
end-to-end metrics therefore count instructions (:class:`InstructionCounter`),
which a neighbour does not change, and scale CPU time to a reference
speed: a run pins itself, and the servers it spawns, to one CPU and runs
:func:`calibration`, a fixed piece of interpreter work, before and after
every operation.  An operation's CPU time times
``REFERENCE_CALIBRATION_S / calibration time`` is what it would have cost on
the reference machine at its usual speed.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import platform
import statistics
import struct
import time
from typing import Iterator, List, NamedTuple, Sequence, Tuple

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: samples a tail percentile must leave beyond it to be reported
MIN_BEYOND = 10

#: CPU seconds one :func:`calibration` takes on the reference machine (a
#: 2-core AMD EPYC virtual machine, CPython 3.11) when no neighbour slows it
REFERENCE_CALIBRATION_S = 0.00024

_CALIBRATION_VALUES = tuple(range(1, 97))
_CALIBRATION_NAMES = {value: str(value) for value in _CALIBRATION_VALUES}


def calibration() -> int:
    """A fixed piece of interpreter work shaped like the program's hot paths.

    Horner evaluation mod 83 (the ``gf`` kernels), packing rows of integers
    at a fixed width and reading them back (the ``rmi.codec`` matrices), and
    dict lookups.  It calls nothing in ``src/``, so only the machine's speed
    changes what it costs, never a change to the program.  It creates almost
    no container objects, so it neither triggers the garbage collector nor
    pays for one.
    """
    total = 0
    values, names = _CALIBRATION_VALUES, _CALIBRATION_NAMES
    for _ in range(6):
        for point in (3, 5, 7, 11):
            accumulator = 0
            for coefficient in values:
                accumulator = (accumulator * point + coefficient) % 83
            total += accumulator
        packed = b"".join([value.to_bytes(2, "big") for value in values])
        for index in range(0, len(packed), 2):
            total += int.from_bytes(packed[index:index + 2], "big")
        for value in values:
            total += len(names[value])
    return total


class Speed:
    """Calibration samples taken on the client thread between operations."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """CPU seconds of one :func:`calibration` run, now."""
        started = time.thread_time_ns()
        calibration()
        seconds = (time.thread_time_ns() - started) / 1e9
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(cpu_seconds: float, before: float, after: float) -> float:
        """``cpu_seconds`` measured between calibrations ``before`` and ``after``,
        in reference seconds."""
        return cpu_seconds * REFERENCE_CALIBRATION_S * 2 / (before + after)

    def factor(self) -> float:
        """How much faster than the reference the machine ran: its median
        sample against :data:`REFERENCE_CALIBRATION_S`."""
        return REFERENCE_CALIBRATION_S / statistics.median(self.samples)


@contextlib.contextmanager
def pinned_to_one_cpu() -> Iterator[int]:
    """Run the calling thread, and every thread and process it starts, on one CPU.

    The calibration then measures the speed of the CPU that does all the
    work.  The thread's own CPU set is restored on exit.
    """
    original = os.sched_getaffinity(0)
    cpu = min(original)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, original)


#: ``perf_event_open(2)`` system call numbers
_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE, _PERF_COUNT_HW_INSTRUCTIONS = 0, 1
_PERF_FORMAT_TOTAL_TIME_ENABLED, _PERF_FORMAT_TOTAL_TIME_RUNNING = 1, 2
#: ``perf_event_attr`` flag bits
_INHERIT, _EXCLUDE_KERNEL, _EXCLUDE_HV = 1 << 1, 1 << 5, 1 << 6
_PERF_FLAG_FD_CLOEXEC = 1 << 3
#: ``PERF_ATTR_SIZE_VER0``: every field set here lies in the first 48 bytes
_PERF_ATTR_SIZE = 64


class InstructionCounter:
    """User-space instructions retired by this process, its threads, and every
    thread and process started after the counter (the fleet's servers).

    A ``perf_event_open(2)`` hardware counter with ``inherit`` set; reading it
    sums the live children's counts and those of children that exited.
    Instruction counts do not change with a neighbour's load, so they
    repeat between runs to a fraction of a percent where CPU time does not.
    Kernel instructions are excluded, as an unprivileged counter must.
    """

    def __init__(self) -> None:
        number = _PERF_EVENT_OPEN.get(platform.machine())
        if number is None:
            raise OSError("no perf_event_open system call number for %s" % platform.machine())
        attr = bytearray(_PERF_ATTR_SIZE)
        struct.pack_into("IIQ", attr, 0, _PERF_TYPE_HARDWARE, _PERF_ATTR_SIZE, _PERF_COUNT_HW_INSTRUCTIONS)
        struct.pack_into("Q", attr, 32, _PERF_FORMAT_TOTAL_TIME_ENABLED | _PERF_FORMAT_TOTAL_TIME_RUNNING)
        struct.pack_into("Q", attr, 40, _INHERIT | _EXCLUDE_KERNEL | _EXCLUDE_HV)
        libc = ctypes.CDLL(None, use_errno=True)
        syscall = libc.syscall
        syscall.restype = ctypes.c_long
        syscall.argtypes = [ctypes.c_long, ctypes.c_char_p, ctypes.c_int, ctypes.c_int, ctypes.c_int,
                            ctypes.c_ulong]
        self._fd = syscall(number, bytes(attr), 0, -1, -1, _PERF_FLAG_FD_CLOEXEC)
        if self._fd < 0:
            error = ctypes.get_errno()
            raise OSError(error, "perf_event_open: %s" % os.strerror(error))

    def read(self) -> Tuple[int, int, int]:
        """(instructions, ns enabled, ns counting) so far."""
        return struct.unpack("QQQ", os.read(self._fd, 24))

    def __call__(self) -> int:
        return self.read()[0]

    def multiplexed(self) -> bool:
        """Whether the counter ever shared the hardware and so missed instructions."""
        _, enabled, running = self.read()
        return running < enabled

    def close(self) -> None:
        os.close(self._fd)


class DeploymentClock:
    """CPU time of a whole deployment in ns: every thread of this process,
    plus the fleet's server processes.

    A server's process CPU clock is ``(~pid << 3) | 2``, the id
    ``clock_getcpuclockid(3)`` returns on Linux.
    """

    def __init__(self, db) -> None:
        cluster = db.socket_cluster
        processes = cluster.processes if cluster is not None else []
        self._servers = [((~process.pid) << 3) | 2 for process in processes]

    def __call__(self) -> int:
        return time.process_time_ns() + sum(time.clock_gettime_ns(clock) for clock in self._servers)


class Tail(NamedTuple):
    value: float
    percentile: float
    #: samples strictly past the percentile's rank
    beyond: int


def tail(samples: Sequence[float]) -> Tail:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    Nearest-rank: percentile ``p`` of ``n`` samples is the ``ceil(p n / 100)``-th
    smallest, which leaves ``n - ceil(p n / 100)`` samples beyond it.  A
    sample too small for any candidate falls back to the median.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile * count / 100.0))
        if count - rank >= MIN_BEYOND or percentile == TAIL_PERCENTILES[-1]:
            break
    return Tail(ordered[rank - 1], percentile, count - rank)


def quartiles(values: Sequence[float]):
    """(first quartile, median, third quartile), as ``statistics`` gives them."""
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    first, median, third = quartiles(values)
    return (third - first) / abs(median) if median else 0.0
