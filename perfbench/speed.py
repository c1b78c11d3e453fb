"""Host-speed calibration: time the program in nominal seconds.

The benchmark runs on shared hosts whose CPU speed drifts by up to 2x
over minutes (see README.md, *Measured noise*), far more than any bound
a time metric could carry.  A child therefore runs a fixed reference
computation between the parts of a timed pass and converts each stretch
of program time between two references into *nominal seconds*:

    nominal = host seconds x (NOMINAL_REF_S / reference time around it)
                                                              ** ELASTICITY

so a pass reads about the same on a fast and on a slow period of the
same host, while a program change that makes the pass do more work reads
as more nominal seconds.  The time spent in the references is never
counted.  ``ELASTICITY`` is below 1 because the program, which spends
part of its time in numpy and in system calls, slows down less than the
pure-interpreter reference when the host does: over the passes of five
runs per workload, log(pass host time) against log(mean reference time)
had a slope of 0.74 (coloring-sweep), 0.84 (irregular-sweep) and 0.65
(served-campaign).  Set-up (process start, imports, graph construction)
had a slope of 0.50 over 24 served-campaign children, hence
``SETUP_ELASTICITY``.

The reference is pure interpreter work (calls, attribute and dict
access, float and int arithmetic) on objects built once, so it neither
triggers the garbage collector nor depends on the heap the program has
built; nothing under ``src/`` runs inside it.
"""

from __future__ import annotations

import statistics
import time
from array import array

#: Host seconds one reference call takes on the nominal host (a 2-core
#: x86 VM in its fast periods); it defines the nominal second.
NOMINAL_REF_S = 0.004
#: Share (in log terms) of the reference's slowdown a pass shares, and
#: set-up (imports, graph construction in numpy) shares.
ELASTICITY = 0.8
SETUP_ELASTICITY = 0.5
#: Loop iterations of one reference call.
REF_ITERS = 20000
#: Reference calls at a pass boundary (median taken).
EDGE_REPS = 5
#: Within a pass, a reference runs at most this often (host seconds).
MIN_GAP_S = 0.1


class _Cell:
    __slots__ = ("a", "b")


# Built once: a reference between cells allocates no object the garbage
# collector tracks, so how many run (which depends on host speed) cannot
# move the program's collections or its peak memory.
_CELL = _Cell()
_TABLE = dict.fromkeys(range(256), 0.0)


def _step(cell, i, table):
    cell.a = (cell.a + i * 7) % 1009
    cell.b = cell.b * 0.5 + table[i & 255]
    return cell.a & 1


def reference(iters: int = REF_ITERS) -> float:
    """The fixed computation the host speed is read from."""
    cell, table = _CELL, _TABLE
    cell.a, cell.b = 0, 0.0
    for k in range(256):
        table[k] = k * 0.25
    odd = 0
    for i in range(iters):
        if _step(cell, i, table):
            odd += 1
        else:
            table[i & 255] = cell.b
    return cell.b + odd


def _mid(a: float, b: float, c: float) -> float:
    return max(min(a, b), min(max(a, b), c))


class Speedometer:
    """Reads host speed between the parts of a timed interval.

    :meth:`mark` runs the reference (``EDGE_REPS`` times, median) and
    returns its index; :meth:`tick` runs it once inside an interval unless
    one ran less than ``MIN_GAP_S`` ago.  :meth:`between` converts the
    program time between two marks into host and nominal seconds, and
    :meth:`since_start` the time since *t0*, the ``time.monotonic()`` at
    which the parent started this process.  Construction makes mark 0.
    """

    #: Fields of one read, stored flat in :attr:`log`.
    FIELDS = ("wall0", "wall1", "cpu0", "cpu1", "ref", "ref_cpu")

    def __init__(self, t0: float):
        self.log = array("d")
        reference(REF_ITERS // 4)               # warm the code paths
        self.before = time.monotonic() - t0     # host seconds before mark 0
        self.mark()

    def __len__(self) -> int:
        return len(self.log) // len(self.FIELDS)

    def get(self, k: int, field: str) -> float:
        return self.log[k * len(self.FIELDS) + self.FIELDS.index(field)]

    def record(self, wall0: float, wall1: float, cpu0: float, cpu1: float,
               ref: float, ref_cpu: float) -> int:
        """Append one read (in :attr:`FIELDS` order); returns its index."""
        log = self.log
        log.append(wall0)
        log.append(wall1)
        log.append(cpu0)
        log.append(cpu1)
        log.append(ref)
        log.append(ref_cpu)
        return len(self) - 1

    def _read(self, reps: int) -> int:
        w0, c0 = time.perf_counter(), time.process_time()
        if reps == 1:
            reference()
            w1, c1 = time.perf_counter(), time.process_time()
            return self.record(w0, w1, c0, c1, w1 - w0, c1 - c0)
        walls, cpus = [], []
        for _ in range(reps):
            w, c = time.perf_counter(), time.process_time()
            reference()
            walls.append(time.perf_counter() - w)
            cpus.append(time.process_time() - c)
        return self.record(w0, time.perf_counter(), c0, time.process_time(),
                           statistics.median(walls), statistics.median(cpus))

    def mark(self) -> int:
        return self._read(EDGE_REPS)

    def tick(self) -> None:
        if len(self) and time.perf_counter() - self.get(len(self) - 1,
                                                        "wall1") >= MIN_GAP_S:
            self._read(1)

    def since_start(self) -> tuple[dict[str, float], int]:
        """Program time from *t0* to a new mark, as :meth:`between` gives
        it (the stretch before mark 0 at mark 0's speed), and that mark."""
        end = self.mark()
        span = self.between(0, end, SETUP_ELASTICITY)
        span["wall_s"] += self.before
        span["nominal_s"] += self.before * (
            NOMINAL_REF_S / self.get(0, "ref")) ** SETUP_ELASTICITY
        return span, end

    def _ref(self, k: int, first: int, last: int, field: str) -> float:
        """Reference time at read *k*.  Inside ``(first, last)`` it is the
        median of the read and its two neighbours, so one disturbed read
        does not skew the stretches beside it; the marks at either end are
        medians already."""
        here = self.get(k, field)
        if first < k < last:
            return _mid(self.get(k - 1, field), here, self.get(k + 1, field))
        return here

    def between(self, first: int, last: int,
                elasticity: float = ELASTICITY) -> dict[str, float]:
        """Program time between marks *first* and *last*: host wall and
        CPU seconds, and both in nominal seconds."""
        out = {"wall_s": 0.0, "cpu_s": 0.0, "nominal_s": 0.0,
               "nominal_cpu_s": 0.0}
        for k in range(first, last):
            wall = self.get(k + 1, "wall0") - self.get(k, "wall1")
            cpu = self.get(k + 1, "cpu0") - self.get(k, "cpu1")
            ref_wall = (self._ref(k, first, last, "ref")
                        + self._ref(k + 1, first, last, "ref")) / 2
            ref_cpu = (self._ref(k, first, last, "ref_cpu")
                       + self._ref(k + 1, first, last, "ref_cpu")) / 2
            out["wall_s"] += wall
            out["cpu_s"] += cpu
            out["nominal_s"] += wall * (NOMINAL_REF_S / ref_wall) \
                ** elasticity
            out["nominal_cpu_s"] += cpu * (NOMINAL_REF_S / ref_cpu) \
                ** elasticity
        return out
