"""The benchmark's clock and its span recorder.

Every time of an operation or of set-up is process CPU time: user plus
system time of this process and its threads, plus that of reaped child
processes (``getrusage`` of SELF and CHILDREN), so work moved off the main
thread still counts.  Only the calibration loop is timed on the main
thread's clock (see ``calibrate``).
"""

import gc
import resource
import sys
import time

_SELF = resource.RUSAGE_SELF
_CHILDREN = resource.RUSAGE_CHILDREN


def cpu() -> float:
    """Seconds of CPU used so far by this process, its threads and reaped children."""
    s = resource.getrusage(_SELF)
    c = resource.getrusage(_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(_SELF).ru_maxrss / 1024.0


class NullTracer:
    """Calls straight through; used for the untraced runs."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, name, op_id):
        pass

    def end(self):
        pass


class Tracer:
    """Records one span per call the benchmark makes into a public function.

    A span is ``[name, start, end, parent, op_id]`` with CPU-clock times;
    ``parent`` is the index of the enclosing span or -1.  Spans stay in
    memory until the run writes them out.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def begin(self, name, op_id):
        self._op = op_id
        self._stack.append(len(self.spans))
        parent = self._stack[-2] if len(self._stack) > 1 else -1
        self.spans.append([name, cpu(), None, parent, op_id])

    def end(self):
        self.spans[self._stack.pop()][2] = cpu()

    def call(self, name, fn, *args, **kwargs):
        self.begin(name, self._op)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def self_times(self):
        """(name, op_id, self seconds) per span: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, op_id, end - start - child[i])
            for i, (name, start, end, _, op_id) in enumerate(self.spans)
        ]


# ---------------------------------------------------------------------------
# Machine speed
#
# On a shared host a fixed loop's CPU time can switch between levels 1.5-2.4x
# apart for tens of seconds at a time (another tenant on the sibling
# hyperthread, or the clock frequency), and the program's CPU time follows
# it; so it did on the 2-CPU host of README.md's figures.  A run therefore
# times this fixed calibration loop between operations and scales every
# operation's CPU time by CALIBRATION_REF_S over the loop's time measured
# around it.  The loop blends integer and dict work, function calls with
# floats and short-lived tuples, and lookups in a 4,096-entry string-keyed
# dict: of the loops tried, this blend tracked the workloads best (in a
# 110 s window the log of an operation's time grew 0.91-1.05 times as fast
# as the log of the loop's; without the string lookups 0.85-0.98, and
# 0.85-1.28 for an integer-only loop over three windows).
#
# The loop is timed on the main thread's own CPU clock (``time.thread_time``),
# not on ``cpu()``, and runs with the garbage collector, the profile hook and
# the trace hook off.  So CPU the program spends in other threads or child
# processes, its heap, and any hook it installs slow the operations but not
# the loop, and the scaling keeps them.
# ---------------------------------------------------------------------------

_CALIBRATION_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}
_CALIBRATION_KEYS = [f"k{i}" for i in range(4096)]
_CALIBRATION_WORDS = {key: i for i, key in enumerate(_CALIBRATION_KEYS)}
#: The calibration loop's CPU time at the reference speed (about the faster
#: of the two levels on the host the figures in README.md come from).
CALIBRATION_REF_S = 0.005


def _step(a, b):
    return a * 1.5 + b, a - b


def calibrate() -> float:
    """Main-thread CPU seconds of one pass of the fixed calibration loop."""
    table, keys, words = _CALIBRATION_TABLE, _CALIBRATION_KEYS, _CALIBRATION_WORDS
    acc, x = 0, 0.0
    collecting, profile, trace = gc.isenabled(), sys.getprofile(), sys.gettrace()
    gc.disable()
    sys.setprofile(None)
    sys.settrace(None)
    try:
        start = time.thread_time()
        for i in range(15000):
            acc ^= table[i & 255] + i % 13
        for i in range(3000):
            pair = _step(x, i * 0.25)
            x = min(pair[0], pair[1] + 3.0) % 7.0
        for i in range(8000):
            acc += words[keys[(i * 2654435761) & 4095]]
        return time.thread_time() - start
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)
        if collecting:
            gc.enable()
