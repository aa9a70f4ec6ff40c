"""Pieces shared by the workloads: the operation record and the check error."""


class CheckError(AssertionError):
    """An output the independent check rejects."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


class Op:
    """One operation of a workload's op list.

    ``run(tracer)`` calls the program and returns its output; ``check(output)``
    raises ``CheckError`` when the output is wrong.  ``fault`` names a known
    program fault that makes this operation fail on every run (it is then
    counted in ``failed``); ``cat`` is the category its per-layer numbers are
    filed under.  ``direct(tracer)``, when given, makes the library calls the
    operation makes through a front end, so the traced run can tell the two
    apart; ``info`` is any detail the workload's counters need.
    """

    __slots__ = ("name", "run", "check", "fault", "cat", "info", "direct")

    def __init__(self, name, run, check, cat, fault=None, info=None, direct=None):
        self.name = name
        self.run = run
        self.check = check
        self.cat = cat
        self.fault = fault
        self.info = info
        self.direct = direct


class Counters:
    """Per-layer counters of one run; workloads override what they count."""

    def __init__(self, ops):
        self.ops = ops

    def record(self, pass_index, op, out):
        """Called after every operation, outside the timed region."""

    def after_pass(self, pass_index):
        """Called after every pass, outside the timed region."""

    def layer_metrics(self, spans, n_ops):
        """The per-layer metrics from the traced spans and the counters."""
        return {}


def mean_ms(values):
    return 1e3 * sum(values) / len(values) if values else 0.0
