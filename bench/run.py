#!/usr/bin/env python3
"""elemeq's benchmark: four seeded workloads on CPU time, every output checked.

    python3 bench/run.py --workload {bridge,certify,realize,decide} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``.
The workload's op list is built from the seed and run in whole passes, in
this one process and thread, until ``S`` seconds of CPU time have gone into
it; each output is checked against a computation made apart from the
program.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See ``bench/README.md``.
"""

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread everywhere, numpy's pools included (set before numpy loads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from clock import CALIBRATION_REF_S, NullTracer, Tracer, calibrate, cpu, peak_rss_mb  # noqa: E402

WORKLOADS = ("bridge", "certify", "realize", "decide")
#: Fresh interpreters whose median set-up time is one run's ``setup_s``.
SETUP_PROBES = 5
#: The tail percentile is the highest with at least this many samples beyond it.
TAIL_BEYOND = 10
#: A run stops starting passes after this much wall time, whatever its CPU clock says.
WALL_LIMIT_S = 120.0
#: CPU seconds of operations between two timings of the calibration loop.
CALIBRATE_EVERY_S = 0.1
#: Calibration timings at the start and end of a run and of a set-up probe.
CALIBRATE_EDGE = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "cpu_p50_ms": "ms",
    "cpu_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "boolalg.fo_eval.ms_per_op": "ms",
    "clogic.translate_fo.ms_per_op": "ms",
    "clogic.ceval_exact.ms_per_op.n1": "ms",
    "clogic.ceval_exact.ms_per_op.n2": "ms",
    "clogic.ceval_exact.ms_per_op.n3": "ms",
    "clogic.ceval_exact.ms_per_op.n4": "ms",
    "clogic.free_vars_memo.hits": "count",
    "clogic.free_vars_memo.entries": "count",
    "clogic.ceval_bnb.ms_per_op.ball": "ms",
    "clogic.ceval_bnb.ms_per_op.sa": "ms",
    "clogic.ceval_bnb.ms_per_op.pos": "ms",
    "clogic.ceval_bnb.ms_per_op.nested": "ms",
    "clogic.ceval_bnb.grid_depth": "count",
    "clogic.ceval_bnb.width_over_tol": "ratio",
    "saturation.realize_type.ms_per_op.realized": "ms",
    "saturation.realize_type.ms_per_op.unsatisfiable": "ms",
    "saturation.realize_type.realized": "count",
    "saturation.realize_type.unsatisfiable": "count",
    "saturation.interpolate_chain.ms_per_op": "ms",
    "import.numpy.ms": "ms",
    "import.elemeq_cli.ms": "ms",
    "cli.frontend.ms_per_op": "ms",
    "ordinals.ms_per_op": "ms",
    "batheory.ms_per_op": "ms",
    "cstar.ms_per_op": "ms",
    "efgames.ef_orders.ms_per_op": "ms",
    "efgames.ef_ordinals.ms_per_op": "ms",
    "efgames.ef_bas.ms_per_op": "ms",
}
#: Modules whose import a traced set-up probe times, and the span name.
TIMED_IMPORTS = {"numpy": "import.numpy", "elemeq.cli": "import.elemeq_cli"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up: everything a fresh interpreter does before the first timed operation
# ---------------------------------------------------------------------------


class _ImportTimer:
    """A meta-path finder that puts a span around the execution of chosen modules."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if name not in TIMED_IMPORTS:
            return None
        sys.meta_path.remove(self)
        try:
            spec = importlib.util.find_spec(name)
        finally:
            sys.meta_path.insert(0, self)
        if spec is None or spec.loader is None:
            return spec
        run_module, tracer = spec.loader.exec_module, self.tracer

        def exec_module(module):
            tracer.begin(TIMED_IMPORTS[name], -1)
            try:
                run_module(module)
            finally:
                tracer.end()

        spec.loader.exec_module = exec_module
        return spec


def set_up(workload, seed):
    """Import the program and the workload, build the op list, and do the
    work every invocation pays first; returns (module, ops)."""
    if not (SRC / "elemeq" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure at {SRC / 'elemeq'}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(workload)
    ops = module.build(seed)
    if hasattr(module, "warm_up"):
        module.warm_up()
    return module, ops


def setup_probe(args):
    """A fresh interpreter's set-up, printed as JSON: CPU seconds since the
    process started and, when traced, the timed imports."""
    tracer = Tracer()
    if args.trace:
        sys.meta_path.insert(0, _ImportTimer(tracer))
    set_up(args.workload, args.seed)
    spent = cpu()
    scale = CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(CALIBRATE_EDGE))
    # whole durations: numpy loads inside elemeq.cli when both are timed
    imports = dict.fromkeys(TIMED_IMPORTS.values(), 0.0)
    for name, start, end, _, _ in tracer.spans:
        imports[name] += scale * (end - start)
    print(json.dumps({"setup_s": scale * spent, "raw_setup_s": spent, "imports": imports}))


def run_probes(args):
    """Median set-up over ``SETUP_PROBES`` fresh interpreters."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), "--setup-probe"]
    results = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    setup = statistics.median(r["setup_s"] for r in results)
    imports = {f"{name}.ms": 1e3 * statistics.median(r["imports"][name] for r in results)
               for name in TIMED_IMPORTS.values()}
    return setup, imports


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------


class Run:
    """Per-operation CPU and wall samples and the outcome counts of one run.

    ``raw[i]`` holds operation ``i``'s CPU seconds with the index of the
    calibration interval each ran in; ``cpu[i]`` the same times scaled to the
    reference speed once the run is over.
    """

    def __init__(self, ops):
        self.raw = [[] for _ in ops]
        self.cpu = [[] for _ in ops]
        self.wall = [[] for _ in ops]
        self.calibration = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []
        self.passes = 0

    def scale(self, interval):
        """Reference over local speed: the calibration loop's reference time
        over the median of its four timings around the interval."""
        near = self.calibration[max(0, interval - 1):interval + 3]
        return CALIBRATION_REF_S / statistics.median(near)

    def finish(self):
        self.cpu = [[t * self.scale(k) for t, k in samples] for samples in self.raw]

    def median_scale(self):
        return CALIBRATION_REF_S / statistics.median(self.calibration)


def measure(ops, counters, tracer, seconds, min_passes):
    run = Run(ops)
    n = len(ops)
    run.calibration += [calibrate() for _ in range(CALIBRATE_EDGE)]
    since = 0.0
    start_cpu, start_wall = cpu(), time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            tracer.begin("op", run.passes * n + i)
            if tracer.enabled and op.direct is not None:
                op.direct(tracer)
            c0, w0 = cpu(), time.perf_counter()
            try:
                out, error = op.run(tracer), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, exc
            c1, w1 = cpu(), time.perf_counter()
            tracer.end()
            run.raw[i].append((c1 - c0, len(run.calibration) - 1))
            run.wall[i].append(w1 - w0)
            since += c1 - c0
            if since >= CALIBRATE_EVERY_S:
                run.calibration.append(calibrate())
                since = 0.0
            run.attempted += 1
            if error is not None:
                run.failed += 1
                if op.fault is None:
                    run.errors.append(f"{op.name}: {error!r}")
                continue
            try:
                op.check(out)
            except Exception as exc:  # a malformed output is a wrong answer too
                # a known fault's wrong answer is its failure; any other is a wrong answer
                if op.fault is None:
                    run.wrong.append(f"{op.name}: {exc!r}")
                else:
                    run.failed += 1
            else:
                counters.record(run.passes, op, out)
        counters.after_pass(run.passes)
        run.passes += 1
        if run.passes >= min_passes and (
            cpu() - start_cpu >= seconds or time.perf_counter() - start_wall >= WALL_LIMIT_S
        ):
            run.calibration += [calibrate() for _ in range(CALIBRATE_EDGE)]
            run.finish()
            return run


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, q2, q3


def end_to_end(run, setup, rss):
    # one sample per operation of the op list (its median over the passes),
    # so the percentiles do not depend on how many passes fit in the run
    per_op = sorted(statistics.median(samples) for samples in run.cpu)
    return {
        "setup_s": setup,
        "ops_per_cpu_s": run.attempted / sum(sum(samples) for samples in run.cpu),
        "cpu_p50_ms": 1e3 * statistics.median(per_op),
        "cpu_tail_ms": 1e3 * per_op[len(per_op) - TAIL_BEYOND - 1],
        "peak_rss_mb": rss,
    }


def summary(args, run, ops):
    """Human-readable lines for the README's reference figures."""
    series = {
        "cpu": [1e3 * t for samples in run.cpu for t in samples],
        "raw cpu": [1e3 * t for samples in run.raw for t, _ in samples],
        "wall": [1e3 * t for samples in run.wall for t in samples],
    }
    lines = [f"# {args.workload} seed {args.seed} trace {args.trace}: {len(ops)} ops x {run.passes} passes;"
             f" in operations cpu {sum(series['cpu']) / 1e3:.2f} s scaled, {sum(series['raw cpu']) / 1e3:.2f} s raw,"
             f" wall {sum(series['wall']) / 1e3:.2f} s; speed scale {run.median_scale():.3f}"
             f" over {len(run.calibration)} calibrations"]
    for label, values in series.items():
        q1, q2, q3 = quartiles(values)
        lines.append(f"# op {label} ms: median {q2:.4g} q1 {q1:.4g} q3 {q3:.4g} (n={len(values)})")
    lines += [f"# WRONG {w}" for w in run.wrong] + [f"# ERROR {e}" for e in run.errors]
    return lines


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    module, ops = set_up(args.workload, args.seed)
    counters = module.Counters(ops)
    tracer = Tracer() if args.trace else NullTracer()
    # a traced run needs a warm pass after the cold one for its front-end split
    run = measure(ops, counters, tracer, args.seconds, 2 if args.trace else 1)
    rss = peak_rss_mb()
    setup, imports = run_probes(args)
    for line in summary(args, run, ops):
        print(line)
    if args.trace:
        # a span is scaled like the operation it ran in
        n = len(ops)
        spans = [(name, op_id, t * run.scale(run.raw[op_id % n][op_id // n][1]))
                 for name, op_id, t in tracer.self_times()]
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(counters.layer_metrics(spans, len(ops)))
        values.update(imports)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id"], "spans": tracer.spans}, handle)
        ops_per_cpu = end_to_end(run, setup, rss)["ops_per_cpu_s"]
        print(f"# traced ops_per_cpu_s {ops_per_cpu:.6g}")
    else:
        values = end_to_end(run, setup, rss)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        # only the known faults may fail; any other failure is an error of the program
        "correct": not run.wrong and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
