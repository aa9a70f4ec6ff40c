#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/spread.py --workload bridge --seeds 1-10

Runs ``bench/run.py`` untraced once per seed, one run at a time, for the
``run_seconds`` of ``BENCHMARK.json``, and prints for each
metric its median and the distance between the first and third quartiles as
a share of the median, next to the bound in ``BENCHMARK.json``.  It also
prints the share of failed operations, which must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares = {}, set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        scale = lines[0].rsplit("speed scale ", 1)[-1].split()[0] if "speed scale" in lines[0] else "?"
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: scale={scale} correct={result['correct']} failed/attempted="
              f"{result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    print(f"failed shares: {sorted({f / a for f, a in shares})}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:16s} median {statistics.median(vals):.5g}  iqr/median {(q3 - q1) / med:.3f}"
              f"  bound {bounds[name]}")


if __name__ == "__main__":
    main()
