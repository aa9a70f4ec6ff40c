#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must reject a wrong answer.

    python3 bench/selftest.py

For operations of every workload it takes the program's real output, which
the check must accept, and deliberately wrong versions of it, which the
check must reject: a flipped verdict, an enclosure moved one ulp past the
exact value, a perturbed ordinal, an assignment nudged outside its sort, an
interpolant on the chain, and others.  It also re-derives the closed forms
the game checks use by brute force over the raw games, apart from the
program.  Exits 1 when any check lets a wrong answer through.
"""

import copy
import itertools
import math
import sys
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bridge  # noqa: E402
import certify  # noqa: E402
import decide  # noqa: E402
import ordmath as om  # noqa: E402
import realize  # noqa: E402
from clock import NullTracer  # noqa: E402

TRACER = NullTracer()
FAILURES = []


def expect(accepts, op, out, what):
    try:
        op.check(out)
        ok = accepts
    except Exception:  # as in run.py, any exception from a check rejects the answer
        ok = not accepts
    if not ok:
        FAILURES.append(f"{op.name}: the check {'rejects' if accepts else 'accepts'} {what}")


# ---------------------------------------------------------------------------
# Wrong answers per workload
# ---------------------------------------------------------------------------


def test_bridge():
    for op in bridge.build(1):
        if op.cat == 4:  # rank 3 on 4 points costs ~0.5 s; the rest suffice
            continue
        lower, upper, verdict = out = op.run(TRACER)
        expect(True, op, out, "the program's answer")
        expect(False, op, (lower, upper, not verdict), "a flipped fo_eval verdict")
        flipped = 1.0 - lower
        expect(False, op, (flipped, flipped, verdict), "a flipped ceval value")
        expect(False, op, (lower, math.nextafter(upper, 2.0), verdict), "an upper bound one ulp off")


def _float_below(value):
    """The largest float strictly below an exact ``certify.Value``."""
    x = max(float(a) + math.sqrt(float(q)) for a, q in value.terms)
    while value.at_most(x):
        x = math.nextafter(x, -math.inf)
    while not value.at_most(math.nextafter(x, math.inf)):
        x = math.nextafter(x, math.inf)
    return x


def _float_above(value):
    """The smallest float strictly above an exact ``certify.Value``."""
    x = _float_below(value)
    while value.at_least(x):
        x = math.nextafter(x, math.inf)
    return x


def test_certify():
    for op in certify.build(1):
        if op.fault is not None:
            expect(False, op, op.run(TRACER), "the rounded enclosure of the known fault")
            continue
        tol, value = op.info
        if op.cat == "nested" and tol < 1e-2:
            continue  # slow; the nested ones at 1e-2 cover the same check
        lower, upper, depth = out = op.run(TRACER)
        expect(True, op, out, "the program's enclosure")
        below, above = _float_below(value), _float_above(value)
        expect(False, op, (lower, below, depth), "an upper bound one ulp below the exact value")
        expect(False, op, (above, max(upper, above), depth), "a lower bound one ulp above the exact value")
        expect(False, op, (lower - 2 * tol, upper, depth), "an enclosure wider than tol")


def test_realize():
    for op in realize.build(1):
        out = op.run(TRACER)
        expect(True, op, out, "the program's answer")
        if op.cat == "interpolate":
            expect(False, op, (0, frozenset()), "bottom as the interpolant")
            expect(False, op, (0, frozenset({""})), "top as the interpolant")
            continue
        kind, data = out
        if kind == "realized":
            expect(False, op, ("unsatisfiable", 1.0), "a flipped verdict")
            for name, values in data.items():
                v = values[0]
                # off the real axis for the real sorts, out of the disc for the ball
                bad = complex(v.real, 2.0 ** -30) if v.imag == 0 else complex(2.0, 0.0)
                expect(False, op, (kind, {**data, name: (bad,) + values[1:]}), f"{name} nudged outside its sort")
        else:
            expect(False, op, ("realized", {}), "a flipped verdict")
            expect(False, op, (kind, op.info), "a floor not above tol")
            expect(False, op, (kind, 10.0), "a floor that admissible assignments beat")


def _perturbed(payload):
    """A wrong variant of a decide payload, or None when nothing applies."""
    bad = copy.deepcopy(payload)
    if "verdict" in bad and isinstance(bad["verdict"], bool):
        bad["verdict"] = not bad["verdict"]
        return bad, "a flipped verdict"
    verb = bad["verb"]
    if verb == "ord-arith":
        bad["value"] = om.to_text(om.add(om.parse(bad["value"]), om.ONE))
        return bad, "a perturbed ordinal"
    if verb == "ba-invariants":
        bad["value"]["atom_count"] += 1
        return bad, "a perturbed invariant"
    if verb == "ba-enumerate":
        bad["value"][-1] = bad["value"][0]
        return bad, "a repeated theory"
    if verb == "stone":
        bad["value"]["space_points"] += 1
        return bad, "a wrong point count"
    if verb == "jspec":
        bad["value"].append(["9"] * len(bad["value"][0]))
        return bad, "an extra spectrum point"
    if verb == "code":
        bad["value"][0]["points"] = bad["value"][0]["points"] + [99]
        return bad, "a wrong code set"
    return None


def test_decide():
    """Whole passes of checks, so that laws across operations (a*(b+c) =
    a*b + a*c, a^(b+c) = a^b * a^c) get to see a perturbed member."""
    decide.warm_up()
    ops = decide.build(1)
    outs = [op.run(TRACER) for op in ops]

    def rejected(outputs):
        names = set()
        for op, out in zip(ops, outputs):
            try:
                op.check(out)
            except Exception:
                names.add(op.name)
        return names

    known = {op.name for op in ops if op.fault is not None}
    if rejected(outs) != known:
        FAILURES.append(f"decide: the checks reject {sorted(rejected(outs) - known)} of the program's payloads")
    for i, op in enumerate(ops):
        if op.fault is not None:
            continue
        wrong = [((2, None), "a failed exit")]
        perturbed = _perturbed(outs[i][1])
        if perturbed is not None:
            wrong.append(((0, perturbed[0]), perturbed[1]))
        for out, what in wrong:
            if rejected(outs[:i] + [out] + outs[i + 1:]) == known:
                FAILURES.append(f"{op.name}: the checks accept {what}")


# ---------------------------------------------------------------------------
# The closed forms, re-derived from the raw games
# ---------------------------------------------------------------------------


def orders_game(m, n, rank):
    """Duplicator wins the rank-``rank`` game on the m- and n-point orders:
    the raw game over points, played pairs kept sorted."""
    @lru_cache(maxsize=None)
    def wins(pairs, left):
        if any((a1 < a2) != (b1 < b2) or (a1 == a2) != (b1 == b2)
               for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2)):
            return False
        if left == 0:
            return True
        return all(any(wins(tuple(sorted(pairs + ((a, b),))), left - 1) for b in range(n)) for a in range(m)) \
            and all(any(wins(tuple(sorted(pairs + ((a, b),))), left - 1) for a in range(m)) for b in range(n))

    return wins((), rank)


def powersets_game(m, n, rank):
    """Duplicator wins the rank-``rank`` game on the powersets of m and n
    atoms.  Atoms are interchangeable, so a position is the sizes of the
    cells the played elements cut; a move splits every cell in two, and the
    played tuples generate isomorphic subalgebras iff the same cells are
    empty on both sides."""
    def moves(cells):
        for taken in itertools.product(*(range(size + 1) for size in cells)):
            yield tuple(x for size, t in zip(cells, taken) for x in (t, size - t))

    @lru_cache(maxsize=None)
    def wins(cells_a, cells_b, left):
        if any((a == 0) != (b == 0) for a, b in zip(cells_a, cells_b)):
            return False
        if left == 0:
            return True
        return all(any(wins(a, b, left - 1) for b in moves(cells_b)) for a in moves(cells_a)) \
            and all(any(wins(a, b, left - 1) for a in moves(cells_a)) for b in moves(cells_b))

    return wins((m,), (n,), rank)


def test_closed_forms():
    for rank in range(4):
        for m in range(0 if rank < 3 else 6, 9):
            for n in range(m, 9):
                if orders_game(m, n, rank) != decide.orders_equivalent(m, n, rank):
                    FAILURES.append(f"orders closed form wrong at {m}, {n}, rank {rank}")
    for rank in range(4):
        top = 7 if rank < 3 else 5
        for m in range(1, top + 1):
            for n in range(m, top + 1):
                if powersets_game(m, n, rank) != decide.powersets_equivalent(m, n, rank):
                    FAILURES.append(f"powerset closed form wrong at {m}, {n}, rank {rank}")


def main():
    for test in (test_closed_forms, test_bridge, test_certify, test_realize, test_decide):
        before = len(FAILURES)
        test()
        print(f"{test.__name__}: {'ok' if len(FAILURES) == before else 'FAILED'}", flush=True)
    for failure in FAILURES:
        print("  " + failure)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
