"""Workload ``decide``: a seeded stream of CLI verbs through ``elemeq.cli.main``.

Every operation is one in-process call ``cli.main(argv + ["--json"])`` with
standard output captured and the JSON payload parsed, as a script driving
the command line would see it.  The verbs cover the exact decision layers:
ordinal arithmetic and equivalence (``ordinals``), the Calkin-to-ordinal
comparison, back-and-forth games (``efgames``), the Boolean-theory
classification (``batheory``), Stone duality (``boolalg``), and spectra and
coding (``cstar``).

Checks never consult the program: ordinal results are read back with
``ordmath`` and held to laws the arithmetic must obey; games, invariants and
spectra are compared with closed forms or direct computation.

``ord-eq 'w^(w+1)' 'w^(w+1)'`` is a known fault: the verb's optional game
cross-check raises a budget error outside its domain and the verb exits 4
instead of answering ``true``.  It is kept, with fixed inputs, and counted
as failed on every run.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from elemeq import cli
from elemeq.batheory import (
    FinCof, Finite, FreeAtomless, IntervalAlgebra, PowersetModFin, PowersetOmega, Product,
    ba_equiv, classification_conflict, derivative_chain, enumerate_theories, ershov_invariants,
)
from elemeq.boolalg import FiniteBoolAlg
from elemeq.cstar import c_norm, c_sub, clopen_code, joint_spectrum, reconstruct, singular_cross_checks, spectrum_indicator
from elemeq.errors import ResourceBudgetError
from elemeq.efgames import ef_finite_bas, ef_finite_orders, ef_ordinals
from elemeq.ordinals import Ordinal, calkin_equiv, ord_add, ord_equiv, ord_mul, ord_pow

import ordmath as om
from common import Counters as BaseCounters, Op, mean_ms, require

CROSS_CHECK_FAULT = "ord-eq exits 4: the optional game cross-check raises a budget error above w^w"


def run_cli(argv):
    """``cli.main`` on ``argv`` with ``--json``; returns (exit code, payload)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    text = out.getvalue()
    return code, json.loads(text) if text else None


def program_ordinal(a):
    """The program's ``Ordinal`` for an ``ordmath`` tuple, via its constructor."""
    return Ordinal(tuple((program_ordinal(e), k) for e, k in a))


def _ordinal_upto_omega(rng, terms=3):
    """A random ordinal whose exponents are finite or exactly w."""
    a = om.random_ordinal(rng, 1, terms)
    if rng.random() < 0.5:
        a = om.add(((om.OMEGA, rng.randint(1, 3)),), a)
    return a


def _cli(argv):
    """The operation: one ``cli.main`` call, traced as ``cli.main``."""
    return lambda tr: tr.call("cli.main", run_cli, argv)


def _arg(text):
    """A positional argument; a leading space keeps argparse from reading a
    leading minus sign as an option (the program strips it)."""
    return " " + text if text.startswith("-") else text


def _payload(out):
    code, payload = out
    require(code == 0 and payload is not None, f"exit code {code}")
    return payload


# ---------------------------------------------------------------------------
# Ordinal arithmetic: every result is read back and checked by a law
# ---------------------------------------------------------------------------


class _Group:
    """Outputs of related operations in one pass, for a law across them.

    The law runs when the last of the group's operations in a pass is
    checked, whatever order the pass runs them in.
    """

    def __init__(self, size, law):
        self.size, self.law, self.values = size, law, {}

    def put(self, key, value):
        self.values[key] = value
        if len(self.values) == self.size:
            values, self.values = self.values, {}
            self.law(values)


def _arith_op(name, op, a, b, expect=None, group=None, key=None):
    """``ord-arith op a b``.  ``expect`` is the value a law fixes before the
    call; a ``group`` collects the value under ``key`` for a law across calls."""
    argv = ["ord-arith", op, om.to_text(a), om.to_text(b)]
    pa, pb = program_ordinal(a), program_ordinal(b)
    fn = {"add": ord_add, "mul": ord_mul, "pow": ord_pow}[op]

    def check(out):
        value = om.parse(_payload(out)["value"])
        if expect is not None:
            require(value == expect, f"{op} gives {om.to_text(value)}, the law needs {om.to_text(expect)}")
        if group is not None:
            group.put(key, value)

    return Op(name, _cli(argv), check, "ordinals", direct=lambda tr: tr.call("ordinals", fn, pa, pb))


def _arith_ops(rng):
    ops = []
    # addition, associativity and a + (b - a) = b
    for i in range(2):
        a, b, c = (om.random_ordinal(rng, 2) for _ in range(3))
        whole = om.add(om.add(a, b), c)
        ops.append(_arith_op(f"add.{i}", "add", a, b, expect=om.add(a, b)))
        ops.append(_arith_op(f"add.assoc_left.{i}", "add", om.add(a, b), c, expect=whole))
        ops.append(_arith_op(f"add.assoc_right.{i}", "add", a, om.add(b, c), expect=whole))
        lo, hi = sorted((a, b), key=om.OrderKey)
        ops.append(_arith_op(f"add.difference.{i}", "add", lo, om.left_diff(lo, hi), expect=hi))
    # multiplication, associativity and left distributivity
    for i in range(2):
        a, b, c = (om.random_ordinal(rng, 2, 2) for _ in range(3))
        whole = om.mul(om.mul(a, b), c)
        ops.append(_arith_op(f"mul.assoc_left.{i}", "mul", om.mul(a, b), c, expect=whole))
        ops.append(_arith_op(f"mul.assoc_right.{i}", "mul", a, om.mul(b, c), expect=whole))

        def distributes(v):
            require(v["sum"] == om.add(v["b"], v["c"]), "a*(b+c) differs from a*b + a*c")

        group = _Group(3, distributes)
        ops.append(_arith_op(f"mul.b.{i}", "mul", a, b, expect=om.mul(a, b), group=group, key="b"))
        ops.append(_arith_op(f"mul.c.{i}", "mul", a, c, expect=om.mul(a, c), group=group, key="c"))
        ops.append(_arith_op(f"mul.distrib.{i}", "mul", a, om.add(b, c), group=group, key="sum"))
    # exponentiation: a^1 = a, a^(b+c) = a^b * a^c and a^(c+b) = a^c * a^b
    # (both orders: a limit factor on the right absorbs an error on the left)
    for i in range(2):
        a = om.random_ordinal(rng, 1, 2, 3, 3) if i else om.nat(rng.randint(2, 5))
        b, c = om.random_ordinal(rng, 1, 2, 2, 3), om.random_ordinal(rng, 1, 2, 2, 3)

        def exponent_law(v):
            require(v["bc"] == om.mul(v["b"], v["c"]), "a^(b+c) differs from a^b * a^c")
            require(v["cb"] == om.mul(v["c"], v["b"]), "a^(c+b) differs from a^c * a^b")

        group = _Group(4, exponent_law)
        ops.append(_arith_op(f"pow.one.{i}", "pow", a, om.ONE, expect=a))
        ops.append(_arith_op(f"pow.b.{i}", "pow", a, b, group=group, key="b"))
        ops.append(_arith_op(f"pow.c.{i}", "pow", a, c, group=group, key="c"))
        ops.append(_arith_op(f"pow.bc.{i}", "pow", a, om.add(b, c), group=group, key="bc"))
        ops.append(_arith_op(f"pow.cb.{i}", "pow", a, om.add(c, b), group=group, key="cb"))
    return ops


# ---------------------------------------------------------------------------
# Ordinal equivalence and games
# ---------------------------------------------------------------------------


def _verdict_op(name, argv, expected, cat, direct, fault=None):
    def check(out):
        verdict = _payload(out)["verdict"]
        require(verdict is expected, f"{' '.join(argv)} says {verdict}, expected {expected}")

    return Op(name, _cli(argv), check, cat, fault=fault, direct=direct)


def _ord_eq_direct(pa, pb):
    def direct(tr):
        verdict = tr.call("ordinals", ord_equiv, pa, pb)
        try:
            for rank in [3] if verdict else range(1, 5):
                if not tr.call("efgames.ef_ordinals", ef_ordinals, pa, pb, rank):
                    break
        except ResourceBudgetError:
            pass  # the verb exits 4 here: the known cross-check fault
    return direct


def _equivalence_ops(rng):
    ops = []
    for i in range(2):
        a = _ordinal_upto_omega(rng)
        pa = program_ordinal(a)
        ops.append(_verdict_op(f"ord-eq.spelling.{i}", ["ord-eq", om.to_text(a), om.respell(rng, a)],
                               True, "ordinals", _ord_eq_direct(pa, pa)))
    a, b = _ordinal_upto_omega(rng), _ordinal_upto_omega(rng)
    ops.append(_verdict_op("ord-eq.pair", ["ord-eq", om.to_text(a), om.to_text(b)], om.equiv(a, b),
                           "ordinals", _ord_eq_direct(program_ordinal(a), program_ordinal(b))))
    fault = om.parse("w^(w+1)")
    ops.append(_verdict_op("ord-eq.above_w^w", ["ord-eq", "w^(w+1)", "w^(w+1)"], True, "ordinals",
                           _ord_eq_direct(program_ordinal(fault), program_ordinal(fault)),
                           fault=CROSS_CHECK_FAULT))
    # Calkin comparison: any exponents; the first pair shares its residue
    # below w^w unless finite-exponent terms of ``big`` survive in front of it
    residue = om.random_ordinal(rng, 1, 2)
    big = om.random_ordinal(rng, 2, 2)
    big = om.add(((om.add(om.OMEGA, om.nat(rng.randint(0, 2))), rng.randint(1, 3)),), big)
    pairs = [(om.add(big, residue), om.add(((om.OMEGA, 1),), residue))]
    pairs += [(om.random_ordinal(rng, 3), om.random_ordinal(rng, 3)) for _ in range(2)]
    for i, (a, b) in enumerate(pairs):
        pa, pb = program_ordinal(a), program_ordinal(b)
        ops.append(_verdict_op(f"calkin-eq.{i}", ["calkin-eq", om.to_text(a), om.to_text(b)],
                               om.equiv(a, b), "ordinals",
                               lambda tr, pa=pa, pb=pb: tr.call("ordinals", calkin_equiv, pa, pb)))
    return ops


def orders_equivalent(m, n, rank):
    """Finite linear orders of sizes m, n are rank-r equivalent iff
    m = n or both have at least 2^r - 1 points."""
    return m == n or min(m, n) >= 2 ** rank - 1


def powersets_equivalent(m, n, rank):
    """Powerset algebras on m, n atoms are rank-r equivalent iff m = n or
    both have at least 2^r atoms."""
    return m == n or min(m, n) >= 2 ** rank


def _game_ops(rng):
    ops = []
    # finite orders: one rank-6 pair against 128 points carries the cold
    # cost of the game types (about 1 s).  Each pair's verdict is fixed: a
    # true verdict compares two equal nested type sets in full, ~80 ms warm
    # at rank 6 against ~4 ms for a false one, so a seeded verdict would
    # move the cost of every pass
    for i, (rank, m, n) in enumerate((
        (6, rng.randint(64, 127), 128),
        (5, rng.randint(31, 48), rng.randint(31, 48)),
        (4, rng.randint(3, 13), rng.randint(15, 30)),
    )):
        ops.append(_verdict_op(f"ef.orders.{i}", ["ef", "--kind", "orders", "--rank", str(rank), str(m), str(n)],
                               orders_equivalent(m, n, rank), "efgames",
                               lambda tr, m=m, n=n, r=rank: tr.call("efgames.ef_orders", ef_finite_orders, m, n, r)))
    # ordinals: finite pairs, respellings, equivalent pairs, finite vs limit
    rank = rng.randint(2, 4)
    m, n = rng.randint(0, 2 ** rank + 2), rng.randint(0, 2 ** rank + 2)
    a = _ordinal_upto_omega(rng)
    residue = om.random_ordinal(rng, 1, 2)
    limit = tuple(t for t in _ordinal_upto_omega(rng) if t[0] != om.ZERO) or om.OMEGA
    cases = [
        (om.nat(m), om.to_text(om.nat(m)), om.nat(n), orders_equivalent(m, n, rank)),
        (a, om.to_text(a), a, True),
        (om.add(((om.OMEGA, rng.randint(1, 3)),), residue), None,
         om.add(((om.OMEGA, rng.randint(1, 3)),), residue), True),
        (om.nat(rng.randint(1, 12)), None, limit, False),
    ]
    for i, (a, text_a, b, expected) in enumerate(cases):
        text_b = om.respell(rng, b)
        pa, pb = program_ordinal(a), program_ordinal(b)
        r = rank if i == 0 else rng.randint(2, 4)
        ops.append(_verdict_op(f"ef.ordinals.{i}",
                               ["ef", "--kind", "ordinals", "--rank", str(r), text_a or om.to_text(a), text_b],
                               expected, "efgames",
                               lambda tr, pa=pa, pb=pb, r=r: tr.call("efgames.ef_ordinals", ef_ordinals, pa, pb, r)))
    for i in range(2):
        rank, m, n = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 5)
        ops.append(_verdict_op(f"ef.ba.{i}", ["ef", "--kind", "ba", "--rank", str(rank), str(m), str(n)],
                               powersets_equivalent(m, n, rank), "efgames",
                               lambda tr, m=m, n=n, r=rank: tr.call(
                                   "efgames.ef_bas", ef_finite_bas, FiniteBoolAlg(m), FiniteBoolAlg(n), r)))
    return ops


# ---------------------------------------------------------------------------
# Boolean-theory classification
# ---------------------------------------------------------------------------


def random_descriptor(rng, depth=2):
    """(text, program descriptor, invariant triple) of a random descriptor.

    The invariant is the last nontrivial stage of the derivative chain:
    finite(n) -> (0, n, F); fincof -> (1, 1, F); P(omega) -> (1, 0, T);
    P(omega)/fin and free -> (0, 0, T); intalg(w^e*c + ...) -> (e, c, F).
    A product's last stage is the product of its factors' stages at the
    largest level.
    """
    kind = rng.randrange(7 if depth > 1 else 6)
    if kind == 0:
        n = rng.randint(1, 6)
        return f"finite({n})", Finite(n), (0, n, False)
    if kind == 1:
        return "fincof", FinCof(), (1, 1, False)
    if kind == 2:
        return "P(omega)", PowersetOmega(), (1, 0, True)
    if kind == 3:
        return "P(omega)/fin", PowersetModFin(), (0, 0, True)
    if kind == 4:
        return "free", FreeAtomless(), (0, 0, True)
    if kind == 5:
        alpha = om.random_ordinal(rng, 1, 3, 3, 3)
        lead, coeff = alpha[0]
        level = lead[0][1] if lead else 0
        return f"intalg({om.to_text(alpha)})", IntervalAlgebra(program_ordinal(alpha)), (level, coeff, False)
    factors = [random_descriptor(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    top = max(inv[0] for _, _, inv in factors)
    last = [inv for _, _, inv in factors if inv[0] == top]
    invariant = (top, sum(inv[1] for inv in last), any(inv[2] for inv in last))
    text = "prod(" + ",".join(t for t, _, _ in factors) + ")"
    return text, Product(tuple(d for _, d, _ in factors)), invariant


def _triple(payload_inv):
    return payload_inv["level"], payload_inv["atom_count"], payload_inv["atomless"]


def _classification_ops(rng):
    ops = []
    for i in range(3):
        (ta, da, ia), (tb, db, ib) = random_descriptor(rng), random_descriptor(rng)
        if i == 0:
            tb, db, ib = ta, da, ia

        def check(out, ia=ia, ib=ib):
            payload = _payload(out)
            got = (_triple(payload["invariants"]["left"]), _triple(payload["invariants"]["right"]))
            require(got == (ia, ib), f"invariants {got}, expected {(ia, ib)}")
            require(payload["verdict"] is (ia == ib), "ba-eq disagrees with equality of the invariants")

        def direct(tr, da=da, db=db):
            tr.call("batheory", ba_equiv, da, db)
            tr.call("batheory", ershov_invariants, da)
            tr.call("batheory", ershov_invariants, db)
            if isinstance(da, Finite) and isinstance(db, Finite) and max(da.atoms, db.atoms) <= 4:
                tr.call("efgames.ef_bas", ef_finite_bas, FiniteBoolAlg(da.atoms), FiniteBoolAlg(db.atoms), 3)
            tr.call("batheory", classification_conflict, da, db)

        ops.append(Op(f"ba-eq.{i}", _cli(["ba-eq", ta, tb]), check, "batheory", direct=direct))
    for i in range(2):
        text, d, inv = random_descriptor(rng)

        def check(out, inv=inv):
            payload = _payload(out)
            require(_triple(payload["value"]) == inv, f"invariants {payload['value']}, expected {inv}")
            require(len(payload["derivative_chain"]) == inv[0] + 2, "derivative chain length is not level + 2")

        def direct(tr, d=d):
            tr.call("batheory", ershov_invariants, d)
            tr.call("batheory", derivative_chain, d)

        ops.append(Op(f"ba-invariants.{i}", _cli(["ba-invariants", text]), check,
                      "batheory", direct=direct))
    count = rng.randint(20, 200)

    def check_enumeration(out):
        triples = [_triple(v) for v in _payload(out)["value"]]
        require(len(triples) == count, f"{len(triples)} theories, asked for {count}")
        require(len(set(triples)) == count, "enumerated theories repeat")
        require(all(n >= 1 or (n == 0 and flag) for _, n, flag in triples), "an unrealizable triple")

    ops.append(Op("ba-enumerate", _cli(["ba-enumerate", str(count)]), check_enumeration,
                  "batheory", direct=lambda tr: tr.call("batheory", enumerate_theories, count)))
    atoms = rng.randint(1, 6)

    def check_stone(out):
        payload = _payload(out)
        require(payload["value"] == {"space_points": atoms, "roundtrip": True}, f"stone {payload['value']}")
        require(payload["cross_checks"]["functoriality_agrees"] is True, "functoriality fails")

    # the handler's functoriality sampling has no single library call to
    # repeat, so stone has no direct counterpart and no frontend share
    ops.append(Op("stone", _cli(["stone", str(atoms)]), check_stone, "boolalg"))
    return ops


# ---------------------------------------------------------------------------
# Spectra and coding
# ---------------------------------------------------------------------------


def _text(z):
    return repr(complex(z)).strip("()")


def _random_element(rng, n, palette):
    return tuple(rng.choice(palette) for _ in range(n))


def _spectral_ops(rng):
    ops = []
    palette = [complex(a, b) / 4 for a in range(-2, 3) for b in range(-2, 3)]
    for i in range(2):
        n, k = rng.randint(2, 5), rng.randint(1, 3)
        elements = tuple(_random_element(rng, n, palette[::3]) for _ in range(k))
        spectrum = {tuple(e[x] for e in elements) for x in range(n)}

        def check(out, spectrum=spectrum):
            got = {tuple(complex(v) for v in lam) for lam in _payload(out)["value"]}
            require(got == spectrum, "joint spectrum differs from the value tuples")

        ops.append(Op(f"jspec.{i}", _cli(["jspec", *(_arg(",".join(map(_text, e))) for e in elements)]),
                      check, "cstar", direct=lambda tr, e=elements: tr.call("cstar", joint_spectrum, e)))
        lam = rng.choice(sorted(spectrum, key=repr)) if i == 0 else _random_element(rng, k, palette)
        member = lam in spectrum

        def check_member(out, member=member):
            require(_payload(out)["verdict"] is member, f"fmember says {not member}")

        def direct(tr, e=elements, lam=lam):
            tr.call("cstar", singular_cross_checks, e, lam)
            tr.call("cstar", spectrum_indicator, e, lam)

        argv = ["fmember", *(_arg(",".join(map(_text, e))) for e in elements), "--at", _arg(",".join(map(_text, lam)))]
        ops.append(Op(f"fmember.{i}", _cli(argv), check_member, "cstar", direct=direct))
    disc = [z for z in (complex(a, b) / 16 for a in range(-16, 17) for b in range(-16, 17)) if abs(z) <= 1]
    for i in range(2):
        element = _random_element(rng, rng.randint(2, 5), disc)
        m = rng.choice((4, 8))
        ops.append(_code_op(f"code.{i}", element, m))
    return ops


def _within(v, y, m):
    """|v - y| < 1/m, exactly."""
    d = complex(v) - complex(y)
    return (Fraction(d.real) ** 2 + Fraction(d.imag) ** 2) * m * m < 1


def preimages(element, m):
    """Grid point y -> the points x with |element(x) - y| < 1/m, where any."""
    out = {}
    for j1 in range(-m, m + 1):
        for j2 in range(-m, m + 1):
            y = complex(j1, j2) / m
            points = sorted(x for x, v in enumerate(element) if _within(v, y, m))
            if points:
                out[y] = points
    return out


def _code_op(name, element, m):
    argv = ["code", _arg(",".join(map(_text, element))), "--scale", str(m), "--reconstruct"]
    expected = []  # computed at the first check, outside set-up

    def check(out):
        payload = _payload(out)
        got = {complex(c["grid_point"]): c["points"] for c in payload["value"]}
        if not expected:
            expected.append(preimages(element, m))
        require(got == expected[0], "code sets differ from the preimages of the 1/m-balls")
        recovered = [complex(v) for v in payload["reconstruction"]["element"]]
        require(len(recovered) == len(element) and all(_within(v, r, m) for v, r in zip(element, recovered)),
                "reconstruction is not within 1/m at every point")
        require(payload["reconstruction"]["error"] <= payload["reconstruction"]["bound"], "error above bound")

    def direct(tr):
        codes = tr.call("cstar", clopen_code, element, m)
        recovered = tr.call("cstar", reconstruct, codes)
        tr.call("cstar", c_norm, tr.call("cstar", c_sub, element, recovered))

    return Op(name, _cli(argv), check, "cstar", direct=direct)


# ---------------------------------------------------------------------------


def build(seed):
    rng = random.Random(f"decide-{seed}")
    ops = _arith_ops(rng) + _equivalence_ops(rng) + _game_ops(rng) + _classification_ops(rng) + _spectral_ops(rng)
    rng.shuffle(ops)
    return ops


def warm_up():
    """What every shell invocation pays before its verb runs: building the
    argument parser (here through a call that stops at the missing verb)."""
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main([])


class Counters(BaseCounters):
    """In the traced run, repeats each operation's library calls directly."""

    def layer_metrics(self, spans, n_ops):
        main, lib, layer = {}, {}, {}
        for name, op_id, t in spans:
            if name == "cli.main":
                main[op_id] = t
            elif name != "op":
                lib[op_id] = lib.get(op_id, 0.0) + t
                if op_id < n_ops:
                    layer.setdefault(name, {}).setdefault(op_id, 0.0)
                    layer[name][op_id] += t
        # both sides are warm only after the first pass
        frontend = [main[i] - lib.get(i, 0.0) for i in main
                    if i >= n_ops and self.ops[i % n_ops].direct is not None]
        out = {"cli.frontend.ms_per_op": mean_ms(frontend)}
        for name in ("ordinals", "batheory", "cstar", "efgames.ef_orders", "efgames.ef_ordinals", "efgames.ef_bas"):
            out[f"{name}.ms_per_op"] = mean_ms(list(layer.get(name, {}).values()))
        return out
