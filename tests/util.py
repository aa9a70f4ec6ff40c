"""Small shared helpers for the test suite."""

from __future__ import annotations

import pickle
import re
from itertools import combinations, product

import pytest

from elemeq import boolalg
from elemeq.batheory import (
    OMEGA_ATOMS,
    ErshovInvariant,
    FinCof,
    Finite,
    FreeAtomless,
    IntervalAlgebra,
    PowersetModFin,
    PowersetOmega,
    Product,
    Trivial,
    _Named,
)
from elemeq.clogic import CAdd, CConst, CMul, COne, CScale, CStar, CSub, CVar, CZero, eval_term
from elemeq.errors import ParseError, PreconditionError, ResourceBudgetError
from elemeq.ordinals import (
    MAX_COEFF_DIGITS, ONE, Ordinal, ZERO, cnf_string, compare, finite, left_difference, omega_power, ord_add,
    ord_mul,
)


def mk(pairs: list[tuple[int, int]]) -> Ordinal:
    """Ordinal from (finite exponent, coefficient) pairs, decreasing exps."""
    return Ordinal(tuple((finite(e), c) for e, c in pairs))


def pairs_of(alpha: Ordinal) -> tuple[tuple[int, int], ...]:
    """Inverse of :func:`mk`; requires all exponents finite."""
    return tuple((e.to_int(), c) for e, c in alpha.terms)


def below_omega_cubed(max_terms: int = 3, max_coeff: int = 4) -> list[Ordinal]:
    """All ordinals < w^3 with at most ``max_terms`` terms and bounded coeffs."""
    out = [ZERO]
    for nterms in range(1, max_terms + 1):
        for exps in combinations((2, 1, 0), nterms):
            for coeffs in product(range(1, max_coeff + 1), repeat=nterms):
                out.append(mk(list(zip(exps, coeffs))))
    return out


def w(exp: int, coeff: int = 1) -> Ordinal:
    return omega_power(finite(exp), coeff)


def nat(n: int) -> Ordinal:
    return finite(n)


def osum(*parts: Ordinal) -> Ordinal:
    total = ZERO
    for p in parts:
        total = ord_add(total, p)
    return total


TERM_NAMES = ("x", "y", "z")


def random_element(rng, n):
    return tuple(
        complex(rng.choice((-1.0, 0.0, 0.5, 1.0)), rng.choice((0.0, 0.25, -1.0)))
        for _ in range(n)
    )


def random_term(rng, n, depth):
    """A *-polynomial over ``TERM_NAMES`` with every kind of node."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(5)
        if pick < 2:
            return CVar(rng.choice(TERM_NAMES))
        return (CZero(), COne(), CConst(random_element(rng, n)))[pick - 2]
    kind = rng.randrange(5)
    if kind == 0:
        return CStar(random_term(rng, n, depth - 1))
    if kind == 1:
        scalar = complex(rng.choice((0.5, -2.0, 1.0)), rng.choice((0.0, 0.75)))
        return CScale(scalar, random_term(rng, n, depth - 1))
    op = (CAdd, CSub, CMul)[kind - 2]
    return op(random_term(rng, n, depth - 1), random_term(rng, n, depth - 1))


def eval_with_own_scale(term, env, algebra, arith, scale, walk=eval_term):
    """``eval_term`` with each scaling by ``scale`` (s, value) -> s value, the rule
    each arithmetic stated for itself, instead of a product with a constant."""
    if isinstance(term, CScale):
        return scale(complex(term.scalar), eval_with_own_scale(term.arg, env, algebra, arith, scale, walk))
    if isinstance(term, (CAdd, CSub, CMul)):
        op = {CAdd: arith.add, CSub: arith.sub, CMul: arith.mul}[type(term)]
        left = eval_with_own_scale(term.left, env, algebra, arith, scale, walk)
        return op(left, eval_with_own_scale(term.right, env, algebra, arith, scale, walk))
    if isinstance(term, CStar):
        return arith.conj(eval_with_own_scale(term.arg, env, algebra, arith, scale, walk))
    return walk(term, env, algebra, arith)  # a leaf


def check_node_shape(classes, args, fields, text):
    """Pin one node shape shared by ``classes``, built from ``args``.

    Each class keeps the field names ``fields``, the repr ``text`` (for the
    first class), a constructor that takes exactly its fields, frozen fields,
    pickling, and an ``==`` and ``hash`` that tell the classes apart on equal
    fields, as the memos keyed on nodes need.
    """
    nodes = [cls(*args) for cls in classes]
    assert len(set(nodes)) == len(nodes)
    for a, b in combinations(nodes, 2):
        assert a != b
    for cls, node in zip(classes, nodes):
        assert repr(node) == cls.__name__ + text[len(classes[0].__name__):]
        assert node._fields == fields
        assert tuple(getattr(node, name) for name in fields) == args
        assert node == cls(*args) and hash(node) == hash(cls(*args))
        assert pickle.loads(pickle.dumps(node)) == node
        with pytest.raises(TypeError):
            cls(*args, None)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(node, name, None)


def check_frozen_nodes(nodes, shapes):
    """Every node refuses to set or delete any attribute, fields and new
    names alike, and ``nodes`` covers every subclass of each of ``shapes``."""
    covered = {type(node) for node in nodes}
    for shape in shapes:
        assert set(shape.__subclasses__()) <= covered, shape
    for node in nodes:
        state = tuple(node)
        for name in node._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert tuple(node) == state and not hasattr(node, "extra"), node


def reference_term(t, full, env):
    """The value of a Boolean-algebra term under ``env``, by a direct walk."""
    if isinstance(t, boolalg.TVar):
        return env[t.name]
    if isinstance(t, boolalg.TZero):
        return 0
    if isinstance(t, boolalg.TOne):
        return full
    if isinstance(t, boolalg.TMeet):
        return reference_term(t.left, full, env) & reference_term(t.right, full, env)
    if isinstance(t, boolalg.TJoin):
        return reference_term(t.left, full, env) | reference_term(t.right, full, env)
    assert isinstance(t, boolalg.TCompl), t
    return full & ~reference_term(t.arg, full, env)


def reference_fo_eval(phi, b, env):
    """Truth of ``phi`` in ``b`` under ``env`` by a direct exhaustive walk of
    every node at every assignment: the reference ``boolalg.fo_eval`` is
    compared with.  It keeps nothing of ``fo_eval``'s compile walk (no
    vacuous quantifier is dropped) and leaves ``env`` as it found it."""
    if isinstance(phi, boolalg.Eq):
        return reference_term(phi.left, b.full, env) == reference_term(phi.right, b.full, env)
    if isinstance(phi, boolalg.Le):
        s, t = reference_term(phi.left, b.full, env), reference_term(phi.right, b.full, env)
        return s & ~t == 0
    if isinstance(phi, boolalg.Not):
        return not reference_fo_eval(phi.arg, b, env)
    if isinstance(phi, boolalg.And):
        return reference_fo_eval(phi.left, b, env) and reference_fo_eval(phi.right, b, env)
    if isinstance(phi, boolalg.Or):
        return reference_fo_eval(phi.left, b, env) or reference_fo_eval(phi.right, b, env)
    if isinstance(phi, boolalg.Implies):
        return not reference_fo_eval(phi.left, b, env) or reference_fo_eval(phi.right, b, env)
    assert isinstance(phi, (boolalg.Forall, boolalg.Exists)), phi
    values = (reference_fo_eval(phi.body, b, {**env, phi.var: a}) for a in b.elements())
    return any(values) if isinstance(phi, boolalg.Exists) else all(values)


def shadowed_sentences(rng, corpus, count):
    """Sentences ``Q x. (s op a)`` with ``s`` a corpus sentence binding x
    itself and ``a`` an atom read after ``s``, so under the outer x."""
    x, zero = boolalg.TVar("x"), boolalg.TZero()
    atoms = [boolalg.Eq(x, zero), boolalg.Eq(x, boolalg.TOne()), boolalg.Le(boolalg.TCompl(x), x),
             boolalg.Not(boolalg.Eq(boolalg.TMeet(x, x), zero))]
    inner = [phi for phi in corpus
             if isinstance(phi, (boolalg.Forall, boolalg.Exists)) and phi.var == "x"]
    out = []
    for _ in range(count):
        op = rng.choice((boolalg.And, boolalg.Or, boolalg.Implies))
        body = op(rng.choice(inner), rng.choice(atoms))
        out.append(rng.choice((boolalg.Forall, boolalg.Exists))("x", body))
    return out


# ---------------------------------------------------------------------------
# Reference ordinal parser: a token stream with a position per token, read by
# a recursive grammar that builds every term as an ``Ordinal`` and joins the
# terms with its own left-to-right ordinal addition.  ``cli.parse_ordinal``
# must give equal values, and the same exception, message and position.
# ---------------------------------------------------------------------------


def reference_tokenize(text, pattern):
    """Longest-match tokens with positions; rejects unknown characters."""
    tokens, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = pattern.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos)
        tokens.append((match.group(), pos))
        pos = match.end()
    return tokens


class ReferenceTokenStream:
    def __init__(self, text, pattern):
        self.text = text
        self.tokens = reference_tokenize(text, pattern)
        self.index = 0

    def peek(self):
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def position(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token[0]

    def expect(self, token):
        if self.peek() != token:
            raise ParseError(f"expected {token!r}", position=self.position())
        return self.advance()

    def expect_end(self):
        if self.peek() is not None:
            raise ParseError(f"unexpected trailing {self.peek()!r}", position=self.position())


def reference_ord_add(a, b):
    """a + b: the terms of a above b's leading exponent, then b, merging one
    coefficient at an equal exponent."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    eb = b.terms[0][0]
    keep = []
    merge_coeff = 0
    for exponent, coeff in a.terms:
        c = compare(exponent, eb)
        if c > 0:
            keep.append((exponent, coeff))
        elif c == 0:
            merge_coeff = coeff
            break
        else:
            break
    head = b.terms[0]
    merged = (head[0], head[1] + merge_coeff)
    return Ordinal(tuple(keep) + (merged,) + b.terms[1:])


REFERENCE_ORD_PATTERN = re.compile(r"\d+|[w^*+()]")


def reference_parse_ordinal(text):
    stream = ReferenceTokenStream(text, REFERENCE_ORD_PATTERN)
    total = _reference_ordinal_sum(stream)
    stream.expect_end()
    return total


def _reference_ordinal_sum(stream):
    total = _reference_ordinal_term(stream)
    while stream.peek() == "+":
        stream.advance()
        total = reference_ord_add(total, _reference_ordinal_term(stream))
    return total


def _reference_ordinal_term(stream):
    token = stream.peek()
    if token is None:
        raise ParseError("expected an ordinal term", position=stream.position())
    if token != "w" and not token.isdigit():
        raise ParseError(f"expected 'w' or a natural, got {token!r}", position=stream.position())
    base = _reference_ordinal_exponent(stream)
    if token != "w" or stream.peek() != "*":
        return base
    stream.advance()
    token = stream.peek()
    if token is None or not token.isdigit():
        raise ParseError("expected a natural coefficient after '*'", position=stream.position())
    return ord_mul(base, finite(_reference_natural(stream.advance())))


def _reference_natural(token):
    if len(token) > MAX_COEFF_DIGITS:
        raise ResourceBudgetError(f"a natural of over {MAX_COEFF_DIGITS} digits")
    return int(token)


def _reference_ordinal_exponent(stream):
    token = stream.peek()
    if token == "(":
        stream.advance()
        inner = _reference_ordinal_sum(stream)
        stream.expect(")")
        return inner
    if token is not None and token.isdigit():
        stream.advance()
        return finite(_reference_natural(token))
    if token == "w":
        stream.advance()
        if stream.peek() == "^":
            stream.advance()
            return omega_power(_reference_ordinal_exponent(stream))
        return omega_power(finite(1))
    raise ParseError("expected an exponent after '^'", position=stream.position())


# ---------------------------------------------------------------------------
# Reference Boolean-algebra classification: one walker per structural fact
# (atoms, atomless elements, derivative), the named descriptors in a table of
# their own, and a conflict note that decides the equivalence again and then
# asks each fact of each input.  ``batheory`` reads all of them off one walk,
# and must give equal values and the same exception and message.
# ---------------------------------------------------------------------------

REFERENCE_NAMED_DESCRIPTORS = {
    "trivial": Trivial,
    "fincof": FinCof,
    "P(omega)": PowersetOmega,
    "P(omega)/fin": PowersetModFin,
    "free": FreeAtomless,
}
REFERENCE_MAX_CHAIN_LENGTH = 64


def _reference_check_descriptor(d):
    if not isinstance(d, (_Named, Finite, IntervalAlgebra, Product)):
        raise PreconditionError(f"not a descriptor: {d!r}")


def reference_format_descriptor(d):
    for name, kind in REFERENCE_NAMED_DESCRIPTORS.items():
        if isinstance(d, kind):
            return name
    if isinstance(d, Finite):
        return f"finite({d.atoms})"
    if isinstance(d, IntervalAlgebra):
        return f"intalg({cnf_string(d.alpha)})"
    if isinstance(d, Product):
        return "prod(" + ",".join(reference_format_descriptor(f) for f in d.factors) + ")"
    raise PreconditionError(f"not a descriptor: {d!r}")


def _reference_add_counts(a, b):
    if a == OMEGA_ATOMS or b == OMEGA_ATOMS:
        return OMEGA_ATOMS
    return a + b


def reference_atom_count(d):
    if isinstance(d, Trivial):
        return 0
    if isinstance(d, Finite):
        return d.atoms
    if isinstance(d, (FinCof, PowersetOmega)):
        return OMEGA_ATOMS
    if isinstance(d, (PowersetModFin, FreeAtomless)):
        return 0
    if isinstance(d, IntervalAlgebra):
        return d.alpha.to_int() if d.alpha.is_finite() else OMEGA_ATOMS
    if isinstance(d, Product):
        total = 0
        for f in d.factors:
            total = _reference_add_counts(total, reference_atom_count(f))
        return total
    raise PreconditionError(f"not a descriptor: {d!r}")


def reference_has_atomless_element(d):
    if isinstance(d, (PowersetModFin, FreeAtomless)):
        return True
    if isinstance(d, Product):
        return any(reference_has_atomless_element(f) for f in d.factors)
    _reference_check_descriptor(d)
    return False


def _reference_interval_derivative(alpha):
    lowered = tuple((left_difference(ONE, e), c) for e, c in alpha.terms if not e.is_zero())
    if not lowered:
        return Trivial()
    return IntervalAlgebra(Ordinal(lowered))


def reference_ba_derivative(d):
    if isinstance(d, (Trivial, Finite, FreeAtomless)):
        return Trivial()
    if isinstance(d, FinCof):
        return Finite(1)
    if isinstance(d, PowersetOmega):
        return PowersetModFin()
    if isinstance(d, PowersetModFin):
        return Trivial()
    if isinstance(d, IntervalAlgebra):
        return _reference_interval_derivative(d.alpha)
    if isinstance(d, Product):
        survivors = tuple(
            out for out in (reference_ba_derivative(f) for f in d.factors) if not isinstance(out, Trivial)
        )
        if not survivors:
            return Trivial()
        return Product(survivors)
    raise PreconditionError(f"not a descriptor: {d!r}")


def reference_derivative_chain(d):
    chain = [d]
    while not isinstance(chain[-1], Trivial):
        if len(chain) > REFERENCE_MAX_CHAIN_LENGTH:
            raise ResourceBudgetError("derivative chain exceeded the hard cap")
        chain.append(reference_ba_derivative(chain[-1]))
    return chain


def reference_ershov_invariants(d):
    chain = reference_derivative_chain(d)
    if len(chain) == 1:
        return ErshovInvariant(0, 0, False)
    last = chain[-2]
    return ErshovInvariant(len(chain) - 2, reference_atom_count(last), reference_has_atomless_element(last))


def reference_classification_conflict(d1, d2):
    if reference_ershov_invariants(d1) == reference_ershov_invariants(d2):
        return None
    if reference_has_atomless_element(d1) or reference_has_atomless_element(d2):
        return None
    if not (reference_atom_count(d1) == OMEGA_ATOMS and reference_atom_count(d2) == OMEGA_ATOMS):
        return None
    inv1, inv2 = reference_ershov_invariants(d1), reference_ershov_invariants(d2)
    return {
        "kind": "classification-conflict",
        "status": "unresolved",
        "claim": (
            "an external claim asserts that infinite atomic Boolean algebras "
            "whose atoms are dense all have elementarily equivalent function "
            "algebras; the invariant computation distinguishes these two"
        ),
        "left": {"descriptor": reference_format_descriptor(d1), "invariants": inv1.as_tuple()},
        "right": {"descriptor": reference_format_descriptor(d2), "invariants": inv2.as_tuple()},
        "note": (
            "the verdict reports the invariant computation; the conflicting "
            "claim is documented, not adjudicated"
        ),
    }
