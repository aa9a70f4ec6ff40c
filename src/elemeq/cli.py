"""Command-line front end for every decision procedure in the package.

Sixteen verbs expose the ordinal calculator, the back-and-forth game
solvers, the Boolean-theory classifier, the spectral and coding tools,
the certified continuous-formula evaluator, chain interpolation, and the
type-realization engine.  Three text grammars are provided: ordinal
normal forms (``w^w*2 + 3``), infix classical formulas over Boolean
terms (``forall x. x /\\ x = x``), and s-expression continuous formulas
(``(sup p :proj (norm (- (* p p) p)))``).

Exit codes separate outcome channels so pipelines never have to parse
prose: 0 = computed (including ``false`` verdicts), 2 = malformed or
precondition-violating input, 3 = a semantic negative (``NotFound`` /
``Unsatisfiable``), 4 = a search budget ran out.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import random
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from elemeq.batheory import (
    _NAMED_KINDS,
    Finite,
    IntervalAlgebra,
    Product,
    ba_equiv,
    classification_conflict,
    derivative_chain,
    enumerate_theories,
    ershov_invariants,
    format_descriptor,
)
from elemeq.boolalg import (
    And,
    Eq,
    Exists,
    FiniteBoolAlg,
    FiniteSpace,
    Forall,
    Implies,
    Le,
    Not,
    Or,
    SpaceMap,
    TCompl,
    TJoin,
    TMeet,
    TOne,
    TVar,
    TZero,
    clopen_algebra,
    compose_maps,
    dual_morphism,
    quantifier_rank,
    stone_space,
)
from elemeq.clogic import (
    DEFAULT_MAX_BOXES,
    DEFAULT_TOL,
    CAdd,
    CConst,
    CMul,
    COne,
    CScale,
    CStar,
    CSub,
    CVar,
    CZero,
    FAbsDiff,
    FConst,
    FInf,
    FMax,
    FMin,
    FNorm,
    FPlus,
    FScale,
    FSup,
    FTruncSub,
    SORT_BALL,
    SORT_POS,
    SORT_PROJ,
    SORT_SA,
    ceval,
    translate_fo,
)
from elemeq.cstar import (
    CStarAlgebraFin,
    c_norm,
    c_sub,
    clopen_code,
    joint_spectrum,
    reconstruct,
    singular_cross_checks,
    spectrum_indicator,
)
from elemeq.efgames import ef_finite_bas, ef_finite_orders, ef_ordinals
from elemeq.errors import ParseError, PreconditionError, ResourceBudgetError
from elemeq.ordinals import (
    MAX_COEFF_DIGITS,
    ONE,
    ZERO,
    Ordinal,
    calkin_equiv,
    cnf_string,
    finite,
    omega_power,
    ord_add,
    ord_equiv,
    ord_mul,
    ord_pow,
    ord_sum,
)

# ``elemeq.saturation`` loads numpy (~72 ms and ~12 MB a process), so only
# the functions that use it import it.
if TYPE_CHECKING:
    from elemeq.saturation import CylinderElement, TypeCondition

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4
DEFAULT_SEED = 2026


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------


class _TokenStream:
    """The longest-match tokens of ``text``, from one ``findall``.

    No token holds a blank, so the tokens read every other character exactly
    when they join to the text without its blanks; if not, the first character
    that no token covers is refused.  Positions come from one ``finditer``,
    once one is asked for.
    """

    def __init__(self, text: str, pattern: re.Pattern):
        self.text, self.pattern, self.index, self.starts = text, pattern, 0, None
        self.tokens = pattern.findall(text)
        if "".join(self.tokens) != "".join(text.split()):
            left = pattern.sub(lambda match: " " * len(match.group()), text).lstrip()
            raise ParseError(f"unexpected character {left[0]!r}", position=len(text) - len(left))

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def position(self, index: int = None) -> int:
        """Where token ``index`` (by default the next) starts, or the text's end."""
        if self.starts is None:
            self.starts = [match.start() for match in self.pattern.finditer(self.text)] + [len(self.text)]
        return self.starts[self.index if index is None else index]

    def advance(self):
        self.index += 1
        return self.tokens[self.index - 1]

    def expect(self, token: str):
        if self.peek() != token:
            raise ParseError(f"expected {token!r}", position=self.position())
        return self.advance()

    def expect_end(self):
        if self.peek() is not None:
            raise ParseError(f"unexpected trailing {self.peek()!r}", position=self.position())


# ---------------------------------------------------------------------------
# Ordinal grammar: 0, naturals, w, w^<exp>, *<nat>, + between terms
# ---------------------------------------------------------------------------

_ORD_PATTERN = re.compile(r"\d+|[w^*+()]")


def parse_ordinal(text: str) -> Ordinal:
    """Parse ``w^w*2 + w^2*3 + 5`` style notation into normal form.

    Unsorted or duplicated terms are legal input: each sum's terms w^e * c
    fold right to left by :func:`ord_sum`, the rule of ordinal addition, so
    a term vanishes under a larger exponent after it and coefficients add at
    an equal one (``w + w`` equals ``w*2``, and ``1 + w`` equals ``w``).
    """
    stream = _TokenStream(text, _ORD_PATTERN)
    total, stream.index = _parse_ordinal_sum(stream, stream.tokens + [""], 0)
    stream.expect_end()
    return total


def _parse_ordinal_sum(stream: _TokenStream, tokens: list, i: int) -> tuple:
    """The sum from token ``i`` of ``tokens`` (ending in ""), and the index after it."""
    terms = []
    while True:
        token = tokens[i]
        if token == "w":  # w with its exponent chain and a natural coefficient
            exponent, i = _parse_ordinal_exponent(stream, tokens, i + 2) if tokens[i + 1] == "^" else (ONE, i + 1)
            coeff = 1
            if tokens[i] == "*":
                if not tokens[i + 1].isdigit():
                    raise ParseError("expected a natural coefficient after '*'", position=stream.position(i + 1))
                coeff, i = _natural(tokens[i + 1]), i + 2
        elif token.isdigit():
            exponent, coeff, i = ZERO, _natural(token), i + 1
        elif not token:
            raise ParseError("expected an ordinal term", position=stream.position(i))
        else:
            raise ParseError(f"expected 'w' or a natural, got {token!r}", position=stream.position(i))
        terms.append((exponent, coeff))
        if tokens[i] != "+":
            return ord_sum(terms), i
        i += 1


def _natural(token: str) -> int:
    """A natural literal, refused as over budget where ``int`` would not read it."""
    if len(token) > MAX_COEFF_DIGITS:
        raise ResourceBudgetError(f"a natural of over {MAX_COEFF_DIGITS} digits")
    return int(token)


def _parse_ordinal_exponent(stream: _TokenStream, tokens: list, i: int) -> tuple:
    """A bare exponent from token ``i``, and the index after it: a natural, a right-associative
    ``w^...`` chain (no coefficient — ``w^w*2`` is ``(w^w)*2``), or a parenthesized sum."""
    token = tokens[i]
    if token == "(":
        inner, i = _parse_ordinal_sum(stream, tokens, i + 1)
        if tokens[i] != ")":
            raise ParseError("expected ')'", position=stream.position(i))
        return inner, i + 1
    if token == "w":
        exponent, i = _parse_ordinal_exponent(stream, tokens, i + 2) if tokens[i + 1] == "^" else (ONE, i + 1)
        return omega_power(exponent), i
    if token.isdigit():
        return finite(_natural(token)), i + 1
    raise ParseError("expected an exponent after '^'", position=stream.position(i))


# ---------------------------------------------------------------------------
# Classical formula grammar (infix)
#
#   formula := 'forall' v '.' formula | 'exists' v '.' formula | chain
#   chain := unit, joined by the connectives '->' (right-associative),
#            then '|', then '&' (left-associative), loosest first
#   unit := '!' unit | atom | '(' formula ')'
#   atom := term ('=' | '<=') term
#   term := tunit, joined by '\/', then '/\' (left-associative)
#   tunit := '~' tunit | '(' term ')' | '0' | '1' | var
#
# Every variable must be bound by an enclosing quantifier.  The parser and
# format_fo read the same vocabulary tables.
# ---------------------------------------------------------------------------

_FO_PATTERN = re.compile(r"->|<=|/\\|\\/|[A-Za-z_][A-Za-z0-9_]*|[=&|!~().01]")
_FO_QUANTIFIERS = {"forall": Forall, "exists": Exists}
_FO_RELATIONS = {"=": Eq, "<=": Le}
#: Precedence tables, loosest first: (token, node, right-associative).
_FO_CONNECTIVES = (("->", Implies, True), ("|", Or, False), ("&", And, False))
_TERM_OPERATORS = (("\\/", TJoin, False), ("/\\", TMeet, False))
#: Node type -> token, for format_fo.
_FO_TOKEN = {
    node: token
    for token, node, *_ in (*_FO_QUANTIFIERS.items(), *_FO_RELATIONS.items(), *_FO_CONNECTIVES,
                            *_TERM_OPERATORS, ("!", Not), ("~", TCompl), ("0", TZero), ("1", TOne))
}


def parse_fo_formula(text: str):
    """Parse an infix classical sentence such as ``forall x. x /\\ x = x``."""
    stream = _TokenStream(text, _FO_PATTERN)
    phi = _parse_fo(stream, [])
    stream.expect_end()
    return phi


def _is_variable(token) -> bool:
    return (
        token is not None
        and token not in _FO_QUANTIFIERS
        and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token) is not None
    )


def _parse_fo(stream: _TokenStream, bound: list):
    if stream.peek() in _FO_QUANTIFIERS:
        node = _FO_QUANTIFIERS[stream.advance()]
        var = stream.peek()
        if not _is_variable(var):
            raise ParseError("expected a variable after quantifier", position=stream.position())
        stream.advance()
        stream.expect(".")
        return node(var, _parse_fo(stream, bound + [var]))
    return _parse_chain(stream, bound, _FO_CONNECTIVES, _parse_unit)


def _parse_chain(stream: _TokenStream, bound: list, table: tuple, unit, level: int = 0):
    """Parse operators ``table[level:]`` (loosest first) over ``unit``."""
    if level == len(table):
        return unit(stream, bound)
    token, node, right_assoc = table[level]
    left = _parse_chain(stream, bound, table, unit, level + 1)
    while stream.peek() == token:
        stream.advance()
        if right_assoc:
            return node(left, _parse_chain(stream, bound, table, unit, level))
        left = node(left, _parse_chain(stream, bound, table, unit, level + 1))
    return left


def _parse_unit(stream: _TokenStream, bound: list):
    token = stream.peek()
    if token == "!":
        stream.advance()
        return Not(_parse_unit(stream, bound))
    if token in _FO_QUANTIFIERS:
        return _parse_fo(stream, bound)
    saved = stream.index
    try:
        return _parse_atom(stream, bound)
    except ParseError as atom_error:
        stream.index = saved
        if token != "(":
            raise atom_error
    stream.advance()
    inner = _parse_fo(stream, bound)
    stream.expect(")")
    return inner


def _parse_atom(stream: _TokenStream, bound: list):
    left = _parse_chain(stream, bound, _TERM_OPERATORS, _parse_term_unit)
    rel = stream.peek()
    if rel not in _FO_RELATIONS:
        raise ParseError("expected '=' or '<=' in an atom", position=stream.position())
    stream.advance()
    right = _parse_chain(stream, bound, _TERM_OPERATORS, _parse_term_unit)
    return _FO_RELATIONS[rel](left, right)


def _parse_term_unit(stream: _TokenStream, bound: list):
    token = stream.peek()
    if token == "~":
        stream.advance()
        return TCompl(_parse_term_unit(stream, bound))
    if token == "(":
        stream.advance()
        inner = _parse_chain(stream, bound, _TERM_OPERATORS, _parse_term_unit)
        stream.expect(")")
        return inner
    if token == "0":
        stream.advance()
        return TZero()
    if token == "1":
        stream.advance()
        return TOne()
    if _is_variable(token):
        if token not in bound:
            raise ParseError(f"unbound variable {token!r}", position=stream.position())
        stream.advance()
        return TVar(token)
    raise ParseError("expected a Boolean term", position=stream.position())


def format_fo(phi) -> str:
    """Canonical infix rendering of a formula or a Boolean term;
    ``parse_fo_formula`` inverts it exactly, a term inside an atom."""
    token = _FO_TOKEN.get(type(phi))
    if isinstance(phi, TVar):
        return phi.name
    if token is None:
        raise PreconditionError(f"cannot format {type(phi).__name__}")
    if isinstance(phi, (Forall, Exists)):
        return f"{token} {phi.var}. {format_fo(phi.body)}"
    if isinstance(phi, Not):
        return f"{token}({format_fo(phi.arg)})"
    if isinstance(phi, TCompl):
        return f"{token}{format_fo(phi.arg)}"
    if isinstance(phi, (TZero, TOne)):
        return token
    if isinstance(phi, (Eq, Le)):
        return f"{format_fo(phi.left)} {token} {format_fo(phi.right)}"
    return f"({format_fo(phi.left)} {token} {format_fo(phi.right)})"


# ---------------------------------------------------------------------------
# Continuous formula grammar (s-expressions)
# ---------------------------------------------------------------------------

_SEXPR_PATTERN = re.compile(r"[()]|[^\s()]+")
_SORT_KEYWORDS = {f":{sort}": sort for sort in (SORT_BALL, SORT_SA, SORT_POS, SORT_PROJ)}
_CVAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Head tables: head -> (node, the kinds of the node's fields in order).  A
#: kind is ``formula``, ``term``, ``real``, ``complex``, ``var``, ``sort`` or
#: ``complexes`` (one or more complex values); the parser reads each field
#: by its kind, and the formatter writes it by the same kind.
_F2, _T2 = ("formula", "formula"), ("term", "term")  # the binary connectives' fields
_CFORM_HEADS = {
    "norm": (FNorm, ("term",)), "fconst": (FConst, ("real",)),
    "fscale": (FScale, ("real", "formula")),
    "sup": (FSup, ("var", "sort", "formula")), "inf": (FInf, ("var", "sort", "formula")),
    "plus": (FPlus, _F2), "tsub": (FTruncSub, _F2), "max": (FMax, _F2), "min": (FMin, _F2),
    "absdiff": (FAbsDiff, _F2),
}
_CTERM_HEADS = {
    "+": (CAdd, _T2), "-": (CSub, _T2), "*": (CMul, _T2), "star": (CStar, ("term",)),
    "scale": (CScale, ("complex", "term")), "const": (CConst, ("complexes",)),
}
_SEXPR_HEADS = {"formula": _CFORM_HEADS, "term": _CTERM_HEADS}
_SEXPR_NODES = {
    node: (head, kinds) for heads in _SEXPR_HEADS.values() for head, (node, kinds) in heads.items()
}
#: Bare term symbols other than variables.
_CTERM_SYMBOLS = {"0": CZero, "1": COne}
_CTERM_SYMBOL = {node: symbol for symbol, node in _CTERM_SYMBOLS.items()}


def _finite_complex(text: str):
    """``complex(text)``, or None when the text is malformed or not finite."""
    try:
        value = complex(text)
    except ValueError:
        return None
    return value if cmath.isfinite(value) else None


def _parse_complex(token: str, where: Callable[[], int]) -> complex:
    value = _finite_complex(token)
    if value is None:
        raise ParseError(f"expected a complex literal, got {token!r}", position=where())
    return value


def _parse_real(token: str, where: Callable[[], int]) -> float:
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a real literal, got {token!r}", position=where()) from None
    except OverflowError:
        raise ParseError(f"real literal {token!r} is beyond the floats", position=where()) from None


def parse_cformula(text: str):
    """Parse an s-expression continuous formula.

    Formula heads: ``norm plus tsub max min absdiff fscale fconst sup inf``;
    bare reals are constants.  Term heads: ``+ - * star scale const``; bare
    ``0``/``1`` are the algebra constants and other symbols are variables.
    Quantifiers carry a sort keyword: ``(sup p :proj <formula>)``.
    """
    stream = _TokenStream(text, _SEXPR_PATTERN)
    phi = _parse_sexpr(stream, "formula")
    stream.expect_end()
    return phi


def _parse_sexpr(stream: _TokenStream, kind: str):
    """Read one value of ``kind``; a node reads its fields by its head's kinds."""
    at, token = stream.index, stream.peek()
    where = functools.partial(stream.position, at)  # the value's position, found only to refuse it
    if kind == "complexes":
        values = []
        while stream.peek() not in (None, ")"):
            values.append(_parse_sexpr(stream, "complex"))
        if not values:
            raise ParseError("const needs at least one value", position=where())
        return tuple(values)
    if token is None and kind in _SEXPR_HEADS:
        raise ParseError(f"expected a {kind}", position=where())
    if token is not None:
        stream.advance()
    if token == "(" and kind in _SEXPR_HEADS:
        head = stream.advance() if stream.peek() is not None else None
        if head not in _SEXPR_HEADS[kind]:
            raise ParseError(f"unknown {kind} head {head!r}", position=stream.position(at + 1))
        node, kinds = _SEXPR_HEADS[kind][head]
        values = [_parse_sexpr(stream, field_kind) for field_kind in kinds]
        stream.expect(")")
        return node(*values)
    if kind == "formula":
        return FConst(_parse_real(token, where))
    if kind == "real":
        return _parse_real(token or "", where)
    if kind == "complex":
        return _parse_complex(token or "", where)
    if kind == "term":
        if token in _CTERM_SYMBOLS:
            return _CTERM_SYMBOLS[token]()
        if not _CVAR_RE.fullmatch(token):
            raise ParseError(f"expected a term symbol, got {token!r}", position=where())
        return CVar(token)
    if kind == "var":
        if token is None or not _CVAR_RE.fullmatch(token):
            raise ParseError("expected a variable after quantifier", position=where())
        return token
    if token not in _SORT_KEYWORDS:
        keywords = " ".join(_SORT_KEYWORDS)
        raise ParseError(f"expected a sort keyword ({keywords})", position=where())
    return _SORT_KEYWORDS[token]


def _complex_str(z: complex) -> str:
    return repr(complex(z)).strip("()")


def format_cformula(phi) -> str:
    """Canonical s-expression rendering of a formula or a term.

    ``parse_cformula`` inverts it on formulas, and ``parse_condition`` on the
    term before `` in ``.
    """
    if isinstance(phi, CVar):
        return phi.name
    if type(phi) in _CTERM_SYMBOL:
        return _CTERM_SYMBOL[type(phi)]
    if type(phi) not in _SEXPR_NODES:
        raise PreconditionError(f"cannot format {type(phi).__name__}")
    head, kinds = _SEXPR_NODES[type(phi)]
    fields = (
        _FORMAT_KIND[kind](getattr(phi, field))
        for field, kind in zip(phi._fields, kinds)
    )
    return f"({head} {' '.join(fields)})"


_FORMAT_KIND = {
    "formula": format_cformula,
    "term": format_cformula,
    "real": repr,
    "complex": _complex_str,
    "var": str,
    "sort": ":{}".format,
    "complexes": lambda values: " ".join(map(_complex_str, values)),
}


# ---------------------------------------------------------------------------
# Descriptor, element, target, and condition grammars
# ---------------------------------------------------------------------------


def parse_descriptor(text: str):
    """Parse a Boolean-algebra descriptor in ``format_descriptor`` syntax."""
    text = text.strip()
    for kind, (name, *_) in _NAMED_KINDS.items():
        if text == name:
            return kind()
    match = re.fullmatch(r"finite\((\d+)\)", text)
    if match:
        return Finite(_natural(match.group(1)))
    match = re.fullmatch(r"intalg\((.*)\)", text, re.DOTALL)
    if match:
        return IntervalAlgebra(parse_ordinal(match.group(1)))
    match = re.fullmatch(r"prod\((.*)\)", text, re.DOTALL)
    if match:
        return Product(tuple(parse_descriptor(part) for part in _split_top_level(match.group(1))))
    raise ParseError(f"unknown descriptor {text!r}")


def _split_top_level(text: str) -> list:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    if any(not part.strip() for part in parts):
        raise ParseError("empty descriptor in product")
    return parts


def parse_element(text: str) -> tuple:
    """Parse ``1+2j, 0.5, -1j`` into a tuple of complex values."""
    parts = text.split(",")
    values = []
    for part in parts:
        value = _finite_complex(part.strip().replace(" ", ""))
        if value is None:
            raise ParseError(f"bad complex value {part.strip()!r}")
        values.append(value)
    if not values:
        raise ParseError("an element needs at least one value")
    return tuple(values)


def parse_cylinder_element(text: str) -> CylinderElement:
    """Parse ``top``, ``bottom``, or a comma-separated union of binary words."""
    from elemeq.saturation import PresentedAtomlessBA

    text = text.strip()
    algebra = PresentedAtomlessBA()
    if text == "top":
        return algebra.top
    if text == "bottom":
        return algebra.bottom
    element = algebra.bottom
    for word in text.split(","):
        word = word.strip()
        if not word or any(ch not in "01" for ch in word):
            raise ParseError(f"bad cylinder word {word!r}")
        element = algebra.join(element, algebra.cylinder(word))
    return element


def parse_target(text: str, offset: int = 0) -> tuple:
    """Parse ``[0,1]|{2}`` into a union of closed intervals; a bad literal's
    position counts from ``offset``, where the target starts in its text."""
    intervals = []
    for piece in text.split("|"):
        match = re.fullmatch(
            r"\s*(?:\{\s*([^,{}]+?)\s*\}|\[\s*([^,\[\]]+?)\s*,\s*([^,\[\]]+?)\s*\])\s*", piece)
        if match is None:
            raise ParseError(f"bad target piece {piece.strip()!r} (use [a,b] or {{a}})")
        groups = [g for g in (1, 2, 3) if match.group(g) is not None]
        values = [_parse_real(match.group(g).strip(), lambda: offset + match.start(g)) for g in groups]
        intervals.append((values[0], values[-1]))
        offset += len(piece) + 1
    return tuple(intervals)


def parse_condition(text: str) -> TypeCondition:
    """Parse ``<term s-expression> in <target>``."""
    from elemeq.saturation import TypeCondition

    marker = " in "
    split_at = text.rfind(marker)
    if split_at < 0:
        raise ParseError("a condition looks like '<term> in <target>'")
    term_text, target_text = text[:split_at], text[split_at + len(marker) :]
    stream = _TokenStream(term_text, _SEXPR_PATTERN)
    term = _parse_sexpr(stream, "term")
    stream.expect_end()
    return TypeCondition(term, parse_target(target_text, split_at + len(marker)))


def format_target(target) -> str:
    return "|".join(f"{{{lo}}}" if lo == hi else f"[{lo},{hi}]" for lo, hi in target)


def _format_condition(condition) -> str:
    """``parse_condition``'s syntax."""
    return f"{format_cformula(condition.polynomial)} in {format_target(condition.target)}"


# ---------------------------------------------------------------------------
# Shared output helpers
# ---------------------------------------------------------------------------


def _invariant_dict(invariant) -> dict:
    return {
        "level": invariant.level,
        "atom_count": invariant.atom_count,
        "atomless": invariant.atomless_flag,
    }


def _certificate_dict(cert) -> dict:
    return {"lower": cert.lower, "upper": cert.upper, "grid_depth": cert.grid_depth}


def _render_value(value, indent: int = 0) -> list:
    """A dict as ``key: value`` lines and a list as ``- value`` lines, nested
    ones indented below their key or dash."""
    pad, lines = "  " * indent, []
    if isinstance(value, dict):
        items = ((f"{key}:", inner) for key, inner in value.items())
    else:
        items = (("-", inner) for inner in value)
    for label, inner in items:
        if isinstance(inner, (dict, list)):
            lines.append(f"{pad}{label}")
            lines.extend(_render_value(inner, indent + 1))
        else:
            lines.append(f"{pad}{label} {inner}")
    return lines


def _emit(payload: dict, args) -> None:
    if args.json:
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join(_render_value(payload))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Verb handlers (each returns payload, exit code; ``main`` adds the verb)
# ---------------------------------------------------------------------------


def _cmd_ord_arith(args):
    a, b = parse_ordinal(args.left), parse_ordinal(args.right)
    operation = {"add": ord_add, "mul": ord_mul, "pow": ord_pow}[args.op]
    payload = {
        "inputs": {"op": args.op, "left": cnf_string(a), "right": cnf_string(b)},
        "value": cnf_string(operation(a, b)),
    }
    return payload, EXIT_OK


def _ordinal_ef_cross_check(a, b, verdict: bool):
    """A conclusive finite-rank game answer, when one exists."""
    try:
        if verdict:
            return {"ef_rank_3": ef_ordinals(a, b, 3)}
        for rank in range(1, 5):
            if not ef_ordinals(a, b, rank):
                return {f"ef_rank_{rank}": False}
    except PreconditionError:
        return None
    return None


def _cmd_ord_eq(args):
    a, b = parse_ordinal(args.left), parse_ordinal(args.right)
    verdict = ord_equiv(a, b)
    payload = {
        "inputs": {"left": cnf_string(a), "right": cnf_string(b)},
        "verdict": verdict,
    }
    cross = _ordinal_ef_cross_check(a, b, verdict)
    if cross is not None:
        payload["cross_checks"] = cross
    return payload, EXIT_OK


def _cmd_calkin_eq(args):
    a, b = parse_ordinal(args.left), parse_ordinal(args.right)
    inputs = {"left": cnf_string(a), "right": cnf_string(b)}
    return {"inputs": inputs, "verdict": calkin_equiv(a, b)}, EXIT_OK


def _cmd_ef(args):
    if args.kind == "orders":
        m, n = _natural(args.left), _natural(args.right)
        verdict = ef_finite_orders(m, n, args.rank)
        inputs = {"kind": "orders", "left": m, "right": n, "rank": args.rank}
    elif args.kind == "ordinals":
        a, b = parse_ordinal(args.left), parse_ordinal(args.right)
        verdict = ef_ordinals(a, b, args.rank)
        inputs = {"kind": "ordinals", "left": cnf_string(a), "right": cnf_string(b), "rank": args.rank}
    else:
        m, n = _natural(args.left), _natural(args.right)
        verdict = ef_finite_bas(FiniteBoolAlg(m), FiniteBoolAlg(n), args.rank)
        inputs = {"kind": "ba", "left": m, "right": n, "rank": args.rank}
    return {"inputs": inputs, "verdict": verdict}, EXIT_OK


def _cmd_ba_invariants(args):
    descriptor = parse_descriptor(args.descriptor)
    payload = {
        "inputs": {"descriptor": format_descriptor(descriptor)},
        "value": _invariant_dict(ershov_invariants(descriptor)),
        "derivative_chain": [format_descriptor(d) for d in derivative_chain(descriptor)],
    }
    return payload, EXIT_OK


def _cmd_ba_eq(args):
    left = parse_descriptor(args.left)
    right = parse_descriptor(args.right)
    verdict = ba_equiv(left, right)
    payload = {
        "inputs": {"left": format_descriptor(left), "right": format_descriptor(right)},
        "verdict": verdict,
        "invariants": {
            "left": _invariant_dict(ershov_invariants(left)),
            "right": _invariant_dict(ershov_invariants(right)),
        },
    }
    if isinstance(left, Finite) and isinstance(right, Finite):
        if left.atoms <= 4 and right.atoms <= 4:
            game = ef_finite_bas(FiniteBoolAlg(left.atoms), FiniteBoolAlg(right.atoms), 3)
            payload["cross_checks"] = {"ef_rank_3": game}
    conflict = classification_conflict(left, right)
    if conflict is not None:
        payload["conflict_note"] = conflict
    return payload, EXIT_OK


def _cmd_ba_enumerate(args):
    value = [_invariant_dict(inv) for inv in enumerate_theories(args.count)]
    return {"inputs": {"count": args.count}, "value": value}, EXIT_OK


def _cmd_stone(args):
    algebra = FiniteBoolAlg(args.atoms)
    space = stone_space(algebra)
    back = clopen_algebra(space)
    roundtrip = back.atom_count == algebra.atom_count
    rng = random.Random(DEFAULT_SEED)
    samples, agree = 20, True
    for _ in range(samples):
        sizes = [rng.randint(1, 4) for _ in range(3)]
        spaces = [FiniteSpace(s) for s in sizes]
        f = SpaceMap(spaces[0], spaces[1], tuple(rng.randrange(sizes[1]) for _ in range(sizes[0])))
        g = SpaceMap(spaces[1], spaces[2], tuple(rng.randrange(sizes[2]) for _ in range(sizes[1])))
        lhs, rhs_g, rhs_f = dual_morphism(compose_maps(g, f)), dual_morphism(g), dual_morphism(f)
        agree &= lhs.graph() == tuple(map(rhs_f.apply, rhs_g.graph()))  # dual(g f) = dual(f) dual(g)
    payload = {
        "inputs": {"atoms": args.atoms},
        "value": {"space_points": space.point_count, "roundtrip": roundtrip},
        "cross_checks": {"functoriality_samples": samples, "functoriality_agrees": agree},
    }
    return payload, EXIT_OK


def _cmd_translate(args):
    phi = parse_fo_formula(args.sentence)
    translated = translate_fo(phi)
    payload = {
        "inputs": {"sentence": format_fo(phi), "quantifier_rank": quantifier_rank(phi)},
        "value": format_cformula(translated),
    }
    return payload, EXIT_OK


def _assignments(pairs, option: str, usage: str, parse) -> dict:
    """The ``NAME=VALUE`` pairs of a repeated option as a dict, each value parsed, each name once."""
    out = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ParseError(f"bad {option} {pair!r} (use {usage})")
        if name in out:
            raise ParseError(f"{option} names {name!r} twice")
        out[name] = parse(value)
    return out


def _cmd_ceval(args):
    phi = parse_cformula(args.formula)
    algebra = CStarAlgebraFin(args.points)
    params = _assignments(args.param, "--param", "name=v1,v2,...", parse_element)
    inputs = {
        "formula": format_cformula(phi),
        "points": args.points,
        "tol": args.tol,
        "params": {name: [_complex_str(v) for v in value] for name, value in params.items()},
    }
    try:
        cert = ceval(phi, algebra, params, tol=args.tol, max_boxes=args.max_boxes)
    except ResourceBudgetError as error:
        payload = {"inputs": inputs, "error": "resource budget exceeded"}
        if error.best_known is not None:
            payload["certificate"] = _certificate_dict(error.best_known)
        return payload, EXIT_BUDGET
    return {"inputs": inputs, "certificate": _certificate_dict(cert)}, EXIT_OK


def _cmd_jspec(args):
    elements = tuple(parse_element(text) for text in args.element)
    spectrum = sorted(
        joint_spectrum(elements),
        key=lambda lam: tuple((v.real, v.imag) for v in map(complex, lam)),
    )
    payload = {
        "inputs": {"elements": [[_complex_str(v) for v in e] for e in elements]},
        "value": [[_complex_str(v) for v in lam] for lam in spectrum],
    }
    return payload, EXIT_OK


def _cmd_fmember(args):
    elements = tuple(parse_element(text) for text in args.element)
    lam = parse_element(args.at)
    checks = singular_cross_checks(elements, lam)
    indicator = spectrum_indicator(elements, lam)
    payload = {
        "inputs": {
            "elements": [[_complex_str(v) for v in e] for e in elements],
            "at": [_complex_str(v) for v in lam],
        },
        "verdict": checks["pointwise"],
        "cross_checks": {
            "absolute_sum_not_invertible": checks["absolute_sum_not_invertible"],
            "solvable": checks["solvable"],
            "solution_residual": checks["solution_residual"],
            "indicator_value": indicator,
        },
    }
    return payload, EXIT_OK


def _cmd_code(args):
    element = parse_element(args.element)
    codes = clopen_code(element, args.scale)
    rendered = [
        {"grid_point": _complex_str(code.y), "scale": code.m, "points": sorted(code.points)}
        for code in codes
        if code.points
    ]
    payload = {
        "inputs": {"element": [_complex_str(v) for v in element], "scale": args.scale},
        "value": rendered,
    }
    if args.reconstruct:
        recovered = reconstruct(codes)
        payload["reconstruction"] = {
            "element": [_complex_str(v) for v in recovered],
            "error": c_norm(c_sub(element, recovered)),
            "bound": 2.0 / args.scale,
        }
    return payload, EXIT_OK


def _cmd_interpolate(args):
    from elemeq.saturation import NOT_FOUND, PresentedAtomlessBA, interpolate_chain

    if args.algebra == "cyl":
        algebra, parse, render = PresentedAtomlessBA(), parse_cylinder_element, _cylinder_str
    else:
        match = re.fullmatch(r"finite:(\d+)", args.algebra)
        if not match:
            raise ParseError("--algebra must be 'cyl' or 'finite:<atoms>'")
        algebra = FiniteBoolAlg(_natural(match.group(1)))
        parse, render = functools.partial(_parse_mask, algebra=algebra), int  # a mask as itself
    lower = [parse(text) for text in args.lower]
    upper = [parse(text) for text in args.upper]
    inputs = {"algebra": args.algebra, "lower": list(map(render, lower)), "upper": list(map(render, upper))}
    result = interpolate_chain(lower, upper, algebra)
    if result == NOT_FOUND:
        return {"inputs": inputs, "verdict": "not-found"}, EXIT_NEGATIVE
    return {"inputs": inputs, "value": render(result)}, EXIT_OK


def _cylinder_str(element: CylinderElement) -> str:
    cylinders = element.cylinders
    return {(): "bottom", ("",): "top"}.get(cylinders) or ",".join(cylinders)


def _parse_mask(text: str, algebra: FiniteBoolAlg) -> int:
    try:
        mask = int(text, 0)
    except ValueError:
        raise ParseError(f"bad atom mask {text!r}") from None
    if not algebra.is_element(mask):  # named by its size: a long mask has too many digits to print
        size = "below 0" if mask < 0 else f"of {mask.bit_length()} bits"
        raise PreconditionError(f"mask {size} is out of range for {algebra.atom_count} atoms")
    return mask


def _cmd_realize(args):
    from elemeq.saturation import DEFAULT_REALIZE_BOXES, Realized, Unsatisfiable, realize_type

    conditions = [parse_condition(text) for text in args.cond]
    algebra = CStarAlgebraFin(args.points)
    sorts = _assignments(args.sort, "--sort", "variable=ball|sa|pos", str)
    unused = sorted(sorts.keys() - frozenset().union(*(c.variables() for c in conditions)))
    if unused:
        raise ParseError(f"--sort names {unused[0]!r}, which no --cond uses")
    inputs = {
        "conditions": list(map(_format_condition, conditions)),
        "points": args.points,
        "tol": args.tol,
        "sorts": sorts,
    }
    boxes = DEFAULT_REALIZE_BOXES if args.max_boxes is None else args.max_boxes
    result = realize_type(conditions, algebra, args.tol, sorts=sorts, max_boxes=boxes)
    payload = {"inputs": inputs}
    if isinstance(result, Realized):
        payload["result"] = "realized"
        payload["assignment"] = {
            name: [_complex_str(v) for v in value] for name, value in sorted(result.assignment.items())
        }
        payload["max_deviation"] = result.max_deviation
        payload["certificates"] = [_certificate_dict(c) for c in result.certificates]
        return payload, EXIT_OK
    if isinstance(result, Unsatisfiable):
        payload["result"] = "unsatisfiable"
        payload["epsilon"] = result.epsilon
        payload["delta"] = list(map(_format_condition, result.delta))
        return payload, EXIT_NEGATIVE
    payload["result"] = "inconclusive"
    payload["best_deviation"] = result.best_deviation
    payload["boxes_used"] = result.boxes_used
    return payload, EXIT_BUDGET


def _cmd_orth(args):
    from elemeq.saturation import max_orthogonal_family, orthogonal_witness_family

    algebra = CStarAlgebraFin(args.points)
    size = max_orthogonal_family(algebra)
    family = orthogonal_witness_family(algebra)
    payload = {
        "inputs": {"points": args.points},
        "value": size,
        "witness_family": [[_complex_str(v) for v in f] for f in family],
    }
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


#: An argument is a name, or a name and its ``add_argument`` keywords.
_LEFT_RIGHT = ("left", "right")
_POINTS = ("--points", {"type": int, "required": True})
#: The verbs in help order: (name, handler, help, arguments).
_VERBS = (
    ("ord-arith", _cmd_ord_arith, "ordinal normal-form arithmetic",
     (("op", {"choices": ["add", "mul", "pow"]}), *_LEFT_RIGHT)),
    ("ord-eq", _cmd_ord_eq, "ordinal equality in normal form", _LEFT_RIGHT),
    ("calkin-eq", _cmd_calkin_eq, "equivalence of ordinal tails modulo w^w", _LEFT_RIGHT),
    ("ef", _cmd_ef, "finite-rank back-and-forth games", (
        ("--kind", {"choices": ["orders", "ordinals", "ba"], "default": "ordinals"}),
        ("--rank", {"type": int, "default": 3}),
        *_LEFT_RIGHT,
    )),
    ("ba-invariants", _cmd_ba_invariants, "classification invariants of a described algebra",
     ("descriptor",)),
    ("ba-eq", _cmd_ba_eq, "elementary equivalence of described Boolean algebras", _LEFT_RIGHT),
    ("ba-enumerate", _cmd_ba_enumerate, "enumerate completions in band order",
     (("count", {"type": int}),)),
    ("stone", _cmd_stone, "finite Stone duality round trip", (("atoms", {"type": int}),)),
    ("translate", _cmd_translate, "translate a classical sentence to a continuous formula",
     ("sentence",)),
    ("ceval", _cmd_ceval, "certified continuous-formula evaluation", (
        "formula",
        ("--points", {"type": int, "required": True, "help": "number of points of the space"}),
        ("--tol", {"type": float, "default": DEFAULT_TOL}),
        ("--max-boxes", {"type": int, "default": DEFAULT_MAX_BOXES}),
        ("--param", {"action": "append", "metavar": "NAME=ELEMENT"}),
    )),
    ("jspec", _cmd_jspec, "joint spectrum of a tuple of elements", (("element", {"nargs": "+"}),)),
    ("fmember", _cmd_fmember, "joint-spectrum membership with all cross-checks", (
        ("element", {"nargs": "+"}),
        ("--at", {"required": True, "help": "spectral parameter tuple"}),
    )),
    ("code", _cmd_code, "clopen coding of a contraction", (
        "element",
        ("--scale", {"type": int, "required": True}),
        ("--reconstruct", {"action": "store_true"}),
    )),
    ("interpolate", _cmd_interpolate, "strict chain interpolation", (
        ("--algebra", {"default": "cyl", "help": "'cyl' or 'finite:<atoms>'"}),
        ("--lower", {"action": "append", "default": [], "help": "ascending chain element"}),
        ("--upper", {"action": "append", "default": [], "help": "descending chain element"}),
    )),
    ("realize", _cmd_realize, "realize or refute a degree-1 type", (
        ("--cond", {"action": "append", "required": True, "metavar": "'<term> in <target>'"}),
        _POINTS,
        ("--tol", {"type": float, "required": True}),
        ("--sort", {"action": "append", "metavar": "VAR=SORT"}),
        ("--max-boxes", {"type": int}),
    )),
    ("orth", _cmd_orth, "largest orthogonal positive norm-1 family", (_POINTS,)),
)


# built once per process: parse_args returns a fresh namespace on each call,
# and an ``append`` option copies its default before adding to it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elemeq",
        description="Decision procedures for elementary equivalence at finite scale.",
    )
    # options common to every verb; copying them from one parent costs less
    # than adding them to each verb, as ``add_argument`` builds a formatter
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a machine-readable payload")
    common.add_argument("--out", metavar="FILE", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, handler, help_text, arguments in _VERBS:
        verb = sub.add_parser(name, parents=[common], help=help_text)
        verb.set_defaults(handler=handler)
        for argument in arguments:
            flag, options = (argument, {}) if isinstance(argument, str) else argument
            verb.add_argument(flag, **options)
    parser.verbs = sub.choices  # each verb's name and parser, for ``main``
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # A call that starts with a verb goes straight to that verb's parser, as the
    # full parse matches the verb and then parses the rest again with it (a third
    # of a cheap verb's CPU time). The top-level parser answers -h and a missing
    # or unknown verb, and reports extra arguments under its own usage line.
    verb = parser.verbs.get(argv[0]) if argv else None
    try:
        if verb is None:
            args = parser.parse_args(argv)
        else:
            args, extra = verb.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.verb = argv[0]
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceBudgetError as error:
        print(f"budget exceeded: {error}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:  # the parsers and evaluators recurse once per level of nesting
        print("budget exceeded: the input nests too deeply", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OverflowError) as error:  # a PreconditionError is a ValueError
        print(f"invalid input: {error}", file=sys.stderr)
        return EXIT_PARSE
    _emit({"verb": args.verb, **payload}, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
