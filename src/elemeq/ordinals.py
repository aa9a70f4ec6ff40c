"""Ordinal arithmetic in Cantor normal form, and equivalence mod omega^omega.

An ordinal below epsilon_0 is represented by its Cantor normal form

    w^e1 * c1 + w^e2 * c2 + ... + w^ek * ck

with exponents e1 > e2 > ... > ek (themselves ordinals) and integer
coefficients ci >= 1.  Zero is the empty sum.  The representation is
canonical, so structural equality is ordinal equality.

The module is pure data plus algorithms, and :func:`cnf_string` prints
the normal form; parsing the text back lives in :mod:`elemeq.cli`.

Two linear orders with only < in the signature satisfy the same
sentences exactly when their ordinals agree modulo w^w in the refined
sense implemented by :func:`ord_equiv`: identical residues below w^w and
quotients that are both zero or both nonzero.  The comparison procedure
for unitary quotient-algebra pairs indexed by ordinals reduces to the
same criterion, exposed as :func:`calkin_equiv`.
"""

from __future__ import annotations

import math

from .errors import Frozen, PreconditionError, ResourceBudgetError

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "OMEGA_OMEGA",
    "OmegaOmegaSplit",
    "finite",
    "omega_power",
    "compare",
    "ord_sum",
    "ord_add",
    "ord_mul",
    "ord_pow",
    "left_difference",
    "split_mod_omega_omega",
    "ord_equiv",
    "calkin_equiv",
]


class Ordinal(Frozen):
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs with strictly
    decreasing exponents and coefficients >= 1.  The empty tuple is 0.
    Ordinals compare as their ``terms`` do, lexicographically, which is the
    order of normal forms.
    """

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        prev = None
        for exponent, coeff in self.terms:
            if not isinstance(exponent, Ordinal):
                raise PreconditionError("exponents must be Ordinal values")
            if not isinstance(coeff, int) or coeff < 1:
                raise PreconditionError("coefficients must be integers >= 1")
            if prev is not None and prev <= exponent:
                raise PreconditionError("exponents must be strictly decreasing")
            prev = exponent

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        """True when the ordinal is a natural number."""
        return not self.terms or self.terms[0][0].is_zero()

    def to_int(self) -> int:
        if not self.is_finite():
            raise PreconditionError("ordinal is infinite")
        return self.terms[0][1] if self.terms else 0

    def finite_part(self) -> int:
        """The coefficient of w^0, i.e. the trailing natural part."""
        if self.terms and self.terms[-1][0].is_zero():
            return self.terms[-1][1]
        return 0

    def limit_part(self) -> "Ordinal":
        """The ordinal with the trailing natural part removed."""
        if self.terms and self.terms[-1][0].is_zero():
            return Ordinal(self.terms[:-1])
        return self

    def __repr__(self):
        if self.is_finite():
            return f"Ordinal({self.to_int()})"
        inner = " + ".join(
            f"w^{exponent!r}*{coeff}" for exponent, coeff in self.terms
        )
        return f"Ordinal<{inner}>"


def cnf_string(alpha: Ordinal) -> str:
    """Render an ordinal in the surface grammar (``w^2*2+w*3+4``).

    The output round-trips through the command-line ordinal parser: ``w``
    denotes the first infinite ordinal, ``^`` binds tighter than ``*``,
    which binds tighter than ``+``, and infinite exponents are
    parenthesized.
    """
    if alpha.is_zero():
        return "0"
    parts = []
    try:
        for exponent, coeff in alpha.terms:
            if exponent.is_zero():
                parts.append(str(coeff))
                continue
            if exponent == ONE:
                body = "w"
            elif exponent.is_finite():
                body = f"w^{exponent.to_int()}"
            else:
                body = f"w^({cnf_string(exponent)})"
            parts.append(body if coeff == 1 else f"{body}*{coeff}")
    except ValueError:  # an int of over ``sys.get_int_max_str_digits()`` digits
        raise ResourceBudgetError("an integer of the normal form is too long to print") from None
    return "+".join(parts)


def finite(n: int) -> Ordinal:
    if n < 0:
        raise PreconditionError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, n),))


def omega_power(exponent: Ordinal, coeff: int = 1) -> Ordinal:
    if coeff == 0:
        return ZERO
    return Ordinal(((exponent, coeff),))


ZERO = Ordinal(())
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))
OMEGA_OMEGA = Ordinal(((OMEGA, 1),))


# -- comparison -------------------------------------------------------


def compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison: -1, 0, or 1."""
    return (a.terms > b.terms) - (a.terms < b.terms)


# -- arithmetic -------------------------------------------------------

MAX_POW_TERMS = 10_000
MAX_COEFF_DIGITS = 4300  # CPython prints no longer int, by default


def ord_sum(terms, tail: tuple = ()) -> Ordinal:
    """The normal form of the sum of the terms w^e * c, in order, followed by
    the normal form ``tail``.  Folding right to left, a term vanishes when its
    coefficient is 0 or the sum after it leads with a larger exponent, and
    adds its coefficient to the lead at an equal one."""
    out = list(tail[::-1])
    for exponent, coeff in reversed(terms):
        if not coeff or out and exponent < out[-1][0]:
            continue
        if out and exponent == out[-1][0]:
            coeff += out.pop()[1]
        out.append((exponent, coeff))
    return Ordinal(tuple(out[::-1]))


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    return ord_sum(a.terms, b.terms) if b.terms else a


def ord_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Over the terms w^f * d of b, a * w^f * d is w^(e + f) * d for f > 0,
    where w^e * c leads a, and w^e * (c * d) plus the rest of a for f = 0;
    the pieces fall strictly in exponent, so the product is their concatenation."""
    if a.is_zero() or b.is_zero():
        return ZERO
    (ea, ca), rest = a.terms[0], a.terms[1:]
    terms = []
    for exponent, coeff in b.terms:
        if exponent.is_zero():
            terms += [(ea, ca * coeff), *rest]
        else:
            terms.append((ord_add(ea, exponent), coeff))
    return Ordinal(tuple(terms))


def _pow_finite(a: Ordinal, n: int) -> Ordinal:
    # k^n has n * log10(k) digits, rounded down, plus one (all k >= 2 exceed the cap
    # from n = 4 * MAX_COEFF_DIGITS); with a finite part each factor adds a's other terms
    if a.is_finite() and min(n, 4 * MAX_COEFF_DIGITS) * math.log10(a.to_int()) >= MAX_COEFF_DIGITS:
        raise ResourceBudgetError(f"the power has a coefficient of over {MAX_COEFF_DIGITS} digits")
    if a.finite_part() and len(a.terms) + (n - 1) * (len(a.terms) - 1) > MAX_POW_TERMS:
        raise ResourceBudgetError(f"the power has over {MAX_POW_TERMS} terms")
    result, base = ONE, a
    while n:
        if n & 1:
            result = ord_mul(result, base)
        n >>= 1
        if n:  # no square past the result's
            base = ord_mul(base, base)
    return result


def ord_pow(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal exponentiation.  By convention 0^0 = 1.  A power of over
    ``MAX_POW_TERMS`` terms, or a natural one of over ``MAX_COEFF_DIGITS``
    digits, raises :class:`ResourceBudgetError` before it is built."""
    if b.is_zero():
        return ONE
    if a.is_zero():
        return ZERO
    if a == ONE:
        return ONE
    if b.is_finite():
        return _pow_finite(a, b.to_int())

    limit = b.limit_part()
    n = b.finite_part()
    if a.is_finite():
        # k^(w^g * d) = w^(w^g' * d) with 1 + g' = g, so g' = g - 1 for
        # finite g and g itself for infinite g.  Multiplying over the terms
        # of the limit part sums those exponents.
        head = omega_power(Ordinal(tuple((left_difference(ONE, g), d) for g, d in limit.terms)))
    else:
        head = omega_power(ord_mul(a.terms[0][0], limit))
    return ord_mul(head, _pow_finite(a, n))


def left_difference(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique c with a + c = b, defined when a <= b."""
    i = 0
    while i < len(a.terms) and i < len(b.terms) and a.terms[i] == b.terms[i]:
        i += 1
    if i == len(a.terms):
        return Ordinal(b.terms[i:])
    if i == len(b.terms):
        raise PreconditionError("left_difference requires a <= b")
    (ea, ca), (eb, cb) = a.terms[i], b.terms[i]
    c = compare(ea, eb)
    if c < 0:
        return Ordinal(b.terms[i:])
    if c == 0 and ca < cb:
        return Ordinal(((eb, cb - ca),) + b.terms[i + 1 :])
    raise PreconditionError("left_difference requires a <= b")


# -- split and equivalence --------------------------------------------


class OmegaOmegaSplit(Frozen):
    """The unique pair with w^w * quotient + residue = alpha, residue < w^w."""

    quotient: Ordinal
    residue: Ordinal


def split_mod_omega_omega(alpha: Ordinal) -> OmegaOmegaSplit:
    head = []
    tail = []
    for exponent, coeff in alpha.terms:
        if exponent >= OMEGA:
            head.append((left_difference(OMEGA, exponent), coeff))
        else:
            tail.append((exponent, coeff))
    return OmegaOmegaSplit(Ordinal(tuple(head)), Ordinal(tuple(tail)))


def ord_equiv(a: Ordinal, b: Ordinal) -> bool:
    """Elementary equivalence of ordinals as bare linear orders.

    Holds exactly when the residues mod w^w agree and the quotients are
    both zero or both nonzero.  In particular ordinals below w^w are
    equivalent only when equal.
    """
    sa = split_mod_omega_omega(a)
    sb = split_mod_omega_omega(b)
    return sa.residue == sb.residue and (
        sa.quotient.is_zero() == sb.quotient.is_zero()
    )


def calkin_equiv(a: Ordinal, b: Ordinal) -> bool:
    """Equivalence of the quotient-algebra comparison indexed by ordinals.

    The comparison interprets the index ordinal in a bi-definable way,
    so it reduces to :func:`ord_equiv`.
    """
    return ord_equiv(a, b)
