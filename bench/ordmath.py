"""Ordinals below epsilon_0 in Cantor normal form, written apart from the program.

An ordinal is a tuple of ``(exponent, coefficient)`` pairs with strictly
decreasing exponents (themselves such tuples) and coefficients >= 1; ``()``
is zero.  The decide workload uses this module to write its inputs, to read
the program's outputs back, and to check them.
"""

import re

ZERO = ()


def nat(n):
    return ((ZERO, n),) if n else ZERO


ONE = nat(1)
OMEGA = ((ONE, 1),)


def cmp(a, b):
    for (ea, ca), (eb, cb) in zip(a, b):
        c = cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def add(a, b):
    if not b:
        return a
    lead, coeff = b[0]
    keep = tuple(t for t in a if cmp(t[0], lead) > 0)
    same = [c for e, c in a if cmp(e, lead) == 0]
    return keep + ((lead, coeff + (same[0] if same else 0)),) + b[1:]


def mul(a, b):
    """a * b: each term w^e*k of b contributes w^(lead(a)+e)*k, and the
    finite part k of b scales the leading coefficient of a."""
    if not a or not b:
        return ZERO
    lead, lead_coeff = a[0]
    out = ZERO
    for e, k in b:
        part = ((lead, lead_coeff * k),) + a[1:] if e == ZERO else ((add(lead, e), k),)
        out = add(out, part)
    return out


def left_diff(a, b):
    """The d with a + d = b, for a <= b (found among the tails of b)."""
    for i, (e, k) in enumerate(b):
        for coeff in range(1, k + 1):
            d = ((e, coeff),) + b[i + 1:]
            if add(a, d) == b:
                return d
    if a == b:
        return ZERO
    raise ValueError("left_diff needs a <= b")


def is_finite(a):
    return not a or a[0][0] == ZERO


def equiv(a, b):
    """Elementary equivalence as linear orders: same residue mod w^w, and
    quotients both zero or both nonzero."""
    def split(x):
        return tuple(t for t in x if is_finite(t[0])), any(not is_finite(t[0]) for t in x)
    return split(a) == split(b)


def to_text(a):
    if not a:
        return "0"
    parts = []
    for e, k in a:
        if e == ZERO:
            parts.append(str(k))
            continue
        base = "w" if e == ONE else f"w^{e[0][1]}" if is_finite(e) else f"w^({to_text(e)})"
        parts.append(base if k == 1 else f"{base}*{k}")
    return "+".join(parts)


_TOKEN = re.compile(r"\s*(\d+|[w^*+()])")


def parse(text):
    """Read ``w^(w+1)*2+w^3+5`` style text; sums are renormalised by ``add``."""
    tokens = [m.group(1) for m in _TOKEN.finditer(text)]
    if "".join(tokens) != re.sub(r"\s", "", text):
        raise ValueError(f"cannot read ordinal {text!r}")
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        pos[0] += 1
        return tokens[pos[0] - 1]

    def total():
        out = term()
        while peek() == "+":
            take()
            out = add(out, term())
        return out

    def term():
        tok = take()
        if tok.isdigit():
            return nat(int(tok))
        if tok != "w":
            raise ValueError(f"unexpected {tok!r} in {text!r}")
        e = ONE
        if peek() == "^":
            take()
            e = exponent()
        k = 1
        if peek() == "*":
            take()
            k = int(take())
        return ((e, k),) if k else ZERO

    def exponent():
        tok = take()
        if tok == "(":
            inner = total()
            if take() != ")":
                raise ValueError(f"unbalanced {text!r}")
            return inner
        if tok.isdigit():
            return nat(int(tok))
        if tok == "w":
            if peek() == "^":
                take()
                return ((exponent(), 1),)
            return OMEGA
        raise ValueError(f"bad exponent in {text!r}")

    out = total()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def random_ordinal(rng, depth=1, terms=3, max_exp=4, max_coeff=4):
    """A random ordinal with up to ``terms`` terms; ``depth`` > 1 allows
    infinite exponents."""
    exps = set()
    for _ in range(rng.randint(1, terms)):
        if depth > 1 and rng.random() < 0.4:
            exps.add(random_ordinal(rng, depth - 1, 2, max_exp, 2))
        else:
            exps.add(nat(rng.randint(0, max_exp)))
    ordered = sorted(exps, key=OrderKey, reverse=True)
    return tuple((e, rng.randint(1, max_coeff)) for e in ordered)


class OrderKey:
    """Sort key ordering ordinals by ``cmp``."""

    def __init__(self, a):
        self.a = a

    def __lt__(self, other):
        return cmp(self.a, other.a) < 0


def respell(rng, a):
    """Another spelling of ``a``: split coefficients and put absorbed smaller
    terms in front of larger ones.  The spelling is checked to sum to ``a``."""
    if not a:
        return "0"
    pieces = []
    for e, k in a:
        if e != ZERO and rng.random() < 0.6:
            below = min(2, e[0][1] - 1) if is_finite(e) else 2
            pieces.append(((nat(rng.randint(0, below)), rng.randint(1, 3)),))
        if k > 1 and rng.random() < 0.7:
            first = rng.randint(1, k - 1)
            pieces += [((e, first),), ((e, k - first),)]
        else:
            pieces.append(((e, k),))
    total = ZERO
    for p in pieces:
        total = add(total, p)
    if total != a:
        raise AssertionError("respelling changed the ordinal")
    return " + ".join(to_text(p) for p in pieces)
