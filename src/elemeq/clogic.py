"""Continuous-logic formulas over finite-dimensional abelian C*-algebras,
with a certified evaluator and the classical-to-continuous translation.

Formulas form a small closed catalog: atoms are norms of *-polynomial terms,
connectives are addition, truncated subtraction, max, min, nonnegative
scaling, absolute difference, and constants in [0, 1], and quantifiers are
suprema and infima over four sorts of the unit ball — the full ball, its
self-adjoint and positive parts, and the (finite) set of projections.  Every
node has a computable Lipschitz modulus in each free variable, obtained by
composing the children's moduli.  Each binary connective's exact rule,
monotonicity in each side and lattice flag are stated once, in ``_CONNECTIVES``.

Terms are evaluated by one walker, ``eval_term``, in an arithmetic passed to
it: exact elements (the ``cstar`` operations), per-point complex rectangles,
their centred form, per-point modulus bounds and (norm bound, Lipschitz
modulus) pairs here, batched numpy rectangles and values in ``saturation``.
The walker alone dispatches on term nodes, rejects unbound variables and
constants of the wrong size.  The rectangle ops are written once, for a
rectangle of four components that are floats here and arrays over a batch
of boxes in ``saturation``; product and modulus bounds (also rounded outward)
come from ``_rect_kernel``, given min, max, hypot and a two-float outward step
from ``math`` here and numpy there, so this module never imports numpy.

Evaluation returns an enclosure certificate.  Formulas whose quantifiers all
range over projections are evaluated exactly (the sort is finite), compiled
once per call into closures that each return their values over every
projection of the innermost enclosing quantifier (``_compile_exact``); points
no constant or parameter tells apart share a colour, and each quantifier's
body runs at one projection per orbit of the point permutations within the
colours that fix the projections it reads.  The
continuous sorts are handled by deterministic branch-and-bound over per-point
complex boxes, pruned by both rectangle arithmetic and the Lipschitz moduli,
with a few witness candidates scored per box, all in one stacked exact walk
when the body has no quantifier and the other variables are points
(``_branch_and_bound``, ``_stacked_eval``), and norm atoms bounded by the
naive, centred and outward-rounded unit-disc forms (``_atom_enclosure``).
A real-sort box lies in the domain, so it shrinks to the face holding its sup
or inf where such a body's one atom is monotone in a coordinate (``_slope_signs``).
A formula whose connectives all commute with a max over the points is
searched one point at a time on a space of n > 1 points, as its cut to
each point (``_at_point``, None where a connective couples the points):
C^n is a product, each sort's domain is the product of its one-point
domains, and by induction on the formula its value is the max over the
points i of its value on one point with every constant and parameter
cut to point i (||t|| = max_i |t_i|; max, scaling by s >= 0, and a sum,
min or truncated subtraction A - c with a constant c, being
nondecreasing in A, commute with a max over i, in floats too; and a sup
or an inf over a product of a max of functions of disjoint coordinates
is the max of the sups or infs).  Sums, min and truncated differences of
two non-constant sides, c - A and absolute differences couple the
points, so formulas with them are searched over all the points at once.
The truth-value bridge ``translate_fo`` maps a classical sentence about
Boolean algebras to a projection-sorted formula whose value is 0 on
algebras satisfying the sentence and 1 on algebras refuting it.
"""

from __future__ import annotations

import heapq
import math
import operator
from functools import lru_cache
from typing import Callable, NamedTuple

from . import boolalg
from .cstar import CStarAlgebraFin, _sized, c_add, c_mul, c_norm, c_star, c_sub, projections
from .errors import Frozen, PreconditionError, ResourceBudgetError

__all__ = [
    "SORT_BALL",
    "SORT_SA",
    "SORT_POS",
    "SORT_PROJ",
    "SORTS",
    "CVar",
    "CZero",
    "COne",
    "CConst",
    "CAdd",
    "CSub",
    "CMul",
    "CStar",
    "CScale",
    "FNorm",
    "FConst",
    "FPlus",
    "FTruncSub",
    "FMax",
    "FMin",
    "FScale",
    "FAbsDiff",
    "FSup",
    "FInf",
    "cformula_free_vars",
    "term_free_vars",
    "Arith",
    "EXACT",
    "eval_term",
    "term_bound",
    "term_modulus",
    "formula_modulus",
    "EvalCertificate",
    "ceval",
    "translate_fo",
]

SORT_BALL = "ball"
SORT_SA = "sa"
SORT_POS = "pos"
SORT_PROJ = "proj"
SORTS = frozenset({SORT_BALL, SORT_SA, SORT_POS, SORT_PROJ})

#: Largest space the certified evaluator accepts.
MAX_CEVAL_POINTS = 6

#: Default cap on branch-and-bound boxes processed per evaluation.
DEFAULT_MAX_BOXES = 200_000

#: Default width of a certified enclosure.
DEFAULT_TOL = 1e-6

#: Entries kept by each free-variable memo, which the branch-and-bound path and
#: ``saturation`` read and the exact path does not; a long-lived process
#: evaluating fresh formulas would otherwise keep every node it has seen.
FREE_VARS_MEMO_SIZE = 4096


# ---------------------------------------------------------------------------
# Terms: *-polynomials over variables and constants
# ---------------------------------------------------------------------------


class _Pair(Frozen):
    left: object
    right: object


class CVar(Frozen):
    name: str


class CZero(Frozen):
    """The zero element, size-agnostic."""


class COne(Frozen):
    """The unit element, size-agnostic."""


class CConst(Frozen):
    """A concrete element constant, fixed to one algebra size."""

    values: tuple


class CAdd(_Pair):
    pass


class CSub(_Pair):
    pass


class CMul(_Pair):
    pass


class CStar(Frozen):
    arg: object


class CScale(Frozen):
    scalar: complex
    arg: object


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class FNorm(Frozen):
    term: object


class FConst(Frozen):
    value: float

    def __new__(cls, value):  # stores -0.0 as 0.0, so that no exact-path value is -0.0
        if not 0 <= value <= 1:
            raise PreconditionError("formula constants must lie in [0, 1]")
        return Frozen.__new__(cls, value + 0.0)


class FPlus(_Pair):
    pass


class FTruncSub(_Pair):
    """Truncated subtraction: max(left - right, 0)."""


class FMax(_Pair):
    pass


class FMin(_Pair):
    pass


class FScale(Frozen):
    scalar: float
    arg: object

    def __post_init__(self) -> None:
        if not 0 <= self.scalar < math.inf:
            raise PreconditionError("formula scaling must be finite and nonnegative")


class FAbsDiff(_Pair):
    pass


class _Quantifier(Frozen):
    var: str
    sort: str
    body: object

    def __post_init__(self) -> None:
        if self.sort not in SORTS:
            raise PreconditionError(f"unknown quantifier sort: {self.sort!r}")


class FSup(_Quantifier):
    pass


class FInf(_Quantifier):
    pass


def _no_nan(values):  # values in [0, inf] pass; a nan, which max and min would pass over, raises
    if math.isnan(sum(values)):
        raise PreconditionError("the value overflows the floats: an overflowed operation gave nan")
    return values


def _scaled(s, values):  # a zero scaling gives 0, of an overflowed value too, where 0 * inf is nan
    return [s * v for v in values] if s else [0.0] * len(values)


#: Each binary connective's rules, stated here only: ``exact`` maps the children's
#: lists of values to the node's, ``monotone`` is its sense in each side (+1
#: nondecreasing, -1 nonincreasing; None for the absolute difference, which is
#: neither), and a ``lattice`` connective (max, min) is as wide and as Lipschitz
#: as its wider child, where the others add widths and moduli.  inf - inf (nan)
#: raises.  ``_enclose`` reads a monotone connective's enclosure off ``exact``.
_Connective = NamedTuple("_Connective", [("exact", Callable), ("monotone", tuple), ("lattice", bool)])
_CONNECTIVES = {
    FPlus: _Connective(lambda l, r: list(map(operator.add, l, r)), (1, 1), False),
    FTruncSub: _Connective(
        lambda l, r: _no_nan([0.0 if 0.0 > d else d for d in map(operator.sub, l, r)]), (1, -1), False),
    FMax: _Connective(lambda l, r: list(map(max, l, r)), (1, 1), True),
    FMin: _Connective(lambda l, r: list(map(min, l, r)), (1, 1), True),
    FAbsDiff: _Connective(lambda l, r: _no_nan(list(map(abs, map(operator.sub, l, r)))), None, False),
}
_BINARY_TYPES = tuple(_CONNECTIVES)
_QUANT_TYPES = (FSup, FInf)


def _enclose(rule, l, r):
    """A connective's enclosure [lo, hi] over its children's enclosures (lo, hi): a monotone
    one's ``exact`` at the ends its sense in each side picks, since rounding to nearest is
    nondecreasing too, so on point enclosures (v, v) it gives the floats of ``exact``."""
    if rule.monotone:
        a, b = rule.monotone
        return rule.exact(l if a > 0 else l[::-1], r if b > 0 else r[::-1])
    # the absolute difference; the upper end is >= 0 but for a zero's sign: at
    # l = -0.0, r = 0.0 the max is -0.0, and abs gives abs(l - r)'s 0.0
    return _no_nan((0.0 if l[0] <= r[1] and r[0] <= l[1] else max(l[0] - r[1], r[0] - l[1]),
                    abs(max(l[1] - r[0], r[1] - l[0]))))


@lru_cache(maxsize=FREE_VARS_MEMO_SIZE)
def term_free_vars(term) -> frozenset:
    return frozenset(_term_names(term))


@lru_cache(maxsize=FREE_VARS_MEMO_SIZE)
def cformula_free_vars(phi) -> frozenset:
    if isinstance(phi, FNorm):
        return term_free_vars(phi.term)
    if isinstance(phi, FConst):
        return frozenset()
    if isinstance(phi, _BINARY_TYPES):
        return cformula_free_vars(phi.left) | cformula_free_vars(phi.right)
    if isinstance(phi, FScale):
        return cformula_free_vars(phi.arg)
    if isinstance(phi, _QUANT_TYPES):
        return cformula_free_vars(phi.body) - {phi.var}
    raise PreconditionError(f"not a formula: {phi!r}")


def _term_names(term) -> list:
    """The names of the term's variable occurrences, one per occurrence."""
    names, stack = [], [term]
    while stack:
        node = stack.pop()
        if isinstance(node, CVar):
            names.append(node.name)
        elif isinstance(node, (CAdd, CSub, CMul)):
            stack += (node.right, node.left)  # left first: the first bad node read is named
        elif isinstance(node, (CStar, CScale)):
            stack.append(node.arg)
        elif not isinstance(node, (CZero, COne, CConst)):
            raise PreconditionError(f"not a term: {node!r}")
    return names


# ---------------------------------------------------------------------------
# Term evaluation: one walker, one arithmetic per kind of value
# ---------------------------------------------------------------------------


class Arith(NamedTuple):
    """The operations a term is evaluated in.

    ``const`` lifts an element (one complex value per point), and the rest
    act on the values of the children; a scaling by s is the product with
    the constant element s 1.
    """

    const: Callable
    add: Callable
    sub: Callable
    mul: Callable
    conj: Callable


def eval_term(term, env: dict, algebra: CStarAlgebraFin, arith: Arith):
    """The value of a term in ``arith``, its variables' values read from ``env``."""
    if isinstance(term, CVar):
        if term.name not in env:
            raise PreconditionError(f"unbound variable {term.name!r}")
        return env[term.name]
    if isinstance(term, (CAdd, CSub, CMul)):
        op = arith.add if isinstance(term, CAdd) else (
            arith.sub if isinstance(term, CSub) else arith.mul)
        left = eval_term(term.left, env, algebra, arith)
        return op(left, eval_term(term.right, env, algebra, arith))
    if isinstance(term, CStar):
        return arith.conj(eval_term(term.arg, env, algebra, arith))
    if isinstance(term, CScale):
        scalar = arith.const((complex(term.scalar),) * algebra.point_count)
        return arith.mul(scalar, eval_term(term.arg, env, algebra, arith))
    if isinstance(term, CZero):
        return arith.const(algebra.zero())
    if isinstance(term, COne):
        return arith.const(algebra.one())
    if isinstance(term, CConst):
        if len(term.values) != algebra.point_count:
            raise PreconditionError("constant element has the wrong size")
        return arith.const(term.values)
    raise PreconditionError(f"not a term: {term!r}")


#: Exact elements: tuples of complex values, combined point by point.
EXACT = Arith(tuple, c_add, c_sub, c_mul, c_star)


def _stacked(copies: int) -> Arith:
    """``EXACT`` over ``copies`` elements stacked into one: constants are repeated."""
    return EXACT._replace(const=lambda values: tuple(values) * copies)


#: (norm bound, Lipschitz constant in one variable) pairs: sums and
#: differences add both, and a product's constant is the product rule's,
#: |l r - l' r'| <= |l| |r - r'| + |r'| |l - l'|.
_lip_add = lambda l, r: (l[0] + r[0], l[1] + r[1])
_LIPSCHITZ = Arith(lambda values: (c_norm(values), 0.0), _lip_add, _lip_add,
                   lambda l, r: (l[0] * r[0], l[0] * r[1] + r[0] * l[1]), lambda a: a)


# ---------------------------------------------------------------------------
# Lipschitz moduli and bounds
# ---------------------------------------------------------------------------


def term_bound(term, algebra: CStarAlgebraFin, bounds: dict) -> float:
    """An upper bound on the norm of the term.

    ``bounds`` maps each free variable to a norm bound (quantified variables
    get 1, the radius of every sort).
    """
    env = {name: (bound, 0.0) for name, bound in bounds.items()}
    return eval_term(term, env, algebra, _LIPSCHITZ)[0]


def term_modulus(term, var: str, algebra: CStarAlgebraFin, bounds: dict) -> float:
    """A Lipschitz constant of the term in ``var`` (sup-norm metric)."""
    env = {name: (bound, 1.0 if name == var else 0.0) for name, bound in bounds.items()}
    return eval_term(term, env, algebra, _LIPSCHITZ)[1]


def formula_modulus(phi, var: str, algebra: CStarAlgebraFin, bounds: dict) -> float:
    """A Lipschitz constant of the formula value in ``var``.

    Composes children's moduli: the norm atom is 1-Lipschitz in its term,
    binary connectives add (the lattice ones, max and min, take the larger),
    scaling multiplies, and a quantifier preserves the modulus of its body
    in the remaining variables (a pointwise sup or inf of an L-Lipschitz
    family is L-Lipschitz).
    """
    if isinstance(phi, FNorm):  # a nan (0 * an overflowed bound) bounds nothing
        modulus = term_modulus(phi.term, var, algebra, bounds)
        return math.inf if math.isnan(modulus) else modulus
    if isinstance(phi, FConst):
        return 0.0
    if isinstance(phi, _BINARY_TYPES):
        l, r = (formula_modulus(kid, var, algebra, bounds) for kid in (phi.left, phi.right))
        return max(l, r) if _CONNECTIVES[type(phi)].lattice else l + r
    if isinstance(phi, FScale):
        return _scaled(phi.scalar, [formula_modulus(phi.arg, var, algebra, bounds)])[0]
    if isinstance(phi, _QUANT_TYPES):
        if phi.var == var:
            return 0.0
        inner = dict(bounds)
        inner[phi.var] = 1.0
        return formula_modulus(phi.body, var, algebra, inner)
    raise PreconditionError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Interval arithmetic over per-point complex rectangles
# ---------------------------------------------------------------------------
# A rectangle is (re_lo, re_hi, im_lo, im_hi); an element enclosure is a
# tuple of rectangles, one per point of the space.  A component may be a
# float or an array of them (``saturation`` batches boxes that way), so each
# op is written once: add, sub, conj and the point rectangle use only
# arithmetic, and product and modulus take min, max, hypot and a step two
# floats outward from a numeric namespace.


def _rect_kernel(lo, hi, hypot, outward):
    """The rectangle product and modulus bounds, then those bounds two floats
    outward (``hypot`` errs by under 1 ulp) with the lower end kept >= 0, over
    ``lo``/``hi`` (min and max of any number of values), hypot and ``outward``
    (x, toward): x two floats toward -inf or inf."""

    def imul(al, ah, bl, bh):
        c1, c2, c3, c4 = al * bl, al * bh, ah * bl, ah * bh
        return lo(c1, c2, c3, c4), hi(c1, c2, c3, c4)

    def mul(a, b):
        rr = imul(a[0], a[1], b[0], b[1])
        ii = imul(a[2], a[3], b[2], b[3])
        ri = imul(a[0], a[1], b[2], b[3])
        ir = imul(a[2], a[3], b[0], b[1])
        return (rr[0] - ii[1], rr[1] - ii[0], ri[0] + ir[0], ri[1] + ir[1])

    def mod(a):  # the moduli of the rectangle's point nearest 0 and farthest point
        return (hypot(hi(a[0], -a[1], 0.0), hi(a[2], -a[3], 0.0)),
                hypot(hi(a[1], -a[0]), hi(a[3], -a[2])))

    def abs_iv(a):
        least, most = mod(a)
        return hi(0.0, outward(least, -math.inf)), outward(most, math.inf)

    return mul, mod, abs_iv


_rect_mul, _rect_mod, _abs_iv = _rect_kernel(min, max, math.hypot, lambda x, t: math.nextafter(math.nextafter(x, t), t))


def _rect_point(v: complex):
    return (v.real, v.real, v.imag, v.imag)


def _rect_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _rect_sub(a, b):
    return (a[0] - b[1], a[1] - b[0], a[2] - b[3], a[3] - b[2])


def _rect_conj(a):
    return (a[0], a[1], -a[3], -a[2])


def _box_point(values: tuple) -> tuple:
    return tuple(_rect_point(v) for v in values)


#: Element enclosures: tuples of rectangles, one per point.
_RECTS = Arith(_box_point, _sized(_rect_add), _sized(_rect_sub), _sized(_rect_mul),
               lambda box: tuple(map(_rect_conj, box)))


# Centred form: per point the rectangles (naive, at the box centre c,
# slope_1, ..., slope_K), one slope per varying real coordinate x_k of the
# box-valued variables, with t(x) - t(c) in sum_k slope_k (x_k - c_k) on the
# box; a product's slopes are s(ab) = s(a) b + a(c) s(b).  Operations act
# point by point, so no slope crosses points.


def _cf_mul(a, b):
    return (_rect_mul(a[0], b[0]), _rect_mul(a[1], b[1]), *(
        _rect_add(_rect_mul(sa, b[0]), _rect_mul(a[1], sb)) for sa, sb in zip(a[2:], b[2:])))


def _centred_arith(zeros: tuple) -> Arith:
    return Arith(
        lambda values: tuple((r, r) + zeros for r in map(_rect_point, values)),
        _sized(lambda a, b: tuple(map(_rect_add, a, b))),
        _sized(lambda a, b: tuple(map(_rect_sub, a, b))), _sized(_cf_mul),
        lambda value: tuple(tuple(map(_rect_conj, a)) for a in value),
    )


# Per-point modulus intervals (lo, hi), the triangle inequality above and its
# reverse below, rounded outward: a computed endpoint steps one float out and
# a modulus from ``hypot`` (error under 1 ulp) two, ``_abs_iv``; lower ends >= 0.
def _out(lo, hi):
    return max(0.0, math.nextafter(lo, -math.inf)), math.nextafter(hi, math.inf)


_mod_add = _sized(lambda a, b: _out(max(a[0] - b[1], b[0] - a[1]), a[1] + b[1]))
_MODULI = Arith(lambda values: tuple(_abs_iv(_rect_point(v)) for v in values), _mod_add, _mod_add,
                _sized(lambda a, b: _out(a[0] * b[0], a[1] * b[1])), lambda a: a)


@lru_cache(maxsize=FREE_VARS_MEMO_SIZE)
def _term_vars(term) -> tuple:
    """The term's variables, sorted, and the set of those occurring more than once."""
    names = _term_names(term)
    return tuple(sorted(set(names))), frozenset(n for n in names if names.count(n) > 1)


def _centred_rects(term, env, algebra, boxed):
    """The term's naive rectangles met with its centred form over the
    varying real coordinates of the ``boxed`` variables."""
    axes = [(name, k) for name in boxed for k in (0, 2) if any(r[k] != r[k + 1] for r in env[name])]
    units, zero = {0: (1.0, 1.0, 0.0, 0.0), 2: (0.0, 0.0, 1.0, 1.0)}, (0.0,) * 4
    sub = {}
    for name in _term_vars(term)[0]:
        if name in env:
            slopes = tuple(units[k] if v == name else zero for v, k in axes)
            sub[name] = tuple((r, _rect_point(complex((r[0] + r[1]) / 2, (r[2] + r[3]) / 2))
                               if name in boxed else r) + slopes for r in env[name])
    rects = []
    for p, (naive, centre, *slopes) in enumerate(
            eval_term(term, sub, algebra, _centred_arith((zero,) * len(axes)))):
        for s, (name, k) in zip(slopes, axes):
            lo, hi = env[name][p][k:k + 2]
            mid = (lo + hi) / 2
            centre = _rect_add(centre, _rect_mul(s, (lo - mid, hi - mid, 0.0, 0.0)))
        rects.append((max(naive[0], centre[0]), min(naive[1], centre[1]),
                      max(naive[2], centre[2]), min(naive[3], centre[3])))
    return rects


_SLOPES = _centred_arith(((0.0,) * 4,))  # one slope column, read as a derivative by ``_slope_signs``


def _slope_signs(term, env, var, algebra) -> list:
    """Per point p, 1 (-1) where |t_p| is nondecreasing (nonincreasing) in the
    real part of ``var`` at p over its box, else 0: with each centre the box
    itself, the centred form is the derivative form d(ab) = d(a) b + a d(b),
    one slope serving every point, and d|t|^2 = 2 Re(t conj(dt))."""
    zero, signs = (0.0,) * 4, []
    sub = {name: tuple((r, r, _rect_point(1.0) if name == var else zero) for r in rects) for name, rects in env.items()}
    for t, _, d in eval_term(term, sub, algebra, _SLOPES):  # Re(t conj(dt)) = re re' + im im'
        re = t[0] * d[0], t[0] * d[1], t[1] * d[0], t[1] * d[1]
        im = t[2] * d[2], t[2] * d[3], t[3] * d[2], t[3] * d[3]
        nan = math.isnan(sum(re + im))  # a nan product, which min and max may pass over, fixes no sign
        signs.append(0 if nan else 1 if min(re) + min(im) >= 0 else -1 if max(re) + max(im) <= 0 else 0)
    return signs


def _atom_enclosure(term, env, algebra):
    """(lo, hi) enclosing the norm of the term over the environment's boxes.

    The per-point rectangles are the naive ones, met with the centred form
    when a box-valued variable occurs more than once (where the naive form
    converges only to first order).  When a box has a corner outside the
    unit disc, the rectangles overestimate there, so each point's modulus
    is also enclosed by the outward-rounded ``_MODULI`` interval: the
    triangle inequality above, its reverse below, a box-valued variable
    counting as (its rectangle's least modulus, min(1, its greatest)).
    """
    names, repeated = _term_vars(term)
    boxed = [name for name in names if name in env
             and any(r[0] != r[1] or r[2] != r[3] for r in env[name])]
    if repeated.isdisjoint(boxed):
        rects = eval_term(term, env, algebra, _RECTS)
    else:
        rects = _centred_rects(term, env, algebra, boxed)
    mods = _no_nan(sum(map(_rect_mod, rects), ()))  # each point's least and greatest modulus
    lo, hi = max(mods[::2]), mods[1::2]
    if any(_rect_mod(r)[1] > 1 for name in boxed for r in env[name]):
        moduli = {name: tuple((m[0], min(1.0, m[1])) if name in boxed else m
                              for m in map(_abs_iv, env[name])) for name in names if name in env}
        caps = eval_term(term, moduli, algebra, _MODULI)
        lo, hi = max(lo, max(c[0] for c in caps)), map(min, hi, (c[1] for c in caps))
    return lo, max(hi)


# ---------------------------------------------------------------------------
# Quantifier domains
# ---------------------------------------------------------------------------


def _initial_box(sort: str, n: int) -> tuple:
    if sort == SORT_BALL:
        return ((-1.0, 1.0, -1.0, 1.0),) * n
    if sort == SORT_SA:
        return ((-1.0, 1.0, 0.0, 0.0),) * n
    if sort == SORT_POS:
        return ((0.0, 1.0, 0.0, 0.0),) * n
    raise PreconditionError(f"sort {sort!r} has no box domain")


#: Half-width of the band around 1 inside which a float sum of squares
#: cannot decide disc membership; ``_onto_disc`` pulls points just inside it.
_DISC_BAND = 2.0**-50


def _in_disc(re: float, im: float) -> bool:
    """Whether re + i im lies in the closed unit disc, decided exactly: the
    float sum of squares is within 3 ulps of the exact one, and inside the
    band around 1 the test is made in integers, with re = a/b and im = c/d
    (b, d > 0) as (ad)^2 + (cb)^2 <= (bd)^2."""
    square = re * re + im * im
    if abs(square - 1) > _DISC_BAND:
        return square < 1
    (a, b), (c, d) = re.as_integer_ratio(), im.as_integer_ratio()
    return (a * d) ** 2 + (c * b) ** 2 <= (b * d) ** 2


def _onto_disc(re: float, im: float) -> complex:
    """re + i im if it lies in the unit disc, else a point of the disc on the
    segment from it to the origin, within a few ulps of the unit circle."""
    if not _in_disc(re, im):
        shrink = (1 - _DISC_BAND) / math.hypot(re, im)
        re, im = re * shrink, im * shrink
        while not _in_disc(re, im):
            re, im = math.nextafter(re, 0.0), math.nextafter(im, 0.0)
    return complex(re, im)


def _witness_candidates(box: tuple, sort: str):
    """Points of the sort's domain to score as witnesses, or None when the box
    misses the domain: the representative (the midpoint for the real sorts;
    for the ball the box point nearest 0, in the disc if any box point is),
    then the corners with every coordinate at the same end, for the ball
    each of the four pulled radially into the disc."""
    if sort == SORT_BALL:
        rep = tuple(complex(min(max(0.0, relo), rehi), min(max(0.0, imlo), imhi))
                    for relo, rehi, imlo, imhi in box)
        if not all(_in_disc(v.real, v.imag) for v in rep):
            return None
        corners = [tuple(_onto_disc(r[re], r[im]) for r in box)
                   for re in (0, 1) for im in (2, 3)]
    else:
        rep = tuple(complex((r[0] + r[1]) / 2, 0.0) for r in box)
        corners = [tuple(complex(r[end], 0.0) for r in box) for end in (0, 1)]
    return [rep] + corners


def _box_radius(box: tuple, rep: tuple) -> float:
    """Max distance (sup metric over points) from ``rep`` to box points."""
    return max((math.hypot(max(abs(r[0] - v.real), abs(r[1] - v.real)),
                           max(abs(r[2] - v.imag), abs(r[3] - v.imag)))
                for r, v in zip(box, rep)), default=0.0)


def _split_box(box: tuple) -> tuple:
    """Split the widest axis (ties: lowest point index, real before imag)."""
    idx, k = max(((i, k) for i in range(len(box)) for k in (0, 2)),
                 key=lambda ik: box[ik[0]][ik[1] + 1] - box[ik[0]][ik[1]])
    rect = box[idx]
    mid = (rect[k] + rect[k + 1]) / 2
    a, b = rect[:k + 1] + (mid,) + rect[k + 2:], rect[:k] + (mid,) + rect[k + 1:]
    return (box[:idx] + (a,) + box[idx + 1 :], box[:idx] + (b,) + box[idx + 1 :])


# ---------------------------------------------------------------------------
# Certified evaluation
# ---------------------------------------------------------------------------


class EvalCertificate(Frozen):
    """An enclosure of a formula value: lower ≤ value ≤ upper."""

    lower: float
    upper: float
    grid_depth: int

    def width(self) -> float:
        return self.upper - self.lower


def _interval_eval(phi, env, algebra, tol, state):
    """A sound enclosure (lo, hi) of the formula over the environment.

    Environment entries are element enclosures (tuples of rectangles);
    degenerate rectangles encode exact values.  ``tol`` is the width the
    node should aim for.  Boxes in the environment widen the result soundly,
    and may keep it from reaching ``tol``: a quantifier evaluated over a box
    gets its caller's Lipschitz cone width as ``tol``, the finest width the
    caller can use.  A binary connective's rules are its ``_CONNECTIVES`` row.
    """
    if isinstance(phi, FNorm):
        return _atom_enclosure(phi.term, env, algebra)
    if isinstance(phi, FConst):
        return phi.value, phi.value
    if isinstance(phi, _BINARY_TYPES):
        rule = _CONNECTIVES[type(phi)]
        sub_tol = tol if rule.lattice else tol / 2
        l = _interval_eval(phi.left, env, algebra, sub_tol, state)
        return _enclose(rule, l, _interval_eval(phi.right, env, algebra, sub_tol, state))
    if isinstance(phi, FScale):
        # a zero scale still bounds its argument, once and coarsely, so that a
        # constant of the wrong size or a nan under it is refused as anywhere else
        inner = _interval_eval(phi.arg, env, algebra, tol / phi.scalar if phi.scalar else math.inf, state)
        return _scaled(phi.scalar, inner)
    if isinstance(phi, _QUANT_TYPES):
        if phi.var not in cformula_free_vars(phi.body):  # every sort's domain is nonempty
            return _interval_eval(phi.body, env, algebra, tol, state)
        if phi.sort == SORT_PROJ:
            combine = max if isinstance(phi, FSup) else min
            subs = ({**env, phi.var: _box_point(p)} for p in projections(algebra))
            found = [_interval_eval(phi.body, sub, algebra, tol, state) for sub in subs]
            return combine(lo for lo, _ in found), combine(hi for _, hi in found)
        return _branch_and_bound(phi, env, algebra, tol, state)
    raise PreconditionError(f"not a formula: {phi!r}")


def _stacked_eval(phi, env, algebra, copies):
    """The values of a quantifier-free formula at ``copies`` assignments of
    points, in one walk: each name's values in ``env`` are the assignments'
    elements stacked, the j-th at entries j*n to j*n + n - 1.  Each value is
    the float ``_interval_eval`` gives at both ends on that assignment's
    point rectangles: on a point the rectangle ops are complex arithmetic in
    the same order, ``_rect_mod`` is ``abs``, and ``_enclose`` gives each
    connective's ``exact`` floats."""
    if isinstance(phi, FNorm):
        n = algebra.point_count
        mods = list(map(abs, eval_term(phi.term, env, algebra, _stacked(copies))))
        return [max(_no_nan(mods[j:j + n])) for j in range(0, copies * n, n)]
    if isinstance(phi, FConst):
        return [phi.value] * copies
    if isinstance(phi, _BINARY_TYPES):
        left = _stacked_eval(phi.left, env, algebra, copies)
        return _CONNECTIVES[type(phi)].exact(left, _stacked_eval(phi.right, env, algebra, copies))
    if isinstance(phi, FScale):
        return _scaled(phi.scalar, _stacked_eval(phi.arg, env, algebra, copies))
    raise PreconditionError(f"not a quantifier-free formula: {phi!r}")


#: Safety net for a nested search (its environment holds genuine boxes),
#: which normally stops at the target width its caller takes from the outer
#: Lipschitz cone: it also stops once this many consecutive refinements
#: fail to shrink its enclosure, whose width the outer boxes then dominate.
_STALL_LIMIT = 64


def _branch_and_bound(phi, env, algebra, tol, state):
    """Enclose a sup/inf over a continuous sort by best-first box refinement.

    An infimum is searched as the supremum of the negated body, each body
    enclosure (lo, hi) read as (-hi, -lo), which is exact in floats, and
    its result negated back.  Each box yields (a) the witness's own
    enclosure, which bounds attainable values, and (b) an interval-
    arithmetic enclosure of the body over the whole box, intersected with
    the Lipschitz cone around the witness.  The witness is the box's
    ``_witness_candidates`` with the highest lower bound (the
    representative on ties); every candidate lies in the sort's domain, so
    the others never move the enclosure.  When the names it reads hold only
    points and the body has no quantifier, the candidates are scored in
    one ``_stacked_eval`` walk, each enclosure (v, v) the floats of its
    own ``_interval_eval``; otherwise each point is scored once per search
    (a split's halves reuse their parent's corners and midpoint): with the
    environment, body and width fixed, its enclosure (the budget aside)
    depends on the point's values alone, reached by arithmetic, min, max and
    comparisons, then moduli, so a key merging -0.0 and 0.0 changes no float.
    The cone is built first, and (b) aims only for its width, since the
    intersection discards anything finer: a search nested in a box stops
    there.  The certified interval is [best witness lower bound, largest
    surviving box upper bound] at every step, so stopping early is sound.
    The queue is a heap on the box upper bound, and boxes that can no
    longer move it are pruned.  On the ``sa`` and ``pos`` sorts, a one-atom
    body repeating the variable, on points, first shrinks each box to a face
    (the monotonicity test): each point p with a ``_slope_signs`` sign keeps
    the end of x_p where the searched value is largest.  A real box is a
    product of intervals in the domain, t_p reads x_p alone and the norm is
    nondecreasing in each |t_p|, so this is exact; a ``ball`` box pokes out of
    the disc, where a face can leave the domain.  A weak sign (a bound ending
    at 0) shrinks a half whose optimum is its bisection point to that point.
    """
    negate = isinstance(phi, FInf)

    def flip(lo, hi):  # between enclosures of the body and of the searched body, both ways
        return (-hi, -lo) if negate else (lo, hi)

    # only the names the search reads: a box it never reads does not nest it
    env = {name: env[name] for name in cformula_free_vars(phi)}
    point = {name: all(r[0] == r[1] and r[2] == r[3] for r in rects) for name, rects in env.items()}
    nested = not all(point.values())
    # sort values lie in the unit ball; a point (a parameter, a projection, an
    # outer witness) is bounded by its own norm, which may exceed 1
    bounds = {name: max(_abs_iv(r)[1] for r in rects) if point[name] else 1.0 for name, rects in env.items()}
    lip = formula_modulus(phi.body, phi.var, algebra, {**bounds, phi.var: 1.0})
    # on points, a quantifier-free body scores all of a box's candidates in one walk
    points = None if nested or not _within(phi.body, ()) else {
        name: tuple(complex(r[0], r[2]) for r in rects) for name, rects in env.items()}
    scored_at = {}  # candidate point -> body enclosure: a split's halves share corners
    monotone = phi.sort != SORT_BALL and points is not None and isinstance(phi.body, FNorm) \
        and phi.var in _term_vars(phi.body.term)[1]  # the box shrinks to a face (see above)

    def assess(box, depth):  # -> (the box's upper bound, its witness's lower bound, tie order, box)
        state["boxes"] += 1
        state["depth"] = max(state["depth"], depth)
        if monotone:  # the searched end: the higher value for a sup, the lower for an inf
            signs = _slope_signs(phi.body.term, {**env, phi.var: box}, phi.var, algebra)
            box = tuple((r[(s > 0) != negate],) * 2 + r[2:] if s else r for r, s in zip(box, signs))
        candidates = _witness_candidates(box, phi.sort)
        if candidates is None:
            return None
        sub = dict(env)
        if points is None:
            found = []
            for point in candidates:
                if (enclosure := scored_at.get(point)) is None:
                    sub[phi.var] = _box_point(point)
                    enclosure = scored_at[point] = _interval_eval(phi.body, sub, algebra, tol / 2, state)
                found.append(enclosure)
        else:
            copies = len(candidates)
            stacked = {name: values * copies for name, values in points.items()}
            stacked[phi.var] = sum(candidates, ())
            found = [(v, v) for v in _stacked_eval(phi.body, stacked, algebra, copies)]
        scored = [(flip(*e), point) for e, point in zip(found, candidates)]
        (rep_lo, rep_hi), rep = max(scored, key=lambda c: c[0][0])  # the first best
        radius = _box_radius(box, rep)
        cone_lo, cone_hi = rep_lo - lip * radius, rep_hi + lip * radius
        sub[phi.var] = box
        box_lo, box_hi = flip(*_interval_eval(phi.body, sub, algebra,
                                              max(tol / 2, cone_hi - cone_lo), state))
        lo, hi = max(box_lo, cone_lo), min(box_hi, cone_hi)
        # boxes of equal bound and depth pop in the order of their unnegated enclosures
        return hi, rep_lo, (*flip(lo, hi), *flip(rep_lo, rep_hi)), box

    first = assess(_initial_box(phi.sort, algebra.point_count), 0)
    if first is None:
        raise PreconditionError("empty quantifier domain")
    witness, heap = first[1], [(-first[0], 0, first[2], first[3])]
    stall, best_width = 0, math.inf
    while True:
        lo, hi = witness, max(-heap[0][0], witness) if heap else witness
        width = hi - lo
        if width < best_width - tol * 1e-3:
            best_width, stall = width, 0
        else:
            stall += 1
        # an overflowed (nan) width stops too, and ``ceval`` rejects it; it
        # also reports an exhausted budget
        if not width > tol or nested and stall >= _STALL_LIMIT or state["boxes"] >= state["max"]:
            return flip(lo, hi)
        _, depth, _, box = heapq.heappop(heap)
        for child in _split_box(box):
            e = assess(child, depth + 1)
            if e is not None:
                witness = max(witness, e[1])
                if e[0] > witness:  # can still move the bound
                    heapq.heappush(heap, (-e[0], depth + 1, e[2], e[3]))


def _within(phi, sorts) -> bool:
    """Whether every quantifier of a well-formed formula ranges over one of ``sorts``."""
    if isinstance(phi, _QUANT_TYPES):
        return phi.sort in sorts and _within(phi.body, sorts)
    if isinstance(phi, _BINARY_TYPES):
        return _within(phi.left, sorts) and _within(phi.right, sorts)
    return not isinstance(phi, FScale) or _within(phi.arg, sorts)


def _at_point(node, i: int, n: int):
    """The node with every constant cut to its value at point ``i`` of ``n``;
    the node itself when nothing under it changes, and None when a connective
    under it couples the points: one that is not max, and not nondecreasing
    (``monotone``) in a side whose other side is an ``FConst``."""
    if isinstance(node, CConst):
        if len(node.values) != n:
            raise PreconditionError("constant element has the wrong size")
        return CConst(node.values[i:i + 1])
    if isinstance(node, _BINARY_TYPES) and not isinstance(node, FMax):
        senses = zip(_CONNECTIVES[type(node)].monotone or (), (node.right, node.left))
        if not any(sense > 0 and isinstance(other, FConst) for sense, other in senses):
            return None
    if isinstance(node, _Pair):
        left, right = _at_point(node.left, i, n), _at_point(node.right, i, n)
        if left is None or right is None:
            return None
        return node if left is node.left and right is node.right else type(node)(left, right)
    if isinstance(node, (FNorm, CStar, CScale, FScale, *_QUANT_TYPES)):  # the child is the last field
        *head, kid = node[1:]
        cut = _at_point(kid, i, n)
        return node if cut is kid else None if cut is None else type(node)(*head, cut)
    return node


@lru_cache(maxsize=1024)
def _orbits(n: int, fixed: tuple) -> tuple:
    """The orbits of the n-point masks under the point permutations that fix
    every mask in ``fixed``: (their representatives, and for each of the 2^n
    masks the index of its own).  Such a permutation maps each group of points
    with the same bits in ``fixed`` onto itself, so a mask's orbit is set by
    how many points of each group it holds, and its representative, the first
    met in mask order, is its smallest mask: the lowest points of each group."""
    groups = {}  # the points of each group, as a mask
    for p in range(n):
        bits = tuple(m >> p & 1 for m in fixed)
        groups[bits] = groups.get(bits, 0) | 1 << p
    representatives, seen, index = [], {}, []
    for mask in range(1 << n):
        counts = tuple((mask & group).bit_count() for group in groups.values())
        if counts not in seen:
            seen[counts] = len(representatives)
            representatives.append(mask)
        index.append(seen[counts])
    return tuple(representatives), tuple(index)


def _compile_exact(phi, env, algebra):
    """Compile a projection-only formula into a function returning its value,
    with the free variables it found unassigned.

    The binder at depth d ranges over ``masks[d]``, the projection with value
    1 where the mask's bit is set.  Every node returns its values over the 2^n
    masks of its innermost enclosing binder (one value outside all binders);
    a quantifier sets its enclosing binder's mask in turn (once, when its body
    ignores that binder) and reduces its body's list with max or min.  An atom
    depends at point p only on the bits at p of its k bound variables: one
    ``eval_term`` call over the 2^k bit patterns stacked into one element
    tabulates |t(p)|, and the atom builds its list by doubling over the points
    from the entries for innermost bit 0 and 1, the outer bits indexed from the
    masks.  The floats are those of node-by-node evaluation.  The walk finds
    the atoms' variables itself, off the free-variable memos.

    Two points share a colour when every atom that reads a mask has the same
    table at both, as points do that no constant or parameter tells apart (in
    every output of ``translate_fo``, all points).  A permutation within the
    colours keeps every table, so, applied to every mask, it permutes every
    list and keeps each value equal.  So a quantifier runs its body once per
    orbit of the permutations within the colours that fix every mask its
    subformula reads (``order``), at the orbit's smallest mask, and fills its
    list from those values (``_orbits``, fixing one mask per colour but point
    0's).  Every value is ``abs`` output, an ``FConst`` (which stores -0.0 as
    0.0), or a sum, truncated difference, max, min or nonnegative scaling of
    such values, so none is -0.0 and equal values are the same float: the
    floats are those of the full loop, where every colour holds one point.  A
    search of more than 2**``boolalg.FO_EVAL_BUDGET_EXPONENT`` leaves (points
    times the rank as given, read in the walk) raises before it runs, as
    ``fo_eval`` does.
    """
    n = algebra.point_count
    masks, missing, tables = {}, set(), []  # tables: each mask-reading atom's rows

    def build(phi, scope, depth):  # -> (function, the slots of masks it reads, its rank)
        size = 1 << n if depth else 1
        if isinstance(phi, FNorm):
            names = set(_term_names(phi.term))
            missing.update(names - scope.keys() - env.keys())
            if missing:  # the walk goes on only to name them all
                return None, frozenset(), 0
            bound = sorted(names & scope.keys())
            k = len(bound)
            # bit pattern b of the bound variables takes entries b*n to b*n + n - 1
            sub = {v: env[v] * (1 << k) for v in names - scope.keys()}
            for j, v in enumerate(bound):
                sub[v] = tuple(1 + 0j if b >> j & 1 else 0j for b in range(1 << k) for _ in range(n))
            values = eval_term(phi.term, sub, algebra, _stacked(1 << k))
            rows = [_no_nan(list(map(abs, values[p::n]))) for p in range(n)]
            if not k:
                value = [max(row[0] for row in rows)] * size
                return (lambda: value), frozenset(), 0
            tables.append(rows)
            # spread[m] moves bit p of mask m to bit p*k + j of the index
            gather = [(scope[v], [sum((m >> p & 1) << (p * k + j) for p in range(n))
                                  for m in range(1 << n)])
                      for j, v in enumerate(bound) if scope[v] != depth - 1]
            inner = sum(1 << j for j, v in enumerate(bound) if scope[v] == depth - 1)
            first, rest, low = rows[0], [(row, p * k) for p, row in enumerate(rows)][1:], (1 << k) - 1

            def atom():
                index = 0
                for slot, spread in gather:
                    index |= spread[masks[slot]]
                i = index & low
                values = [first[i], first[i | inner]]
                for row, shift in rest:  # max(value, this point's), as max() compares
                    i = index >> shift & low
                    values = [c if c > v else v for c in (row[i], row[i | inner]) for v in values]
                return values

            return atom, frozenset(scope[v] for v in bound), 0
        if isinstance(phi, FConst):
            value = [phi.value] * size
            return (lambda: value), frozenset(), 0
        if isinstance(phi, _BINARY_TYPES):
            left, ls, lr = build(phi.left, scope, depth)
            right, rs, rr = build(phi.right, scope, depth)
            op = _CONNECTIVES[type(phi)].exact
            return (lambda: op(left(), right())), ls | rs, max(lr, rr)
        if isinstance(phi, FScale):
            (arg, slots, rank), scalar = build(phi.arg, scope, depth), phi.scalar
            return (lambda: _scaled(scalar, arg())), slots, rank
        if not isinstance(phi, _QUANT_TYPES):
            raise PreconditionError(f"not a formula: {phi!r}")
        body, slots, rank = build(phi.body, {**scope, phi.var: depth}, depth + 1)
        slots, combine, outer = slots - {depth}, max if isinstance(phi, FSup) else min, depth - 1
        order = sorted(slots - {outer})

        def quant():  # one mask per orbit of the permutations fixing the colours and order
            representatives, index = _orbits(n, (*colours, *[masks[s] for s in order]))
            values = []
            for mask in representatives:
                masks[outer] = mask
                values.append(combine(body()))
            return [values[i] for i in index]

        return (quant if outer in slots else lambda: [combine(body())] * size), slots, rank + 1

    value, _, rank = build(phi, {}, 0)
    del build  # it refers to itself: unbound here, it is freed without the cyclic collector
    signatures = list(zip(*tables))  # each point's rows; one mask per colour, from its first point but 0
    colours = tuple([sum(1 << q for q, t in enumerate(signatures) if t == s)
                     for p, s in enumerate(signatures) if p and signatures.index(s) == p])
    if not missing:
        boolalg.check_exhaustive_budget(n, rank)
    return value, missing


def _check_search(tol: float, max_boxes: int) -> None:  # ceval's and realize_type's width and box budget
    if not 0 < tol < math.inf:
        raise PreconditionError("the tolerance must be positive and finite")
    if not max_boxes >= 1:
        raise PreconditionError("the box budget must be at least 1")


def ceval(
    phi,
    algebra: CStarAlgebraFin,
    params: dict | None = None,
    tol: float = DEFAULT_TOL,
    max_boxes: int = DEFAULT_MAX_BOXES,
) -> EvalCertificate:
    """Certified enclosure of the formula value, width at most ``tol``.

    Free variables must be assigned concrete elements through ``params``.
    Projection-sorted quantifiers are evaluated exactly; continuous sorts go
    through deterministic branch-and-bound; points that no constant or
    parameter tells apart share a colour, and the exact path evaluates each
    quantifier's body once per orbit of the point permutations within the
    colours fixing the projections it reads, and it refuses a search that
    ``fo_eval`` would, with a resource error, before running it.  On
    more than one point, a formula whose connectives are max, scaling, and
    sums, min or truncated subtractions A - c with a constant c, is
    searched one point at a time: its value is the max over the points of
    its value on one point, with constants and parameters cut to that
    point (see the module docstring), so the enclosure is the max of the
    point enclosures at each end, no wider than the widest of them.  Every
    search draws on the one box budget, and ``grid_depth`` is the deepest
    search's.  Once the budget is spent, every search returns its current
    enclosure, and a result still wider than ``tol`` raises a resource
    error carrying it as ``best_known``.  An infinite end (the arithmetic
    overflowed) raises a precondition error before that, and so does a nan
    where a norm or a difference first gives one, under a scaling by 0 too
    (every route evaluates its argument), before max or min drop it.
    """
    _check_search(tol, max_boxes)
    if algebra.point_count > MAX_CEVAL_POINTS:
        raise PreconditionError(
            f"certified evaluation accepts at most {MAX_CEVAL_POINTS} points")
    params = {name: algebra.element(value) for name, value in (params or {}).items()}
    if _within(phi, {SORT_PROJ}):
        exact, missing = _compile_exact(phi, params, algebra)
    else:
        exact, missing = None, cformula_free_vars(phi) - params.keys()
    if missing:
        raise PreconditionError(f"unassigned free variables: {sorted(missing)}")
    state, n = {"boxes": 0, "max": max_boxes, "depth": 0}, algebra.point_count
    if exact:
        lo = hi = exact()[0]
    elif n > 1 and None not in (cuts := [_at_point(phi, i, n) for i in range(n)]):
        one, ends = CStarAlgebraFin(1), []  # one search per point, all on one budget
        for i, cut in enumerate(cuts):
            env = {name: _box_point(value[i:i + 1]) for name, value in params.items()}
            ends.append(_interval_eval(cut, env, one, tol, state))
        lo, hi = map(max, zip(*ends))
    else:
        env = {name: _box_point(value) for name, value in params.items()}
        lo, hi = _interval_eval(phi, env, algebra, tol, state)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PreconditionError(f"the value overflows the floats: enclosure [{lo}, {hi}]")
    cert = EvalCertificate(lo, hi, state["depth"])
    if hi - lo > tol and state["boxes"] >= max_boxes:
        raise ResourceBudgetError(f"branch-and-bound exceeded {max_boxes} boxes", cert)
    return cert


# ---------------------------------------------------------------------------
# Classical-to-continuous translation
# ---------------------------------------------------------------------------


def _translate_term(term, bound):
    if isinstance(term, boolalg.TVar):
        if term.name not in bound:
            raise PreconditionError("only sentences can be translated")
        return CVar(term.name)
    if isinstance(term, boolalg.TZero):
        return CZero()
    if isinstance(term, boolalg.TOne):
        return COne()
    if isinstance(term, boolalg.TMeet):
        return CMul(_translate_term(term.left, bound), _translate_term(term.right, bound))
    if isinstance(term, boolalg.TJoin):
        l, r = _translate_term(term.left, bound), _translate_term(term.right, bound)
        return CSub(CAdd(l, r), CMul(l, r))
    if isinstance(term, boolalg.TCompl):
        return CSub(COne(), _translate_term(term.arg, bound))
    raise PreconditionError(f"not a Boolean term: {term!r}")


def translate_fo(phi) -> object:
    """Translate a classical sentence to a projection-sorted formula.

    Universal quantifiers become suprema, existentials become infima over
    the projection sort; conjunction becomes max, disjunction min, negation
    1 ∸ value, and φ → ψ is read as ¬φ ∨ ψ; equality of terms becomes the
    norm of their difference and the order atom s ≤ t the norm of s·t − s.
    On indicator projections all atoms take values in {0, 1}, so the
    sentence holds in a finite algebra exactly when the translated value is
    0, and fails exactly when it is 1.  The walk that translates also
    checks that every variable is bound.
    """
    return _translate_fo(phi, frozenset())


def _translate_fo(phi, bound):
    if isinstance(phi, boolalg.Implies):
        phi = boolalg.Or(boolalg.Not(phi.left), phi.right)
    if isinstance(phi, boolalg.Eq):
        return FNorm(CSub(_translate_term(phi.left, bound), _translate_term(phi.right, bound)))
    if isinstance(phi, boolalg.Le):
        s, t = _translate_term(phi.left, bound), _translate_term(phi.right, bound)
        return FNorm(CSub(CMul(s, t), s))
    if isinstance(phi, boolalg.Not):
        return FTruncSub(FConst(1.0), _translate_fo(phi.arg, bound))
    if isinstance(phi, boolalg.And):
        return FMax(_translate_fo(phi.left, bound), _translate_fo(phi.right, bound))
    if isinstance(phi, boolalg.Or):
        return FMin(_translate_fo(phi.left, bound), _translate_fo(phi.right, bound))
    if isinstance(phi, boolalg.Forall):
        return FSup(phi.var, SORT_PROJ, _translate_fo(phi.body, bound | {phi.var}))
    if isinstance(phi, boolalg.Exists):
        return FInf(phi.var, SORT_PROJ, _translate_fo(phi.body, bound | {phi.var}))
    raise PreconditionError(f"not a formula: {phi!r}")
