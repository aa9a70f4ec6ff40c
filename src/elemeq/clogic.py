"""Continuous-logic formulas over finite-dimensional abelian C*-algebras,
with a certified evaluator and the classical-to-continuous translation.

Formulas form a small closed catalog: atoms are norms of *-polynomial terms,
connectives are addition, truncated subtraction, max, min, nonnegative
scaling, absolute difference, and constants in [0, 1], and quantifiers are
suprema and infima over four sorts of the unit ball — the full ball, its
self-adjoint and positive parts, and the (finite) set of projections.  Every
node has a computable Lipschitz modulus in each free variable, obtained by
composing the children's moduli.

Terms are evaluated by one walker, ``eval_term``, in an arithmetic passed to
it: exact elements (the ``cstar`` operations), per-point complex rectangles,
their centred form, per-point modulus bounds and (norm bound, Lipschitz
modulus) pairs here, batched numpy rectangles and values in ``saturation``.
The walker alone dispatches on term nodes, rejects unbound variables and
constants of the wrong size.  The rectangle ops are written once, for a
rectangle of four components that are floats here and arrays over a batch
of boxes in ``saturation``; product and modulus bounds come from
``_rect_kernel``, given min, max and hypot from builtins and ``math`` here
and from numpy there, so this module never imports numpy.

Evaluation returns an enclosure certificate.  Formulas whose quantifiers all
range over projections are evaluated exactly (the sort is finite), compiled
once per call into closures that each return their values over every
projection of the innermost enclosing quantifier (``_compile_exact``).  The
continuous sorts are handled by deterministic branch-and-bound over per-point
complex boxes, pruned by both rectangle arithmetic and the Lipschitz moduli,
with a few witness candidates scored per box (``_branch_and_bound``) and
norm atoms bounded by the naive, centred and outward-rounded unit-disc
forms (``_atom_enclosure``).  The truth-value bridge ``translate_fo`` maps a
classical sentence about Boolean algebras to a projection-sorted formula
whose value is 0 on algebras satisfying the sentence and 1 on algebras
refuting it.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from . import boolalg
from .cstar import CStarAlgebraFin, c_add, c_mul, c_norm, c_scale, c_star, c_sub, projections
from .errors import PreconditionError, ResourceBudgetError, frozen_shape

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

#: Entries kept by each free-variable memo, which the branch-and-bound path and
#: ``saturation`` read and the exact path does not; a long-lived process
#: evaluating fresh formulas would otherwise keep every node it has seen.
FREE_VARS_MEMO_SIZE = 4096


# ---------------------------------------------------------------------------
# Terms: *-polynomials over variables and constants
# ---------------------------------------------------------------------------


@frozen_shape
class _Pair:
    left: object
    right: object


@dataclass(frozen=True)
class CVar:
    name: str


@dataclass(frozen=True)
class CZero:
    """The zero element, size-agnostic."""


@dataclass(frozen=True)
class COne:
    """The unit element, size-agnostic."""


@dataclass(frozen=True)
class CConst:
    """A concrete element constant, fixed to one algebra size."""

    values: tuple


class CAdd(_Pair):
    pass


class CSub(_Pair):
    pass


class CMul(_Pair):
    pass


@dataclass(frozen=True)
class CStar:
    arg: object


@dataclass(frozen=True)
class CScale:
    scalar: complex
    arg: object


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FNorm:
    term: object


@dataclass(frozen=True)
class FConst:
    value: float

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise PreconditionError("formula constants must lie in [0, 1]")


class FPlus(_Pair):
    pass


class FTruncSub(_Pair):
    """Truncated subtraction: max(left - right, 0)."""


class FMax(_Pair):
    pass


class FMin(_Pair):
    pass


@dataclass(frozen=True)
class FScale:
    scalar: float
    arg: object

    def __post_init__(self) -> None:
        if not 0 <= self.scalar < math.inf:
            raise PreconditionError("formula scaling must be finite and nonnegative")


class FAbsDiff(_Pair):
    pass


@frozen_shape
class _Quantifier:
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


_BINARY_TYPES = (FPlus, FTruncSub, FMax, FMin, FAbsDiff)
_QUANT_TYPES = (FSup, FInf)


@lru_cache(maxsize=FREE_VARS_MEMO_SIZE)
def term_free_vars(term) -> frozenset:
    if isinstance(term, CVar):
        return frozenset({term.name})
    if isinstance(term, (CZero, COne, CConst)):
        return frozenset()
    if isinstance(term, (CAdd, CSub, CMul)):
        return term_free_vars(term.left) | term_free_vars(term.right)
    if isinstance(term, (CStar, CScale)):
        return term_free_vars(term.arg)
    raise PreconditionError(f"not a term: {term!r}")


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
            stack += (node.left, node.right)
        elif isinstance(node, (CStar, CScale)):
            stack.append(node.arg)
    return names


# ---------------------------------------------------------------------------
# Term evaluation: one walker, one arithmetic per kind of value
# ---------------------------------------------------------------------------


class Arith(NamedTuple):
    """The operations a term is evaluated in.

    ``const`` lifts an element (one complex value per point), ``scale``
    takes a complex scalar and a value, and the rest act on the values of
    the children.
    """

    const: Callable
    add: Callable
    sub: Callable
    mul: Callable
    conj: Callable
    scale: Callable


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
        return arith.scale(complex(term.scalar), eval_term(term.arg, env, algebra, arith))
    if isinstance(term, CZero):
        return arith.const(algebra.zero())
    if isinstance(term, COne):
        return arith.const(algebra.one())
    if isinstance(term, CConst):
        if len(term.values) != algebra.point_count:
            raise PreconditionError("constant element has the wrong size")
        return arith.const(term.values)
    raise PreconditionError(f"not a term: {term!r}")


def _pointwise(op):
    return lambda l, r: tuple(map(op, l, r))


#: Exact elements: tuples of complex values, combined point by point.
EXACT = Arith(tuple, c_add, c_sub, c_mul, c_star, c_scale)

#: (norm bound, Lipschitz constant in one variable) pairs: sums and
#: differences add both, and a product's constant is the product rule's,
#: |l r - l' r'| <= |l| |r - r'| + |r'| |l - l'|.
_LIPSCHITZ = Arith(
    lambda values: (c_norm(values), 0.0),
    lambda l, r: (l[0] + r[0], l[1] + r[1]),
    lambda l, r: (l[0] + r[0], l[1] + r[1]),
    lambda l, r: (l[0] * r[0], l[0] * r[1] + r[0] * l[1]),
    lambda a: a,
    lambda s, a: (abs(s) * a[0], abs(s) * a[1]),
)


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
    binary connectives add (max/min take the larger), scaling multiplies,
    and a quantifier preserves the modulus of its body in the remaining
    variables (a pointwise sup or inf of an L-Lipschitz family is
    L-Lipschitz).
    """
    if isinstance(phi, FNorm):
        return term_modulus(phi.term, var, algebra, bounds)
    if isinstance(phi, FConst):
        return 0.0
    if isinstance(phi, (FMax, FMin)):
        return max(
            formula_modulus(phi.left, var, algebra, bounds),
            formula_modulus(phi.right, var, algebra, bounds),
        )
    if isinstance(phi, (FPlus, FTruncSub, FAbsDiff)):
        return formula_modulus(phi.left, var, algebra, bounds) + formula_modulus(
            phi.right, var, algebra, bounds
        )
    if isinstance(phi, FScale):
        return phi.scalar * formula_modulus(phi.arg, var, algebra, bounds)
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
# arithmetic, and product and modulus take min, max and hypot from a numeric
# namespace.


def _rect_kernel(lo, hi, hypot):
    """The rectangle product and modulus bounds over ``lo``/``hi`` (min and
    max of any number of values) and ``hypot``."""

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

    return mul, mod


_rect_mul, _rect_mod = _rect_kernel(min, max, math.hypot)


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


def _rect_scale(s: complex, box: tuple) -> tuple:
    s = _rect_point(s)
    return tuple(_rect_mul(s, a) for a in box)


#: Element enclosures: tuples of rectangles, one per point.
_RECTS = Arith(
    _box_point, _pointwise(_rect_add), _pointwise(_rect_sub), _pointwise(_rect_mul),
    lambda box: tuple(map(_rect_conj, box)), _rect_scale,
)


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
        _pointwise(lambda a, b: tuple(map(_rect_add, a, b))),
        _pointwise(lambda a, b: tuple(map(_rect_sub, a, b))), _pointwise(_cf_mul),
        lambda value: tuple(tuple(map(_rect_conj, a)) for a in value),
        lambda s, value: tuple(_rect_scale(s, a) for a in value),
    )


# Per-point modulus intervals (lo, hi), the triangle inequality above and its
# reverse below, rounded outward: a computed endpoint steps one float out and
# a modulus from ``hypot`` (error under 1 ulp) two; lower endpoints stay >= 0.
def _out(lo, hi):
    return max(0.0, math.nextafter(lo, -math.inf)), math.nextafter(hi, math.inf)


def _abs_iv(rect):
    return _out(*_out(*_rect_mod(rect)))


_mod_add = _pointwise(lambda a, b: _out(max(a[0] - b[1], b[0] - a[1]), a[1] + b[1]))
_mod_mul = _pointwise(lambda a, b: _out(a[0] * b[0], a[1] * b[1]))
_mod_const = lambda values: tuple(_abs_iv(_rect_point(v)) for v in values)
_MODULI = Arith(_mod_const, _mod_add, _mod_add, _mod_mul, lambda a: a,
                lambda s, a: _mod_mul(_mod_const((s,) * len(a)), a))


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
    mods = list(map(_rect_mod, rects))
    lo, hi = max(m[0] for m in mods), [m[1] for m in mods]
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
    float sum of squares is within 3 ulps of the exact one."""
    square = re * re + im * im
    if abs(square - 1) > _DISC_BAND:
        return square < 1
    from fractions import Fraction  # rarely needed; spares every process its import

    return Fraction(re) ** 2 + Fraction(im) ** 2 <= 1


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


@dataclass(frozen=True)
class EvalCertificate:
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
    caller can use.
    """
    if isinstance(phi, FNorm):
        return _atom_enclosure(phi.term, env, algebra)
    if isinstance(phi, FConst):
        return phi.value, phi.value
    if isinstance(phi, _BINARY_TYPES):
        # max and min are as wide as their wider child; the others add widths
        sub_tol = tol if isinstance(phi, (FMax, FMin)) else tol / 2
        l = _interval_eval(phi.left, env, algebra, sub_tol, state)
        r = _interval_eval(phi.right, env, algebra, sub_tol, state)
        if isinstance(phi, FPlus):
            return l[0] + r[0], l[1] + r[1]
        if isinstance(phi, FTruncSub):
            return max(l[0] - r[1], 0.0), max(l[1] - r[0], 0.0)
        if isinstance(phi, FMax):
            return max(l[0], r[0]), max(l[1], r[1])
        if isinstance(phi, FMin):
            return min(l[0], r[0]), min(l[1], r[1])
        lo = 0.0 if (l[0] <= r[1] and r[0] <= l[1]) else max(l[0] - r[1], r[0] - l[1])
        return lo, max(l[1] - r[0], r[1] - l[0])
    if isinstance(phi, FScale):
        if phi.scalar == 0:
            return 0.0, 0.0
        inner = _interval_eval(phi.arg, env, algebra, tol / phi.scalar, state)
        return phi.scalar * inner[0], phi.scalar * inner[1]
    if isinstance(phi, _QUANT_TYPES):
        if phi.sort == SORT_PROJ:
            combine = max if isinstance(phi, FSup) else min
            subs = ({**env, phi.var: _box_point(p)} for p in projections(algebra))
            found = [_interval_eval(phi.body, sub, algebra, tol, state) for sub in subs]
            return combine(lo for lo, _ in found), combine(hi for _, hi in found)
        return _branch_and_bound(phi, env, algebra, tol, state)
    raise PreconditionError(f"not a formula: {phi!r}")


#: Safety net for a nested search (its environment holds genuine boxes),
#: which normally stops at the target width its caller takes from the outer
#: Lipschitz cone: it also stops once this many consecutive refinements
#: fail to shrink its enclosure, whose width the outer boxes then dominate.
_STALL_LIMIT = 64


def _branch_and_bound(phi, env, algebra, tol, state):
    """Enclose a sup/inf over a continuous sort by best-first box refinement.

    Each box yields (a) the witness's own enclosure, which bounds attainable
    values, and (b) an interval-arithmetic enclosure of the body over the
    whole box, intersected with the Lipschitz cone around the witness.  The
    witness is the best of the box's ``_witness_candidates`` (highest lower
    bound for a supremum, lowest upper bound for an infimum; the
    representative on ties); every candidate lies in the sort's domain, so
    the others never move the enclosure.  The cone is built first, and (b)
    aims only for its width, since the intersection discards anything
    finer: a search nested in a box stops there.  For a supremum the
    certified interval is [best witness lower bound, largest surviving box
    upper bound] at every step, so stopping early is sound; infima are
    handled by the mirrored rule.  The queue is a heap on the box bound
    that currently blocks the certificate, and boxes that can no longer
    move it are pruned.
    """
    is_sup = isinstance(phi, FSup)
    sign = -1.0 if is_sup else 1.0  # heap pops the blocking box first
    # sort values lie in the unit ball; a point (a parameter, a projection, an
    # outer witness) is bounded by its own norm, which may exceed 1
    bounds = {phi.var: 1.0}
    for name in cformula_free_vars(phi):
        rects = env[name]
        point = all(r[0] == r[1] and r[2] == r[3] for r in rects)
        bounds[name] = max(_abs_iv(r)[1] for r in rects) if point else 1.0
    lip = formula_modulus(phi.body, phi.var, algebra, bounds)
    nested = any(r[1] - r[0] > 0 or r[3] - r[2] > 0 for box in env.values() for r in box)

    def assess(box, depth):
        state["boxes"] += 1
        state["depth"] = max(state["depth"], depth)
        candidates = _witness_candidates(box, phi.sort)
        if candidates is None:
            return None
        sub, scored = dict(env), []
        for point in candidates:
            sub[phi.var] = _box_point(point)
            scored.append((_interval_eval(phi.body, sub, algebra, tol / 2, state), point))
        # the first best candidate: a higher attained lower bound for sup
        (rep_lo, rep_hi), rep = max(scored, key=lambda c: c[0][0]) if is_sup else min(
            scored, key=lambda c: c[0][1])
        radius = _box_radius(box, rep)
        cone_lo, cone_hi = rep_lo - lip * radius, rep_hi + lip * radius
        sub[phi.var] = box
        box_lo, box_hi = _interval_eval(phi.body, sub, algebra,
                                        max(tol / 2, cone_hi - cone_lo), state)
        return max(box_lo, cone_lo), min(box_hi, cone_hi), rep_lo, rep_hi

    box = _initial_box(phi.sort, algebra.point_count)
    first = assess(box, 0)
    if first is None:
        raise PreconditionError("empty quantifier domain")
    # witness: certified attained bound (max rep_lo for sup, min rep_hi
    # for inf); heap key: the box bound that blocks certification.
    witness = first[2] if is_sup else first[3]
    heap = [(sign * (first[1] if is_sup else first[0]), 0, first, box)]
    stall, best_width = 0, math.inf

    while True:
        blocking = sign * heap[0][0] if heap else witness
        lo, hi = (witness, max(blocking, witness)) if is_sup else (min(blocking, witness), witness)
        width = hi - lo
        if not width > tol:  # an overflowed (nan) width stops too; ``ceval`` rejects it
            return lo, hi
        if width < best_width - tol * 1e-3:
            best_width, stall = width, 0
        else:
            stall += 1
            if nested and stall >= _STALL_LIMIT:
                return lo, hi
        if state["boxes"] >= state["max"]:  # ``ceval`` reports the exhausted budget
            return lo, hi
        _, depth, _, box = heapq.heappop(heap)
        for child in _split_box(box):
            e = assess(child, depth + 1)
            if e is None:
                continue
            witness = max(witness, e[2]) if is_sup else min(witness, e[3])
            if e[1] > witness if is_sup else e[0] < witness:  # can still move the bound
                heapq.heappush(heap, (sign * (e[1] if is_sup else e[0]), depth + 1, e, child))


def _all_proj_quantified(phi) -> bool:
    """Whether every quantifier of a well-formed formula ranges over projections."""
    if isinstance(phi, _QUANT_TYPES):
        return phi.sort == SORT_PROJ and _all_proj_quantified(phi.body)
    if isinstance(phi, _BINARY_TYPES):
        return _all_proj_quantified(phi.left) and _all_proj_quantified(phi.right)
    return not isinstance(phi, FScale) or _all_proj_quantified(phi.arg)


#: The exact values of each binary connective from its children's lists of
#: values; truncated subtraction keeps max(l - r, 0.0)'s result, nan included.
_EXACT_OPS = {
    FPlus: lambda l, r: list(map(operator.add, l, r)),
    FMax: lambda l, r: list(map(max, l, r)),
    FMin: lambda l, r: list(map(min, l, r)),
    FTruncSub: lambda l, r: [0.0 if 0.0 > d else d for d in map(operator.sub, l, r)],
    FAbsDiff: lambda l, r: list(map(abs, map(operator.sub, l, r))),
}


def _compile_exact(phi, env, algebra):
    """Compile a projection-only formula into a function returning its value,
    with the free variables it found unassigned.

    The binder at depth d ranges over ``masks[d]``, the projection with value
    1 where the mask's bit is set.  Every node returns its values over the 2^n
    masks of its innermost enclosing binder (one value outside all binders);
    a quantifier sets its enclosing binder's mask in turn (once, when its body
    ignores that binder) and reduces its body's list with max or min; one that
    ignores a binder an ancestor may loop over is memoised on the masks it
    reads, for this compile only.  An atom depends at point p only on the bits
    at p of its k bound variables: one ``eval_term`` call over the 2^k bit
    patterns stacked into one element tabulates |t(p)|, and the atom builds
    its list by doubling over the points from the entries for innermost bit 0
    and 1, the outer bits indexed from the masks.  The floats are those of
    node-by-node evaluation.  The walk finds the atoms' variables itself, off
    the free-variable memos.
    """
    n = algebra.point_count
    masks, missing = {}, set()

    def build(phi, scope, depth):  # -> (function, the slots of masks it reads)
        size = 1 << n if depth else 1
        if isinstance(phi, FNorm):
            names = set(_term_names(phi.term))
            missing.update(names - scope.keys() - env.keys())
            if missing:  # the walk goes on only to name them all
                return None, frozenset()
            bound = sorted(names & scope.keys())
            k = len(bound)
            # bit pattern b of the bound variables takes entries b*n to b*n + n - 1
            sub = {v: env[v] * (1 << k) for v in names - scope.keys()}
            for j, v in enumerate(bound):
                sub[v] = tuple(1 + 0j if b >> j & 1 else 0j for b in range(1 << k) for _ in range(n))
            stacked = EXACT._replace(const=lambda values: tuple(values) * (1 << k))
            values = eval_term(phi.term, sub, algebra, stacked)
            rows = [list(map(abs, values[p::n])) for p in range(n)]
            if not k:
                value = [max(row[0] for row in rows)] * size
                return (lambda: value), frozenset()
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

            return atom, frozenset(scope[v] for v in bound)
        if isinstance(phi, FConst):
            value = [phi.value] * size
            return (lambda: value), frozenset()
        if isinstance(phi, _BINARY_TYPES):
            left, ls = build(phi.left, scope, depth)
            right, rs = build(phi.right, scope, depth)
            op = _EXACT_OPS[type(phi)]
            return (lambda: op(left(), right())), ls | rs
        if isinstance(phi, FScale):
            (arg, slots), scalar = build(phi.arg, scope, depth), phi.scalar
            return (lambda: [scalar * v for v in arg()]), slots
        if not isinstance(phi, _QUANT_TYPES):
            raise PreconditionError(f"not a formula: {phi!r}")
        body, slots = build(phi.body, {**scope, phi.var: depth}, depth + 1)
        slots, combine, outer = slots - {depth}, max if isinstance(phi, FSup) else min, depth - 1

        def quant():
            values = []
            for mask in range(1 << n):
                masks[outer] = mask
                values.append(combine(body()))
            return values

        run = quant if outer in slots else (lambda: [combine(body())] * size)
        order = sorted(slots - {outer})
        if len(order) >= depth - 1:  # reads every binder an ancestor may loop over
            return run, slots
        memo = {}

        def hoisted():  # memoised on the masks it reads, for this compile only
            key = 0
            for slot in order:
                key = key << n | masks[slot]
            if key not in memo:
                memo[key] = run()
            return memo[key]

        return hoisted, slots

    value = build(phi, {}, 0)[0]
    del build  # it refers to itself: unbound here, it is freed without the cyclic collector
    return value, missing


def ceval(
    phi,
    algebra: CStarAlgebraFin,
    params: dict | None = None,
    tol: float = 1e-6,
    max_boxes: int = DEFAULT_MAX_BOXES,
) -> EvalCertificate:
    """Certified enclosure of the formula value, width at most ``tol``.

    Free variables must be assigned concrete elements through ``params``.
    Projection-sorted quantifiers are evaluated exactly; continuous sorts go
    through deterministic branch-and-bound.  Once the box budget is spent,
    every search returns its current enclosure, and a result still wider
    than ``tol`` raises a resource error carrying it as ``best_known``.  An
    enclosure with an end that is not finite (the term arithmetic overflowed)
    raises a precondition error before that.
    """
    if not 0 < tol < math.inf:
        raise PreconditionError("the tolerance must be positive and finite")
    if not max_boxes >= 1:
        raise PreconditionError("the box budget must be at least 1")
    if algebra.point_count > MAX_CEVAL_POINTS:
        raise PreconditionError(
            f"certified evaluation accepts at most {MAX_CEVAL_POINTS} points")
    params = {name: algebra.element(value) for name, value in (params or {}).items()}
    if _all_proj_quantified(phi):
        exact, missing = _compile_exact(phi, params, algebra)
    else:
        exact, missing = None, cformula_free_vars(phi) - params.keys()
    if missing:
        raise PreconditionError(f"unassigned free variables: {sorted(missing)}")
    state = {"boxes": 0, "max": max_boxes, "depth": 0}
    if exact:
        lo = hi = exact()[0]
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


def _translate_term(term):
    if isinstance(term, boolalg.TVar):
        return CVar(term.name)
    if isinstance(term, boolalg.TZero):
        return CZero()
    if isinstance(term, boolalg.TOne):
        return COne()
    if isinstance(term, boolalg.TMeet):
        return CMul(_translate_term(term.left), _translate_term(term.right))
    if isinstance(term, boolalg.TJoin):
        l, r = _translate_term(term.left), _translate_term(term.right)
        return CSub(CAdd(l, r), CMul(l, r))
    if isinstance(term, boolalg.TCompl):
        return CSub(COne(), _translate_term(term.arg))
    raise PreconditionError(f"not a Boolean term: {term!r}")


def translate_fo(phi) -> object:
    """Translate a classical sentence to a projection-sorted formula.

    Universal quantifiers become suprema, existentials become infima over
    the projection sort; conjunction becomes max, disjunction min, negation
    1 ∸ value; equality of terms becomes the norm of their difference and
    the order atom s ≤ t the norm of s·t − s.  On indicator projections all
    atoms take values in {0, 1}, so the sentence holds in a finite algebra
    exactly when the translated value is 0, and fails exactly when it is 1.
    """
    if boolalg.free_variables(phi):
        raise PreconditionError("only sentences can be translated")
    return _translate_fo(phi)


def _translate_fo(phi):
    if isinstance(phi, boolalg.Eq):
        return FNorm(CSub(_translate_term(phi.left), _translate_term(phi.right)))
    if isinstance(phi, boolalg.Le):
        s, t = _translate_term(phi.left), _translate_term(phi.right)
        return FNorm(CSub(CMul(s, t), s))
    if isinstance(phi, boolalg.Not):
        return FTruncSub(FConst(1.0), _translate_fo(phi.arg))
    if isinstance(phi, boolalg.And):
        return FMax(_translate_fo(phi.left), _translate_fo(phi.right))
    if isinstance(phi, boolalg.Or):
        return FMin(_translate_fo(phi.left), _translate_fo(phi.right))
    if isinstance(phi, boolalg.Implies):
        return FMin(
            FTruncSub(FConst(1.0), _translate_fo(phi.left)),
            _translate_fo(phi.right),
        )
    if isinstance(phi, boolalg.Forall):
        return FSup(phi.var, SORT_PROJ, _translate_fo(phi.body))
    if isinstance(phi, boolalg.Exists):
        return FInf(phi.var, SORT_PROJ, _translate_fo(phi.body))
    raise PreconditionError(f"not a formula: {phi!r}")
