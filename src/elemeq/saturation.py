"""Finite-scale saturation experiments.

Three capabilities live here:

* a concretely presented atomless Boolean algebra (finite unions of
  cylinder sets over infinite binary sequences) together with chain
  interpolation, the order-theoretic heart of Boolean saturation;
* degree-1 type conditions over a finite-dimensional commutative
  C*-algebra, with a certified branch-and-bound engine that either
  realizes a type up to a tolerance or refutes it with a concrete
  deviation floor; it searches each point's coordinates apart, as a
  norm is within tol of a target exactly when every point stays below
  its top and some point covers its bottom (``realize_type``);
* the pairwise-orthogonal-positive-elements count, whose finite value
  is the obstruction that keeps finite-dimensional algebras far from
  saturation: each point covers at most one norm-1 element of such a
  family, which is how the engine refutes one too large.
"""

from __future__ import annotations

import collections
import functools
import operator

import numpy as np

from elemeq.boolalg import FiniteBoolAlg
from elemeq.clogic import (
    CAdd,
    CConst,
    CMul,
    CScale,
    CStar,
    CSub,
    CVar,
    CZero,
    COne,
    FNorm,
    SORT_BALL,
    SORT_POS,
    SORT_SA,
    Arith,
    _DISC_BAND,
    _check_search,
    _in_disc,
    _initial_box,
    _onto_disc,
    _rect_add,
    _rect_conj,
    _rect_kernel,
    _rect_point,
    _rect_sub,
    ceval,
    eval_term,
    term_free_vars,
)
from elemeq.cstar import CStarAlgebraFin, c_mul, c_norm
from elemeq.errors import Frozen, PreconditionError, ResourceBudgetError

MAX_REALIZE_VARIABLES = 3
MAX_REALIZE_POINTS = 4
MAX_REALIZE_CONDITIONS = 16
MAX_ORTHOGONAL_POINTS = 8
MAX_INTERPOLATE_ATOMS = 10_000  # every mask then prints in at most 3,011 digits
DEFAULT_REALIZE_BOXES = 2_000_000
_REALIZE_SORTS = (SORT_BALL, SORT_SA, SORT_POS)
_BATCH_SIZE = 512
_FILL_SIDE = 0.25  # of 1, 1/2, 1/4 and 1/8, 1/4 gave the realize bench its least CPU


# ---------------------------------------------------------------------------
# A presented atomless Boolean algebra
# ---------------------------------------------------------------------------


def _spell(point: int, depth: int) -> str:
    """The binary word of length ``depth`` that names ``point``."""
    return format(point | 1 << depth, "b")[1:]


def _element(depth: int, cuts) -> CylinderElement:
    """The element with these cuts at ``depth``, at its least depth."""
    low = functools.reduce(operator.or_, cuts, 1 << depth)
    shift = (low & -low).bit_length() - 1  # the common trailing zero bits, at most depth
    return Frozen.__new__(CylinderElement, depth - shift, tuple(c >> shift for c in cuts))


class CylinderElement(Frozen):
    """A finite union of cylinder sets, as the sorted points where it starts and stops.

    A word w of length d names the interval [w, w + 1) of [0, 2^d); an element
    is [c0, c1) ∪ [c2, c3) ∪ ... for ``cuts`` c0 < c1 < ... at the least ``depth``
    that makes every cut an integer, so equal elements have equal fields.  The
    constructor takes words of length ``depth``, as ``words`` gives them back.
    """

    depth: int
    cuts: tuple

    def __new__(cls, depth, words):
        if depth < 0:
            raise PreconditionError("cylinder depth must be nonnegative")
        for w in words:
            if len(w) != depth or w.strip("01"):
                raise PreconditionError(f"word {w!r} is not binary of length {depth}")
        points = {int("0" + w, 2) for w in words}
        return _element(depth, sorted(points ^ {p + 1 for p in points}))  # where runs start and stop

    def __reduce__(self):
        return _element, self[1:]

    def is_zero(self) -> bool:
        return not self.cuts

    @property
    def words(self) -> tuple:
        """The sorted words of length ``depth`` inside the element: up to 2^depth of them."""
        runs = zip(self.cuts[::2], self.cuts[1::2])
        return tuple(_spell(p, self.depth) for lo, hi in runs for p in range(lo, hi))

    @property
    def cylinders(self) -> tuple:
        """The maximal cylinders inside the element, left to right."""
        found = []
        for lo, hi in zip(self.cuts[::2], self.cuts[1::2]):
            while lo < hi:  # the largest aligned block at lo that fits below hi
                size = min(lo & -lo or 1 << self.depth, 1 << (hi - lo).bit_length() - 1)
                found.append(_spell(lo // size, self.depth + 1 - size.bit_length()))
                lo += size
        return tuple(found)


class PresentedAtomlessBA:
    """The Boolean algebra of finite unions of binary cylinder sets.

    Every nonzero element splits into strictly smaller nonzero pieces,
    so the algebra is atomless.  The API mirrors ``FiniteBoolAlg``:
    operations take and return ``CylinderElement`` values.
    """

    @property
    def bottom(self) -> CylinderElement:
        return _element(0, ())

    @property
    def top(self) -> CylinderElement:
        return _element(0, (0, 1))

    def cylinder(self, word: str) -> CylinderElement:
        """The single cylinder of sequences starting with ``word``."""
        return CylinderElement(len(word), (word,))

    def _sweep(self, a: CylinderElement, b: CylinderElement, keep: tuple) -> CylinderElement:
        """One pass over the cuts of a and b: x is in the result when keep[2 (x in a) + (x in b)]."""
        depth = max(a.depth, b.depth)
        in_a, in_b = ({c << depth - x.depth for c in x.cuts} for x in (a, b))
        cuts, ina, inb = [], False, False
        for point in sorted(in_a | in_b):
            ina ^= point in in_a
            inb ^= point in in_b
            if keep[2 * ina + inb] != len(cuts) % 2:  # an odd count of cuts so far: inside
                cuts.append(point)
        return _element(depth, cuts)

    def join(self, a: CylinderElement, b: CylinderElement) -> CylinderElement:
        return self._sweep(a, b, (0, 1, 1, 1))

    def meet(self, a: CylinderElement, b: CylinderElement) -> CylinderElement:
        return self._sweep(a, b, (0, 0, 0, 1))

    def complement(self, a: CylinderElement) -> CylinderElement:
        return _element(a.depth, sorted(set(a.cuts) ^ {0, 1 << a.depth}))

    def leq(self, a: CylinderElement, b: CylinderElement) -> bool:
        return self.meet(a, b) == a


# ---------------------------------------------------------------------------
# Chain interpolation
# ---------------------------------------------------------------------------


class NotFound(Frozen):
    """Verdict: the open interval between the chains is empty."""


NOT_FOUND = NotFound()


def _chain_bounds(lower_chain, upper_chain, algebra, bottom, top):
    """Validate the two strict chains and return (max(Y), min(Z))."""
    for chain, ascending, label in ((lower_chain, True, "lower"), (upper_chain, False, "upper")):
        for prev, curr in zip(chain, chain[1:]):
            lo, hi = (prev, curr) if ascending else (curr, prev)
            if not (algebra.leq(lo, hi) and lo != hi):
                raise PreconditionError(f"{label} chain is not strictly monotone")
    u = lower_chain[-1] if lower_chain else bottom
    v = upper_chain[-1] if upper_chain else top
    if not (algebra.leq(u, v) and u != v):
        raise PreconditionError("lower chain is not strictly below upper chain")
    return u, v


def interpolate_chain(lower_chain, upper_chain, algebra):
    """Find c strictly between an ascending and a descending chain.

    ``lower_chain`` must be strictly ascending, ``upper_chain`` strictly
    descending, and the largest lower element strictly below the smallest
    upper element (empty chains default to bottom and top).  Violations
    raise ``PreconditionError``.  In ``PresentedAtomlessBA`` an
    interpolant always exists: the gap's first word at its depth is split
    and its first half joined to the lower bound.  In ``FiniteBoolAlg`` the
    verdict ``NOT_FOUND`` is returned when the open interval is empty; an
    algebra of over ``MAX_INTERPOLATE_ATOMS`` atoms raises
    ``ResourceBudgetError`` before its top element is built.
    Every returned element is re-checked to lie strictly between the bounds.
    """
    if isinstance(algebra, PresentedAtomlessBA):
        u, v = _chain_bounds(lower_chain, upper_chain, algebra, algebra.bottom, algebra.top)
        gap = algebra.meet(v, algebra.complement(u))
        candidate = algebra.join(u, algebra.cylinder(_spell(gap.cuts[0], gap.depth) + "0"))
    elif isinstance(algebra, FiniteBoolAlg):
        if algebra.atom_count > MAX_INTERPOLATE_ATOMS:
            raise ResourceBudgetError(f"atom count exceeds the cap {MAX_INTERPOLATE_ATOMS}")
        u, v = _chain_bounds(lower_chain, upper_chain, algebra, 0, algebra.full)
        gap = v & ~u & algebra.full
        if gap.bit_count() < 2:
            return NOT_FOUND
        candidate = u | (gap & -gap)
    else:
        raise PreconditionError("algebra must be PresentedAtomlessBA or FiniteBoolAlg")
    if not (algebra.leq(u, candidate) and algebra.leq(candidate, v) and u != candidate != v):
        raise RuntimeError("interpolation postcondition failed")
    return candidate


# ---------------------------------------------------------------------------
# Degree-1 type conditions
# ---------------------------------------------------------------------------


def _term_degrees(term) -> dict:
    """Per-variable degree of a *-polynomial term."""
    if isinstance(term, CVar):
        return {term.name: 1}
    if isinstance(term, (CZero, COne, CConst)):
        return {}
    if isinstance(term, (CStar, CScale)):
        return _term_degrees(term.arg)
    if not isinstance(term, (CAdd, CSub, CMul)):
        raise PreconditionError(f"not a term: {term!r}")
    left = _term_degrees(term.left)
    right = _term_degrees(term.right)
    merged = {}
    for name in left.keys() | right.keys():
        dl, dr = left.get(name, 0), right.get(name, 0)
        merged[name] = dl + dr if isinstance(term, CMul) else max(dl, dr)
    return merged


def _normalize_target(target) -> tuple:
    intervals = []
    for pair in target:
        lo, hi = float(pair[0]), float(pair[1])
        if not (lo <= hi):
            raise PreconditionError(f"target interval [{lo}, {hi}] is empty")
        intervals.append((lo, hi))
    if not intervals:
        raise PreconditionError("target must contain at least one interval")
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


class TypeCondition(Frozen):
    """One condition: the norm of a degree-1 *-polynomial must land in a
    finite union of closed real intervals."""

    polynomial: object
    target: tuple

    def __new__(cls, polynomial, target):
        for name, degree in sorted(_term_degrees(polynomial).items()):
            if degree > 1:
                raise PreconditionError(f"variable {name} has degree {degree} > 1")
        return Frozen.__new__(cls, polynomial, _normalize_target(target))

    def variables(self) -> frozenset:
        return term_free_vars(self.polynomial)


def distance_to_target(value: float, target) -> float:
    """Distance from a real value to a finite union of closed intervals."""
    return min(max(lo - value, value - hi, 0.0) for lo, hi in target)


# ---------------------------------------------------------------------------
# Type realization: results
# ---------------------------------------------------------------------------


class Realized(Frozen):
    """A concrete assignment meeting every condition within tolerance."""

    assignment: dict
    max_deviation: float
    certificates: tuple


class Unsatisfiable(Frozen):
    """No assignment meets all listed conditions within ``epsilon``."""

    epsilon: float
    delta: tuple


class Inconclusive(Frozen):
    """The search budget ran out before either verdict was certified."""

    best_deviation: float
    boxes_used: int


# ---------------------------------------------------------------------------
# Batched arithmetics for ``clogic.eval_term``
#
# A one-point box gives each variable a rectangle (re_lo, re_hi, im_lo, im_hi),
# shape (V, 4).  Each row of a level (a box or a sample point) carries its
# point, and a constant is read at the rows' points, so one ``eval_term`` pass
# per condition bounds the moduli of every row against its own point's
# constants, in the rectangles of ``clogic`` (its kernel on numpy's min, max,
# hypot and ``_np_outward``: modulus bounds widened by two floats each way, as
# np.hypot is not correctly rounded), or at sample points in numpy complex
# values.  No max over the points is taken: the search is split over them,
# and they meet only in cover states (``_RealizeProblem``).
# ---------------------------------------------------------------------------

def _np_outward(x, toward):
    """Moduli x (>= +0.0, inf or nan) two floats toward -inf or inf on their float64 bit patterns:
    downward floored at +0.0 (below it the pattern wraps), upward clamped at inf, nan kept."""
    bits = x.view(np.int64)
    stepped = np.maximum(bits - 2, 0) if toward < 0 else np.minimum(bits + 2, 0x7FF0000000000000)  # inf's
    return np.where(np.isnan(x), x, stepped.view(np.float64))


_np_mul, _np_mod, _np_abs_iv = _rect_kernel(lambda *xs: functools.reduce(np.minimum, xs),
                                            lambda *xs: functools.reduce(np.maximum, xs), np.hypot, _np_outward)

_NP_RECTS = Arith(lambda values: _rect_point(np.asarray(values, dtype=complex)),
                  _rect_add, _rect_sub, _np_mul, _rect_conj)

_NP_VALUES = Arith(lambda values: np.asarray(values, dtype=complex), operator.add, operator.sub, operator.mul, np.conj)


def _member(keys, sorted_keys):
    """Whether each key is one of ``sorted_keys`` (nonempty, ascending)."""
    return sorted_keys[np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)] == keys


def _split(boxes):
    """Halve each box along its widest axis (ties: first slot, real
    axis before imaginary): the low halves, then the high halves."""
    ends = boxes.reshape(len(boxes), -1, 2)  # (lo, hi) per slot and axis
    widest, rows = (ends[..., 1] - ends[..., 0]).argmax(axis=1), np.arange(len(boxes))
    pair = ends[rows, widest]
    mid = (pair[:, 0] + pair[:, 1]) / 2.0
    halves = np.concatenate([boxes, boxes])
    ends = halves.reshape(2, len(boxes), -1, 2)
    ends[0, rows, widest, 1] = mid
    ends[1, rows, widest, 0] = mid
    return halves


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _geometry(sorts):
    """Variables of these sorts: the sorts, the slots of ``ball`` and of the real sorts,
    the real sorts' domain ends (floor, ceiling) and the one-point domain as one box."""
    array = np.array(sorts)
    ball, real = np.flatnonzero(array == SORT_BALL), np.flatnonzero(array != SORT_BALL)
    domain = np.array([sum((_initial_box(sort, 1) for sort in sorts), ())])
    return _read_only(array, ball, real, *domain[0, real, :2].T, domain)


@functools.lru_cache(maxsize=64)
def _first_level(sorts, room, n):
    """The one-point domain split to sides of at most ``_FILL_SIDE`` in at most ``room`` boxes, at
    each of the n points: the boxes that meet every domain, their points and the count made."""
    _, ball, *_, boxes = _geometry(sorts)
    while 2 * len(boxes) <= room and (boxes[0, :, 1::2] - boxes[0, :, 0::2]).max() > _FILL_SIDE:
        boxes = _split(boxes)
    kept = boxes[_feasible(boxes, ball)]
    return *_read_only(np.tile(kept, (n, 1, 1)), np.repeat(np.arange(n), len(kept))), n * len(boxes)


def _feasible(boxes, ball):
    """Whether each box meets every domain (a ``ball`` box's nearest point in the disc, exactly)."""
    if not ball.size:
        return np.ones(boxes.shape[0], dtype=bool)
    near = np.minimum(np.maximum(boxes[:, ball, 0::2], 0.0), boxes[:, ball, 1::2])
    return _in_disc_np(near[..., 0], near[..., 1]).all(axis=1)


def _maximal(keys):
    """The cover states that no other one contains bitwise."""
    kept, keys = [], set(keys)
    for key in sorted(keys, key=int.bit_count, reverse=True) if len(keys) > 1 else keys:
        if all(key & other != key for other in kept):
            kept.append(key)
    return kept


def _in_disc_np(re, im):
    """``clogic._in_disc`` elementwise: exact inside the ``_DISC_BAND`` around 1."""
    square = re * re + im * im
    inside, band = square < 1.0, np.abs(square - 1.0) <= _DISC_BAND
    if band.any():
        inside[band] = list(map(_in_disc, re[band].tolist(), im[band].tolist()))
    return inside


def _onto_disc_np(re, im):
    """``clogic._onto_disc`` elementwise: the points outside the disc are pulled in one by one."""
    points, missed = re + 1j * im, ~_in_disc_np(re, im)
    if missed.any():
        points[missed] = list(map(_onto_disc, re[missed].tolist(), im[missed].tolist()))
    return points


class _RealizeProblem:
    """One-point geometry, bounds at each row's point and cover states for one realize_type call.

    Targets [l_1, h_1] < ... < [l_K, h_K] are padded to the longest by repeating
    the last.  At a threshold t, the state of a box or sample point at one point
    has, per condition c, bit c (K + 1) + k set when it can serve interval k
    (l_k - |p_c| <= t somewhere: a prefix of the k), and the bit ``bits``
    higher when it leaves k open (|p_c| - h_k <= t somewhere: a suffix).
    States join by union of the low half and intersection of the high half,
    and a join covers when each condition's least open interval is served.
    """

    def __init__(self, conditions, algebra, sorts_by_var):
        self.conditions, self.algebra, self.points = conditions, algebra, algebra.point_count
        self.names = sorted(sorts_by_var)
        self.sort_key = tuple(sorts_by_var[name] for name in self.names)
        self.sorts, self.ball, self.real, self.floor, self.ceiling, self.domain = _geometry(self.sort_key)
        self.width = width = max(len(c.target) for c in conditions)
        ends = np.array([c.target + c.target[-1:] * (width - len(c.target)) for c in conditions])
        self.t_lo, self.t_hi = ends[..., :1], ends[..., 1:]
        self.bits = bits = (width + 1) * len(conditions)  # a guard bit after each condition's K
        step = range(0, bits, width + 1)
        self.ones, self.open = sum(1 << at for at in step), sum(((1 << width) - 1) << at for at in step)
        self.low, self.neutral = (1 << bits) - 1, self.open << bits
        # a state times the point count, plus the point, fits an int64 or is a Python int
        self.weights = np.array([1 << (at + k) for at in step for k in range(width)],
                                dtype=object if 2 * bits > 60 else np.int64)
        self.arrays = {}  # each constant's values as one array

    def at(self, arith, points):
        """``arith`` with each constant read at the rows' ``points``."""
        def const(values):
            if values not in self.arrays:
                self.arrays[values] = np.array(values, dtype=complex)
            return arith.const(self.arrays[values][points])
        return arith._replace(const=const)

    def bounds(self, boxes, points):
        """Modulus bounds (lo, hi) of each condition over each box at its point, shape
        (C, m), widened as ``clogic._abs_iv``: one pass per condition over the boxes."""
        env = {name: tuple(boxes[:, v, k] for k in range(4)) for v, name in enumerate(self.names)}
        arith = self.at(_NP_RECTS, points)
        rects = [eval_term(c.polynomial, env, self.algebra, arith) for c in self.conditions]
        return _np_abs_iv(tuple(map(np.array, zip(*rects))))  # each component's (C, m) array

    def moduli(self, cands, points):
        """Exact moduli of each condition at each sample point at its point, shape (C, m)."""
        env = {name: cands[:, v] for v, name in enumerate(self.names)}
        arith = self.at(_NP_VALUES, points)
        return np.abs([eval_term(c.polynomial, env, self.algebra, arith) for c in self.conditions])

    def gaps(self, lo, hi):
        """|p_c| - h_k and l_k - |p_c| at their least over modulus bounds (C, m): (C, K, m) each."""
        return lo[:, None] - self.t_hi, self.t_lo - hi[:, None]

    def states(self, lo, hi, t):
        """The state at threshold ``t`` of boxes (or sample points) of modulus bounds (C, m)."""
        above, below = ((g <= t).reshape(len(self.weights), -1) for g in self.gaps(lo, hi))
        return np.dot(self.weights, below) + np.dot(self.weights << self.bits, above)

    def join(self, a, b):
        return (a | b) & self.low | a & b & ~self.low

    def covers(self, key):  # a condition with no interval open carries into its guard bit
        need = (~(key >> self.bits) & self.open) + self.ones
        return key & need == need

    def useful(self, tables):
        """Per point, the states of its table that take part in a covering choice."""
        tops, result = [_maximal(table) for table in tables], []
        for i, table in enumerate(tables):
            rest = [self.neutral]
            for top in tops[:i] + tops[i + 1:]:
                rest = _maximal({self.join(r, k) for r in rest for k in top})
            result.append([k for k in table if any(self.covers(self.join(r, k)) for r in rest)])
        return result

    def cover(self, tables):
        """States, one from each point's table, whose join covers, or None."""
        reach = {self.neutral: ()}
        for top in map(_maximal, tables):
            step = {self.join(joined, key): choice + (key,) for joined, choice in reach.items() for key in top}
            reach = {joined: step[joined] for joined in _maximal(step)}
        return next((choice for joined, choice in reach.items() if self.covers(joined)), None)

    def least_cover(self, bounds, above, below):
        """The least threshold in (above, below) at which a choice of one box or sample
        point per point (``bounds`` (lo, hi) of each point's) covers, else ``below``.
        Covers change only at gap values (0 for negative ones), so this bisects
        those between one without a cover and one with, the highest first."""
        values = np.maximum(np.concatenate([g.ravel() for b in bounds for g in self.gaps(*b)] + [[0.0]]), 0.0)
        values, t = values[(values > above) & (values < below)], None
        while len(values):
            t = values.max() if t is None else values[np.argmin(np.abs(values - (values.min() + values.max()) / 2))]
            if self.cover([self.states(*b, t).tolist() for b in bounds]) is None:
                values = values[values > t]
            else:
                below, values = t, values[values < t]
        return float(below)

    def witnesses(self, boxes):
        """Witness candidates of feasible boxes, candidate-major, shape (M, V), and each one's
        box.  ``sa``/``pos``: midpoint, all-low, all-high, then each coordinate snapped to its
        end on the domain boundary (else the midpoint), high then low first on ties.  ``ball``:
        the nearest point, then the farthest pulled into the disc.  No duplicate is scored."""
        cands = np.empty((5 if self.real.size else 2, boxes.shape[0], len(self.names)), dtype=complex)
        if self.ball.size:
            lo, hi = boxes[:, self.ball, 0::2], boxes[:, self.ball, 1::2]
            near = np.minimum(np.maximum(lo, 0.0), hi)
            far = np.where(-lo > hi, lo, hi)
            rows = np.stack([near[..., 0] + 1j * near[..., 1],
                             _onto_disc_np(far[..., 0], far[..., 1])])
            cands[:, :, self.ball] = rows[[0, 0, 0, 1, 1] if self.real.size else [0, 1]]
        scored = np.ones(cands.shape[:2], dtype=bool)
        if self.real.size:
            lo, hi = boxes[:, self.real, 0], boxes[:, self.real, 1]
            mid = (lo + hi) / 2.0
            up, down = hi == self.ceiling, lo == self.floor
            cands[:, :, self.real] = [mid, lo, hi, np.where(up, hi, np.where(down, lo, mid)),
                                      np.where(down, lo, np.where(up, hi, mid))]
            snapped = (up | down).any(axis=1) | bool(self.ball.size)
            scored[3:] = snapped, (up & down).any(axis=1)
        return cands[scored], np.nonzero(scored)[1]


def _certify_assignment(conditions, algebra, assignment):
    """Certify every condition at the assignment via formula evaluation:
    the certificates and the largest certified distance to a target."""
    certificates = tuple(ceval(FNorm(c.polynomial), algebra, assignment, tol=1e-9) for c in conditions)
    deviation = max(distance_to_target(bound, c.target) for c, cert in zip(conditions, certificates)
                    for bound in (cert.lower, cert.upper))
    return certificates, deviation


@np.errstate(over="ignore", invalid="ignore")  # the bounds keep inf and nan (``_np_outward``)
def realize_type(
    conditions,
    algebra: CStarAlgebraFin,
    tol: float,
    *,
    sorts=None,
    max_boxes: int = DEFAULT_REALIZE_BOXES,
):
    """Realize or refute a finite degree-1 type over the unit ball.

    Searches assignments of unit-ball elements (per-variable sorts may
    restrict to self-adjoint or positive contractions) minimizing the
    largest distance of any condition's polynomial norm from its target.
    Returns ``Realized`` when an assignment is certified within ``tol``,
    ``Unsatisfiable(epsilon, delta)`` when branch-and-bound proves every
    assignment deviates by at least ``epsilon > tol`` on the listed
    conditions, and ``Inconclusive`` when the box budget runs out first.

    The search is split over the points: max_i a_i, a_i = |p_c(x)_i|, is
    within t of [l, h] exactly when every a_i <= h + t and some a_i >= l - t
    (for a union of intervals, the first holds from some interval on and the
    second up to some), so each point refines its own boxes, which meet only
    in cover states (``_RealizeProblem``).  A box failing the first part at
    ``tol`` is dropped, its least excess joining a floor.  The type is
    refuted when no choice of one box per point covers at ``tol``, with
    ``epsilon`` the least threshold at which a choice of the other boxes
    covers, capped by the floor.  Only boxes whose state takes part in a
    covering choice are split (oldest first, up to ``_BATCH_SIZE // 2``
    times the point count per level) or score witnesses; a covering choice
    of one witness per point is certified by ``ceval``.  An
    ``Inconclusive``'s ``best_deviation`` is the least of the pooled
    witnesses' covering threshold and a rejected choice's certified
    deviation.  The first level splits the domain up front for every point
    (``_first_level``, cached per sorts, room and point count).  A level is
    assessed whole, so ``boxes_used`` (one-point boxes over all points) can
    pass ``max_boxes`` (at least 1) by at most one level.
    """
    conditions = tuple(conditions)
    if not conditions or len(conditions) > MAX_REALIZE_CONDITIONS:
        raise PreconditionError(f"need between 1 and {MAX_REALIZE_CONDITIONS} conditions")
    if algebra.point_count > MAX_REALIZE_POINTS:
        raise PreconditionError(f"algebra must have at most {MAX_REALIZE_POINTS} points")
    _check_search(tol, max_boxes)
    for condition in conditions:
        if not isinstance(condition, TypeCondition):
            raise PreconditionError("conditions must be TypeCondition instances")
    names = sorted(frozenset().union(*(c.variables() for c in conditions)))
    if len(names) > MAX_REALIZE_VARIABLES:
        raise PreconditionError(f"at most {MAX_REALIZE_VARIABLES} variables are supported")
    sorts = dict(sorts or {})
    for name, sort in sorts.items():
        if sort not in _REALIZE_SORTS:
            raise PreconditionError(f"unknown sort {sort!r} for variable {name}")
    sorts_by_var = {name: sorts.get(name, SORT_BALL) for name in names}

    if not names:
        certificates, deviation = _certify_assignment(conditions, algebra, {})
        if deviation <= tol:
            return Realized({}, deviation, certificates)
        return Unsatisfiable(deviation, conditions)

    problem = _RealizeProblem(conditions, algebra, sorts_by_var)
    n = problem.points
    # Levels [boxes, points, lo, hi, keys, alive] in order, from the first with an
    # alive box (not dropped nor split), keyed state * n + point; the alive boxes per
    # key; one scored witness per key, with its moduli and its deviation alone.
    levels, cursor, counts, pools = [], 0, collections.Counter(), {}
    boxes_used, dropped = 0, np.inf
    failed = np.inf  # the least certified deviation of a choice that did not realize

    def tables(keys):  # per point, the states among the keys
        return [[key // n for key in keys if key % n == i] for i in range(n)]

    def assess(boxes, points, count):  # boxes that meet every domain, of count made
        nonlocal boxes_used, dropped
        boxes_used += count
        lo, hi = problem.bounds(boxes, points)
        excess = (lo - problem.t_hi[:, -1]).max(axis=0)  # over the upper part
        alive = excess <= tol
        dropped = min(dropped, excess[~alive].min(initial=np.inf))
        keys = problem.states(lo, hi, tol) * n + points
        levels.append([boxes, points, lo, hi, keys, alive])
        counts.update(keys[alive].tolist())

    def pop(useful):
        nonlocal cursor
        taken, room = [], n * _BATCH_SIZE // 2
        while cursor < len(levels) and room:
            boxes, points, _, _, keys, alive = levels[cursor]
            rows = np.flatnonzero(alive & _member(keys, useful))[:room]
            alive[rows] = False
            counts.subtract(keys[rows].tolist())
            taken.append((boxes[rows], points[rows]))
            room -= len(rows)
            cursor += room > 0  # no useful box is left on this level
        return [np.concatenate(part) for part in zip(*taken)]

    def per_point(lo, hi, points):  # each point's columns in order, cut from one stable argsort
        order, ends = np.argsort(points, kind="stable"), [0, *np.bincount(points, minlength=n).cumsum().tolist()]
        return [(lo[:, order[a:b]], hi[:, order[a:b]]) for a, b in zip(ends, ends[1:])]

    assess(*_first_level(problem.sort_key, min(_BATCH_SIZE // 2, max_boxes // n), n))
    while True:
        useful = problem.useful(tables([key for key, count in counts.items() if count]))
        if not useful[0]:
            remaining = [(lo[:, alive], hi[:, alive], points[alive]) for _, points, lo, hi, _, alive in levels]
            lo, hi, points = (np.concatenate(part, axis=-1) for part in zip(*remaining))
            return Unsatisfiable(problem.least_cover(per_point(lo, hi, points), tol, dropped), conditions)
        useful = np.array(sorted(key * n + i for i, keys in enumerate(useful) for key in keys),
                          dtype=problem.weights.dtype)
        boxes, points, _, _, keys, alive = levels[-1]  # its useful boxes score their witnesses
        rows = alive & _member(keys, useful)
        cands, owner = problem.witnesses(boxes[rows])
        points = points[rows][owner]
        found = problem.moduli(cands, points)
        alone = np.maximum(np.maximum(*problem.gaps(found, found)), 0.0).min(axis=1).max(axis=0)
        keys = problem.states(found, found, tol) * n + points
        for key in set(keys.tolist()):  # per state, the witness that deviates least alone
            row = int(np.where(keys == key, alone, np.inf).argmin())
            if key not in pools or alone[row] < pools[key][2]:
                pools[key] = cands[row], found[:, row], alone[row]
        choice = problem.cover(tables(pools))
        if choice is not None:
            rows = np.array([pools[key * n + i][0] for i, key in enumerate(choice)])
            assignment = {name: tuple(rows[:, v].tolist()) for v, name in enumerate(problem.names)}
            certificates, deviation = _certify_assignment(conditions, algebra, assignment)
            if deviation <= tol:
                return Realized(assignment, deviation, certificates)
            failed = min(failed, deviation)
            pools.clear()  # keep searching with fresh witnesses
        if boxes_used >= max_boxes:
            found = np.array([m for _, m, _ in pools.values()]).reshape(-1, len(conditions)).T
            points = np.array([key % n for key in pools], dtype=int)
            return Inconclusive(problem.least_cover(per_point(found, found, points), -1.0, failed), boxes_used)
        taken = pop(useful)  # never empty: states only shrink, so no useful box lies behind the cursor
        boxes, points = _split(taken[0]), np.tile(taken[1], 2)
        feasible = _feasible(boxes, problem.ball)
        assess(boxes[feasible], points[feasible], len(boxes))


# ---------------------------------------------------------------------------
# Orthogonal families
# ---------------------------------------------------------------------------


def orthogonal_witness_family(algebra: CStarAlgebraFin) -> tuple:
    """A largest family of pairwise-orthogonal norm-1 positive elements:
    the indicator of each point."""
    return tuple(algebra.indicator({i}) for i in range(algebra.point_count))


def max_orthogonal_family(algebra: CStarAlgebraFin) -> int:
    """Size of the largest pairwise-orthogonal family of norm-1 positive
    elements.

    Orthogonal positive elements have disjoint supports and a norm-1
    element's support is nonempty, so at most one element per point fits;
    the per-point indicators attain that bound, and the returned witness
    count is re-verified elementwise before being returned.
    """
    if algebra.point_count > MAX_ORTHOGONAL_POINTS:
        raise PreconditionError(f"algebra must have at most {MAX_ORTHOGONAL_POINTS} points")
    family = orthogonal_witness_family(algebra)
    for i, f in enumerate(family):
        if c_norm(f) != 1.0 or any(v != 0 and v != 1 for v in f):
            raise RuntimeError("witness family postcondition failed")
        for g in family[i + 1 :]:
            if any(v != 0 for v in c_mul(f, g)):
                raise RuntimeError("witness family postcondition failed")
    return len(family)
