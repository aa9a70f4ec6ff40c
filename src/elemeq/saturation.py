"""Finite-scale saturation experiments.

Three capabilities live here:

* a concretely presented atomless Boolean algebra (finite unions of
  cylinder sets over infinite binary sequences) together with chain
  interpolation, the order-theoretic heart of Boolean saturation;
* degree-1 type conditions over a finite-dimensional commutative
  C*-algebra, with a certified branch-and-bound engine that either
  realizes a type up to a tolerance or refutes it with a concrete
  deviation floor;
* the pairwise-orthogonal-positive-elements count, whose finite value
  is the obstruction that keeps finite-dimensional algebras far from
  saturation.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from elemeq.boolalg import FiniteBoolAlg
from elemeq.clogic import (
    CConst,
    CMul,
    CScale,
    CStar,
    CVar,
    CZero,
    COne,
    FNorm,
    SORT_BALL,
    SORT_POS,
    SORT_SA,
    Arith,
    _DISC_BAND,
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
from elemeq.errors import PreconditionError

MAX_REALIZE_VARIABLES = 3
MAX_REALIZE_POINTS = 4
MAX_REALIZE_CONDITIONS = 16
MAX_ORTHOGONAL_POINTS = 8
DEFAULT_REALIZE_BOXES = 2_000_000
_REALIZE_SORTS = (SORT_BALL, SORT_SA, SORT_POS)
_BATCH_SIZE = 512


# ---------------------------------------------------------------------------
# A presented atomless Boolean algebra
# ---------------------------------------------------------------------------


def _reduce_words(depth: int, words: frozenset) -> tuple:
    """Canonicalize a union of depth-`depth` cylinders at minimal depth."""
    if not words:
        return 0, frozenset()
    while depth > 0 and all(w[:-1] + ("1" if w[-1] == "0" else "0") in words for w in words):
        words = frozenset(w[:-1] for w in words)
        depth -= 1
    return depth, words


@dataclass(frozen=True)
class CylinderElement:
    """A finite union of cylinder sets, canonical at minimal depth.

    ``words`` is a set of binary strings of length ``depth``; the element
    is the union of the cylinders they name.  The constructor reduces the
    representation until no sibling pair remains, so equal elements have
    equal representations.
    """

    depth: int
    words: frozenset

    def __post_init__(self):
        if self.depth < 0:
            raise PreconditionError("cylinder depth must be nonnegative")
        for w in self.words:
            if len(w) != self.depth or any(ch not in "01" for ch in w):
                raise PreconditionError(f"word {w!r} is not binary of length {self.depth}")
        depth, words = _reduce_words(self.depth, frozenset(self.words))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "words", words)

    def is_zero(self) -> bool:
        return not self.words


def _lift_words(words, from_depth: int, to_depth: int) -> frozenset:
    if from_depth == to_depth:
        return frozenset(words)
    suffixes = ["".join(bits) for bits in itertools.product("01", repeat=to_depth - from_depth)]
    return frozenset(w + s for w in words for s in suffixes)


class PresentedAtomlessBA:
    """The Boolean algebra of finite unions of binary cylinder sets.

    Every nonzero element splits into strictly smaller nonzero pieces,
    so the algebra is atomless.  The API mirrors ``FiniteBoolAlg``:
    operations take and return ``CylinderElement`` values.
    """

    @property
    def bottom(self) -> CylinderElement:
        return CylinderElement(0, frozenset())

    @property
    def top(self) -> CylinderElement:
        return CylinderElement(0, frozenset({""}))

    def cylinder(self, word: str) -> CylinderElement:
        """The single cylinder of sequences starting with ``word``."""
        return CylinderElement(len(word), frozenset({word}))

    def _common(self, a: CylinderElement, b: CylinderElement) -> tuple:
        depth = max(a.depth, b.depth)
        return depth, _lift_words(a.words, a.depth, depth), _lift_words(b.words, b.depth, depth)

    def join(self, a: CylinderElement, b: CylinderElement) -> CylinderElement:
        depth, wa, wb = self._common(a, b)
        return CylinderElement(depth, wa | wb)

    def meet(self, a: CylinderElement, b: CylinderElement) -> CylinderElement:
        depth, wa, wb = self._common(a, b)
        return CylinderElement(depth, wa & wb)

    def complement(self, a: CylinderElement) -> CylinderElement:
        all_words = frozenset("".join(bits) for bits in itertools.product("01", repeat=a.depth))
        return CylinderElement(a.depth, all_words - a.words)

    def leq(self, a: CylinderElement, b: CylinderElement) -> bool:
        depth, wa, wb = self._common(a, b)
        return wa <= wb

    def lt(self, a: CylinderElement, b: CylinderElement) -> bool:
        return self.leq(a, b) and a != b


# ---------------------------------------------------------------------------
# Chain interpolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NotFound:
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
    interpolant always exists: the lexicographically first cylinder of
    the gap is split and its first half joined to the lower bound.  In
    ``FiniteBoolAlg`` the verdict ``NOT_FOUND`` is returned when the open
    interval is empty.  Every returned element is re-checked to lie
    strictly between the bounds.
    """
    if isinstance(algebra, PresentedAtomlessBA):
        u, v = _chain_bounds(lower_chain, upper_chain, algebra, algebra.bottom, algebra.top)
        gap = algebra.meet(v, algebra.complement(u))
        first = min(gap.words)
        candidate = algebra.join(u, algebra.cylinder(first + "0"))
        if not (algebra.lt(u, candidate) and algebra.lt(candidate, v)):
            raise RuntimeError("interpolation postcondition failed")
        return candidate
    if isinstance(algebra, FiniteBoolAlg):
        u, v = _chain_bounds(lower_chain, upper_chain, algebra, 0, algebra.full)
        gap = v & ~u & algebra.full
        if gap.bit_count() < 2:
            return NOT_FOUND
        candidate = u | (gap & -gap)
        if not (algebra.leq(u, candidate) and candidate != u and algebra.leq(candidate, v) and candidate != v):
            raise RuntimeError("interpolation postcondition failed")
        return candidate
    raise PreconditionError("algebra must be PresentedAtomlessBA or FiniteBoolAlg")


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


@dataclass(frozen=True)
class TypeCondition:
    """One condition: the norm of a degree-1 *-polynomial must land in a
    finite union of closed real intervals."""

    polynomial: object
    target: tuple

    def __post_init__(self):
        degrees = _term_degrees(self.polynomial)
        for name, degree in sorted(degrees.items()):
            if degree > 1:
                raise PreconditionError(f"variable {name} has degree {degree} > 1")
        object.__setattr__(self, "target", _normalize_target(self.target))

    def variables(self) -> frozenset:
        return term_free_vars(self.polynomial)


def distance_to_target(value: float, target) -> float:
    """Distance from a real value to a finite union of closed intervals."""
    return min(max(lo - value, value - hi, 0.0) for lo, hi in target)


# ---------------------------------------------------------------------------
# Type realization: results
# ---------------------------------------------------------------------------


@dataclass
class Realized:
    """A concrete assignment meeting every condition within tolerance."""

    assignment: dict
    max_deviation: float
    certificates: tuple


@dataclass(frozen=True)
class Unsatisfiable:
    """No assignment meets all listed conditions within ``epsilon``."""

    epsilon: float
    delta: tuple


@dataclass(frozen=True)
class Inconclusive:
    """The search budget ran out before either verdict was certified."""

    best_deviation: float
    boxes_used: int


# ---------------------------------------------------------------------------
# Batched arithmetics for ``clogic.eval_term``
#
# A box assigns to each (variable, point) slot a rectangle
# (re_lo, re_hi, im_lo, im_hi); stored boxes have shape (N, slots, 4).  Terms
# are evaluated over a batch of N boxes in the rectangles of ``clogic``, whose
# components here are arrays of shape (N, points), with product and modulus
# bounds from its kernel on numpy's min, max and hypot; and at sample points
# in numpy complex values, shape (N, points).  A level is one pass: all
# conditions' rectangles (values) are stacked, shape (4, C, N, points), and
# their norm bounds, widened by two floats as np.hypot is not correctly
# rounded, and their target distances are taken at once.  A pass costs about
# the same at any batch up to a few hundred boxes, so a level is filled: the
# boxes popped for it are bisected repeatedly, up to half a batch.
# Maxima over the short points axis are taken pairwise (``_point_max``), as a
# numpy reduction over 1-4 entries costs ~10x that many ``np.maximum`` calls.
# ---------------------------------------------------------------------------

_np_mul, _np_mod = _rect_kernel(lambda *xs: functools.reduce(np.minimum, xs),
                                lambda *xs: functools.reduce(np.maximum, xs), np.hypot)

_NP_RECTS = Arith(
    lambda values: _rect_point(np.array(values, dtype=complex).reshape(1, -1)),
    _rect_add, _rect_sub, _np_mul, _rect_conj, lambda s, a: _np_mul(_rect_point(s), a),
)

_NP_VALUES = Arith(
    lambda values: np.array(values, dtype=complex).reshape(1, -1),
    operator.add, operator.sub, operator.mul, np.conj, operator.mul,
)


def _point_max(a):
    """``a.max(axis=-1)``, as pairwise maxima over the (short) last axis."""
    return functools.reduce(np.maximum, (a[..., i] for i in range(a.shape[-1])))


def _norm_bounds(rect):
    """Norm bounds (largest modulus over the last axis), widened as ``clogic._abs_iv``."""
    lo, hi = map(_point_max, _np_mod(rect))
    lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return np.maximum(np.nextafter(lo, -np.inf), 0.0), np.nextafter(hi, np.inf)


def _in_disc_np(re, im):
    """``clogic._in_disc`` elementwise: exact inside the ``_DISC_BAND`` around 1."""
    square = re * re + im * im
    inside, band = square < 1.0, np.abs(square - 1.0) <= _DISC_BAND
    if band.any():
        inside[band] = list(map(_in_disc, re[band].tolist(), im[band].tolist()))
    return inside


def _onto_disc_np(re, im):
    """re + i im, pulled radially into the unit disc unless certainly in it."""
    rim = re * re + im * im >= 1 - _DISC_BAND
    shrink = np.where(rim, (1 - _DISC_BAND) / np.maximum(np.hypot(re, im), 1.0), 1.0)
    points = re * shrink + 1j * (im * shrink)
    missed = ~_in_disc_np(points.real, points.imag)
    if missed.any():
        points[missed] = [_onto_disc(z.real, z.imag) for z in points[missed].tolist()]
    return points


class _RealizeProblem:
    """Shared geometry and bound computations for one realize_type call."""

    def __init__(self, conditions, algebra, sorts_by_var):
        self.conditions = conditions
        self.algebra = algebra
        self.names = sorted(sorts_by_var)
        self.sorts = [sorts_by_var[name] for name in self.names]
        self.points = algebra.point_count
        self.slots = len(self.names) * self.points
        slot_sorts = np.repeat(self.sorts, self.points)
        self.ball = np.flatnonzero(slot_sorts == SORT_BALL)
        self.real = np.flatnonzero(slot_sorts != SORT_BALL)
        # the real sorts' domain ends, per real slot
        self.floor, self.ceiling = self.initial_box()[0, self.real, :2].T
        width = max(len(c.target) for c in conditions)
        ends = np.array([c.target + c.target[-1:] * (width - len(c.target)) for c in conditions])
        self.t_lo, self.t_hi = ends[..., :1], ends[..., 1:]
        self.rects, self.values = (arith._replace(const=functools.cache(arith.const))
                                   for arith in (_NP_RECTS, _NP_VALUES))

    def initial_box(self):
        return np.array([sum((_initial_box(sort, self.points) for sort in self.sorts), ())])

    def _env(self, columns):
        return {name: columns[..., i * self.points : (i + 1) * self.points]
                for i, name in enumerate(self.names)}

    def _distance(self, norms):
        """Distances (C, N) of each condition's norms to its target, padded to (C, K, 1)."""
        norms = norms[:, None]
        return np.maximum(np.maximum(self.t_lo - norms, norms - self.t_hi), 0.0).min(axis=1)

    def feasible(self, boxes):
        """Whether each box meets every domain (a ``ball`` box's nearest point in the disc, exactly)."""
        if not self.ball.size:
            return np.ones(boxes.shape[0], dtype=bool)
        near = np.minimum(np.maximum(boxes[:, self.ball, 0::2], 0.0), boxes[:, self.ball, 1::2])
        return _in_disc_np(near[..., 0], near[..., 1]).all(axis=1)

    def witnesses(self, boxes):
        """Witness candidates of feasible boxes, candidate-major, shape (M, slots).  ``sa``/``pos``:
        midpoint, all-low, all-high, then each coordinate snapped to its end on the domain boundary
        (else the midpoint), high then low first on ties.  ``ball``: the nearest point, then the
        farthest pulled into the disc.  No duplicate is scored."""
        cands = np.empty((5 if self.real.size else 2, boxes.shape[0], self.slots), dtype=complex)
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
        return cands[scored]

    def deviation_floor(self, boxes):
        """Per box, a lower bound on the largest deviation over the box: the
        least distance of each condition's widened norm bounds to its target."""
        env = self._env(boxes.transpose(2, 0, 1))
        rects = np.empty((4, len(self.conditions), boxes.shape[0], self.points))
        for i, condition in enumerate(self.conditions):
            rects[:, i] = eval_term(condition.polynomial, env, self.algebra, self.rects)
        nlo, nhi = _norm_bounds(rects)
        meets = ((nlo[:, None] <= self.t_hi) & (self.t_lo <= nhi[:, None])).any(axis=1)
        return np.where(meets, 0.0, np.minimum(self._distance(nlo), self._distance(nhi))).max(axis=0)

    def deviation_at(self, reps):
        """Exact max-over-conditions deviation at sample points."""
        env = self._env(reps)
        values = np.empty((len(self.conditions), reps.shape[0], self.points), dtype=complex)
        for i, condition in enumerate(self.conditions):
            values[i] = eval_term(condition.polynomial, env, self.algebra, self.values)
        return self._distance(_point_max(np.abs(values))).max(axis=0)

    def split(self, boxes):
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


def _certify_assignment(conditions, algebra, assignment):
    """Certify every condition at the assignment via formula evaluation:
    the certificates and the largest certified distance to a target."""
    certificates = tuple(ceval(FNorm(c.polynomial), algebra, assignment, tol=1e-9) for c in conditions)
    deviation = max(distance_to_target(bound, c.target) for c, cert in zip(conditions, certificates)
                    for bound in (cert.lower, cert.upper))
    return certificates, deviation


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
    The search is best first.  Each level pops up to ``_BATCH_SIZE`` boxes,
    bisects them k = max(1, floor(log2(_BATCH_SIZE / (2 * popped)))) times
    along their widest axes, so that a level is filled to half a batch even
    when few boxes survive, and bounds the pieces in one numpy pass.  Only
    the boxes it keeps (deviation floor at most ``tol``) score witnesses that
    reach the sorts' boundaries (``witnesses``), as a pruned box holds no
    point within ``tol``.  A level is assessed whole, so ``boxes_used`` can
    pass ``max_boxes`` (at least 1) by at most one level, fewer than
    ``2 * _BATCH_SIZE`` boxes.
    """
    conditions = tuple(conditions)
    if not conditions or len(conditions) > MAX_REALIZE_CONDITIONS:
        raise PreconditionError(f"need between 1 and {MAX_REALIZE_CONDITIONS} conditions")
    if algebra.point_count > MAX_REALIZE_POINTS:
        raise PreconditionError(f"algebra must have at most {MAX_REALIZE_POINTS} points")
    if not 0 < tol < np.inf:
        raise PreconditionError("tolerance must be positive and finite")
    if not max_boxes >= 1:
        raise PreconditionError("box budget must be at least 1")
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
    counter, heap, best_rep, boxes_used = itertools.count(), [], None, 0
    floor = best_value = np.inf

    def assess(boxes):
        nonlocal floor, best_value, best_rep, boxes_used
        boxes_used += boxes.shape[0]
        feasible = problem.feasible(boxes)
        if not feasible.all():
            boxes = boxes[feasible]
        g_lo = problem.deviation_floor(boxes)
        pruned = g_lo > tol
        if pruned.any():
            floor = min(floor, float(g_lo[pruned].min()))
            boxes, g_lo = boxes[~pruned], g_lo[~pruned]
        if boxes.shape[0] == 0:
            return
        cands = problem.witnesses(boxes)
        g_cand = problem.deviation_at(cands)
        leader = int(np.argmin(g_cand))
        if g_cand[leader] < best_value:
            best_value, best_rep = float(g_cand[leader]), cands[leader].copy()
        # one heap key per box: its row in this level's survivors (the chunk)
        for item in zip(g_lo.tolist(), counter, itertools.repeat(boxes), range(boxes.shape[0])):
            heapq.heappush(heap, item)

    assess(problem.initial_box())
    while True:
        if best_value <= tol:
            assignment = {name: tuple(z.tolist()) for name, z in problem._env(best_rep).items()}
            certificates, deviation = _certify_assignment(conditions, algebra, assignment)
            if deviation <= tol:
                return Realized(assignment, deviation, certificates)
            best_value = np.inf  # keep searching from surviving boxes
        if not heap:
            return Unsatisfiable(float(floor), conditions)
        if boxes_used >= max_boxes:
            return Inconclusive(float(best_value), boxes_used)
        _, _, chunks, rows = zip(*(heapq.heappop(heap) for _ in range(min(_BATCH_SIZE, len(heap)))))
        ids, rows = np.array(list(map(id, chunks))), np.array(rows)
        boxes = np.empty((len(rows), problem.slots, 4))
        for chunk in dict(zip(map(id, chunks), chunks)).values():  # in pop order, one index per chunk
            at = ids == id(chunk)
            boxes[at] = chunk[rows[at]]
        for _ in range(max(1, (_BATCH_SIZE // (2 * boxes.shape[0])).bit_length() - 1)):
            boxes = problem.split(boxes)
        assess(boxes)


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
