"""Tests for chain interpolation and degree-1 type realization."""

import collections
import functools
import heapq
import itertools
import math
import operator
import os
import pickle
import random
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from elemeq import saturation
from elemeq.boolalg import FiniteBoolAlg
from elemeq.clogic import (
    _RECTS,
    _abs_iv,
    _at_point,
    _onto_disc,
    _rect_kernel,
    _rect_mod,
    _rect_point,
    CAdd,
    CConst,
    CMul,
    COne,
    CScale,
    CSub,
    CStar,
    CVar,
    CZero,
    FInf,
    FNorm,
    FSup,
    SORT_BALL,
    SORT_POS,
    SORT_SA,
    ceval,
    eval_term,
)
from elemeq.cstar import CStarAlgebraFin, c_add, c_mul, c_norm, c_scale, c_star, c_sub
from elemeq.errors import PreconditionError, ResourceBudgetError
from elemeq.saturation import (
    _BATCH_SIZE,
    _NP_RECTS,
    _RealizeProblem,
    _certify_assignment,
    _feasible,
    _first_level,
    _geometry,
    _np_abs_iv,
    _np_outward,
    _np_mod,
    _np_mul,
    _onto_disc_np,
    _split,
    NOT_FOUND,
    DEFAULT_REALIZE_BOXES,
    MAX_INTERPOLATE_ATOMS,
    CylinderElement,
    Inconclusive,
    PresentedAtomlessBA,
    Realized,
    TypeCondition,
    Unsatisfiable,
    distance_to_target,
    interpolate_chain,
    max_orthogonal_family,
    orthogonal_witness_family,
    realize_type,
)
from util import TERM_NAMES, eval_with_own_scale, random_term

BA = PresentedAtomlessBA()


# ---------------------------------------------------------------------------
# Cylinder algebra
# ---------------------------------------------------------------------------


def test_cylinder_canonical_form():
    assert CylinderElement(2, frozenset({"00", "01"})) == BA.cylinder("0")
    full = CylinderElement(3, frozenset("".join(b) for b in itertools.product("01", repeat=3)))
    assert full == BA.top and full.depth == 0
    assert CylinderElement(2, frozenset()) == BA.bottom
    mixed = CylinderElement(2, frozenset({"00", "01", "10"}))
    assert mixed.depth == 2 and len(mixed.words) == 3


def test_cylinder_validation():
    with pytest.raises(PreconditionError):
        CylinderElement(-1, frozenset())
    with pytest.raises(PreconditionError):
        CylinderElement(2, frozenset({"012"}))
    with pytest.raises(PreconditionError):
        CylinderElement(2, frozenset({"0"}))


def _random_element(rng, max_depth=4):
    depth = rng.randint(0, max_depth)
    words = ["".join(b) for b in itertools.product("01", repeat=depth)]
    chosen = frozenset(w for w in words if rng.random() < 0.5)
    return CylinderElement(depth, chosen)


def test_cylinder_boolean_laws_sampled():
    rng = random.Random(17)
    for _ in range(60):
        a, b = _random_element(rng), _random_element(rng)
        assert BA.join(a, b) == BA.join(b, a)
        assert BA.meet(a, BA.join(a, b)) == a
        assert BA.complement(BA.complement(a)) == a
        assert BA.complement(BA.meet(a, b)) == BA.join(BA.complement(a), BA.complement(b))
        assert BA.leq(BA.meet(a, b), a) and BA.leq(a, BA.join(a, b))


def test_cylinder_algebra_is_atomless():
    rng = random.Random(19)
    for _ in range(40):
        a = _random_element(rng)
        if a.is_zero():
            continue
        word = min(a.words)
        smaller = BA.cylinder(word + "0")
        assert not smaller.is_zero() and BA.leq(smaller, a) and smaller != a


# A reference model of the same algebra at one uniform depth: an element is
# (depth, frozenset of words of length depth), reduced while every word's
# sibling is present; two elements are compared and combined at the larger
# depth, every word lifted by every suffix.


def _ref_reduce(depth, words):
    if not words:
        return 0, frozenset()
    while depth > 0 and all(w[:-1] + "01"[w[-1] == "0"] in words for w in words):
        words = frozenset(w[:-1] for w in words)
        depth -= 1
    return depth, frozenset(words)


def _ref_lift(a, depth):
    suffixes = ["".join(bits) for bits in itertools.product("01", repeat=depth - a[0])]
    return frozenset(w + s for w in a[1] for s in suffixes)


def _ref_apply(a, b, op):
    depth = max(a[0], b[0])
    return _ref_reduce(depth, op(_ref_lift(a, depth), _ref_lift(b, depth)))


def _ref_complement(a):
    return _ref_reduce(a[0], _ref_lift((0, {""}), a[0]) - a[1])


def _ref_leq(a, b):
    depth = max(a[0], b[0])
    return _ref_lift(a, depth) <= _ref_lift(b, depth)


def _ref_interpolate(u, v):
    """Split the least word of the gap and join its first half to u."""
    first = min(_ref_apply(v, _ref_complement(u), frozenset.__and__)[1])
    return _ref_apply(u, (len(first) + 1, {first + "0"}), frozenset.__or__)


def _random_words(rng, max_depth):
    """Words of one random depth, sparse, half or dense."""
    depth, density = rng.randint(0, max_depth), rng.choice((0.05, 0.5, 0.95))
    return depth, frozenset(w for w in map("".join, itertools.product("01", repeat=depth)) if rng.random() < density)


def _is_ref(element, ref):
    return (element.depth, element.words) == (ref[0], tuple(sorted(ref[1])))


def test_cylinder_algebra_matches_the_uniform_depth_reference():
    rng = random.Random(31)
    for _ in range(300):
        ra, rb = _random_words(rng, 10), _random_words(rng, 10)
        a, b = CylinderElement(*ra), CylinderElement(*rb)
        ra, rb = _ref_reduce(*ra), _ref_reduce(*rb)
        assert _is_ref(a, ra) and _is_ref(b, rb)
        u, ru = BA.meet(a, b), _ref_apply(ra, rb, frozenset.__and__)
        v, rv = BA.join(a, b), _ref_apply(ra, rb, frozenset.__or__)
        assert _is_ref(u, ru) and _is_ref(v, rv) and _is_ref(BA.complement(a), _ref_complement(ra))
        for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra), (u, a, ru, ra), (a, v, ra, rv)):
            assert BA.leq(x, y) == _ref_leq(rx, ry)
        if u != v:
            assert _is_ref(interpolate_chain([u], [v], BA), _ref_interpolate(ru, rv))


def test_cylinders_are_the_maximal_cylinders_left_to_right():
    rng = random.Random(37)
    for _ in range(200):
        a = CylinderElement(*_random_words(rng, 10))
        cylinders = a.cylinders
        assert list(cylinders) == sorted(cylinders)
        # sorted, a word's extensions follow it at once, so adjacent pairs show any prefix
        assert not any(right.startswith(left) for left, right in zip(cylinders, cylinders[1:]))
        assert not any(w[:-1] + "01"[w[-1] == "0"] in cylinders for w in cylinders if w)
        assert functools.reduce(BA.join, map(BA.cylinder, cylinders), BA.bottom) == a


def test_cylinder_element_pickles():
    rng = random.Random(41)
    for a in (BA.bottom, BA.top, *(CylinderElement(*_random_words(rng, 10)) for _ in range(20))):
        assert pickle.loads(pickle.dumps(a)) == a


# ---------------------------------------------------------------------------
# Chain interpolation
# ---------------------------------------------------------------------------


def test_interpolation_frozen_examples():
    c = interpolate_chain([BA.cylinder("0")], [BA.top], BA)
    assert c == CylinderElement(2, frozenset({"00", "01", "10"}))
    assert interpolate_chain([], [BA.top], BA) == BA.cylinder("0")
    assert interpolate_chain([1], [3], FiniteBoolAlg(2)) == NOT_FOUND
    assert interpolate_chain([1], [7], FiniteBoolAlg(3)) == 3


def test_interpolation_refuses_a_finite_algebra_over_the_atom_cap():
    top = FiniteBoolAlg(MAX_INTERPOLATE_ATOMS).full
    assert interpolate_chain([1], [top], FiniteBoolAlg(MAX_INTERPOLATE_ATOMS)) == 3
    # refused before the top element, a 2^n-bit integer, is built
    for atoms in (MAX_INTERPOLATE_ATOMS + 1, 10**11):
        algebra = FiniteBoolAlg(atoms)
        assert algebra.is_element(1) and not algebra.is_element(-1)
        with pytest.raises(ResourceBudgetError, match=rf"^atom count exceeds the cap {MAX_INTERPOLATE_ATOMS}$"):
            interpolate_chain([1], [], algebra)


def test_interpolation_preconditions():
    with pytest.raises(PreconditionError):
        interpolate_chain([BA.top], [BA.cylinder("0")], BA)
    with pytest.raises(PreconditionError):
        interpolate_chain([BA.cylinder("0"), BA.cylinder("0")], [BA.top], BA)
    with pytest.raises(PreconditionError):
        interpolate_chain([BA.cylinder("0")], [BA.cylinder("1"), BA.top], BA)
    with pytest.raises(PreconditionError):
        interpolate_chain([], [], object())
    fb = FiniteBoolAlg(2)
    with pytest.raises(PreconditionError):
        interpolate_chain([3], [1], fb)
    with pytest.raises(PreconditionError):
        interpolate_chain([1], [1], fb)


def _random_chains(rng, max_len=6):
    """A strictly ascending Y below a strictly descending Z, built by
    repeatedly splitting the gap between the current bounds."""
    lower, upper = [], []
    u, v = BA.bottom, BA.top
    for _ in range(rng.randint(0, max_len)):
        gap = BA.meet(v, BA.complement(u))
        word = rng.choice(sorted(gap.words))
        piece = BA.cylinder(word + rng.choice("01"))
        if rng.random() < 0.5:
            nu = BA.join(u, piece)
            if nu != u and BA.leq(nu, v) and nu != v:
                lower.append(nu)
                u = nu
        else:
            nv = BA.meet(v, BA.complement(piece))
            if nv != v and BA.leq(u, nv) and u != nv:
                upper.append(nv)
                v = nv
    return lower, upper


def test_interpolation_never_fails_in_atomless_algebra():
    rng = random.Random(2026)
    for _ in range(150):
        lower, upper = _random_chains(rng)
        c = interpolate_chain(lower, upper, BA)
        assert isinstance(c, CylinderElement)
        for y in lower:
            assert BA.leq(y, c) and y != c
        for z in upper:
            assert BA.leq(c, z) and c != z


def test_interpolation_matches_brute_force_in_finite_algebras():
    for atoms in range(1, 5):
        fb = FiniteBoolAlg(atoms)
        for u in fb.elements():
            for v in fb.elements():
                if not (fb.leq(u, v) and u != v):
                    continue
                result = interpolate_chain([u], [v], fb)
                between = [
                    c
                    for c in fb.elements()
                    if fb.leq(u, c) and fb.leq(c, v) and c != u and c != v
                ]
                if between:
                    assert result in between
                else:
                    assert result == NOT_FOUND


#: Interpolants of seeded chains of depth-6 word sets, one repr a line; the
#: sets are frozensets, whose iteration order follows the hash seed.
_HASH_SEED_SCRIPT = """
import random
from elemeq.saturation import CylinderElement, PresentedAtomlessBA, interpolate_chain
rng, words = random.Random(5), [format(i, "06b") for i in range(64)]
for _ in range(40):
    order, sizes = rng.sample(words, 64), sorted(rng.sample(range(1, 64), 4))
    a, b, c, d = (CylinderElement(6, frozenset(order[:k])) for k in sizes)
    found = interpolate_chain([a, b], [d, c], PresentedAtomlessBA())
    print(repr((found.depth, found.words)))
"""


def test_interpolants_do_not_depend_on_the_hash_seed():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT], env={**env, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("0", "1", "7")
    ]
    assert outputs[0].count("\n") == 40 and outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# Type conditions
# ---------------------------------------------------------------------------


def test_type_condition_degree_validation():
    x = CVar("x")
    TypeCondition(CMul(x, CVar("y")), [(0.0, 1.0)])
    TypeCondition(CAdd(x, CStar(x)), [(0.0, 1.0)])
    with pytest.raises(PreconditionError):
        TypeCondition(CMul(x, x), [(0.0, 1.0)])
    with pytest.raises(PreconditionError):
        TypeCondition(CMul(x, CStar(x)), [(0.0, 1.0)])
    for polynomial in ("x", FNorm(x), None, CAdd(x, "y")):
        with pytest.raises(PreconditionError, match="not a term"):
            TypeCondition(polynomial, [(0.0, 1.0)])


def test_type_condition_target_validation():
    with pytest.raises(PreconditionError):
        TypeCondition(CVar("x"), [(1.0, 0.0)])
    with pytest.raises(PreconditionError):
        TypeCondition(CVar("x"), [])
    cond = TypeCondition(CVar("x"), [(2.0, 3.0), (0.0, 1.5), (1.0, 2.5)])
    assert cond.target == ((0.0, 3.0),)


def test_distance_to_target():
    target = ((0.0, 1.0), (2.0, 3.0))
    assert distance_to_target(0.5, target) == 0.0
    assert distance_to_target(1.5, target) == 0.5
    assert distance_to_target(4.0, target) == 1.0
    assert distance_to_target(-2.0, target) == 2.0


# ---------------------------------------------------------------------------
# Type realization
# ---------------------------------------------------------------------------


def _eval_term(term, assignment, algebra):
    """Independent pointwise evaluator used to re-verify assignments."""
    if isinstance(term, CVar):
        return assignment[term.name]
    if isinstance(term, CConst):
        return term.values
    if isinstance(term, COne):
        return algebra.one()
    if isinstance(term, CStar):
        return c_star(_eval_term(term.arg, assignment, algebra))
    if isinstance(term, CAdd):
        return c_add(_eval_term(term.left, assignment, algebra), _eval_term(term.right, assignment, algebra))
    if isinstance(term, CSub):
        return c_sub(_eval_term(term.left, assignment, algebra), _eval_term(term.right, assignment, algebra))
    if isinstance(term, CMul):
        return c_mul(_eval_term(term.left, assignment, algebra), _eval_term(term.right, assignment, algebra))
    return c_scale(term.scalar, _eval_term(term.arg, assignment, algebra))


def _independent_deviation(conditions, assignment, algebra):
    return max(
        distance_to_target(c_norm(_eval_term(c.polynomial, assignment, algebra)), c.target)
        for c in conditions
    )


def test_realize_unit_norm_element():
    algebra = CStarAlgebraFin(2)
    conditions = [TypeCondition(CVar("x"), [(1.0, 1.0)])]
    result = realize_type(conditions, algebra, 0.01)
    assert isinstance(result, Realized)
    assert result.max_deviation <= 0.01
    assert len(result.certificates) == 1
    assert _independent_deviation(conditions, result.assignment, algebra) <= 0.01
    for value in result.assignment.values():
        assert c_norm(value) <= 1.0 + 1e-12


def test_realize_norm_one_on_the_real_sorts_boundary():
    # the target is met only on the boundary of the sa and pos domains,
    # which midpoints approach by refinement alone; a corner candidate hits it
    algebra = CStarAlgebraFin(4)
    for sort in (SORT_SA, SORT_POS):
        result = realize_type(
            [TypeCondition(CVar("x"), [(1.0, 1.0)])], algebra, 0.01, sorts={"x": sort}, max_boxes=1000
        )
        assert isinstance(result, Realized), sort
        assert result.max_deviation <= 0.01


def test_realize_norm_one_on_the_ball_boundary():
    # the box point farthest from 0, pulled into the disc, meets the target
    for points in (2, 3, 4):
        algebra = CStarAlgebraFin(points)
        conditions = [TypeCondition(CVar("x"), [(1.0, 1.0)])]
        result = realize_type(conditions, algebra, 0.01, sorts={"x": SORT_BALL}, max_boxes=1000)
        assert isinstance(result, Realized), points
        assert _independent_deviation(conditions, result.assignment, algebra) <= 0.01
        assert all(_in_domain(z, SORT_BALL) for z in result.assignment["x"])


def test_realize_orthogonal_pair_on_three_points_within_100_boxes():
    algebra = CStarAlgebraFin(3)
    names = ["x0", "x1"]
    conditions = _orthogonality_conditions(names)
    result = realize_type(conditions, algebra, 0.01, sorts={n: SORT_POS for n in names}, max_boxes=100)
    assert isinstance(result, Realized)
    assert _independent_deviation(conditions, result.assignment, algebra) <= 0.01


def test_realize_constant_conditions():
    algebra = CStarAlgebraFin(2)
    ok = realize_type([TypeCondition(COne(), [(1.0, 1.0)])], algebra, 0.01)
    assert isinstance(ok, Realized) and ok.assignment == {}
    bad = realize_type([TypeCondition(COne(), [(0.0, 0.25)])], algebra, 0.01)
    assert isinstance(bad, Unsatisfiable) and bad.epsilon == 0.75


def test_refute_vanishing_with_unit_norm():
    algebra = CStarAlgebraFin(2)
    conditions = [TypeCondition(CVar("x"), [(1.0, 1.0)])]
    for i in range(algebra.point_count):
        conditions.append(
            TypeCondition(CMul(CVar("x"), CConst(algebra.indicator({i}))), [(0.0, 0.0)])
        )
    result = realize_type(conditions, algebra, 0.25)
    assert isinstance(result, Unsatisfiable)
    assert result.epsilon > 0.25
    assert result.delta == tuple(conditions)


def _chain_conditions(algebra, step=0, top=1):
    lower_step = CConst(algebra.indicator({step}))
    upper_bound = CConst(algebra.indicator({step, top}))
    x = CVar("x")
    return [
        TypeCondition(x, [(1.0, 1.0)]),
        TypeCondition(CSub(upper_bound, x), [(1.0, 2.0)]),
        TypeCondition(CSub(CSub(upper_bound, x), COne()), [(1.0, 1.0)]),
        TypeCondition(CSub(CSub(x, lower_step), COne()), [(0.0, 1.0)]),
        TypeCondition(CSub(CSub(x, upper_bound), COne()), [(0.0, 1.0)]),
    ]


def test_refute_chain_bound_conditions():
    # An element asked to sit strictly above an increasing chain yet
    # strictly below the chain's least upper bound cannot exist.
    algebra = CStarAlgebraFin(3)
    result = realize_type(_chain_conditions(algebra), algebra, 0.1)
    assert isinstance(result, Unsatisfiable)
    assert result.epsilon > 0.1


def test_chain_refutation_keeps_its_floor():
    # on 4 points the chain refutation floor is sqrt(5)/2 - 1, as the coupled
    # search found it
    algebra = CStarAlgebraFin(4)
    result = realize_type(_chain_conditions(algebra), algebra, 0.1)
    assert isinstance(result, Unsatisfiable)
    assert result.epsilon > 0.1 and result.epsilon == pytest.approx(0.1180339887, abs=1e-9)


def test_refutations_score_no_witness(monkeypatch):
    # witnesses are scored only in boxes whose state takes part in a covering
    # choice, and a type refuted at its first level has none
    scored = []
    witnesses = _RealizeProblem.witnesses

    def counted(self, boxes):
        scored.append(len(boxes))
        return witnesses(self, boxes)

    monkeypatch.setattr(_RealizeProblem, "witnesses", counted)
    for points in (2, 3, 4):
        for tol in (0.05, 0.1):
            algebra = CStarAlgebraFin(points)
            assert isinstance(realize_type(_chain_conditions(algebra), algebra, tol), Unsatisfiable)
    assert scored == []


def _candidates(problem, boxes):
    """The ``witnesses`` of the boxes that are ``feasible``, and that mask."""
    feasible = _feasible(boxes, problem.ball)
    return problem.witnesses(boxes[feasible])[0], feasible


def _one_point_boxes(problem, boxes):
    """Boxes over all the points, shape (N, V, points, 4), as one-point boxes
    (point-minor) and their points."""
    return (boxes.transpose(0, 2, 1, 3).reshape(-1, len(problem.names), 4),
            np.tile(np.arange(problem.points), len(boxes)))


def _coupled_candidates(problem, boxes):
    """Witness candidates of boxes over all the points: the k-th takes each
    point's k-th ``witnesses`` candidate (its last when it has fewer), shape
    (M, V, points)."""
    n = problem.points
    cands, owner = problem.witnesses(_one_point_boxes(problem, boxes)[0])
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=len(boxes) * n)
    starts = np.cumsum(counts) - counts
    return np.concatenate([cands[order[starts + np.minimum(k, counts - 1)]].reshape(len(boxes), n, -1)
                           for k in range(counts.max())]).transpose(0, 2, 1)


def _coupled_norms(problem, bounds):
    """Per condition, the max over the points of per-point values (C, N * points)."""
    return bounds.reshape(len(problem.conditions), -1, problem.points).max(axis=2)


def _target_distance(problem, norms):
    """Distances (C, N) of each condition's norms to its (padded) target."""
    return np.maximum(np.maximum(problem.t_lo - norms[:, None], norms[:, None] - problem.t_hi), 0.0).min(axis=1)


def _reference_realize(conditions, algebra, tol, sorts, max_boxes):
    """The coupled search the point split replaced: best first over boxes of all
    the points at once, each condition's norm bounded by its own max over the
    points of the per-point bounds, a box pruned when some condition's norm
    bounds miss its target by more than tol.  Returns (verdict, epsilon, the
    least deviation of a scored witness)."""
    names = sorted(frozenset().union(*(c.variables() for c in conditions)))
    problem = _RealizeProblem(tuple(conditions), algebra, {v: sorts.get(v, SORT_BALL) for v in names})
    counter, heap, used = itertools.count(), [], 0
    floor = best = np.inf

    def assess(boxes):
        nonlocal floor, best, used
        used += len(boxes)
        feasible = _feasible(_one_point_boxes(problem, boxes)[0], problem.ball)
        boxes = boxes[feasible.reshape(len(boxes), -1).all(axis=1)]
        lo, hi = (_coupled_norms(problem, b) for b in problem.bounds(*_one_point_boxes(problem, boxes)))
        meets = ((lo[:, None] <= problem.t_hi) & (problem.t_lo <= hi[:, None])).any(axis=1)
        g_lo = np.where(meets, 0.0, np.minimum(_target_distance(problem, lo),
                                                _target_distance(problem, hi))).max(axis=0)
        pruned = g_lo > tol
        if pruned.any():
            floor = min(floor, float(g_lo[pruned].min()))
        boxes, g_lo = boxes[~pruned], g_lo[~pruned]
        if len(boxes):
            cands = _coupled_candidates(problem, boxes)
            points = np.tile(np.arange(problem.points), len(cands))
            moduli = problem.moduli(cands.transpose(0, 2, 1).reshape(-1, len(names)), points)
            devs = _target_distance(problem, _coupled_norms(problem, moduli)).max(axis=0)
            if devs.min() < best:
                best, leader = float(devs.min()), cands[int(np.argmin(devs))]
                assignment = {name: tuple(leader[v].tolist()) for v, name in enumerate(names)}
                if best <= tol and _certify_assignment(conditions, algebra, assignment)[1] <= tol:
                    return "realized"
        for item in zip(g_lo.tolist(), counter, boxes):
            heapq.heappush(heap, item)

    box = np.repeat(problem.domain[:, :, None], problem.points, axis=2)
    verdict = assess(box)
    while verdict is None and heap and used < max_boxes:
        popped = np.stack([heapq.heappop(heap)[2] for _ in range(min(256, len(heap)))])
        shape = popped.shape
        verdict = assess(_split(popped.reshape(len(popped), -1, 4)).reshape((-1,) + shape[1:]))
    if verdict is None:
        verdict = "inconclusive" if heap else "unsatisfiable"
    return verdict, floor, best


def _random_norm_type(rng):
    """A seeded type of 2-5 norm conditions on x - c, x c - d, x - c - 1,
    x y and x - y, with point, short or two-interval targets, over 1-2
    variables of the three sorts."""
    n = rng.randint(2, 4)
    names = TERM_NAMES[: rng.randint(1, 2)]

    def const():
        return CConst(tuple(complex(rng.choice((-1, -0.5, 0, 0.5, 1)), rng.choice((0, 0, 0.5)))
                            for _ in range(n)))

    conditions = []
    for _ in range(rng.randint(2, 5)):
        x = CVar(rng.choice(names))
        term = rng.choice((x, CSub(x, const()), CSub(CMul(x, const()), const()), CSub(CSub(x, const()), COne())))
        if len(names) > 1 and rng.random() < 0.3:
            term = rng.choice((CMul, CSub))(CVar(names[0]), CVar(names[1]))
        lo = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, 1.5))
        target = [(lo, lo + rng.choice((0.0, 0.0, 0.25, 0.5)))]
        if rng.random() < 0.3:
            far = lo + rng.choice((0.5, 0.75, 1.0))
            target.append((far, far + rng.choice((0.0, 0.25))))
        conditions.append(TypeCondition(term, target))
    sorts = {v: rng.choice((SORT_BALL, SORT_BALL, SORT_SA, SORT_POS)) for v in names}
    return conditions, CStarAlgebraFin(n), rng.choice((0.05, 0.1, 0.25)), sorts


def test_point_split_agrees_with_the_coupled_search():
    # the two routes decide alike wherever both decide; every refutation floor
    # is above tol and no witness of either route deviates less than it
    rng = random.Random(4108)
    verdicts = collections.Counter()
    for _ in range(600):
        conditions, algebra, tol, sorts = _random_norm_type(rng)
        kind, floor, best = _reference_realize(conditions, algebra, tol, sorts, 400)
        result = realize_type(conditions, algebra, tol, sorts=sorts, max_boxes=2000)
        verdicts[kind, type(result).__name__] += 1
        if isinstance(result, Unsatisfiable):
            assert kind != "realized" and result.epsilon > tol
            assert best >= result.epsilon
        elif isinstance(result, Realized):
            assert kind != "unsatisfiable"
            assert _independent_deviation(conditions, result.assignment, algebra) <= tol
        if kind == "unsatisfiable":
            assert floor > tol
            if isinstance(result, Inconclusive):
                assert result.best_deviation >= floor
    assert verdicts["realized", "Realized"] >= 120 and verdicts["unsatisfiable", "Unsatisfiable"] >= 120, verdicts
    # and on these types the point split decides all the coupled search decides
    assert verdicts["realized", "Inconclusive"] + verdicts["unsatisfiable", "Inconclusive"] == 0, verdicts


def _random_degree_one_term(rng, n):
    """A one-variable degree-1 term in x with seeded scalars and constants."""
    x = CVar("x")

    def const():
        return CConst(tuple(complex(rng.choice((-1, -0.5, 0, 0.5, 1)), rng.choice((0, 0, 0.5))) for _ in range(n)))

    scalar = complex(rng.choice((0.5, -1.0, 2.0)), rng.choice((0.0, 0.75)))
    return rng.choice((CAdd(CScale(scalar, x), const()), CSub(CMul(x, const()), const()),
                       CScale(scalar, CSub(CStar(x), const())), CSub(x, const())))


def test_realize_type_never_contradicts_ceval_on_the_range_of_a_norm():
    # Two engines answer about ||p(x)|| over a sort: ceval encloses its sup and
    # inf, and every value between is attained (the domain is connected, the
    # norm continuous).  So a target inside [inf, sup] is never refuted, one
    # more than tol outside it is never met, and a refutation's epsilon never
    # exceeds the deviation of the points attaining the sup and the inf.
    # Inconclusive is allowed: realize_type is slow to refute a ball target
    # just above the sup.
    rng, tol, start = random.Random(3407), 0.02, time.process_time()
    verdicts = collections.Counter()

    def distance(value, target):
        return max(target - value, value - target, 0.0)

    for _ in range(120):
        n, sort = rng.randint(1, 3), rng.choice((SORT_BALL, SORT_SA, SORT_POS))
        algebra, term = CStarAlgebraFin(n), _random_degree_one_term(rng, n)
        top, bottom = (ceval(q("x", sort, FNorm(term)), algebra, {}, tol / 2) for q in (FSup, FInf))
        targets = [rng.uniform(bottom.upper, top.lower)] if bottom.upper < top.lower else []
        targets += [top.upper + rng.uniform(1.1, 3) * tol]
        targets += [bottom.lower - rng.uniform(1.1, 3) * tol] if bottom.lower > 3 * tol else []
        for target in targets:
            result = realize_type([TypeCondition(term, [(target, target)])], algebra, tol,
                                  sorts={"x": sort}, max_boxes=4000)
            inside = bottom.upper <= target <= top.lower
            verdicts[inside, type(result).__name__] += 1
            if inside:
                assert not isinstance(result, Unsatisfiable), (term, sort, target, result)
            else:
                assert not isinstance(result, Realized), (term, sort, target, result)
            if isinstance(result, Unsatisfiable):
                for cert in (top, bottom):  # some point's norm lies in each enclosure
                    attained = max(distance(cert.lower, target), distance(cert.upper, target))
                    assert result.epsilon <= attained + 1e-9, (term, sort, target, result)
    assert verdicts[True, "Realized"] >= 100 and verdicts[False, "Unsatisfiable"] >= 150, verdicts
    assert time.process_time() - start < 5


def test_orthogonal_obstruction_is_refuted_within_1024_boxes():
    # each point can serve at most one ||x_a|| = 1 condition while every product
    # stays near 0, so three such elements on two points fail the covering part:
    # the obstruction max_orthogonal_family counts
    algebra = CStarAlgebraFin(2)
    names = ["x0", "x1", "x2"]
    result = realize_type(_orthogonality_conditions(names), algebra, 0.25,
                          sorts={n: SORT_POS for n in names}, max_boxes=1_024)
    assert isinstance(result, Unsatisfiable) and result.epsilon > 0.25
    assert max_orthogonal_family(algebra) == 2


def test_chain_type_met_only_at_isolated_points_is_realized():
    # the least deviation equals tol and is attained only at isolated dyadic
    # points such as x = (-0.75i, 0.75, 0.75)
    algebra = CStarAlgebraFin(3)
    conditions = _chain_conditions(algebra, step=1, top=2)
    result = realize_type(conditions, algebra, 0.25, max_boxes=20_000)
    assert isinstance(result, Realized)
    assert _independent_deviation(conditions, result.assignment, algebra) <= 0.25


def test_chain_type_met_only_at_isolated_points_is_realized_on_four_points():
    # x = (-0.75i, 0, 0.75, 0.75) deviates by exactly tol; each point searches
    # its own plane, where a box corner reaches such a point (the coupled
    # search ended Inconclusive after 20,481 boxes)
    algebra = CStarAlgebraFin(4)
    conditions = _chain_conditions(algebra, step=2, top=3)
    result = realize_type(conditions, algebra, 0.25, max_boxes=20_000)
    assert isinstance(result, Realized)
    assert _independent_deviation(conditions, result.assignment, algebra) <= 0.25


def _orthogonality_conditions(names):
    conditions = [TypeCondition(CVar(n), [(1.0, 1.0)]) for n in names]
    for a, b in itertools.combinations(names, 2):
        conditions.append(TypeCondition(CMul(CVar(a), CVar(b)), [(0.0, 0.0)]))
    return conditions


def test_refute_too_many_orthogonal_elements():
    algebra = CStarAlgebraFin(2)
    names = ["x0", "x1", "x2"]
    result = realize_type(
        _orthogonality_conditions(names),
        algebra,
        0.25,
        sorts={n: SORT_POS for n in names},
    )
    assert isinstance(result, Unsatisfiable)
    assert result.epsilon > 0.25


def test_refutation_corroborated_by_grid_search():
    algebra = CStarAlgebraFin(2)
    names = ["x0", "x1", "x2"]
    conditions = _orthogonality_conditions(names)
    result = realize_type(conditions, algebra, 0.25, sorts={n: SORT_POS for n in names})
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    best = min(
        _independent_deviation(
            conditions,
            {
                "x0": (complex(a), complex(b)),
                "x1": (complex(c), complex(d)),
                "x2": (complex(e), complex(f)),
            },
            algebra,
        )
        for a, b, c, d, e, f in itertools.product(grid, repeat=6)
    )
    assert best >= result.epsilon


def test_realize_orthogonal_family_at_capacity():
    algebra = CStarAlgebraFin(2)
    names = ["x0", "x1"]
    result = realize_type(
        _orthogonality_conditions(names),
        algebra,
        0.05,
        sorts={n: SORT_POS for n in names},
    )
    assert isinstance(result, Realized)
    assert _independent_deviation(
        _orthogonality_conditions(names), result.assignment, algebra
    ) <= 0.05


def test_budget_exhaustion_is_inconclusive():
    algebra = CStarAlgebraFin(2)
    names = ["x0", "x1", "x2"]
    result = realize_type(
        _orthogonality_conditions(names),
        algebra,
        0.25,
        sorts={n: SORT_POS for n in names},
        max_boxes=8,
    )
    assert isinstance(result, Inconclusive)
    assert result.boxes_used >= 8


def test_budget_is_passed_by_at_most_one_level(monkeypatch):
    # ||x|| = 0.6 is the only norm within 0.1 of both targets: no box refutes
    # the type and no witness of a coarse box reaches it.  A level is assessed
    # whole, and it assesses at most _BATCH_SIZE boxes per point
    levels = []
    bounds = _RealizeProblem.bounds

    def counted(self, boxes, points):
        levels.append(len(boxes) * (self.points if points is None else 1))
        return bounds(self, boxes, points)

    monkeypatch.setattr(_RealizeProblem, "bounds", counted)
    conditions = [TypeCondition(CVar("x"), [(0.5, 0.5)]), TypeCondition(CVar("x"), [(0.7, 0.7)])]
    for points in (2, 3):
        for budget in (1, 8, 100, 1000):
            levels.clear()
            result = realize_type(conditions, CStarAlgebraFin(points), 0.1, max_boxes=budget)
            assert isinstance(result, Inconclusive), budget
            assert budget <= result.boxes_used < budget + points * _BATCH_SIZE, budget
            assert sum(levels[:-1]) < budget and max(levels) <= points * _BATCH_SIZE, levels


def test_a_failed_certification_keeps_best_deviation_finite(monkeypatch):
    # a covering choice whose certificate misses the tolerance clears the
    # witness pools; when the budget runs out before they refill, the failed
    # choice's certified deviation still bounds best_deviation
    from elemeq import saturation

    failed = []

    def fail(conditions, algebra, assignment):
        failed.append(assignment)
        return _certify_assignment(conditions, algebra, assignment)[0], 1.0

    monkeypatch.setattr(saturation, "_certify_assignment", fail)
    result = realize_type([TypeCondition(CVar("x"), [(0.5, 0.5)])], CStarAlgebraFin(2), 0.01, max_boxes=100)
    assert failed and isinstance(result, Inconclusive)
    assert math.isfinite(result.best_deviation) and result.best_deviation <= 1.0


def test_sixteen_conditions_keep_their_states_in_python_ints():
    # 16 one-interval conditions need 64 state bits, past an int64
    algebra, x = CStarAlgebraFin(3), CVar("x")
    conditions = [TypeCondition(CSub(x, CConst((0.5 * (j % 3),) * 3)), [(abs(0.5 - 0.5 * (j % 3)),) * 2])
                  for j in range(16)]
    assert _RealizeProblem(tuple(conditions), algebra, {"x": SORT_BALL}).weights.dtype == object
    result = realize_type(conditions, algebra, 0.05)
    assert isinstance(result, Realized) and _independent_deviation(conditions, result.assignment, algebra) <= 0.05
    result = realize_type(conditions[:15] + [TypeCondition(x, [(0.9, 0.9)])], algebra, 0.05)
    assert isinstance(result, Unsatisfiable) and 0.05 < result.epsilon <= 0.2


def test_realize_preconditions():
    algebra = CStarAlgebraFin(2)
    cond = TypeCondition(CVar("x"), [(1.0, 1.0)])
    with pytest.raises(PreconditionError):
        realize_type([], algebra, 0.1)
    with pytest.raises(PreconditionError):
        realize_type([cond] * 17, algebra, 0.1)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="tolerance must be positive and finite"):
            realize_type([cond], algebra, tol)
    with pytest.raises(PreconditionError):
        realize_type([cond], CStarAlgebraFin(5), 0.1)
    with pytest.raises(PreconditionError):
        realize_type([cond], algebra, 0.1, sorts={"x": "unitary"})
    with pytest.raises(PreconditionError):
        realize_type(
            [TypeCondition(CAdd(*(CVar(f"v{i}") for i in (0, 1))), [(0.0, 1.0)]),
             TypeCondition(CAdd(*(CVar(f"v{i}") for i in (2, 3))), [(0.0, 1.0)])],
            algebra,
            0.1,
        )
    with pytest.raises(PreconditionError):
        realize_type([TypeCondition(CConst((1 + 0j,)), [(1.0, 1.0)])], algebra, 0.1)
    with pytest.raises(PreconditionError):
        realize_type([TypeCondition(CMul(CVar("x"), CConst((1 + 0j,))), [(1.0, 1.0)])], algebra, 0.1)
    with pytest.raises(PreconditionError):
        realize_type(["not a condition"], algebra, 0.1)


@pytest.mark.parametrize("budget", [0, -5, 0.5, math.nan])
def test_realize_rejects_a_box_budget_below_one(budget):
    # variable-free conditions search no box, and are rejected all the same
    for cond in (TypeCondition(CVar("x"), [(1.0, 1.0)]), TypeCondition(COne(), [(1.0, 1.0)])):
        with pytest.raises(PreconditionError, match="box budget must be at least 1"):
            realize_type([cond], CStarAlgebraFin(2), 0.1, max_boxes=budget)
    assert isinstance(realize_type([TypeCondition(CVar("x"), [(0.0, 0.0)])], CStarAlgebraFin(2), 0.1,
                                   max_boxes=1), Realized)


def test_realize_is_deterministic():
    algebra = CStarAlgebraFin(2)
    conditions = [TypeCondition(CVar("x"), [(0.5, 0.5)])]
    first = realize_type(conditions, algebra, 0.01)
    second = realize_type(conditions, algebra, 0.01)
    assert first.assignment == second.assignment
    assert first.max_deviation == second.max_deviation


def test_max_deviation_is_the_certified_deviation():
    rng = random.Random(4103)
    realized = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        algebra = CStarAlgebraFin(n)
        c = CConst(tuple(complex(rng.choice((-0.75, 0.5)), rng.choice((0.0, 0.5, -0.25))) for _ in range(n)))
        target = rng.choice((0.625, 0.75, 0.875))
        conditions = [TypeCondition(CSub(CMul(c, CVar("x")), COne()), [(target, target)])]
        if rng.random() < 0.5:
            conditions.append(TypeCondition(CVar("x"), [(0.25, 1.0)]))
        result = realize_type(conditions, algebra, 0.01)
        if isinstance(result, Realized):
            realized += 1
            assert result.max_deviation == max(
                distance_to_target(bound, condition.target)
                for condition, cert in zip(conditions, result.certificates)
                for bound in (cert.lower, cert.upper)
            )
    assert realized >= 10


def _random_rect(rng):
    re, im = sorted(rng.uniform(-1, 1) for _ in "ab"), sorted(rng.uniform(-1, 1) for _ in "ab")
    return (re[0], re[1], im[0], im[1])


def _clipped_moduli(rect):
    """The moduli of the rectangle's point nearest 0 and of its farthest point."""
    near = [min(max(0.0, lo), hi) for lo, hi in (rect[:2], rect[2:])]
    far = [hi if abs(hi) >= abs(lo) else lo for lo, hi in (rect[:2], rect[2:])]
    return math.hypot(*near), math.hypot(*far)


def _within_ulp(batched, scalar):
    return all(abs(b - s) <= math.ulp(s) for b, s in zip(batched, scalar))


def _parity_batches(rng):
    """400 seeded terms, each with a batch of 25 boxes: 10,000 boxes."""
    for _ in range(400):
        n = rng.randint(1, 3)
        algebra = CStarAlgebraFin(n)
        term = random_term(rng, n, rng.randint(1, 4))
        boxes = [{v: tuple(_random_rect(rng) for _ in range(n)) for v in TERM_NAMES} for _ in range(25)]
        batch = {v: tuple(np.array([box[v] for box in boxes])[..., k] for k in range(4)) for v in TERM_NAMES}
        yield term, algebra, boxes, batch


def test_batched_rectangles_equal_scalar_rectangles_per_box():
    # np.hypot (the C library's) is not always correctly rounded and
    # math.hypot is, so the batched norm bounds are compared with == to the
    # scalar kernel run on np.hypot, and to the scalar path within one ulp
    outward = lambda x, t: math.nextafter(math.nextafter(x, t), t)  # as clogic passes it
    _, libm_mod, _ = _rect_kernel(min, max, lambda x, y: float(np.hypot(x, y)), outward)
    rng = random.Random(4104)
    cases = 0
    for term, algebra, boxes, batch in _parity_batches(rng):
        n = algebra.point_count
        rect = eval_term(term, batch, algebra, _NP_RECTS)
        rows = np.broadcast_to(np.stack(rect, axis=-1), (len(boxes), n, 4))
        norms = zip(*(np.broadcast_to(m.max(axis=-1), len(boxes)).tolist() for m in _np_mod(rect)))
        for row, bounds, box in zip(rows, norms, boxes):
            rects = eval_term(term, box, algebra, _RECTS)
            assert tuple(map(tuple, row.tolist())) == rects, term
            assert bounds == tuple(map(max, zip(*map(libm_mod, rects)))), term
            assert _within_ulp(bounds, map(max, zip(*map(_rect_mod, rects)))), term
            cases += 1
    assert cases == 10_000
    # signed zeros, degenerate rectangles and rectangles straddling zero
    ends = (-0.75, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0)
    edges = [
        (0.0, 0.0, -0.0, -0.0), (-0.0, 0.0, -0.0, 0.0), (-0.5, 0.25, -0.0, 0.0),
        (0.25, 0.25, 0.5, 0.5), (-0.75, -0.5, -0.5, 0.25), (-1.0, 1.0, -1.0, 1.0),
    ] + [tuple(sorted(rng.sample(ends, 2)) + sorted(rng.sample(ends, 2))) for _ in range(40)]
    batched = zip(*(m.tolist() for m in _np_mod(tuple(np.array([r[k] for r in edges]) for k in range(4)))))
    for rect, bounds in zip(edges, batched):
        assert _rect_mod(rect) == _clipped_moduli(rect), rect
        assert bounds == libm_mod(rect) and _within_ulp(bounds, _rect_mod(rect)), rect


def _modsq(re, im):
    return Fraction(re) ** 2 + Fraction(im) ** 2


def _term_problem(term, algebra):
    """A problem with the one condition ||term|| in [0, 1], degree unchecked."""
    condition = types.SimpleNamespace(polynomial=term, target=((0.0, 1.0),))
    return _RealizeProblem((condition,), algebra, {v: SORT_BALL for v in TERM_NAMES})


def test_level_norm_bounds_contain_the_exact_norm():
    # np.hypot is not correctly rounded (60 of these 10,000 boxes read a bound
    # one ulp off at some point); widened by two floats each way, each point's
    # bounds hold for the exact moduli of its float rectangle
    cases = expected = 0
    for term, algebra, boxes, _ in _parity_batches(random.Random(4104)):
        n = algebra.point_count
        expected += n * len(boxes)
        problem = _term_problem(term, algebra)
        one_point = np.array([[box[v][i] for v in problem.names] for box in boxes for i in range(n)])
        lo, hi = problem.bounds(one_point, np.tile(np.arange(n), len(boxes)))
        rows = [rect for box in boxes for rect in eval_term(term, box, algebra, _RECTS)]
        for (a, b, c, d), low, high in zip(rows, lo[0].tolist(), hi[0].tolist()):
            near = _modsq(min(max(0.0, a), b), min(max(0.0, c), d))
            far = _modsq(max(-a, b), max(-c, d))
            assert 0.0 <= low and Fraction(low) ** 2 <= near and Fraction(high) ** 2 >= far, term
            cases += 1
    assert cases == expected > 20_000


def _exact_value(term, env, point):
    """The term at one point, as an exact (re, im) pair of Fractions."""
    if isinstance(term, CVar):
        return env[term.name]
    if isinstance(term, CConst):
        z = term.values[point]
        return Fraction(z.real), Fraction(z.imag)
    if isinstance(term, (COne, CZero)):
        return Fraction(isinstance(term, COne)), Fraction(0)
    if isinstance(term, CStar):
        re, im = _exact_value(term.arg, env, point)
        return re, -im
    if isinstance(term, CScale):
        a, b = Fraction(term.scalar.real), Fraction(term.scalar.imag)
        c, d = _exact_value(term.arg, env, point)
        return a * c - b * d, a * d + b * c
    (a, b), (c, d) = _exact_value(term.left, env, point), _exact_value(term.right, env, point)
    if isinstance(term, CAdd):
        return a + c, b + d
    if isinstance(term, CSub):
        return a - c, b - d
    return a * c - b * d, a * d + b * c


def test_point_bounds_contain_the_exact_moduli_inside_their_boxes():
    # at dyadic sample points of dyadic boxes, each point's bounds hold for
    # the exact modulus of every condition there (its own constants' values)
    rng = random.Random(4110)
    cases = 0
    for _ in range(120):
        problem = _random_problem(rng)
        n = problem.points
        boxes = np.array([[_dyadic_rect(rng, sort) for sort in problem.sorts] for _ in range(rng.randint(1, 8))])
        points = np.array([rng.randrange(n) for _ in boxes])
        lo, hi = problem.bounds(boxes, points)
        for box, point, lows, highs in zip(boxes.tolist(), points.tolist(), lo.T.tolist(), hi.T.tolist()):
            for _ in range(4):
                env = {v: tuple(Fraction(rng.randint(int(a * 64), int(b * 64)), 64) for a, b in (r[:2], r[2:]))
                       for v, r in zip(problem.names, box)}
                for condition, low, high in zip(problem.conditions, lows, highs):
                    square = sum(x * x for x in _exact_value(condition.polynomial, env, point))
                    assert Fraction(low) ** 2 <= square <= Fraction(high) ** 2, condition
                    cases += 1
    assert cases > 2_000


def _random_target(rng):
    ends = sorted(rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0)) for _ in range(2 * rng.randint(1, 3)))
    return list(zip(ends[0::2], ends[1::2]))


def _random_problem(rng):
    """1-4 conditions from ``random_term`` with targets of 1-3 intervals, and a
    variable-free one (only its constant is read at the rows' points), over
    x, y, z of random sorts on 1-4 points."""
    n = rng.randint(1, 4)
    sorts = {v: rng.choice((SORT_BALL, SORT_SA, SORT_POS)) for v in TERM_NAMES}
    conditions, wanted = [], rng.randint(1, 4)
    while len(conditions) < wanted:
        try:
            conditions.append(TypeCondition(random_term(rng, n, rng.randint(1, 3)), _random_target(rng)))
        except PreconditionError:
            pass  # a variable of degree 2
    free = TypeCondition(CConst(tuple(complex(rng.uniform(-1, 1), 0.5) for _ in range(n))), _random_target(rng))
    conditions.insert(rng.randint(0, len(conditions)), free)
    return _RealizeProblem(tuple(conditions), CStarAlgebraFin(n), sorts)


def _dyadic_rect(rng, sort):
    """A rectangle with ends on the 1/8 grid of the sort's domain box."""
    def ends(lo):
        return sorted(rng.randint(lo, 8) / 8 for _ in "ab")
    if sort == SORT_BALL:
        return (*ends(-8), *ends(-8))
    return (*ends(-8 if sort == SORT_SA else 0), 0.0, 0.0)


def _random_boxes(rng, problem, count):
    """One-point boxes in the sorts' domains, shape (count, V, 4)."""
    def rect(sort):
        if sort == SORT_BALL:
            return _random_rect(rng)
        lo = -1.0 if sort == SORT_SA else 0.0
        return (*sorted(rng.uniform(lo, 1.0) for _ in "ab"), 0.0, 0.0)
    boxes = np.array([[rect(sort) for sort in problem.sorts] for _ in range(count)])
    return boxes.reshape(count, len(problem.sorts), 4)


def _check_rows_at_their_points(problem, boxes, points, cands, spots):
    """Each box and sample point reads the bounds and moduli, shape (C, m), that a
    one-point problem with every constant cut to its point reads, row for row."""
    n, shape = problem.points, (len(problem.conditions),)
    bounds, moduli = problem.bounds(boxes, points), problem.moduli(cands, spots)
    assert [b.shape for b in bounds] == [shape + points.shape] * 2 and moduli.shape == shape + spots.shape
    for i in range(n):
        cut = tuple(TypeCondition(_at_point(c.polynomial, i, n), c.target) for c in problem.conditions)
        one = _RealizeProblem(cut, CStarAlgebraFin(1), dict(zip(problem.names, problem.sorts.tolist())))
        at, where = points == i, spots == i
        for got, want in zip(bounds, one.bounds(boxes[at], np.zeros(at.sum(), dtype=int))):
            assert got[:, at].tolist() == want.tolist()
        assert moduli[:, where].tolist() == one.moduli(cands[where], np.zeros(where.sum(), dtype=int)).tolist()


def _random_cands(rng, problem, count):
    """Sample points in the unit square, shape (count, V)."""
    return np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in problem.names]
                     for _ in range(count)]).reshape(count, len(problem.names))


def test_packed_evaluation_equals_one_point_evaluation():
    # each point's boxes and sample points, evaluated among the other points'
    # rows, read what a one-point problem with every constant cut to that
    # point reads, box for box; so do a level of no rows and a level whose
    # rows all sit at one point of several
    rng = random.Random(4105)
    for _ in range(150):
        problem = _random_problem(rng)
        n = problem.points
        boxes = _random_boxes(rng, problem, rng.randint(1, 30))
        points = np.array([rng.randrange(n) for _ in boxes])
        cands = _random_cands(rng, problem, rng.randint(1, 30))
        spots = np.array([rng.randrange(n) for _ in cands])
        _check_rows_at_their_points(problem, boxes, points, cands, spots)
    for _ in range(30):
        problem = _random_problem(rng)
        none = np.zeros(0, dtype=int)
        _check_rows_at_their_points(problem, _random_boxes(rng, problem, 0), none,
                                    _random_cands(rng, problem, 0), none)
        while problem.points < 2:
            problem = _random_problem(rng)
        boxes, cands = _random_boxes(rng, problem, rng.randint(1, 30)), _random_cands(rng, problem, rng.randint(1, 30))
        point = rng.randrange(problem.points)
        _check_rows_at_their_points(problem, boxes, np.full(len(boxes), point), cands, np.full(len(cands), point))


def test_fused_level_equals_per_condition_reference():
    # all conditions are bounded in one pass; each condition alone reads the
    # same bounds and moduli, and its states at a threshold are its own
    # prefix of served intervals and suffix of open ones, tested one by one
    rng = random.Random(4112)
    for _ in range(150):
        problem = _random_problem(rng)
        n = problem.points
        boxes = _random_boxes(rng, problem, rng.randint(1, 30))
        points = np.array([rng.randrange(n) for _ in boxes])
        cands = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in problem.names]
                          for _ in range(rng.randint(1, 30))])
        spots = np.array([rng.randrange(n) for _ in cands])
        lo, hi = problem.bounds(boxes, points)
        moduli = problem.moduli(cands, spots)
        t = rng.choice((0.0, 0.125, 0.25))
        keys = problem.states(lo, hi, t)
        width = problem.width
        for c, condition in enumerate(problem.conditions):
            alone = _RealizeProblem((condition,), problem.algebra, dict(zip(problem.names, problem.sorts.tolist())))
            one_lo, one_hi = alone.bounds(boxes, points)
            assert one_lo[0].tolist() == lo[c].tolist() and one_hi[0].tolist() == hi[c].tolist()
            assert alone.moduli(cands, spots)[0].tolist() == moduli[c].tolist()
            target = condition.target + condition.target[-1:] * (width - len(condition.target))
            for key, a, b in zip(keys.tolist(), lo[c].tolist(), hi[c].tolist()):
                field = [key >> (c * (width + 1) + k) & 1 for k in range(width)]
                opened = [key >> (problem.bits + c * (width + 1) + k) & 1 for k in range(width)]
                assert field == [int(low - b <= t) for low, _ in target]
                assert opened == [int(a - high <= t) for _, high in target]
                assert field == sorted(field, reverse=True) and opened == sorted(opened)


def _choice_threshold(problem, choice):
    """The least threshold at which a choice of (lo, hi) modulus bounds per
    point covers, from its definition: per condition the least over its
    intervals of max(the largest excess over h, the least shortfall below l, 0)."""
    worst = 0.0
    for c, condition in enumerate(problem.conditions):
        worst = max(worst, min(max(max(lo[c] - h for lo, _ in choice), min(l - hi[c] for _, hi in choice), 0.0)
                               for l, h in condition.target))
    return worst


def test_cover_routines_equal_enumeration_of_choices():
    # cover, useful and least_cover against every choice of one item per
    # point, on union targets, at tol and at the least covering threshold
    rng = random.Random(4111)
    checked = collections.Counter()
    for _ in range(300):
        n = rng.randint(1, 4)
        conditions = tuple(TypeCondition(CVar("x"), _random_target(rng)) for _ in range(rng.randint(1, 4)))
        problem = _RealizeProblem(conditions, CStarAlgebraFin(n), {"x": SORT_BALL})
        tol = rng.choice((0.0, 0.125, 0.25))
        items = []
        for _ in range(n):  # per point 1-4 items: (lo, hi) modulus bounds of each condition
            point = []
            for _ in range(rng.randint(1, 4)):
                ends = [sorted(rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)) for _ in "ab") for _ in conditions]
                point.append(([lo for lo, _ in ends], [hi for _, hi in ends]))
            items.append(point)
        bounds = [(np.array([lo for lo, _ in point]).T, np.array([hi for _, hi in point]).T) for point in items]
        keys = [problem.states(lo, hi, tol).tolist() for lo, hi in bounds]
        thresholds = {choice: _choice_threshold(problem, [items[i][k] for i, k in enumerate(choice)])
                      for choice in itertools.product(*(range(len(point)) for point in items))}
        covering = [choice for choice, t in thresholds.items() if t <= tol]
        choice, useful = problem.cover(keys), problem.useful(keys)
        assert (choice is not None) == bool(useful[0]) == bool(covering)
        if choice is not None:  # the states of a covering choice of items
            assert any(all(keys[i][k] == key for i, (k, key) in enumerate(zip(c, choice))) for c in covering)
        for i, point in enumerate(keys):
            for k, key in enumerate(point):
                assert (key in useful[i]) == any(choice[i] == k for choice in covering)
        assert problem.least_cover(bounds, -1.0, np.inf) == min(thresholds.values())
        checked[bool(covering)] += 1
    assert min(checked.values()) >= 40, checked


def _in_domain(z, sort):
    """Whether one coordinate lies in the sort's domain, decided exactly."""
    if sort == SORT_BALL:
        return _modsq(z.real, z.imag) <= 1
    return z.imag == 0 and (-1 if sort == SORT_SA else 0) <= Fraction(z.real) <= 1


def test_ball_feasibility_and_witnesses_are_decided_exactly():
    # |1 + 2^-26 i|^2 = 1 + 2^-52 lies outside the disc, though np.hypot
    # rounds that modulus to 1.0; 1 - 2^-53 + 2^-27 i lies inside it
    problem = _RealizeProblem((TypeCondition(CVar("x"), [(1.0, 1.0)]),), CStarAlgebraFin(1),
                              {"x": SORT_BALL})
    tiny = 2.0**-26
    boxes = np.array([[(1.0, 1.0, tiny, tiny)], [(1.0, 1.0, 0.0, 0.0)],
                      [(1 - 2.0**-53, 1.0, tiny / 2, tiny)], [(0.5, 1.0, tiny, 0.5)]])
    cands, feasible = _candidates(problem, boxes)
    assert feasible.tolist() == [False, True, True, True]
    assert len(cands) == 2 * 3
    assert all(_in_domain(z, SORT_BALL) for z in cands.ravel().tolist())


def test_candidates_lie_in_their_sorts_domains():
    rng = random.Random(4106)
    rims = (0.0, 2.0**-27, 2.0**-26, 0.5, 1 - 2.0**-53, 1 - 2.0**-52, 1.0)
    for _ in range(80):
        names = TERM_NAMES[: rng.randint(1, 3)]
        sorts = {v: rng.choice((SORT_BALL, SORT_SA, SORT_POS)) for v in names}
        problem = _RealizeProblem((TypeCondition(CVar(names[0]), [(1.0, 1.0)]),), CStarAlgebraFin(1), sorts)
        boxes = problem.domain
        for _ in range(rng.randint(0, 12)):  # a random frontier of dyadic boxes
            boxes = _split(boxes)
            boxes = boxes[sorted(rng.sample(range(len(boxes)), min(len(boxes), 40)))]
        rim = _random_boxes(rng, problem, 20)
        for box in rim:  # ball rectangles on and around the unit circle
            for slot, sort in enumerate(problem.sorts):
                if sort == SORT_BALL:
                    re, im = sorted(rng.sample(rims, 2)), sorted(rng.sample(rims, 2))
                    sign = rng.choice((1.0, -1.0))
                    box[slot] = (re[0], re[1], im[0], im[1]) if sign > 0 else (-re[1], -re[0], im[0], im[1])
        boxes = np.concatenate([boxes, rim])
        cands, feasible = _candidates(problem, boxes)
        for box, ok in zip(boxes.tolist(), feasible.tolist()):
            nearest = [_modsq(min(max(0.0, a), b), min(max(0.0, c), d)) for a, b, c, d in box]
            assert ok == all(m <= 1 for m, s in zip(nearest, problem.sorts) if s == SORT_BALL), box
        fewest, most = (2, 2) if all(s == SORT_BALL for s in sorts.values()) else (3, 5)
        assert fewest * feasible.sum() <= len(cands) <= most * feasible.sum()
        for row in cands.tolist():
            assert all(_in_domain(z, s) for z, s in zip(row, problem.sorts)), row


# ---------------------------------------------------------------------------
# Orthogonal families
# ---------------------------------------------------------------------------


def test_max_orthogonal_family_counts():
    for points in range(1, 9):
        assert max_orthogonal_family(CStarAlgebraFin(points)) == points


def test_orthogonal_witness_family_verified():
    algebra = CStarAlgebraFin(5)
    family = orthogonal_witness_family(algebra)
    assert len(family) == 5
    for i, f in enumerate(family):
        assert c_norm(f) == 1.0
        assert all(v in (0, 1) for v in f)
        for g in family[i + 1 :]:
            assert c_mul(f, g) == algebra.zero()


def test_max_orthogonal_family_precondition():
    with pytest.raises(PreconditionError):
        max_orthogonal_family(CStarAlgebraFin(9))


# ---------------------------------------------------------------------------
# Shape caches and the numpy outward step
# ---------------------------------------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_numpy_outward_step_equals_two_nextafter_steps():
    # the numpy kernel steps each modulus end on the float64 bit pattern; that must
    # equal two np.nextafter steps each way, the lower end then floored at 0, bit for bit
    tiny, big = sys.float_info.min, sys.float_info.max
    special = np.array([0.0, 5e-324, 1e-323, tiny, 0.5, 1.0, big, math.inf, math.nan, -math.nan])
    rng = np.random.default_rng(4107)
    scales = 2.0 ** rng.integers(-1074, 1000, size=(2, 10_000))
    moduli = np.hypot(*(rng.standard_normal((2, 10_000)) * scales))
    for x in (special, moduli):
        with np.errstate(over="ignore"):  # past the largest float
            down = np.maximum(0.0, np.nextafter(np.nextafter(x, -np.inf), -np.inf))
            up = np.nextafter(np.nextafter(x, np.inf), np.inf)
        assert _bits(np.maximum(0.0, _np_outward(x, -np.inf))) == _bits(down)
        assert _bits(_np_outward(x, np.inf)) == _bits(up)
        finite = x[~np.isnan(x)]  # through the kernel: the rectangle [x, x] x [0, 0] has modulus x
        lo, hi = _np_abs_iv((finite, finite, np.zeros_like(finite), np.zeros_like(finite)))
        assert _bits(lo) == _bits(down[~np.isnan(x)]) and _bits(hi) == _bits(up[~np.isnan(x)])
    step = lambda x, to: math.nextafter(math.nextafter(x, to), to)
    for v in special.tolist():  # the scalar kernel keeps math.nextafter, twice
        expected = (max(0.0, step(abs(v), -math.inf)), step(abs(v), math.inf))
        assert list(map(float.hex, _abs_iv((v, v, 0.0, 0.0)))) == list(map(float.hex, expected)), v


def _hexed(value):
    """A value with every float spelled by ``float.hex``, for exact comparison."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, dict):
        return sorted((key, _hexed(item)) for key, item in value.items())
    if isinstance(value, tuple):
        return type(value).__name__, [_hexed(item) for item in value]
    return repr(value)


def _shifted(rng, name, n):
    """||name - c|| in [a, a] or [a, a + 1/4], for seeded dyadic c and a."""
    c = CConst(tuple(rng.choice((0.0, 0.25, 0.5)) for _ in range(n)))
    low = rng.choice((0.0, 0.25, 0.75))
    return TypeCondition(CSub(CVar(name), c), [(low, low + rng.choice((0.0, 0.25)))])


def _use_own_numpy_scales(mp):
    """Make ``saturation`` scale by each numpy arithmetic's own rule: a rectangle
    product with the scalar's point rectangle, and a complex product."""
    own = {_np_mul: lambda s, a: _np_mul(_rect_point(s), a), operator.mul: operator.mul}
    mp.setattr(saturation, "eval_term", lambda term, env, algebra, arith: eval_with_own_scale(
        term, env, algebra, arith, own[arith.mul]))


def _bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def test_numpy_arithmetics_scale_by_their_own_rules_bit_for_bit():
    # a scaling is the product with a constant element read at each row's point;
    # each numpy arithmetic's own rule took the scalar as it is.  Bounds and
    # moduli of terms with every node kind, then whole searches: the same bits.
    rng = random.Random(3406)
    for _ in range(150):
        problem = _random_problem(rng)
        boxes = _random_boxes(rng, problem, rng.randint(1, 30))
        points = np.array([rng.randrange(problem.points) for _ in boxes])
        cands = _random_cands(rng, problem, rng.randint(1, 30))
        spots = np.array([rng.randrange(problem.points) for _ in cands])
        found = _bits(problem.bounds(boxes, points)) + _bits([problem.moduli(cands, spots)])
        with pytest.MonkeyPatch.context() as mp:
            _use_own_numpy_scales(mp)
            assert found == _bits(problem.bounds(boxes, points)) + _bits([problem.moduli(cands, spots)])
    scaled = 0
    for _ in range(40):
        conditions, algebra, tol, sorts = _random_norm_type(rng)
        conditions = [TypeCondition(CScale(rng.choice((0.5, -2.0, 0.75j, 1 - 0.5j)), c.polynomial), c.target)
                      if rng.random() < 0.5 else c for c in conditions]
        scaled += any(isinstance(c.polynomial, CScale) for c in conditions)
        found = _hexed(realize_type(conditions, algebra, tol, sorts=sorts, max_boxes=2000))
        with pytest.MonkeyPatch.context() as mp:
            _use_own_numpy_scales(mp)
            assert found == _hexed(realize_type(conditions, algebra, tol, sorts=sorts, max_boxes=2000))
    assert scaled >= 30


def test_realize_type_is_the_same_with_cold_and_warm_shape_caches():
    caches = (_geometry, _first_level)
    assert all(cache.cache_parameters()["maxsize"] == 64 for cache in caches)
    rng = random.Random(4108)
    sorts = (SORT_BALL, SORT_SA, SORT_POS)
    mixes = (m for k in (1, 2, 3) for m in itertools.product(sorts, repeat=k))
    for mix, n in itertools.product(mixes, (1, 2, 3, 4)):
        names = TERM_NAMES[: len(mix)]
        algebra = CStarAlgebraFin(n)
        conditions = [_shifted(rng, name, n) for name in names]
        if len(names) > 1:
            conditions.append(TypeCondition(CMul(CVar(names[0]), CVar(names[1])), [(0.0, 0.25)]))
        for budget in (DEFAULT_REALIZE_BOXES, rng.randint(n, 60)):  # a room below 256 / n boxes
            for cache in caches:
                cache.cache_clear()
            cold = realize_type(conditions, algebra, 0.2, sorts=dict(zip(names, mix)), max_boxes=budget)
            warm = realize_type(conditions, algebra, 0.2, sorts=dict(zip(names, mix)), max_boxes=budget)
            assert _first_level.cache_info().hits == 1
            assert _hexed(warm) == _hexed(cold), (mix, n, budget)
            for array in (*_geometry(mix), *_first_level(mix, min(_BATCH_SIZE // 2, budget // n), n)[:2]):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0


# ---------------------------------------------------------------------------
# The rules the numpy search shares with ``clogic``
# ---------------------------------------------------------------------------


def test_the_numpy_disc_pull_is_clogic_onto_disc_elementwise():
    # points inside the circle, on it, either side of the 2**-50 band around it
    # and far outside: each is pulled (or kept) as ``_onto_disc`` does, so 1 and
    # -i stay on the circle and no point already in the disc moves
    rng = random.Random(5011)
    radii = [0.0, 0.3, 1 - 2.0**-40, 1 - 2.0**-49, 1 - 2.0**-51, 1.0, 1 + 2.0**-52, 1 + 2.0**-51,
             1 + 2.0**-49, 1 + 2.0**-40, 1.5, 1e3]
    points = [(1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.6, 0.8), (-0.0, 1.0)]
    for radius in radii:
        for _ in range(40):
            angle = rng.uniform(0, 2 * math.pi)
            points.append((radius * math.cos(angle), radius * math.sin(angle)))
    re, im = np.array(points).reshape(-1, 5, 2).transpose(2, 0, 1)  # the (boxes, variables) shape
    pulled = _onto_disc_np(re, im)
    assert pulled.shape == re.shape
    assert pulled.ravel().tolist() == [_onto_disc(*p) for p in points]
    assert pulled.ravel()[:2].tolist() == [1 + 0j, -1j]


@pytest.mark.parametrize("tol, budget", [(0.0, 10), (-1.0, 10), (math.nan, 10), (math.inf, 10), (0.1, 0)])
def test_realize_type_and_ceval_refuse_a_search_in_one_wording(tol, budget):
    algebra, x = CStarAlgebraFin(1), CVar("x")
    messages = []
    for search in (lambda: ceval(FSup("x", SORT_SA, FNorm(x)), algebra, {}, tol, max_boxes=budget),
                   lambda: realize_type([TypeCondition(x, [(1.0, 1.0)])], algebra, tol, max_boxes=budget)):
        with pytest.raises(PreconditionError) as excinfo:
            search()
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("the tolerance" if budget else "the box budget")


def test_realize_type_warns_of_no_overflow():
    # the modulus bounds keep inf and nan by design, so an overflowing condition is
    # searched with no numpy RuntimeWarning (an error under this suite's filters)
    # and leaves numpy's error state as it was
    state = np.geterr()
    big = CScale(1e200, CScale(1e200, CVar("x")))
    result = realize_type([TypeCondition(big, [(1.0, 1.0)])], CStarAlgebraFin(1), 0.1, max_boxes=2000)
    assert isinstance(result, Inconclusive) and result.best_deviation == 1.0
    result = realize_type([TypeCondition(CSub(big, big), [(0.0, 0.0)])], CStarAlgebraFin(1), 0.1, max_boxes=2000)
    assert isinstance(result, Realized) and result.max_deviation == 0.0
    assert np.geterr() == state
