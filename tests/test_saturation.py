"""Tests for chain interpolation and degree-1 type realization."""

import heapq
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from elemeq.boolalg import FiniteBoolAlg
from elemeq.clogic import (
    _RECTS,
    _rect_kernel,
    _rect_mod,
    CAdd,
    CConst,
    CMul,
    COne,
    CSub,
    CStar,
    CVar,
    SORT_BALL,
    SORT_POS,
    SORT_SA,
    eval_term,
)
from elemeq.cstar import CStarAlgebraFin, c_add, c_mul, c_norm, c_scale, c_star, c_sub
from elemeq.errors import PreconditionError
from elemeq.saturation import (
    _BATCH_SIZE,
    _NP_RECTS,
    _NP_VALUES,
    _RealizeProblem,
    _certify_assignment,
    _norm_bounds,
    _np_mod,
    _point_max,
    NOT_FOUND,
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
from util import TERM_NAMES, random_term

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


# ---------------------------------------------------------------------------
# Chain interpolation
# ---------------------------------------------------------------------------


def test_interpolation_frozen_examples():
    c = interpolate_chain([BA.cylinder("0")], [BA.top], BA)
    assert c == CylinderElement(2, frozenset({"00", "01", "10"}))
    assert interpolate_chain([], [BA.top], BA) == BA.cylinder("0")
    assert interpolate_chain([1], [3], FiniteBoolAlg(2)) == NOT_FOUND
    assert interpolate_chain([1], [7], FiniteBoolAlg(3)) == 3


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
            if nu != u and BA.lt(nu, v):
                lower.append(nu)
                u = nu
        else:
            nv = BA.meet(v, BA.complement(piece))
            if nv != v and BA.lt(u, nv):
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
            assert BA.lt(y, c)
        for z in upper:
            assert BA.lt(c, z)


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


def test_chain_refutation_fills_its_levels(monkeypatch):
    # each level bisects its few surviving boxes up to half a batch, so the
    # refutation on 4 points takes 6 levels where one bisection per level
    # took 17, and finds the same floor (sqrt(5)/2 - 1)
    levels = []
    floor = _RealizeProblem.deviation_floor

    def counted(self, boxes):
        levels.append(len(boxes))
        return floor(self, boxes)

    monkeypatch.setattr(_RealizeProblem, "deviation_floor", counted)
    algebra = CStarAlgebraFin(4)
    result = realize_type(_chain_conditions(algebra), algebra, 0.1)
    assert isinstance(result, Unsatisfiable)
    assert result.epsilon > 0.1 and result.epsilon == pytest.approx(0.1180339887, abs=1e-9)
    assert len(levels) <= 8
    assert max(levels) <= 2 * _BATCH_SIZE


def test_chain_refutation_scores_witnesses_only_in_surviving_boxes(monkeypatch):
    # a box whose floor exceeds tol holds no point within tol, so only the
    # boxes a level keeps score witnesses (two per ball box), and a level that
    # prunes every box scores none; the refutation is the one pinned above
    events = []
    floor, at = _RealizeProblem.deviation_floor, _RealizeProblem.deviation_at

    def floors(self, boxes):
        events.append(floor(self, boxes))
        return events[-1]

    def scored(self, reps):
        events.append(len(reps))
        return at(self, reps)

    monkeypatch.setattr(_RealizeProblem, "deviation_floor", floors)
    monkeypatch.setattr(_RealizeProblem, "deviation_at", scored)
    algebra = CStarAlgebraFin(4)
    result = realize_type(_chain_conditions(algebra), algebra, 0.1)
    assert isinstance(result, Unsatisfiable)
    assert result.epsilon == pytest.approx(0.1180339887, abs=1e-9)
    levels = [e for e in events if not isinstance(e, int)]
    assert 1 < len(levels) <= 8
    kept = [int((g <= 0.1).sum()) for g in levels]
    assert [n for n in events if isinstance(n, int)] == [2 * k for k in kept if k]
    assert kept[-1] == 0 and sum(kept) < sum(map(len, levels))


def _candidates(problem, boxes):
    """The ``witnesses`` of the boxes that are ``feasible``, and that mask."""
    feasible = problem.feasible(boxes)
    return problem.witnesses(boxes[feasible]), feasible


def _reference_realize(conditions, algebra, tol, sorts, max_boxes):
    """The level loop as it was before witnesses were limited to surviving
    boxes: every feasible box scores its candidates, and each frontier entry
    holds one box row.  Returns (verdict, epsilon or boxes_used)."""
    names = sorted(frozenset().union(*(c.variables() for c in conditions)))
    problem = _RealizeProblem(tuple(conditions), algebra, {v: sorts.get(v, SORT_BALL) for v in names})
    counter, heap = itertools.count(), []
    floor = best_value = np.inf
    best_rep, boxes_used = None, 0

    def assess(boxes):
        nonlocal floor, best_value, best_rep, boxes_used
        boxes_used += boxes.shape[0]
        cands, feasible = _candidates(problem, boxes)
        boxes = boxes[feasible]
        if boxes.shape[0] == 0:
            return
        g_lo = problem.deviation_floor(boxes)
        g_cand = problem.deviation_at(cands)
        leader = int(np.argmin(g_cand))
        if g_cand[leader] < best_value:
            best_value, best_rep = float(g_cand[leader]), cands[leader].copy()
        pruned = g_lo > tol
        if pruned.any():
            floor = min(floor, float(g_lo[pruned].min()))
        for item in zip(g_lo[~pruned].tolist(), counter, boxes[~pruned]):
            heapq.heappush(heap, item)

    assess(problem.initial_box())
    while True:
        if best_value <= tol:
            assignment = {name: tuple(z.tolist()) for name, z in problem._env(best_rep).items()}
            if _certify_assignment(conditions, algebra, assignment)[1] <= tol:
                return "realized", None
            best_value = np.inf
        if not heap:
            return "unsatisfiable", float(floor)
        if boxes_used >= max_boxes:
            return "inconclusive", boxes_used
        boxes = np.stack([heapq.heappop(heap)[2] for _ in range(min(_BATCH_SIZE, len(heap)))])
        for _ in range(max(1, (_BATCH_SIZE // (2 * boxes.shape[0])).bit_length() - 1)):
            boxes = problem.split(boxes)
        assess(boxes)


def _random_norm_type(rng):
    """A seeded type of 2-5 norm conditions on x - c, x c - d, x - c - 1,
    x y and x - y, with point or short targets."""
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
        conditions.append(TypeCondition(term, [(lo, lo + rng.choice((0.0, 0.0, 0.25, 0.5)))]))
    sorts = {v: rng.choice((SORT_BALL, SORT_BALL, SORT_SA, SORT_POS)) for v in names}
    return conditions, CStarAlgebraFin(n), rng.choice((0.05, 0.1, 0.25)), sorts


def test_levels_match_the_loop_that_scored_every_feasible_box(monkeypatch):
    # witnesses do not decide which boxes a level assesses, their floors, the
    # pruning or the pop order, so refutations and budgets come out the same
    levels = []
    floor = _RealizeProblem.deviation_floor

    def recorded(self, boxes):
        g_lo = floor(self, boxes)
        levels.append(g_lo.tolist())
        return g_lo

    monkeypatch.setattr(_RealizeProblem, "deviation_floor", recorded)
    rng = random.Random(4108)
    verdicts, depth = [], []
    for _ in range(48):
        conditions, algebra, tol, sorts = _random_norm_type(rng)
        levels.clear()
        kind, value = _reference_realize(conditions, algebra, tol, sorts, 3000)
        reference_levels = list(levels)
        levels.clear()
        result = realize_type(conditions, algebra, tol, sorts=sorts, max_boxes=3000)
        assert levels == reference_levels
        depth.append(len(levels))
        verdicts.append(kind)
        if kind == "realized":
            assert isinstance(result, Realized)
        elif kind == "unsatisfiable":
            assert isinstance(result, Unsatisfiable) and result.epsilon == value
        else:
            assert isinstance(result, Inconclusive) and result.boxes_used == value
    assert min(map(verdicts.count, ("realized", "unsatisfiable", "inconclusive"))) >= 3, verdicts
    assert sum(d > 1 for d in depth) >= 20, depth


def test_frontier_pops_by_floor_then_insertion_across_levels(monkeypatch):
    # floors spread over [0, 1.25 tol] grow the frontier past a batch, so a
    # level pops the boxes of several earlier levels interleaved; the boxes it
    # assesses come in the order of the loop whose entries held one box row
    levels = []

    def spread(self, boxes):
        levels.append(boxes.tolist())
        return np.modf(np.abs(boxes).sum(axis=(1, 2)) * 7.31)[0] * 0.125

    monkeypatch.setattr(_RealizeProblem, "deviation_floor", spread)
    monkeypatch.setattr(_RealizeProblem, "deviation_at", lambda self, reps: np.ones(len(reps)))
    rng = random.Random(4109)
    deep = 0
    for _ in range(6):
        conditions, algebra, _, sorts = _random_norm_type(rng)
        levels.clear()
        kind, value = _reference_realize(conditions, algebra, 0.1, sorts, 6000)
        reference_levels = list(levels)
        levels.clear()
        result = realize_type(conditions, algebra, 0.1, sorts=sorts, max_boxes=6000)
        assert levels == reference_levels
        assert (result.epsilon if kind == "unsatisfiable" else result.boxes_used) == value
        deep += len(levels) > 6
    assert deep >= 4


def test_chain_type_met_only_at_isolated_points_is_realized():
    # the least deviation equals tol and is attained only at isolated dyadic
    # points such as x = (-0.75i, 0.75, 0.75); levels of up to _BATCH_SIZE
    # popped boxes reach one, where levels of half as many ran out of budget
    algebra = CStarAlgebraFin(3)
    conditions = _chain_conditions(algebra, step=1, top=2)
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


def test_budget_is_passed_by_at_most_one_level():
    # a level is assessed whole, and one level assesses fewer than
    # 2 * _BATCH_SIZE boxes
    algebra = CStarAlgebraFin(2)
    names = ["x0", "x1", "x2"]
    for budget in (8, 100, 1000):
        result = realize_type(_orthogonality_conditions(names), algebra, 0.25,
                              sorts={n: SORT_POS for n in names}, max_boxes=budget)
        assert isinstance(result, Inconclusive), budget
        assert budget <= result.boxes_used < budget + 2 * _BATCH_SIZE, budget


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
    _, libm_mod = _rect_kernel(min, max, lambda x, y: float(np.hypot(x, y)))
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


def test_pairwise_point_max_equals_max_over_the_last_axis():
    # exact ties, signed zeros and infinities included; on floats and on the
    # moduli of complex values, for 1-4 points
    rng = np.random.default_rng(4107)
    ends = np.array([-0.0, 0.0, 0.25, 0.5, 1.0, -1.0, np.inf])
    for points in range(1, 5):
        shape = (rng.integers(1, 6), rng.integers(1, 300), points)
        grid = rng.choice(ends, shape)
        noise = np.where(rng.random(shape) < 0.5, rng.uniform(-2, 2, shape), grid)
        moduli = []
        for re, im in ((grid, rng.choice(ends, shape)), (noise, rng.uniform(-1, 1, shape))):
            z = re.astype(complex)
            z.imag = im
            moduli.append(np.abs(z))
        for a in (grid, noise, *moduli):
            got = _point_max(a)
            assert got.shape == a.shape[:-1]
            assert (got == a.max(axis=-1)).all(), points
    # so _norm_bounds is the widened .max(axis=-1) on the 10,000-box parity batches
    for term, algebra, boxes, batch in _parity_batches(random.Random(4104)):
        for m in _np_mod(eval_term(term, batch, algebra, _NP_RECTS)):
            assert np.array_equal(_point_max(m), m.max(axis=-1)), term


def _modsq(re, im):
    return Fraction(re) ** 2 + Fraction(im) ** 2


def test_level_norm_bounds_contain_the_exact_norm():
    # np.hypot is not correctly rounded (60 of these boxes read a bound one
    # ulp off); widened by two floats each way, the bounds hold for the exact
    # norms of the float rectangles
    cases = 0
    for term, algebra, boxes, batch in _parity_batches(random.Random(4104)):
        rect = eval_term(term, batch, algebra, _NP_RECTS)
        rows = np.broadcast_to(np.stack(rect, axis=-1), (len(boxes), algebra.point_count, 4))
        bounds = (np.broadcast_to(m, len(boxes)).tolist() for m in _norm_bounds(rect))
        for row, lo, hi in zip(rows.tolist(), *bounds):
            near = max(_modsq(min(max(0.0, a), b), min(max(0.0, c), d)) for a, b, c, d in row)
            far = max(_modsq(max(-a, b), max(-c, d)) for a, b, c, d in row)
            assert 0.0 <= lo and Fraction(lo) ** 2 <= near and Fraction(hi) ** 2 >= far, term
            cases += 1
    assert cases == 10_000


def _reference_distance(values, target):
    dist = np.full_like(values, np.inf)
    for lo, hi in target:
        dist = np.minimum(dist, np.maximum(np.maximum(lo - values, values - hi), 0.0))
    return dist


def _reference_level(problem, boxes, reps):
    """A level's deviation floors and sample deviations computed condition
    by condition, with one loop over each condition's target intervals."""
    points = problem.points
    cols = [slice(i * points, (i + 1) * points) for i in range(len(problem.names))]
    rects = {v: tuple(boxes[:, c, k] for k in range(4)) for v, c in zip(problem.names, cols)}
    values = {v: reps[:, c] for v, c in zip(problem.names, cols)}
    g_lo, g = np.zeros(boxes.shape[0]), np.zeros(reps.shape[0])
    for condition in problem.conditions:
        target = condition.target
        rect = eval_term(condition.polynomial, rects, problem.algebra, _NP_RECTS)
        nlo, nhi = (m.max(axis=-1) for m in _np_mod(rect))
        for _ in range(2):
            nlo, nhi = np.nextafter(nlo, -np.inf), np.nextafter(nhi, np.inf)
        nlo = np.maximum(nlo, 0.0)
        d_lo, d_hi = _reference_distance(nlo, target), _reference_distance(nhi, target)
        meets = np.zeros(nlo.shape, dtype=bool)
        for lo, hi in target:
            meets |= (nlo <= hi) & (lo <= nhi)
        g_lo = np.maximum(g_lo, np.where(meets, 0.0, np.minimum(d_lo, d_hi)))
        norms = np.abs(eval_term(condition.polynomial, values, problem.algebra, _NP_VALUES)).max(axis=-1)
        g = np.maximum(g, _reference_distance(norms, target))
    return g_lo, g


def _random_target(rng):
    ends = sorted(rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0)) for _ in range(2 * rng.randint(1, 3)))
    return list(zip(ends[0::2], ends[1::2]))


def _random_boxes(rng, problem, count):
    """Boxes in the sorts' domains, shape (count, slots, 4)."""
    def rect(sort):
        if sort == SORT_BALL:
            return _random_rect(rng)
        lo = -1.0 if sort == SORT_SA else 0.0
        return (*sorted(rng.uniform(lo, 1.0) for _ in "ab"), 0.0, 0.0)
    return np.array([[rect(sort) for sort in problem.sorts for _ in range(problem.points)]
                     for _ in range(count)])


def test_fused_level_equals_per_condition_reference():
    rng = random.Random(4105)
    for _ in range(150):
        n = rng.randint(1, 4)
        algebra = CStarAlgebraFin(n)
        sorts = {v: rng.choice((SORT_BALL, SORT_SA, SORT_POS)) for v in TERM_NAMES}
        conditions, wanted = [], rng.randint(1, 4)
        while len(conditions) < wanted:
            try:
                conditions.append(TypeCondition(random_term(rng, n, rng.randint(1, 3)), _random_target(rng)))
            except PreconditionError:
                pass  # a variable of degree 2
        # a variable-free condition: its arrays broadcast over the batch
        free = TypeCondition(CConst(tuple(complex(rng.uniform(-1, 1), 0.5) for _ in range(n))),
                             _random_target(rng))
        conditions.insert(rng.randint(0, len(conditions)), free)
        problem = _RealizeProblem(tuple(conditions), algebra, sorts)
        boxes = _random_boxes(rng, problem, rng.randint(1, 30))
        reps = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(problem.slots)]
                         for _ in range(rng.randint(1, 30))])
        ref_floor, ref_g = _reference_level(problem, boxes, reps)
        assert problem.deviation_floor(boxes).tolist() == ref_floor.tolist()
        assert problem.deviation_at(reps).tolist() == ref_g.tolist()


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
        n = rng.randint(1, 3)
        names = TERM_NAMES[: rng.randint(1, 3)]
        sorts = {v: rng.choice((SORT_BALL, SORT_SA, SORT_POS)) for v in names}
        problem = _RealizeProblem((TypeCondition(CVar(names[0]), [(1.0, 1.0)]),), CStarAlgebraFin(n), sorts)
        boxes = problem.initial_box()
        for _ in range(rng.randint(0, 12)):  # a random frontier of dyadic boxes
            boxes = problem.split(boxes)
            boxes = boxes[sorted(rng.sample(range(len(boxes)), min(len(boxes), 40)))]
        slot_sorts = np.repeat(problem.sorts, n)
        rim = _random_boxes(rng, problem, 20)
        for box in rim:  # ball rectangles on and around the unit circle
            for slot, sort in enumerate(slot_sorts):
                if sort == SORT_BALL:
                    re, im = sorted(rng.sample(rims, 2)), sorted(rng.sample(rims, 2))
                    sign = rng.choice((1.0, -1.0))
                    box[slot] = (re[0], re[1], im[0], im[1]) if sign > 0 else (-re[1], -re[0], im[0], im[1])
        boxes = np.concatenate([boxes, rim])
        cands, feasible = _candidates(problem, boxes)
        for box, ok in zip(boxes.tolist(), feasible.tolist()):
            nearest = [_modsq(min(max(0.0, a), b), min(max(0.0, c), d)) for a, b, c, d in box]
            assert ok == all(m <= 1 for m, s in zip(nearest, slot_sorts) if s == SORT_BALL), box
        fewest, most = (2, 2) if all(s == SORT_BALL for s in sorts.values()) else (3, 5)
        assert fewest * feasible.sum() <= len(cands) <= most * feasible.sum()
        for row in cands.tolist():
            assert all(_in_domain(z, s) for z, s in zip(row, slot_sorts)), row


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
