"""Tests for the continuous-logic evaluator and the classical translation."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from elemeq import boolalg, clogic
from elemeq.boolalg import FiniteBoolAlg, fo_eval, sentence_corpus
from elemeq.clogic import (
    CAdd,
    COne,
    CConst,
    CMul,
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
    EXACT,
    _CONNECTIVES,
    _RECTS,
    _atom_enclosure,
    _box_point,
    _initial_box,
    _split_box,
    _witness_candidates,
    ceval,
    cformula_free_vars,
    eval_term,
    formula_modulus,
    term_bound,
    term_free_vars,
    term_modulus,
    translate_fo,
)
from elemeq.cstar import (
    CStarAlgebraFin,
    c_add,
    c_mul,
    c_norm,
    c_scale,
    c_star,
    c_sub,
    projections,
)
from elemeq.errors import Frozen, PreconditionError, ResourceBudgetError
from util import (
    TERM_NAMES,
    check_frozen_nodes,
    check_node_shape,
    eval_with_own_scale,
    random_element,
    random_term,
    shadowed_sentences,
)


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "classes, args, fields, text",
    [
        ((CAdd, CSub, CMul, FPlus, FTruncSub, FMax, FMin, FAbsDiff), (CVar("x"), COne()),
         ("left", "right"), "CAdd(left=CVar(name='x'), right=COne())"),
        ((FSup, FInf), ("x", SORT_SA, FNorm(CVar("x"))), ("var", "sort", "body"),
         "FSup(var='x', sort='sa', body=FNorm(term=CVar(name='x')))"),
        ((CZero, COne), (), (), "CZero()"),
    ],
)
def test_node_shapes(classes, args, fields, text):
    check_node_shape(classes, args, fields, text)


def test_every_node_refuses_new_attributes():
    x, norm = CVar("x"), FNorm(CVar("x"))
    nodes = [x, CZero(), COne(), CConst((1j,)), CStar(x), CScale(2j, x), norm, FConst(0.5),
             FScale(0.5, norm), FSup("x", SORT_SA, norm), FInf("x", SORT_BALL, norm)]
    nodes += [cls(x, COne()) for cls in (CAdd, CSub, CMul)]
    nodes += [cls(norm, FConst(0.5)) for cls in (FPlus, FTruncSub, FMax, FMin, FAbsDiff)]
    check_frozen_nodes(nodes, (clogic._Pair, clogic._Quantifier))


@pytest.mark.parametrize("quantifier", [FSup, FInf])
def test_quantifiers_reject_an_unknown_sort(quantifier):
    with pytest.raises(PreconditionError, match="unknown quantifier sort: 'unit'"):
        quantifier("x", "unit", FNorm(CVar("x")))


def test_free_variables():
    phi = FSup(
        "p",
        SORT_PROJ,
        FPlus(FNorm(CSub(CVar("p"), CVar("q"))), FNorm(CVar("r"))),
    )
    assert cformula_free_vars(phi) == {"q", "r"}
    assert cformula_free_vars(FConst(0.5)) == frozenset()


def test_node_validation():
    with pytest.raises(PreconditionError):
        FConst(1.5)
    for scalar in (-1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            FScale(scalar, FConst(0.0))
    with pytest.raises(PreconditionError):
        FSup("x", "unitary", FConst(0.0))


def test_modulus_and_bound_composition():
    A = CStarAlgebraFin(2)
    bounds = {"x": 1.0, "y": 1.0}
    x, y = CVar("x"), CVar("y")
    assert term_bound(CMul(x, y), A, bounds) == 1
    assert term_modulus(CMul(x, x), "x", A, bounds) == 2
    assert term_modulus(CStar(x), "x", A, bounds) == 1
    assert term_modulus(CScale(3j, x), "x", A, bounds) == 3
    phi = FPlus(FNorm(CMul(x, x)), FTruncSub(FConst(1.0), FNorm(y)))
    assert formula_modulus(phi, "x", A, bounds) == 2
    assert formula_modulus(phi, "y", A, bounds) == 1
    # A quantifier binds its variable and preserves the others' moduli.
    q = FSup("x", SORT_BALL, phi)
    assert formula_modulus(q, "x", A, bounds) == 0
    assert formula_modulus(q, "y", A, bounds) == 1


def test_modulus_is_an_empirical_lipschitz_bound():
    rng = random.Random(31)
    A = CStarAlgebraFin(3)
    phi = FSup(
        "p",
        SORT_PROJ,
        FAbsDiff(FNorm(CMul(CVar("x"), CVar("p"))), FNorm(CVar("x"))),
    )
    bounds = {"x": 1.0}
    lip = formula_modulus(phi, "x", A, bounds)
    for _ in range(40):
        f = tuple(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(3))
        g = tuple(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(3))
        vf = ceval(phi, A, {"x": f}, 1e-9).lower
        vg = ceval(phi, A, {"x": g}, 1e-9).lower
        assert abs(vf - vg) <= lip * c_norm(c_sub(f, g)) + 1e-9


# ---------------------------------------------------------------------------
# Certified evaluation
# ---------------------------------------------------------------------------


def test_ceval_frozen_examples():
    A = CStarAlgebraFin(2)
    cert = ceval(FNorm(COne()), A, {}, 1e-9)
    assert cert.lower == cert.upper == 1
    cert = ceval(
        FInf("x", SORT_BALL, FNorm(CSub(CVar("x"), CStar(CVar("x"))))), A, {}, 1e-3
    )
    assert cert.lower <= 0 <= cert.upper
    assert cert.width() <= 1e-3
    cert = ceval(
        FSup("p", SORT_PROJ, FInf("q", SORT_PROJ, FNorm(CSub(CVar("p"), CVar("q"))))),
        A,
        {},
        1e-6,
    )
    assert 0 <= cert.upper <= 1e-6


def test_ceval_positive_sort_value():
    # sup over positive contractions of ||x(1-x)||: attained at x = 1/2
    # pointwise, value 1/4.
    A = CStarAlgebraFin(2)
    phi = FSup("x", SORT_POS, FNorm(CMul(CVar("x"), CSub(COne(), CVar("x")))))
    cert = ceval(phi, A, {}, 1e-3)
    assert cert.lower <= 0.25 <= cert.upper
    assert cert.width() <= 1e-3


def test_ceval_self_adjoint_sort_value():
    # inf over self-adjoint contractions of ||x - 1||: attained at x = 1.
    A = CStarAlgebraFin(3)
    phi = FInf("x", SORT_SA, FNorm(CSub(CVar("x"), COne())))
    cert = ceval(phi, A, {}, 1e-4)
    assert cert.lower <= 1e-4 and cert.upper <= 1e-4 + 1e-12


def test_ceval_nested_continuous_quantifiers():
    A = CStarAlgebraFin(1)
    phi = FSup("x", SORT_POS, FInf("y", SORT_POS, FNorm(CSub(CVar("x"), CVar("y")))))
    cert = ceval(phi, A, {}, 5e-2)
    assert cert.lower <= 0.05 and cert.upper <= 0.1
    assert cert.width() <= 5e-2


def test_ceval_params_and_constants():
    A = CStarAlgebraFin(2)
    phi = FNorm(CSub(CVar("x"), CConst((1 + 0j, 0j))))
    cert = ceval(phi, A, {"x": (1 + 0j, 1 + 0j)}, 1e-9)
    assert cert.lower == cert.upper == 1
    with pytest.raises(PreconditionError):
        ceval(phi, A, {}, 1e-9)


def test_ceval_preconditions():
    A = CStarAlgebraFin(2)
    with pytest.raises(PreconditionError):
        ceval(FConst(0.0), A, {}, 0.0)
    with pytest.raises(PreconditionError):
        ceval(FConst(0.0), CStarAlgebraFin(7), {}, 1e-6)
    for tol in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="tolerance must be positive and finite"):
            ceval(FSup("x", SORT_SA, FNorm(CVar("x"))), A, {}, tol)
    for bad in (math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)):
        with pytest.raises(PreconditionError):
            A.element((0j, bad))
        with pytest.raises(PreconditionError):
            ceval(FSup("x", SORT_SA, FNorm(CSub(CVar("x"), CVar("c")))), A, {"c": (bad, 0j)})


@pytest.mark.parametrize("budget", [0, -5, 0.5, math.nan])
def test_ceval_rejects_a_box_budget_below_one(budget):
    # the exact path and a constant search no box, and are rejected all the same
    A = CStarAlgebraFin(1)
    for phi in (FSup("x", SORT_SA, FNorm(CVar("x"))), FSup("p", SORT_PROJ, FNorm(CVar("p"))), FConst(0.5)):
        with pytest.raises(PreconditionError, match="box budget must be at least 1"):
            ceval(phi, A, {}, 1e-3, max_boxes=budget)
    assert ceval(FConst(0.5), A, {}, 1e-3, max_boxes=1).lower == 0.5


def test_ceval_rejects_an_overflowed_value():
    # |c c| with c = 1e300 is 1e600, beyond the floats: an enclosure with an
    # infinite or nan end would not contain it, and a nan width never closed
    # the branch-and-bound loop
    A = CStarAlgebraFin(1)
    cc = CMul(CVar("c"), CVar("c"))
    for phi in (FNorm(cc), FNorm(CSub(cc, cc)), FSup("x", SORT_SA, FNorm(CSub(cc, CVar("x"))))):
        with pytest.raises(PreconditionError, match="overflows"):
            ceval(phi, A, {"c": (1e300,)}, 0.01)
    # one search per point: the second point's nan raises where it is born,
    # before max() could pass over it
    phi = FSup("x", SORT_SA, FNorm(CAdd(CSub(cc, cc), CVar("x"))))
    for c in ((0.5, 1e300), (1e300, 0.5)):
        with pytest.raises(PreconditionError, match="overflows"):
            ceval(phi, CStarAlgebraFin(2), {"c": c}, 0.01)


def test_ceval_never_certifies_a_nan_that_max_or_min_dropped():
    # inf - inf and 0 * inf are nan, and max(0.5, nan) is 0.5: each of these
    # was certified [0.5, 0.5], though its value is at least 1e309
    half, one = FConst(0.5), COne()
    big, bigger = (FNorm(CScale(s, CScale(1e200, one))) for s in (1e200, 2e200))
    scaled, rescaled = (FScale(1e308, FNorm(CScale(s, one))) for s in (10, 20))
    cases = [
        (FMax(half, FAbsDiff(big, bigger)), 1),
        (FMax(half, FTruncSub(bigger, big)), 1),
        (FSup("p", SORT_PROJ, FMax(half, FAbsDiff(big, bigger))), 1),
        (FSup("x", SORT_SA, FMax(half, FAbsDiff(big, bigger))), 1),
        (FSup("x", SORT_SA, FMax(half, FAbsDiff(big, bigger))), 2),  # the coupled search
        (FMax(half, FAbsDiff(scaled, rescaled)), 1),
        (FSup("x", SORT_POS, FMax(half, FAbsDiff(scaled, rescaled))), 1),
    ]
    for phi, n in cases:
        with pytest.raises(PreconditionError, match="overflows"):
            ceval(phi, CStarAlgebraFin(n), {}, 0.01)
    # an exact zero scaling gives 0, of an infinity too
    cert = ceval(FMin(half, FScale(0.0, big)), CStarAlgebraFin(1), {}, 0.01)
    assert (cert.lower, cert.upper) == (0.0, 0.0)
    # an infinity alone is no nan: min(0.5, 1e400) is 0.5 on both paths
    for phi in (FMin(half, big), FSup("x", SORT_SA, FMin(half, big))):
        cert = ceval(phi, CStarAlgebraFin(1), {}, 0.01)
        assert (cert.lower, cert.upper) == (0.5, 0.5)


def test_ceval_cone_bounds_a_parameter_by_its_norm():
    # min over x of max(|cx - 1|, |cx - 3|) with c = 10 is 1, at x = 0.2
    # only; bounding c by 1 in the Lipschitz cone cut that value off.
    A = CStarAlgebraFin(1)
    cx = CMul(CVar("c"), CVar("x"))
    phi = FInf("x", SORT_SA, FMax(FNorm(CSub(cx, CConst((1,)))), FNorm(CSub(cx, CConst((3,))))))
    cert = ceval(phi, A, {"c": (10,)}, 1e-3)
    assert cert.lower <= 1 <= cert.upper and cert.width() <= 1e-3
    scaled = FInf("x", SORT_SA, FMax(*(FNorm(CSub(CScale(10, CVar("x")), CConst((k,))))
                                       for k in (1, 3))))
    cert = ceval(scaled, A, {}, 1e-3)
    assert cert.lower <= 1 <= cert.upper


def test_ceval_deterministic():
    A = CStarAlgebraFin(2)
    phi = FSup("x", SORT_POS, FNorm(CMul(CVar("x"), CSub(COne(), CVar("x")))))
    assert ceval(phi, A, {}, 1e-3) == ceval(phi, A, {}, 1e-3)


def test_ceval_monotone_refinement():
    A = CStarAlgebraFin(2)
    phi = FSup("x", SORT_POS, FNorm(CMul(CVar("x"), CSub(COne(), CVar("x")))))
    coarse = ceval(phi, A, {}, 1e-1)
    fine = ceval(phi, A, {}, 1e-3)
    assert coarse.lower <= fine.lower and fine.upper <= coarse.upper


def test_ceval_budget_error_reports_best_enclosure():
    # Over positive contractions the supremum of ||x(1.2-x)|| is 0.36 (at
    # x = 0.6, which no bisection of [0, 1] reaches, so every box around it
    # keeps both slopes), and interval bounds cannot certify it to 1e-12
    # within 50 boxes.
    A = CStarAlgebraFin(2)
    x = CVar("x")
    phi = FSup("x", SORT_POS, FNorm(CMul(x, CSub(CScale(1.2, COne()), x))))
    with pytest.raises(ResourceBudgetError) as info:
        ceval(phi, A, {}, 1e-12, max_boxes=50)
    best = info.value.best_known
    assert best.lower <= 0.36 <= best.upper


def test_budget_error_encloses_the_whole_formula():
    # The budget runs out in a quantifier below a connective or another
    # quantifier; the enclosure reported was that quantifier's (about 0.36).
    A, x, y = CStarAlgebraFin(2), CVar("x"), CVar("y")
    inner = FSup("x", SORT_POS, FNorm(CMul(x, CSub(CScale(1.2, COne()), x))))
    for phi, value in ((FPlus(FConst(0.5), inner), 0.86),
                       (FSup("y", SORT_POS, FPlus(inner, FNorm(y))), 1.36)):
        with pytest.raises(ResourceBudgetError) as info:
            ceval(phi, A, {}, 1e-12, max_boxes=50)
        best = info.value.best_known
        assert best.lower <= value <= best.upper, phi


def _assessed_boxes(mp):
    """The boxes every search assesses from now on, in order."""
    boxes, candidates = [], clogic._witness_candidates
    mp.setattr(clogic, "_witness_candidates", lambda box, sort: boxes.append(box) or candidates(box, sort))
    return boxes


def test_a_monotone_half_shrinks_to_the_bisection_point():
    # d|x(1-x)|/dx = 1 - 2x keeps one sign on each half of [0, 1], so each
    # half shrinks to its face x = 1/2, where the value 1/4 is attained: the
    # first box and its two halves certify [1/4, 1/4] at any tolerance.
    x = CVar("x")
    phi = FSup("x", SORT_POS, FNorm(CMul(x, CSub(COne(), x))))
    for n, tol in itertools.product((1, 2), (1e-2, 1e-3, 1e-12)):
        with pytest.MonkeyPatch.context() as mp:
            boxes = _assessed_boxes(mp)
            cert = ceval(phi, CStarAlgebraFin(n), {}, tol)
        assert (cert.lower.hex(), cert.upper.hex(), cert.grid_depth) == ((0.25).hex(),) * 2 + (1,), (n, tol)
        assert len(boxes) == 3 * n, (n, tol)


def test_an_increasing_atom_shrinks_an_inf_to_its_lower_face():
    # |x^2 + x| increases on [0, 1], so the inf's first box is the point x = 0
    x = CVar("x")
    with pytest.MonkeyPatch.context() as mp:
        boxes = _assessed_boxes(mp)
        cert = ceval(FInf("x", SORT_POS, FNorm(CAdd(CMul(x, x), x))), CStarAlgebraFin(1), {}, 1e-3)
    assert (cert.lower, cert.upper, cert.grid_depth) == (0.0, 0.0, 0)
    assert boxes == [((0.0, 0.0, 0.0, 0.0),)]


def test_the_ball_sort_never_shrinks_to_a_face():
    # A ball box pokes out of the disc, where a face can leave the domain.
    # |x* - x| = 2|Im x| has a zero real slope, so a real face of the first
    # box would keep only its domain point x = 1 and lose the optimum at ±i.
    x = CVar("x")
    for n in (1, 2):
        cert = ceval(FSup("x", SORT_BALL, FNorm(CMul(x, CSub(COne(), x)))), CStarAlgebraFin(n), {}, 1e-2)
        assert (cert.lower, cert.upper, cert.grid_depth) == (2.0, 2.0000000000000013, 2)
        cert = ceval(FSup("x", SORT_BALL, FNorm(CSub(CStar(x), x))), CStarAlgebraFin(n), {}, 1e-2)
        assert (cert.lower, cert.upper, cert.grid_depth) == (2.0, 2.0, 1)


def test_a_nan_slope_product_fixes_no_sign():
    # over x in [0, 1] with c = 1e308, t = x^2 c lies in [0, 1e308] and its
    # derivative 2x c in [0, inf], so Re(t conj(t')) has the product 0 * inf,
    # a nan that min and max would pass over, leaving the lower end 0
    x, c = CVar("x"), CVar("c")
    env = {"x": ((0.0, 1.0, 0.0, 0.0),), "c": ((1e308, 1e308, 0.0, 0.0),)}
    A = CStarAlgebraFin(1)
    assert clogic._slope_signs(CMul(CMul(x, x), c), env, "x", A) == [0]
    assert clogic._slope_signs(CMul(x, c), env, "x", A) == [1]


def test_face_shrinks_keep_certificates_sound_and_meeting_the_unshrunk_ones():
    # Atoms that repeat the searched variable, with random parameters: every
    # certificate holds the body at sampled domain points, ends included (with
    # the slack of test_ceval_bounds_dominate_sampled_body_values), and meets
    # the certificate of the same search with no face shrink.
    rng, shrinks, shrunk, checked = random.Random(4040), [], 0, 0
    signs = clogic._slope_signs

    def counted(*args):
        found = signs(*args)
        shrinks.append(any(found))
        return found

    while checked < 300:
        n, sort = rng.randint(1, 2), rng.choice((SORT_SA, SORT_POS))
        term = random_term(rng, n, rng.randint(2, 3))
        if "x" not in clogic._term_vars(term)[1]:
            continue
        checked += 1
        A, is_sup = CStarAlgebraFin(n), rng.random() < 0.5
        phi = (FSup if is_sup else FInf)("x", sort, FNorm(term))
        params = {"y": random_element(rng, n), "z": random_element(rng, n)}
        certs = []
        for sign_of in (counted, lambda term, env, var, algebra: [0] * algebra.point_count):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(clogic, "_slope_signs", sign_of)
                try:
                    certs.append(ceval(phi, A, params, 0.05, max_boxes=2000))
                except ResourceBudgetError as err:
                    certs.append(err.best_known)
        cert, unshrunk = certs
        shrunk += any(shrinks)
        shrinks.clear()
        assert max(cert.lower, unshrunk.lower) <= min(cert.upper, unshrunk.upper), (phi, params)
        for point in _domain_samples(sort, n, rng, 200):
            value = c_norm(eval_term(term, {**params, "x": point}, A, EXACT))
            if is_sup:
                assert value <= cert.upper + 1e-12, (phi, params, point)
            else:
                assert value >= cert.lower - 1e-12, (phi, params, point)
    assert shrunk >= 100, shrunk


def test_ceval_ball_optimum_on_the_unit_circle():
    # The optima sit on the unit circle, where boxes straddling it used to
    # overestimate: both exhausted the 200,000-box budget.  |c_1| = 0.625.
    A = CStarAlgebraFin(2)
    x, c = CVar("x"), (0.375 + 0.5j, -0.5 + 0.25j)
    for term, value in ((CMul(x, CVar("c")), 0.625), (CAdd(x, CVar("c")), 1.625)):
        cert = ceval(FSup("x", SORT_BALL, FNorm(term)), A, {"c": c}, 1e-2)
        assert cert.lower <= value <= cert.upper
        assert cert.width() <= 1e-2


def test_ceval_corner_optimum_certified_at_the_first_box():
    # Optima at a corner of the domain are witnessed by the corner candidates
    # before any split, so the certificate's depth is 0.
    x, c = CVar("x"), CVar("c")
    cases = [
        (FSup("x", SORT_SA, FNorm(CAdd(x, CStar(x)))), 2, {}, 2.0),
        (FSup("x", SORT_SA, FNorm(CSub(x, c))), 2, {"c": (0.375 + 0j, -0.625 + 0j)}, 1.625),
        (FSup("x", SORT_POS, FNorm(CMul(CStar(x), c))), 2, {"c": (0.375 + 0.5j, 0.5j)}, 0.625),
        (FSup("x", SORT_BALL, FNorm(CMul(x, c))), 1, {"c": (0.375 + 0.5j,)}, 0.625),
    ]
    for phi, n, params, value in cases:
        cert = ceval(phi, CStarAlgebraFin(n), params, 1e-3)
        assert cert.lower <= value <= cert.upper, phi
        assert cert.grid_depth == 0, phi


def test_ceval_repeated_variable_within_a_thousand_boxes():
    # ||x(1-x)|| mentions x twice; the naive rectangle form took 59,911 boxes.
    A = CStarAlgebraFin(2)
    x = CVar("x")
    phi = FSup("x", SORT_POS, FNorm(CMul(x, CSub(COne(), x))))
    cert = ceval(phi, A, {}, 1e-3, max_boxes=1000)
    assert cert.lower <= 0.25 <= cert.upper
    assert cert.width() <= 1e-3


def _in_domain(v, sort):
    if sort == SORT_BALL:
        return Fraction(v.real) ** 2 + Fraction(v.imag) ** 2 <= 1
    low = -1 if sort == SORT_SA else 0
    return v.imag == 0 and low <= v.real <= 1


def test_witness_candidates_lie_in_the_domain():
    rng = random.Random(6061)
    for sort in (SORT_BALL, SORT_SA, SORT_POS):
        for n in (1, 2, 3):
            boxes = [_initial_box(sort, n)]
            for _ in range(200):
                boxes.extend(_split_box(boxes.pop(rng.randrange(len(boxes)))))
            for box in boxes:
                candidates = _witness_candidates(box, sort)
                if candidates is None:
                    assert sort == SORT_BALL
                    continue
                assert len(candidates) == (5 if sort == SORT_BALL else 3)
                for point in candidates:
                    assert all(_in_domain(v, sort) for v in point), (box, point)
    # corners off dyadic grids, just outside and just inside the circle
    for _ in range(500):
        re, im = rng.uniform(0, 1), rng.uniform(0, 1)
        scale = 1 / math.hypot(re, im)
        for k in (-2, -1, 0, 1, 2):
            r = scale * (1 + k * 2.0**-52)
            box = ((re * r / 2, re * r, im * r / 2, im * r),)
            for point in _witness_candidates(box, SORT_BALL):
                assert _in_domain(point[0], SORT_BALL), box


def _steps(x, k):
    """``x`` moved ``k`` floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def test_disc_membership_is_exact_at_the_unit_circle():
    # Inside the band around 1 the test runs in integers; it must agree with
    # the rational test, a tiny coordinate next to 1.0 included.
    rng = random.Random(6062)
    points = [(1.0, 0.0), (0.0, -1.0), (-1.0, -0.0), (5e-324, 1.0), (1.0, -5e-324),
              (2.0**-27, 1.0), (2.0**-27, _steps(1.0, -1)), (0.6, 0.8), (-0.8, 0.6)]
    for _ in range(300):
        angle = rng.uniform(0, 2 * math.pi)
        points.append((math.cos(angle), math.sin(angle)))
    points += [(_steps(re, a), _steps(im, b)) for re, im in list(points)
               for a in (-2, -1, 0, 1) for b in (-1, 0, 2)]
    for re, im in points:
        assert clogic._in_disc(re, im) == (Fraction(re) ** 2 + Fraction(im) ** 2 <= 1), (re, im)
    assert clogic._in_disc(1.0, 0.0) and clogic._in_disc(0.0, -1.0)
    assert not clogic._in_disc(5e-324, 1.0) and not clogic._in_disc(1.0, -5e-324)


def _sample_in(rect, sort, rng):
    while True:
        v = complex(rng.uniform(rect[0], rect[1]), rng.uniform(rect[2], rect[3]))
        if _in_domain(v, sort):
            return v


def test_atom_enclosure_contains_sampled_values():
    # Naive, centred and disc-capped bounds together, on boxes of every sort
    # with one or two box-valued variables.
    rng = random.Random(6062)
    for _ in range(400):
        n, sort = rng.randint(1, 2), rng.choice((SORT_BALL, SORT_SA, SORT_POS))
        A = CStarAlgebraFin(n)
        term = random_term(rng, n, rng.randint(1, 4))
        boxes = {v: _box_point(random_element(rng, n)) for v in TERM_NAMES}
        for v in rng.sample(TERM_NAMES, rng.randint(1, 2)):
            box = _initial_box(sort, n)
            for _ in range(rng.randint(0, 8)):
                box = rng.choice(_split_box(box))
            if _witness_candidates(box, sort) is not None:
                boxes[v] = box
        lo, hi = _atom_enclosure(term, boxes, A)
        for _ in range(20):
            env = {v: tuple(_sample_in(r, sort, rng) if r[0] != r[1] or r[2] != r[3]
                            else complex(r[0], r[2]) for r in box)
                   for v, box in boxes.items()}
            value = c_norm(eval_term(term, env, A, EXACT))
            assert lo - 1e-9 <= value <= hi + 1e-9, (term, boxes, env)


def _domain_samples(sort, n, rng, count):
    ends = {SORT_BALL: (-1.0, 1.0, 1j, -1j), SORT_SA: (-1.0, 1.0), SORT_POS: (0.0, 1.0)}[sort]
    samples = [tuple(rng.choice(ends) for _ in range(n)) for _ in range(count // 4)]
    rect = _initial_box(sort, 1)[0]
    while len(samples) < count:
        samples.append(tuple(_sample_in(rect, sort, rng) for _ in range(n)))
    return samples


def test_ceval_bounds_dominate_sampled_body_values():
    # Rounding is to nearest (see the ROADMAP item on outward rounding), so a
    # sampled float value may pass an attained bound by a few ulps; 1e-12
    # absorbs that and no more.
    rng = random.Random(6063)
    for _ in range(60):
        n, sort = rng.randint(1, 2), rng.choice((SORT_BALL, SORT_SA, SORT_POS))
        A = CStarAlgebraFin(n)
        term = random_term(rng, n, rng.randint(1, 3))
        params = {"y": random_element(rng, n), "z": random_element(rng, n)}
        is_sup = rng.random() < 0.5
        phi = (FSup if is_sup else FInf)("x", sort, FNorm(term))
        try:
            cert = ceval(phi, A, params, 0.05, max_boxes=2000)
        except ResourceBudgetError as err:
            cert = err.best_known
        for point in _domain_samples(sort, n, rng, 200):
            value = c_norm(eval_term(term, {**params, "x": point}, A, EXACT))
            if is_sup:
                assert value <= cert.upper + 1e-12, (phi, params, point)
            else:
                assert value >= cert.lower - 1e-12, (phi, params, point)


#: Each binary connective's value, stated apart from the module's table.
_CONNECTIVE_VALUES = {
    FPlus: lambda a, b: a + b,
    FTruncSub: lambda a, b: max(a - b, 0.0),
    FMax: max,
    FMin: min,
    FAbsDiff: lambda a, b: abs(a - b),
}


def test_ceval_bounds_dominate_sampled_values_of_every_connective():
    # each connective of two parametrised norms on the interval path, which
    # runs every row's enclosure rule
    rng = random.Random(6064)
    for connective, value_of in _CONNECTIVE_VALUES.items():
        for sort, n, quantifier in itertools.product(
                (SORT_BALL, SORT_SA, SORT_POS), (1, 2), (FSup, FInf)):
            A = CStarAlgebraFin(n)
            terms = (CSub(CVar("x"), random_term(rng, n, 1)), CMul(CVar("x"), random_term(rng, n, 1)))
            phi = quantifier("x", sort, connective(*map(FNorm, terms)))
            params = {"y": random_element(rng, n), "z": random_element(rng, n)}
            try:
                cert = ceval(phi, A, params, 0.05, max_boxes=1000)
            except ResourceBudgetError as err:
                cert = err.best_known
            for point in _domain_samples(sort, n, rng, 100):
                env = {**params, "x": point}
                value = value_of(*(c_norm(eval_term(t, env, A, EXACT)) for t in terms))
                if quantifier is FSup:
                    assert value <= cert.upper + 1e-12, (phi, params, point)
                else:
                    assert value >= cert.lower - 1e-12, (phi, params, point)


def test_connective_enclosure_rules_agree_with_the_exact_rules():
    # on point intervals a row's two rules agree; at points inside intervals
    # the exact value lies in the enclosure (both rules are monotone in each
    # end, and so is rounding to nearest)
    rng = random.Random(6065)

    def draw():
        return rng.choice((0.0, -0.0, rng.random(), rng.uniform(0, 1e3), 10 ** rng.uniform(-300, 300)))

    assert set(_CONNECTIVES) == set(_CONNECTIVE_VALUES)
    for connective, rule in _CONNECTIVES.items():
        for _ in range(500):
            a, b = draw(), draw()
            (value,) = rule.exact([a], [b])
            assert value == _CONNECTIVE_VALUES[connective](a, b)
            ends = clogic._enclose(rule, (a, a), (b, b))  # the same floats, a zero's sign included
            assert [end.hex() for end in ends] == [value.hex()] * 2, (connective, a, b)
            l, r = sorted((a, draw())), sorted((b, draw()))
            lo, hi = clogic._enclose(rule, tuple(l), tuple(r))
            for _ in range(5):
                x, y = rng.uniform(*l), rng.uniform(*r)
                assert lo <= rule.exact([x], [y])[0] <= hi, (connective, l, r, x, y)


# ---------------------------------------------------------------------------
# Each arithmetic rule against the statement it had before it was stated once:
# every arithmetic's own scaling rule, each connective's own enclosure rule and
# the point split's list of classes.  The program must give the same floats.
# ---------------------------------------------------------------------------


def _no_nan_by_hand(values):
    if math.isnan(sum(values)):
        raise PreconditionError("the value overflows the floats: an overflowed operation gave nan")
    return values


#: Each connective's enclosure rule, written out end by end.
_OWN_ENCLOSURES = {
    FPlus: lambda l, r: (l[0] + r[0], l[1] + r[1]),
    FTruncSub: lambda l, r: _no_nan_by_hand((max(l[0] - r[1], 0.0), max(l[1] - r[0], 0.0))),
    FMax: lambda l, r: (max(l[0], r[0]), max(l[1], r[1])),
    FMin: lambda l, r: (min(l[0], r[0]), min(l[1], r[1])),
    FAbsDiff: lambda l, r: _no_nan_by_hand((
        0.0 if l[0] <= r[1] and r[0] <= l[1] else max(l[0] - r[1], r[0] - l[1]),
        abs(max(l[1] - r[0], r[1] - l[0])))),
}


def _splits_over_points_by_class(phi):
    """The point split's rule as a list of connective classes."""
    if isinstance(phi, (FSup, FInf)):
        return _splits_over_points_by_class(phi.body)
    if isinstance(phi, FScale):
        return _splits_over_points_by_class(phi.arg)
    if isinstance(phi, FMax):
        return _splits_over_points_by_class(phi.left) and _splits_over_points_by_class(phi.right)
    if isinstance(phi, (FPlus, FMin)) and isinstance(phi.left, FConst):
        return _splits_over_points_by_class(phi.right)
    if isinstance(phi, (FPlus, FMin, FTruncSub)):
        return isinstance(phi.right, FConst) and _splits_over_points_by_class(phi.left)
    return not isinstance(phi, FAbsDiff)


def _cut_by_hand(node, i, n):
    """The node with every constant cut to point ``i`` of ``n``, rebuilt field by field."""
    if isinstance(node, CConst):
        if len(node.values) != n:
            raise PreconditionError("constant element has the wrong size")
        return CConst(node.values[i:i + 1])
    return type(node)(*(_cut_by_hand(f, i, n) for f in node[1:])) if isinstance(node, Frozen) else node


def _at_point_by_class(node, i, n):
    """The point split's cut, or None, by its rule as a list of connective classes."""
    return _cut_by_hand(node, i, n) if _splits_over_points_by_class(node) else None


def _rect_scale_by_hand(s, box):
    return tuple(clogic._rect_mul(clogic._rect_point(s), a) for a in box)


#: Each arithmetic's own scaling rule (s, value) -> s value, keyed by its ``mul``.
_OWN_SCALES = {
    c_mul: c_scale,  # exact elements, stacked or not
    clogic._LIPSCHITZ.mul: lambda s, a: (abs(s) * a[0], abs(s) * a[1]),
    _RECTS.mul: _rect_scale_by_hand,
    clogic._MODULI.mul: lambda s, a: clogic._MODULI.mul(clogic._MODULI.const((s,) * len(a)), a),
}


def _centred_scale_by_hand(s, value):
    return tuple(_rect_scale_by_hand(s, a) for a in value)


def _use_own_rules(mp):
    """Make ``clogic`` evaluate by the rules above: scalings, enclosures, point split."""
    scales, make_centred, walk = dict(_OWN_SCALES), clogic._centred_arith, clogic.eval_term

    def centred_arith(zeros):
        arith = make_centred(zeros)
        scales[arith.mul] = _centred_scale_by_hand
        return arith

    kinds = {rule: kind for kind, rule in _CONNECTIVES.items()}
    mp.setattr(clogic, "_centred_arith", centred_arith)
    mp.setattr(clogic, "eval_term", lambda term, env, algebra, arith: eval_with_own_scale(
        term, env, algebra, arith, scales[arith.mul], walk))
    mp.setattr(clogic, "_enclose", lambda rule, l, r: _OWN_ENCLOSURES[kinds[rule]](l, r))
    mp.setattr(clogic, "_at_point", _at_point_by_class)


def _hex(value):
    """A value's floats by ``float.hex`` (so -0.0 counts), nested as the value is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return tuple(map(_hex, value))


def _outcome(f, *args):
    """What ``f`` gives: its floats by hex, or its error's class and message."""
    try:
        return _hex(f(*args))
    except (PreconditionError, ResourceBudgetError) as err:
        return type(err).__name__, str(err)


def test_connective_enclosures_are_their_own_rules_bit_for_bit():
    # on every mix of ends, in order or not, signed zeros, infinities and nan:
    # the same floats, or the same error where the rule meets a nan
    rng = random.Random(3401)
    special = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 1e308, 5e-324)

    def draw():
        return rng.choice(special) if rng.random() < 0.6 else rng.uniform(-2, 2)

    for connective, by_hand in _OWN_ENCLOSURES.items():
        rule, raised = _CONNECTIVES[connective], 0
        for _ in range(3000):
            l, r = (draw(), draw()), (draw(), draw())
            expected = _outcome(by_hand, l, r)
            assert _outcome(clogic._enclose, rule, l, r) == expected, (connective, l, r)
            raised += isinstance(expected[0], str) and expected[0] == "PreconditionError"
        assert (raised > 0) == (connective in (FTruncSub, FAbsDiff)), connective


def _constant_sided(rng, depth):
    """Formulas whose connectives often have an ``FConst`` side."""
    if depth == 0 or rng.random() < 0.2:
        return FConst(0.5) if rng.random() < 0.5 else FNorm(CVar("x"))
    kind = rng.randrange(7)
    if kind < 5:
        op = (FPlus, FTruncSub, FMax, FMin, FAbsDiff)[kind]
        sides = [_constant_sided(rng, depth - 1), FConst(0.25)]
        rng.shuffle(sides)
        return op(*sides) if rng.random() < 0.7 else op(_constant_sided(rng, depth - 1), sides[0])
    if kind == 5:
        return FScale(0.5, _constant_sided(rng, depth - 1))
    return FSup("x", SORT_SA, _constant_sided(rng, depth - 1))


def test_point_split_reads_the_rows_as_its_list_of_classes_did():
    rng, seen = random.Random(3402), set()
    formulas = [_random_formula(rng, 2, rng.randint(1, 5), 3) for _ in range(400)]
    formulas += [_random_max_closed(rng, 2, 2, (FSup, FInf), top=True) for _ in range(200)]
    formulas += [_constant_sided(rng, rng.randint(1, 5)) for _ in range(600)]
    for phi in formulas:
        expected = _at_point_by_class(phi, 0, 2)
        assert clogic._at_point(phi, 0, 2) == expected, phi
        seen.add(expected is not None)
    assert seen == {False, True}


def _random_rect(rng):
    ends = (0.0, -0.0, 1.0, -1.0, 0.5)
    re = sorted(rng.choice(ends) if rng.random() < 0.3 else rng.uniform(-1, 1) for _ in range(2))
    im = sorted(rng.choice(ends) if rng.random() < 0.3 else rng.uniform(-1, 1) for _ in range(2))
    return (*re, *im)


def test_every_arithmetic_scales_by_its_own_rule_bit_for_bit():
    # terms of every node kind, scalings included, on points, boxes, moduli and
    # (norm bound, modulus) pairs; the centred form on a repeated boxed variable
    # under a scaling.  A scaling by a product adds the constant's zero slope
    # times the argument to each slope, which can turn a -0.0 slope end into 0.0:
    # the centred form is compared through its moduli, all that reads it.
    rng, zero = random.Random(3403), (0.0,) * 4
    for _ in range(600):
        n = rng.randint(1, 3)
        A = CStarAlgebraFin(n)
        term = random_term(rng, n, rng.randint(1, 4))
        points = {v: random_element(rng, n) for v in TERM_NAMES}
        boxes = {v: tuple(_random_rect(rng) for _ in range(n)) for v in TERM_NAMES}
        moduli = {v: tuple(clogic._abs_iv(r) for r in boxes[v]) for v in TERM_NAMES}
        pairs = {v: (rng.choice((0.5, 1.0, 2.0)), float(v == "x")) for v in TERM_NAMES}
        for arith, env in ((EXACT, points), (clogic._stacked(3), {v: p * 3 for v, p in points.items()}),
                           (clogic._LIPSCHITZ, pairs), (_RECTS, boxes), (clogic._MODULI, moduli)):
            by_hand = _outcome(eval_with_own_scale, term, env, A, arith, _OWN_SCALES[arith.mul])
            assert _outcome(eval_term, term, env, A, arith) == by_hand, (term, arith)
        x = CVar("x")
        centred = CScale(rng.choice((0.5, -2 + 0.75j)), CMul(term, CAdd(x, CScale(-2.0, CStar(x)))))
        boxed = {**boxes, "x": tuple(_random_rect(rng) for _ in range(n))}
        zeros = (zero,) * 2
        cenv = {v: tuple((r, r, (1.0, 1.0, 0.0, 0.0) if v == "x" else zero, (0.0, 0.0, 1.0, 1.0) if v == "x" else zero)
                         for r in boxed[v]) for v in TERM_NAMES}
        mods = [[_hex(clogic._rect_mod(r)) for r in point]
                for point in eval_term(centred, cenv, A, clogic._centred_arith(zeros))]
        own = eval_with_own_scale(centred, cenv, A, clogic._centred_arith(zeros), _centred_scale_by_hand)
        assert mods == [[_hex(clogic._rect_mod(r)) for r in point] for point in own], centred
        with pytest.MonkeyPatch.context() as mp:
            _use_own_rules(mp)
            expected = _outcome(_atom_enclosure, centred, boxed, A)
        assert _outcome(_atom_enclosure, centred, boxed, A) == expected, centred


def test_pointwise_arithmetics_refuse_operands_of_different_sizes():
    # the rectangles, the centred form and the modulus intervals are the element
    # operations' sized lift: one point against two raises, where map truncated
    for arith in (_RECTS, clogic._centred_arith(()), clogic._MODULI):
        one, two = arith.const((1j,)), arith.const((1j, 0.5 + 0j))
        for op in (arith.add, arith.sub, arith.mul):
            with pytest.raises(PreconditionError, match="elements of different sizes"):
                op(one, two)


def _with_sorts(phi, rng, sorts):
    """The formula with each quantifier's sort drawn from ``sorts``."""
    if isinstance(phi, (FSup, FInf)):
        return type(phi)(phi.var, rng.choice(sorts), _with_sorts(phi.body, rng, sorts))
    if isinstance(phi, FScale):
        return FScale(phi.scalar, _with_sorts(phi.arg, rng, sorts))
    if isinstance(phi, (FPlus, FTruncSub, FMax, FMin, FAbsDiff)):
        return type(phi)(_with_sorts(phi.left, rng, sorts), _with_sorts(phi.right, rng, sorts))
    return phi


def test_ceval_gives_the_floats_of_the_rules_as_each_stated_them():
    # random formulas with scalings in their terms, re-sorted to every sort, on
    # both paths, split over the points or not: the same enclosures by hex, the
    # same depths and the same errors, budget errors' enclosures included
    rng, searched = random.Random(3404), 0
    sorts = ((SORT_BALL,), (SORT_SA,), (SORT_POS,), (SORT_PROJ,), (SORT_BALL, SORT_SA, SORT_POS, SORT_PROJ))
    for _ in range(300):
        n = rng.randint(1, 3)
        A = CStarAlgebraFin(n)
        phi = _with_sorts(_random_formula(rng, n, rng.randint(1, 4), 2), rng, rng.choice(sorts))
        if rng.random() < 0.5:  # a search over a variable its body reads
            var = rng.choice(TERM_NAMES)
            body = rng.choice(list(_CONNECTIVES))(FNorm(CAdd(CVar(var), random_term(rng, n, 1))), phi)
            phi = rng.choice((FSup, FInf))(var, rng.choice((SORT_BALL, SORT_SA, SORT_POS)), body)
        params = {v: random_element(rng, n) for v in TERM_NAMES}

        def run():
            try:
                cert = ceval(phi, A, params, 0.05, max_boxes=60)
            except ResourceBudgetError as err:
                cert = err.best_known
            return cert.lower, cert.upper, float(cert.grid_depth)

        with pytest.MonkeyPatch.context() as mp:
            _use_own_rules(mp)
            expected = _outcome(run)
        found = _outcome(run)
        assert found == expected, (phi, params)
        searched += len(found) == 3 and found[2] != _hex(0.0)
    assert searched >= 40, searched


def test_a_scaling_of_an_overflowed_bound_has_a_nan_modulus_as_a_product_does():
    # The product rule takes the constant's modulus 0 times the other factor's
    # bound, which is nan once that bound is inf; a scaling is that product now,
    # where its own rule gave |s| times the modulus (here inf).  ``formula_modulus``
    # reads the atom's nan as inf, on either side of a lattice connective, whose
    # max would pass over a nan, and the atom's own nan still makes ``ceval``
    # refuse the formula.
    x, A = CVar("x"), CStarAlgebraFin(1)
    huge = CScale(1e300, CScale(1e300, x))
    assert term_bound(CScale(0.5, huge), A, {"x": 1.0}) == math.inf
    assert math.isnan(term_modulus(CScale(0.5, huge), "x", A, {"x": 1.0}))
    assert math.isnan(term_modulus(CMul(CConst((0.5,)), huge), "x", A, {"x": 1.0}))
    with pytest.MonkeyPatch.context() as mp:
        _use_own_rules(mp)
        assert term_modulus(CScale(0.5, huge), "x", A, {"x": 1.0}) == math.inf
    phi = FSup("x", SORT_SA, FMin(FConst(0.5), FNorm(CScale(0.5, huge))))
    assert formula_modulus(phi.body, "x", A, {"x": 1.0}) == math.inf
    swapped = FMin(FNorm(CScale(0.5, huge)), FConst(0.5))
    assert formula_modulus(swapped, "x", A, {"x": 1.0}) == math.inf
    # a zero scaling is constant: its modulus is 0, not 0 * inf
    assert formula_modulus(FScale(0.0, swapped), "x", A, {"x": 1.0}) == 0.0
    with pytest.raises(PreconditionError, match="an overflowed operation gave nan"):
        ceval(phi, A, {}, 0.01)


def test_nested_search_stops_at_the_outer_cone_width():
    # Each inner search over an x-box aims only for the outer Lipschitz cone's
    # width: aiming for tol ran 64 non-improving rounds (665 and 931 boxes).
    phi = FInf("x", SORT_SA, FSup("y", SORT_POS, FNorm(CSub(CVar("x"), CVar("y")))))
    for n, tol, budget in ((1, 1e-3, 60), (2, 1e-2, 100)):
        cert = ceval(phi, CStarAlgebraFin(n), {}, tol, max_boxes=budget)
        assert cert.lower <= 0.5 <= cert.upper
        assert cert.width() <= tol


def test_a_quantifier_whose_body_ignores_its_variable_is_its_body(monkeypatch):
    # Every sort's domain is nonempty, so the inner sup is its body: no inner
    # search refines y-boxes that could never narrow the enclosure.
    x, z = CVar("x"), CVar("z")
    term = CAdd(CStar(CSub(CConst((-1 - 1j,)), COne())), CMul(CSub(COne(), x), CStar(z)))
    phi = FInf("x", SORT_BALL, FSup("y", SORT_SA, FNorm(term)))
    A, params = CStarAlgebraFin(1), {"z": (0.5 - 1j,)}
    monkeypatch.setattr(clogic, "_STALL_LIMIT", 10**9)
    cert = ceval(phi, A, params, 0.05, max_boxes=2000)
    assert cert == ceval(FInf("x", SORT_BALL, FNorm(term)), A, params, 0.05, max_boxes=2000)
    assert (cert.lower, cert.upper) == (1.3348176958858464, 1.3819660112501062)
    rng = random.Random(6067)
    for _ in range(200):  # the value is the least of |t(x)| over the ball
        r, t = rng.random() ** 0.5, rng.uniform(0, 2 * math.pi)
        point = (complex(r * math.cos(t), r * math.sin(t)),)
        assert cert.lower <= c_norm(eval_term(term, {"x": point, **params}, A, EXACT))


def test_stall_limit_ends_inner_searches_that_cannot_narrow(monkeypatch):
    # The value is max_i |c_i| + 1 = 1 + sqrt(5), at x = conj(c_0) / |c_0| and
    # y = 1.  Each inner search over an x-box refines y-boxes that cannot narrow
    # its enclosure past the x-box's width: the stall limit ends them.
    x = CVar("x")
    c = CAdd(CSub(CScale(1 + 0.75j, CZero()), COne()), CConst((-1 - 1j, 0.5 + 0j)))
    phi = FSup("x", SORT_BALL, FSup("y", SORT_POS, FNorm(CAdd(CMul(x, c), CVar("y")))))
    A = CStarAlgebraFin(2)
    cert = ceval(phi, A, {}, 0.02, max_boxes=3000)
    assert (cert.lower, cert.upper) == (3.2360679774997876, 3.256041560027298)
    assert cert.lower <= 1 + math.sqrt(5) <= cert.upper
    monkeypatch.setattr(clogic, "_STALL_LIMIT", 10**9)
    with pytest.raises(ResourceBudgetError):
        ceval(phi, A, {}, 0.02, max_boxes=3000)


def test_a_search_reads_only_its_own_free_variables(monkeypatch):
    # the inner inf never reads x: an outer x-box no longer nests it, so it scores
    # its candidates in one walk, never with x in its environment, and certifies
    # what the search with x in it certified
    atoms, enclosure = [], clogic._atom_enclosure

    def recorded(term, env, algebra):
        atoms.append((term, set(env)))
        return enclosure(term, env, algebra)

    monkeypatch.setattr(clogic, "_atom_enclosure", recorded)
    gap = CSub(CVar("y"), CVar("c"))
    phi = FSup("x", SORT_SA, FPlus(FScale(0.25, FNorm(CVar("x"))), FInf("y", SORT_POS, FNorm(gap))))
    cert = ceval(phi, CStarAlgebraFin(1), {"c": (0.7 + 0j,)}, 1e-2)
    assert _hex((cert.lower, cert.upper)) == ("0x1.0000000000000p-2", "0x1.0333333333334p-2")
    assert cert.grid_depth == 7
    read = [names for term, names in atoms if term == gap]
    assert read and all(names == {"y", "c"} for names in read)


# ---------------------------------------------------------------------------
# Each witness candidate scored once per search
# ---------------------------------------------------------------------------


def _count_searches(monkeypatch):
    """Record each ``_branch_and_bound`` call as the outer one, one at a point or one over a box."""
    search, calls = clogic._branch_and_bound, []

    def counted(phi, env, algebra, tol, state):
        at_points = all(r[0] == r[1] and r[2] == r[3] for box in env.values() for r in box)
        calls.append("box" if not at_points else "point" if env else "outer")
        return search(phi, env, algebra, tol, state)

    monkeypatch.setattr(clogic, "_branch_and_bound", counted)
    return calls


def test_each_witness_candidate_runs_its_inner_search_once(monkeypatch):
    # a split's halves take their parent's corners and midpoint as their own
    # corners: scoring each of a box's candidates anew ran 15 inner searches at
    # points, where 7 points were asked for
    calls = _count_searches(monkeypatch)
    phi = FInf("x", SORT_SA, FSup("y", SORT_POS, FNorm(CSub(CVar("x"), CVar("y")))))
    cert = ceval(phi, CStarAlgebraFin(1), {}, 1e-2)
    assert (cert.lower, cert.upper, cert.grid_depth) == (0.5, 0.5, 2)
    assert {kind: calls.count(kind) for kind in ("outer", "point", "box")} == {"outer": 1, "point": 7, "box": 5}


def test_shared_scores_certify_a_sup_inf_within_a_thousand_boxes():
    # the least budget that certifies this went from 1,579 boxes to 889
    phi = FSup("x", SORT_SA, FInf("y", SORT_SA, FNorm(CAdd(CVar("x"), CVar("y")))))
    cert = ceval(phi, CStarAlgebraFin(1), {}, 0.05, max_boxes=1000)
    assert (cert.lower, cert.upper, cert.grid_depth) == (0.0, 0.03125, 5)


@pytest.mark.parametrize("sort, op, capped, n, depth", [
    (SORT_SA, CAdd, False, 1, 5),
    (SORT_POS, CSub, False, 1, 4),
    (SORT_SA, CAdd, True, 2, 5),
])
def test_coupled_sup_inf_certificates(sort, op, capped, n, depth):
    # sup x inf y ||x + y|| and ||x - y|| (capped: min(||x + y||, 0.9)) are 0,
    # attained at every outer point, so no outer box is pruned
    body = FNorm(op(CVar("x"), CVar("y")))
    body = FMin(body, FConst(0.9)) if capped else body
    cert = ceval(FSup("x", sort, FInf("y", sort, body)), CStarAlgebraFin(n), {}, 0.05)
    assert _hex((cert.lower, cert.upper)) == ("0x0.0p+0", "0x1.0000000000000p-5")
    assert cert.grid_depth == depth


class _Unshared(tuple):
    """A witness candidate equal only to itself, so that no search shares its score."""

    __eq__, __hash__ = object.__eq__, object.__hash__


def _score_each_candidate(mp):
    """Make every search score each candidate of each box by its own evaluation."""
    candidates = clogic._witness_candidates
    mp.setattr(clogic, "_witness_candidates",
               lambda box, sort: (found := candidates(box, sort)) and list(map(_Unshared, found)))


def _negative_zero_representatives(mp):
    """Write each zero coordinate of a box's representative as -0.0; a split's
    halves then take the same point with 0.0 as a corner."""
    candidates = clogic._witness_candidates

    def signed(box, sort):
        found = candidates(box, sort)
        return found and [tuple(complex(v.real or -0.0, v.imag or -0.0) for v in found[0])] + found[1:]

    mp.setattr(clogic, "_witness_candidates", signed)


def test_shared_scores_keep_every_float_of_scoring_each_candidate():
    # Nested searches over every pair of continuous sorts: sharing a point's
    # score between the boxes of a search gives the floats and depth, or the
    # error, that scoring each candidate of each box gave, wherever the box
    # budget does not bind (where it binds, the boxes saved refine further).
    # Every fourth formula writes its representatives' zeros as -0.0, whose
    # scores then stand in for the halves' corners with 0.0: an enclosure
    # reads a point only through its values and moduli.
    rng, budget, compared, boxes = random.Random(3801), 2000, 0, [0, 0]
    sorts = (SORT_BALL, SORT_SA, SORT_POS)
    shapes = list(itertools.product(itertools.product(sorts, repeat=2), itertools.product((FSup, FInf), repeat=2)))
    for case in range(420):
        (s1, s2), (q1, q2) = shapes[case % len(shapes)]
        n = rng.randint(1, 2)
        term = random_term(rng, n, rng.randint(1, 2))
        while not {"x", "y"} <= term_free_vars(term):
            term = random_term(rng, n, rng.randint(1, 2))
        phi, params = q1("x", s1, q2("y", s2, FNorm(term))), {"z": random_element(rng, n)}
        states = []

        def run(mp):  # each search of the call records the call's one box count
            search = clogic._branch_and_bound
            states.clear()
            mp.setattr(clogic, "_branch_and_bound", lambda *args: states.append(args[-1]) or search(*args))
            cert = ceval(phi, CStarAlgebraFin(n), params, 0.25, budget)
            return cert.lower, cert.upper, float(cert.grid_depth)

        runs = []
        for shared in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if case % 4 == 0:
                    _negative_zero_representatives(mp)
                if not shared:
                    _score_each_candidate(mp)
                runs.append((_outcome(run, mp), states[-1]["boxes"]))
        (each, each_boxes), (once, once_boxes) = runs
        if each_boxes < budget:
            assert once == each, (phi, params)
            compared += 1
            boxes = [boxes[0] + each_boxes, boxes[1] + once_boxes]
    assert compared >= 400, compared
    # the reference shared no score: scoring each candidate anew took more boxes
    assert boxes[1] < 0.8 * boxes[0], boxes


def _modsq(z):
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


def test_ball_modulus_interval_is_rounded_outward():
    # Both bounds sit on a modulus |c| of a decimal constant, which no float
    # holds: rounded to nearest, |c| - 1 exceeded the value and |c| fell short.
    rng, x, c, A = random.Random(7071), CVar("x"), CVar("c"), CStarAlgebraFin(1)
    gap = FInf("x", SORT_BALL, FNorm(CSub(x, c)))
    scale = FSup("x", SORT_BALL, FNorm(CMul(x, c)))
    for _ in range(200):
        a, b = 0, 0
        while a * a + b * b <= 10**6:
            a, b = rng.randint(-1999, 1999), rng.randint(-1999, 1999)
        z = complex(a / 1000, b / 1000)
        cert = ceval(gap, A, {"c": (z,)}, 1e-2)
        assert (Fraction(cert.lower) + 1) ** 2 <= _modsq(z), z  # lower <= |c| - 1
        z = complex(rng.randint(1, 999) / 1000, rng.randint(1, 999) / 1000)
        cert = ceval(scale, A, {"c": (z,)}, 1e-2)
        assert Fraction(cert.upper) ** 2 >= _modsq(z), z  # upper >= |c|


def test_ball_gap_lower_bound_from_the_reverse_triangle_inequality():
    # Boxes straddling the unit circle were bounded below by the rectangle's
    # nearest point to c, outside the disc: 861 boxes.
    c = (1.25 + 0.5j, 1.125 + 0.75j)
    phi = FInf("x", SORT_BALL, FNorm(CSub(CVar("x"), CVar("c"))))
    cert = ceval(phi, CStarAlgebraFin(2), {"c": c}, 1e-2, max_boxes=150)
    exact = max(_modsq(z) for z in c)  # the value is max |c_i| - 1
    assert (Fraction(cert.lower) + 1) ** 2 <= exact <= (Fraction(cert.upper) + 1) ** 2
    assert cert.width() <= 1e-2


def test_nested_enclosures_are_sound_and_agree_across_tolerances():
    # Two quantifiers over every pair of sorts and of quantifier kinds; a
    # budget error's best enclosure counts, so truncated searches are checked too.
    rng = random.Random(7073)
    sorts = (SORT_BALL, SORT_SA, SORT_POS)
    for (s1, s2), (q1, q2) in itertools.product(
            itertools.product(sorts, repeat=2), itertools.product((FSup, FInf), repeat=2)):
        n = rng.randint(1, 2)
        A = CStarAlgebraFin(n)
        term = random_term(rng, n, rng.randint(1, 2))
        while not {"x", "y"} <= term_free_vars(term):
            term = random_term(rng, n, rng.randint(1, 2))
        # parameter norms up to ~10: the Lipschitz cone must bound z by its norm
        z = tuple(rng.choice((1, 3, 7)) * v for v in random_element(rng, n))
        params, phi = {"z": z}, q1("x", s1, q2("y", s2, FNorm(term)))
        certs = []
        for tol in (0.05, 1e-3):
            try:
                certs.append(ceval(phi, A, params, tol, max_boxes=500))
            except ResourceBudgetError as err:
                certs.append(err.best_known)
        coarse, fine = certs
        assert coarse.lower <= fine.upper and fine.lower <= coarse.upper, (phi, params)
        if q1 is not q2:
            continue
        for xs in _domain_samples(s1, n, rng, 12):
            for ys in _domain_samples(s2, n, rng, 12):
                value = c_norm(eval_term(term, {**params, "x": xs, "y": ys}, A, EXACT))
                for cert in certs:  # 1e-12: sampled values are rounded to nearest
                    if q1 is FSup:
                        assert value <= cert.upper + 1e-12, (phi, params, xs, ys)
                    else:
                        assert value >= cert.lower - 1e-12, (phi, params, xs, ys)


# ---------------------------------------------------------------------------
# One search per point for formulas whose connectives commute with a max over
# the points
# ---------------------------------------------------------------------------


def _random_max_closed(rng, n, quantifiers, kinds, top=False):
    """A formula of the point-split fragment with at most ``quantifiers``
    quantifiers, each one of ``kinds``; a ``top`` one over a continuous sort."""
    if top or (quantifiers and rng.random() < 0.6):
        sort = rng.choice((SORT_BALL, SORT_SA, SORT_POS) + (() if top else (SORT_PROJ,)))
        body = _random_max_closed(rng, n, quantifiers - 1, kinds)
        return rng.choice(kinds)(rng.choice(TERM_NAMES), sort, body)
    pick = rng.randrange(7)
    if pick == 0:
        return FConst(rng.choice((0.0, 0.25, 1.0)))
    if pick == 1:
        return FScale(rng.choice((0.0, 0.5, 2.0)), _random_max_closed(rng, n, quantifiers, kinds))
    if pick == 2:
        left = _random_max_closed(rng, n, quantifiers // 2, kinds)
        return FMax(left, _random_max_closed(rng, n, quantifiers - quantifiers // 2, kinds))
    if pick == 3:  # a connective with a constant side, which commutes with the max too
        arg, c = _random_max_closed(rng, n, quantifiers, kinds), FConst(rng.choice((0.1, 0.3, 0.6)))
        return rng.choice((FPlus(arg, c), FPlus(c, arg), FMin(arg, c), FMin(c, arg), FTruncSub(arg, c)))
    return FNorm(random_term(rng, n, rng.randint(1, 3)))


def _sampled_value(phi, env, A, rng):
    """The formula with each quantifier's sup or inf taken over a few sampled
    points of its sort: below the value when every quantifier is a sup, above
    it when every one is an inf."""
    if isinstance(phi, FNorm):
        return c_norm(eval_term(phi.term, env, A, EXACT))
    if isinstance(phi, FConst):
        return phi.value
    if isinstance(phi, FScale):
        return phi.scalar * _sampled_value(phi.arg, env, A, rng)
    if isinstance(phi, (FMax, FPlus, FMin, FTruncSub)):
        left, right = _sampled_value(phi.left, env, A, rng), _sampled_value(phi.right, env, A, rng)
        return _CONNECTIVES[type(phi)].exact([left], [right])[0]
    points = (projections(A) if phi.sort == SORT_PROJ
              else _domain_samples(phi.sort, A.point_count, rng, 8))
    values = [_sampled_value(phi.body, {**env, phi.var: p}, A, rng) for p in points]
    return max(values) if isinstance(phi, FSup) else min(values)


def _quantifier_kinds(phi):
    if isinstance(phi, (FSup, FInf)):
        return {type(phi)} | _quantifier_kinds(phi.body)
    if isinstance(phi, (FMax, FPlus, FMin, FTruncSub)):
        return _quantifier_kinds(phi.left) | _quantifier_kinds(phi.right)
    return _quantifier_kinds(phi.arg) if isinstance(phi, FScale) else set()


def test_point_split_agrees_with_the_coupled_search_on_random_formulas():
    # The split runs one search per point; ``_interval_eval`` on the n-point
    # algebra searches all of them at once.  A budget error's best enclosure
    # counts, so truncated searches are compared too.
    rng, tol, budget = random.Random(8081), 0.05, 60
    for case in range(240):
        n = rng.randint(2, 4)
        A = CStarAlgebraFin(n)
        kinds = ((FSup,), (FInf,), (FSup, FInf))[case % 3]
        phi = _random_max_closed(rng, n, 2, kinds, top=True)
        assert clogic._at_point(phi, 0, n) is not None
        assert not clogic._within(phi, {SORT_PROJ})
        params = {v: random_element(rng, n) for v in TERM_NAMES}
        try:
            split = ceval(phi, A, params, tol, max_boxes=budget)
        except ResourceBudgetError as err:
            split = err.best_known
        env = {name: _box_point(value) for name, value in params.items()}
        state = {"boxes": 0, "max": budget, "depth": 0}
        coupled = clogic._interval_eval(phi, env, A, tol, state)
        assert split.lower <= coupled[1] and coupled[0] <= split.upper, (phi, params)
        used = _quantifier_kinds(phi)
        if len(used) > 1:
            continue
        sampled = _sampled_value(phi, params, A, rng)
        for lo, hi in ((split.lower, split.upper), coupled):  # 1e-12: rounded to nearest
            if used == {FSup}:
                assert sampled <= hi + 1e-12, (phi, params)
            else:
                assert sampled >= lo - 1e-12, (phi, params)


def test_point_split_certifies_a_sup_inf_within_a_small_budget():
    # The value 0 is attained at every outer point, so no outer box is pruned:
    # searched over both points at once, this took 135,847 boxes and 10 s.
    x, y = CVar("x"), CVar("y")
    phi = FSup("x", SORT_SA, FInf("y", SORT_SA, FNorm(CAdd(x, y))))
    cert = ceval(phi, CStarAlgebraFin(2), {}, 0.05, max_boxes=20_000)
    assert cert.lower <= 0 <= cert.upper and cert.width() <= 0.05


def test_point_split_takes_connectives_with_a_constant_side():
    # min with a constant is nondecreasing in its other side, so it commutes
    # with the max over the points: searched over both at once, this took
    # 6.4 s; a constant on the left of a truncated subtraction and an
    # absolute difference do not, and stay coupled
    x, y, c = CVar("x"), CVar("y"), FConst(0.9)
    atom = FNorm(CAdd(x, y))
    phi = FSup("x", SORT_SA, FInf("y", SORT_SA, FMin(atom, c)))
    cert = ceval(phi, CStarAlgebraFin(2), {}, 0.05, max_boxes=20_000)
    assert cert.lower <= 0 <= cert.upper and cert.width() <= 0.05
    for split in (FPlus(c, atom), FMin(c, atom), FTruncSub(atom, c), FScale(0.5, FPlus(atom, c))):
        assert clogic._at_point(FSup("x", SORT_SA, split), 0, 2) is not None
    for coupled in (FTruncSub(c, atom), FAbsDiff(atom, c), FPlus(atom, atom), FMin(atom, FNorm(x))):
        assert clogic._at_point(FSup("x", SORT_SA, FMax(c, coupled)), 0, 2) is None


def test_wrong_size_constant_under_a_zero_scale_is_rejected_on_every_path():
    # The coupled search returned [1, 1] for the sum: scaling by 0 skipped
    # its argument, constant and all.
    x, A = CVar("x"), CStarAlgebraFin(2)
    search = FSup("x", SORT_SA, FNorm(x))
    for const in (CConst((1j,)), CConst((1j, 1j, 1j))):
        hidden = FScale(0.0, FNorm(CMul(x, const)))
        cases = [
            FScale(0.0, FNorm(const)),  # exact
            FPlus(search, FScale(0.0, FNorm(const))),  # coupled search
            FMax(search, FScale(0.0, FNorm(const))),  # one search per point
            FSup("x", SORT_PROJ, FPlus(FConst(0.5), hidden)),  # exact
            FSup("x", SORT_SA, FAbsDiff(FConst(0.5), hidden)),  # coupled search
            FSup("x", SORT_SA, FMax(FConst(0.5), hidden)),  # one search per point
            FSup("x", SORT_SA, FPlus(FConst(0.5), hidden)),  # one search per point
        ]
        for phi in cases:
            with pytest.raises(PreconditionError, match="constant element has the wrong size"):
                ceval(phi, A, {}, 1e-2)


def test_point_split_budget_and_preconditions():
    # sup over x in [0, 1] of |x(c - x)| is about 0.2 at c = 0.8 (at x = 1)
    # and 1/4 at c = 1 (at x = 1/2), so 1/4 on the two points.  The first
    # search spends the budget, and the second still encloses its value.
    x, A = CVar("x"), CStarAlgebraFin(2)
    phi = FSup("x", SORT_POS, FNorm(CMul(x, CSub(CConst((0.8 + 0j, 1 + 0j)), x))))
    with pytest.raises(ResourceBudgetError) as info:
        ceval(phi, A, {}, 1e-12, max_boxes=5)
    best = info.value.best_known
    assert best.lower <= 0.25 <= best.upper and best.width() > 1e-12
    split = FMax(FNorm(CVar("a")), FSup("x", SORT_BALL, FNorm(CSub(x, CVar("q")))))
    with pytest.raises(PreconditionError) as excinfo:
        ceval(split, A, {"x": A.one()})
    assert str(excinfo.value) == "unassigned free variables: ['a', 'q']"


def _loaded_on_import(module, names):
    """Those of ``names`` that a fresh interpreter has loaded once it imports ``module``."""
    script = f"import sys\nimport {module}\nprint(sorted(m for m in {names!r} if m in sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_clogic_loads_no_numpy_fractions_or_decimal():
    # Each would add to the set-up of every process that only evaluates.
    assert _loaded_on_import("elemeq.clogic", ("numpy", "fractions", "decimal")) == "[]"


@pytest.mark.parametrize("module", ["elemeq.clogic", "elemeq.cli"])
def test_importing_loads_no_dataclasses_inspect_ast_or_dis(module):
    # dataclasses loads the other three, which cost every process about 1 MB of
    # peak RSS and over a third of the import time of elemeq.cli
    assert _loaded_on_import(module, ("dataclasses", "inspect", "ast", "dis")) == "[]"


# ---------------------------------------------------------------------------
# The exact projection path against a reference evaluator
# ---------------------------------------------------------------------------


def _ref_term(term, env, A):
    if isinstance(term, CVar):
        return env[term.name]
    if isinstance(term, CZero):
        return A.zero()
    if isinstance(term, COne):
        return A.one()
    if isinstance(term, CConst):
        return term.values
    if isinstance(term, CStar):
        return c_star(_ref_term(term.arg, env, A))
    if isinstance(term, CScale):
        return c_scale(term.scalar, _ref_term(term.arg, env, A))
    op = {CAdd: c_add, CSub: c_sub, CMul: c_mul}[type(term)]
    return op(_ref_term(term.left, env, A), _ref_term(term.right, env, A))


def _ref_value(phi, env, A):
    """The formula value by direct recursion: cstar operations on elements,
    quantifiers as max/min over every projection."""
    if isinstance(phi, FNorm):
        return c_norm(_ref_term(phi.term, env, A))
    if isinstance(phi, FConst):
        return phi.value
    if isinstance(phi, FScale):
        return phi.scalar * _ref_value(phi.arg, env, A)
    if isinstance(phi, (FSup, FInf)):
        values = [_ref_value(phi.body, {**env, phi.var: p}, A) for p in projections(A)]
        return max(values) if isinstance(phi, FSup) else min(values)
    left, right = _ref_value(phi.left, env, A), _ref_value(phi.right, env, A)
    if isinstance(phi, FPlus):
        return left + right
    if isinstance(phi, FTruncSub):
        return max(left - right, 0.0)
    if isinstance(phi, FMax):
        return max(left, right)
    if isinstance(phi, FMin):
        return min(left, right)
    return abs(left - right)


def _random_formula(rng, n, depth, quantifiers):
    """Projection-only formulas with at most ``quantifiers`` nested binders;
    names repeat, so binders shadow parameters and each other, and some
    quantifiers ignore their variable."""
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.15:
            return FConst(rng.choice((0.0, 0.5, 1.0)))
        return FNorm(random_term(rng, n, 2))
    kind = rng.randrange(8 if quantifiers else 6)
    if kind < 5:
        op = (FPlus, FTruncSub, FMax, FMin, FAbsDiff)[kind]
        return op(
            _random_formula(rng, n, depth - 1, quantifiers),
            _random_formula(rng, n, depth - 1, quantifiers),
        )
    if kind == 5:
        arg = _random_formula(rng, n, depth - 1, quantifiers)
        return FScale(rng.choice((0.0, 0.5, 2.0)), arg)
    body = _random_formula(rng, n, depth - 1, quantifiers - 1)
    return (FSup, FInf)[kind - 6](rng.choice(TERM_NAMES), SORT_PROJ, body)


def _assert_exact(phi, A, params):
    cert = ceval(phi, A, params)
    expected = _ref_value(phi, {k: A.element(v) for k, v in params.items()}, A)
    assert cert.lower == expected and cert.upper == expected, phi
    assert cert.grid_depth == 0


def test_exact_path_equals_reference_on_random_formulas():
    rng = random.Random(20141)
    for _ in range(400):
        n = rng.randint(1, 4)
        A = CStarAlgebraFin(n)
        phi = _random_formula(rng, n, rng.randint(1, 5), 3)
        params = {v: random_element(rng, n) for v in TERM_NAMES}
        _assert_exact(phi, A, params)


def test_exact_path_equals_reference_over_projection_parameters():
    x, y, z = CVar("x"), CVar("y"), CVar("z")
    phi = FMax(
        FNorm(CSub(CMul(x, y), CStar(x))),
        FInf("z", SORT_PROJ, FAbsDiff(FNorm(CAdd(x, z)), FScale(0.5, FNorm(y)))),
    )
    for n in range(1, 5):
        A = CStarAlgebraFin(n)
        for px, py in itertools.product(projections(A), repeat=2):
            _assert_exact(phi, A, {"x": px, "y": py})
            _assert_exact(FInf("z", SORT_PROJ, FNorm(CSub(x, z))), A, {"x": px})


def test_exact_path_and_interval_path_agree_under_a_zero_scaling_of_a_nan():
    # A vacuous sup over sa sends a projection-only formula down the interval
    # path (split over the points or not) with the same value.  Every fifth
    # formula adds a zero scaling of inf - inf: each route evaluates it and
    # raises, where the exact path read 0 and gave a value.
    rng, raised = random.Random(3701), 0
    big = FNorm(CScale(1e200, CScale(1e200, COne())))
    for case in range(1500):
        n = rng.randint(1, 3)
        A = CStarAlgebraFin(n)
        phi = _random_formula(rng, n, rng.randint(1, 4), 3)
        if case % 5 == 0:
            phi = FPlus(phi, FScale(0.0, rng.choice((FTruncSub, FAbsDiff))(big, big)))
        params = {v: random_element(rng, n) for v in TERM_NAMES}

        def ends(f):
            cert = ceval(f, A, params)
            return cert.lower, cert.upper

        exact = _outcome(ends, phi)
        assert _outcome(ends, FSup("w", SORT_SA, phi)) == exact, (phi, params)
        raised += exact[0] == "PreconditionError"
    assert raised == 300, raised


def test_a_vacuous_projection_quantifier_runs_its_body_once_on_the_interval_path():
    # The absolute difference keeps the formula off the point split, and the
    # sup over p ignores p: its body's search ran once per projection, 8
    # searches of 9 boxes on 3 points, for the same certificate.
    y, c = CVar("y"), CConst((0.5 + 0j, 1.5 + 0j, -0.25 + 0j))
    inner = FInf("y", SORT_SA, FNorm(CSub(y, c)))
    A, boxes = CStarAlgebraFin(3), []
    with pytest.MonkeyPatch.context() as mp:
        candidates = clogic._witness_candidates
        mp.setattr(clogic, "_witness_candidates", lambda *args: boxes.append(1) or candidates(*args))
        cert = ceval(FAbsDiff(FConst(0.1), FSup("p", SORT_PROJ, inner)), A)
        assert (cert.lower, cert.upper, cert.grid_depth) == (0.4, 0.4, 3)
        searched = len(boxes)
        ceval(inner, A, {}, clogic.DEFAULT_TOL / 2)  # the absolute difference halves the tolerance
    assert searched == len(boxes) - searched == 9


def test_exact_path_shadowed_parameter():
    # the inner x is the bound projection, the outer x the parameter
    x, y = CVar("x"), CVar("y")
    inner = FSup("x", SORT_PROJ, FNorm(CSub(x, CConst((0.5 + 0j, 0.25j)))))
    phi = FPlus(FNorm(x), inner)
    A = CStarAlgebraFin(2)
    params = {"x": (0.125 + 0j, -0.5 + 0j)}
    _assert_exact(phi, A, params)
    assert ceval(phi, A, params).lower == 0.5 + abs(1 - 0.25j)
    # a binder shadowing another binder of the same name
    nested = FSup("x", SORT_PROJ, FInf("y", SORT_PROJ, FMin(
        FNorm(CSub(x, y)), FInf("x", SORT_PROJ, FNorm(CMul(x, CStar(y))))
    )))
    for n in range(1, 5):
        _assert_exact(nested, CStarAlgebraFin(n), params if n == 2 else {})


def test_exact_path_vacuous_and_hoisted_quantifiers():
    x, z = CVar("x"), CVar("z")
    # the z quantifier ignores y, so its list is the same for every y
    skips_y = FSup("x", SORT_PROJ, FInf("y", SORT_PROJ, FPlus(
        FSup("z", SORT_PROJ, FNorm(CSub(x, z))), FScale(0.25, FNorm(CVar("y")))
    )))
    # a quantifier whose body ignores its own variable
    vacuous = FInf("x", SORT_PROJ, FSup("y", SORT_PROJ, FNorm(CAdd(x, COne()))))
    for n in range(1, 5):
        A = CStarAlgebraFin(n)
        _assert_exact(skips_y, A, {})
        _assert_exact(vacuous, A, {})
    assert ceval(vacuous, CStarAlgebraFin(3), {}).lower == 1


def _four_binder_sentence(c):
    """Four binders over x, y, z, w; the w quantifier reads x and z but not y,
    and its atom, scaled by the constant ``c``, tells the three apart."""
    x, y, z, w = (CVar(v) for v in "xyzw")
    atom = FNorm(CSub(CMul(x, CSub(COne(), w)), CMul(c, CMul(z, w))))
    return FSup("x", SORT_PROJ, FInf("y", SORT_PROJ, FSup("z", SORT_PROJ, FTruncSub(
        FInf("w", SORT_PROJ, FMax(atom, FScale(0.75, FNorm(CSub(w, z))))),
        FScale(0.5, FNorm(CMul(y, CSub(COne(), x)))),
    ))))


def _count_fmax_calls(monkeypatch):
    calls, fmax = [], _CONNECTIVES[FMax]
    counted = fmax._replace(exact=lambda l, r: calls.append(1) or fmax.exact(l, r))
    monkeypatch.setitem(_CONNECTIVES, FMax, counted)
    return calls


@pytest.mark.parametrize("sizes", [
    (1,), (2,), (1, 1), (3,), (2, 1), (1, 2), (1, 1, 1), (4,), (3, 1), (1, 3), (2, 2), (2, 1, 1),
    (1, 1, 1, 1), (5,), (4, 1), (3, 2), (2, 3), (3, 1, 1), (2, 2, 1), (1, 2, 2), (2, 1, 1, 1),
    (1, 1, 1, 1, 1),
], ids=lambda sizes: "-".join(map(str, sizes)))
def test_exact_path_hoists_once_per_orbit_of_the_colour_classes(monkeypatch, sizes):
    # the constant takes one value per class of points, consecutive classes of
    # the given sizes, and its atom tells the classes apart, so they are the
    # colours.  x takes one mask per orbit of the permutations within the
    # classes: c_i of the a_i points of class i, for each i.  The z quantifier
    # reads x and y, so y takes one mask per orbit of those that also fix x:
    # per class, c_i + 1 counts on x's points times a_i - c_i + 1 on the
    # others.  The w quantifier reads x and z but not y, so it runs again at
    # each of those y, and z takes one mask per orbit fixing x, as many again.
    # Its body runs once per (x, y, z): ((c_i + 1)(a_i - c_i + 1))**2 per
    # class, summed over c_i = 0..a_i, and the classes multiply: one class of
    # 1-5 points gives 8, 34, 104, 259, 560, n classes of one point 8**n,
    # every (x, y, z).
    n, calls = sum(sizes), _count_fmax_calls(monkeypatch)
    c = CConst(tuple(complex(0.5 * i, 0.25) for i, a in enumerate(sizes) for _ in range(a)))
    phi, A = _four_binder_sentence(c), CStarAlgebraFin(n)
    ceval(phi, A)
    per_class = [sum(((k + 1) * (a - k + 1)) ** 2 for k in range(a + 1)) for a in range(1, 6)]
    assert per_class == [8, 34, 104, 259, 560]
    assert len(calls) == math.prod(per_class[a - 1] for a in sizes)
    _assert_bits_of_full_search(phi, A)  # the twin searches in full, as the counts at 1-1-1-1(-1) show
    if n < 4 or sizes in ((4,), (1, 1, 1, 1)):  # the reference walks 2**(4n) leaves
        _assert_exact(phi, A, {})


def _recast_constants(node, recast):
    """The node with every ``CConst`` under it replaced by ``recast(constant)``."""
    if isinstance(node, CConst):
        return recast(node)
    if not isinstance(node, tuple):  # a name, a sort or a scalar
        return node
    return type(node)(*(_recast_constants(field, recast) for field in node[1:]))


def test_exact_path_on_point_symmetric_random_formulas():
    # no constant or parameter tells the points apart, so the outermost binder
    # takes one mask per popcount; the values must still be the reference's
    rng = random.Random(26)
    for case in range(150):
        n = rng.randint(1, 5)
        A = CStarAlgebraFin(n)
        recast = (lambda c: COne(), lambda c: CConst((c.values[0],) * n))[case % 2]
        body = _random_formula(rng, n, rng.randint(2, 5), 2)
        phi = _recast_constants(rng.choice((FSup, FInf))(rng.choice(TERM_NAMES), SORT_PROJ, body), recast)
        params = {v: (random_element(rng, 1)[0],) * n for v in TERM_NAMES}
        _assert_exact(phi, A, params)


def test_exact_path_orbits_fix_the_point_one_deep_constant_tells_apart():
    # only the innermost atom's constant tells the points apart, point 0 from
    # the others, so every loop takes the orbits of the permutations fixing
    # point 0: the sup over y is x's bit at point 0, so the value is 0, at
    # x = (0, 1, ...).  Read by popcount from x = (1, 0, ...), every nonzero x
    # would give 1.
    x, y, z = CVar("x"), CVar("y"), CVar("z")
    for n in range(2, 5):
        c = CConst((1 + 0j,) + (0j,) * (n - 1))
        phi = FInf("x", SORT_PROJ, FPlus(
            FTruncSub(FConst(1.0), FNorm(x)),
            FSup("y", SORT_PROJ, FInf("z", SORT_PROJ, FPlus(
                FNorm(CSub(z, y)), FNorm(CMul(CMul(x, z), c))))),
        ))
        _assert_exact(phi, CStarAlgebraFin(n), {})
        assert ceval(phi, CStarAlgebraFin(n)).lower == 0.0


def test_orbits_are_the_point_permutation_orbits_with_their_smallest_masks():
    rng = random.Random(27)
    for n in range(1, 7):
        permutations = list(itertools.permutations(range(n)))

        def image(perm, mask):
            return sum((mask >> p & 1) << perm[p] for p in range(n))

        for case in range(8):
            # random masks, most of them no orbit's smallest, and a repeated one
            fixed = tuple(rng.randrange(1 << n) for _ in range(case % 4))
            fixed += fixed[:case // 4 % 2]
            representatives, index = clogic._orbits(n, fixed)
            stabiliser = [perm for perm in permutations if all(image(perm, f) == f for f in fixed)]
            orbits = {frozenset(image(perm, m) for perm in stabiliser) for m in range(1 << n)}
            assert sorted(map(min, orbits)) == sorted(representatives)  # one each, its smallest
            column = [tuple(f >> p & 1 for f in fixed) for p in range(n)]
            groups = [sum(1 << p for p in range(n) if column[p] == c) for c in set(column)]
            for m in range(1 << n):
                r = representatives[index[m]]
                assert [(m & g).bit_count() for g in groups] == [(r & g).bit_count() for g in groups]
                assert any(m in orbit and r in orbit for orbit in orbits)


def test_orbit_cache_is_bounded_over_many_keys():
    cache = clogic._orbits
    cache.cache_clear()
    for key in range(3 * cache.cache_info().maxsize):
        representatives, index = cache(6, (key % 64, key // 64))
        assert len(index) == 64 and representatives[index[key % 64]] <= key % 64
        assert cache.cache_info().currsize <= cache.cache_info().maxsize


def _searched_in_full(phi, n):
    """``phi`` with a value-neutral atom that tells the points apart put into
    every innermost quantifier's body: the exact path then searches every mask
    of every binder, and no value changes (every value is at least 0.0, and
    max keeps its left side on a tie)."""
    c = CConst(tuple(complex(p + 1) for p in range(n)))

    def walk(node):  # the node itself when no quantifier is under it
        if isinstance(node, (FSup, FInf)):
            body = walk(node.body)
            if body is node.body:
                body = FMax(body, FScale(0.0, FNorm(CMul(c, CVar(node.var)))))
            return type(node)(node.var, node.sort, body)
        if isinstance(node, (FPlus, FTruncSub, FMax, FMin, FAbsDiff)):
            left, right = walk(node.left), walk(node.right)
            return node if left is node.left and right is node.right else type(node)(left, right)
        if isinstance(node, FScale):
            arg = walk(node.arg)
            return node if arg is node.arg else FScale(node.scalar, arg)
        return node

    return walk(phi)


def _assert_bits_of_full_search(phi, A):
    ends = [(cert.lower.hex(), cert.upper.hex())
            for cert in (ceval(phi, A), ceval(_searched_in_full(phi, A.point_count), A))]
    assert ends[0] == ends[1], phi
    return ends[0][0]


def _symmetric_term(rng, bound, depth, c):
    if depth == 0 or rng.random() < 0.35:
        pick = rng.randrange(len(bound) + 2 + (c is not None))
        if pick < len(bound):
            return CVar(bound[pick])
        return (COne(), CScale(rng.choice((0.5, -1j)), COne()), c)[pick - len(bound)]
    kind = rng.randrange(5)
    if kind == 0:
        return CStar(_symmetric_term(rng, bound, depth - 1, c))
    if kind == 1:
        return CScale(rng.choice((0.5, -2.0, 1j)), _symmetric_term(rng, bound, depth - 1, c))
    op = (CAdd, CSub, CMul)[kind - 2]
    return op(_symmetric_term(rng, bound, depth - 1, c), _symmetric_term(rng, bound, depth - 1, c))


def _symmetric_formula(rng, bound, rank, depth, constants, c=None):
    """A projection-only formula over the names ``bound`` with at most ``rank``
    nested quantifiers, each binding a fresh name, and formula constants drawn
    from ``constants``; no constant tells the points apart but ``c``, an
    element the atoms may hold when it is given."""
    if depth == 0 or rng.random() < 0.1:
        if not bound or rng.random() < 0.2:
            return FConst(rng.choice(constants))
        return FNorm(_symmetric_term(rng, bound, 2, c))
    if rank and rng.random() < 0.5:
        var = f"v{len(bound)}"
        body = _symmetric_formula(rng, bound + (var,), rank - 1, depth - 1, constants, c)
        return rng.choice((FSup, FInf))(var, SORT_PROJ, body)
    kind = rng.randrange(6)
    if kind == 5:
        arg = _symmetric_formula(rng, bound, rank, depth - 1, constants, c)
        return FScale(rng.choice((0.0, 0.5, 2.0)), arg)
    op = (FPlus, FTruncSub, FMax, FMin, FAbsDiff)[kind]
    return op(_symmetric_formula(rng, bound, rank, depth - 1, constants, c),
              _symmetric_formula(rng, bound, rank, depth - 1, constants, c))


def test_exact_path_orbits_keep_the_floats_of_the_full_search():
    # rank 4 on up to 4 points and rank 3 on 5 and 6, where the full search of
    # a rank-4 formula takes seconds; one formula in four may hold an
    # FConst(-0.0), which is stored as 0.0.  From case 200 on, the atoms may
    # also hold a constant with two or three values across the points, so the
    # loops take the orbits of the permutations within its classes of points.
    rng = random.Random(27)
    for case in range(320):
        n = rng.randint(1, 6)
        rank, constants = min(4, 18 // n), (0.0, 0.5, 1.0) + (-0.0,) * (case % 4 == 0)
        c = None
        if case >= 200 and n > 1:
            values = (0.5 + 0j, -1j, 2 + 0j)[:rng.randint(2, min(3, n))]
            pattern = [*values, *(rng.choice(values) for _ in range(n - len(values)))]
            rng.shuffle(pattern)
            c = CConst(tuple(pattern))
        phi = _symmetric_formula(rng, (), rank, rank + 3, constants, c)
        _assert_bits_of_full_search(phi, CStarAlgebraFin(n))
        if c and n * rank <= 12:  # the twin is a full search only if the colours are right
            _assert_exact(phi, CStarAlgebraFin(n), {})


def test_exact_path_orbits_pair_values_by_the_masks_a_loop_fixes():
    # at x = 1 (point 0 only), the atom is 0 at y = ~x alone, where the sup
    # over z, |x y|, is 0; the smallest mask with as many points as ~x holds
    # point 0, so had the z loop taken its orbits under every permutation, not
    # only those fixing x, the inf over y and the sup over x would be 1
    x, y, z = CVar("x"), CVar("y"), CVar("z")
    phi = FSup("x", SORT_PROJ, FInf("y", SORT_PROJ, FPlus(
        FNorm(CSub(y, CSub(COne(), x))), FSup("z", SORT_PROJ, FNorm(CMul(CMul(x, y), z))))))
    for n in range(2, 6):
        assert _assert_bits_of_full_search(phi, CStarAlgebraFin(n)) == 0.0.hex()


def test_exact_path_orbits_keep_the_sign_of_a_zero():
    # under inf x inf y, y = 0 and x = 0 give 1; at every other mask y the
    # body is 0.0, since FConst stores -0.0 as 0.0.  Were its sign kept, the
    # body would be -0.0 where x meets y, so the first one-point y, point 0,
    # would give -0.0 exactly when x holds point 0: the first x of popcount 1,
    # x = 1, would give -0.0, and an x holding only the last point 0.0.
    x, y = CVar("x"), CVar("y")
    phi = FInf("x", SORT_PROJ, FMax(
        FInf("y", SORT_PROJ, FMax(FMin(FNorm(CMul(x, y)), FConst(-0.0)),
                                  FTruncSub(FConst(1.0), FNorm(y)))),
        FTruncSub(FConst(1.0), FNorm(x))))
    for n in range(2, 6):
        assert _assert_bits_of_full_search(phi, CStarAlgebraFin(n)) == 0.0.hex()


def test_exact_path_with_a_signed_zero_keeps_every_mask_below_binder_0():
    # the z loop reads only y, so its orbits under all permutations hold y = 01
    # and y = 10.  Were the sign of FConst(-0.0) kept, its value there would
    # be 0.0 and -0.0 (the first z where the body is 0 is 01, equal to y = 01
    # and not to y = 10), and the y loop, which fixes x, would find its first
    # minimum at y = 10 when x = 01, so read from y = 01 the value would be
    # 0.0.  FConst stores 0.0, so every loop takes its orbits, as the full
    # search's twin checks.
    x, y, z = CVar("x"), CVar("y"), CVar("z")
    inf_z = FInf("z", SORT_PROJ, FMax(FMin(FNorm(CSub(z, y)), FConst(-0.0)),
                                      FAbsDiff(FNorm(z), FNorm(CSub(COne(), z)))))
    phi = FInf("x", SORT_PROJ, FMax(
        FInf("y", SORT_PROJ, FMax(inf_z, FNorm(CSub(y, CSub(COne(), x))))),
        FTruncSub(FConst(1.0), FNorm(x))))
    assert _assert_bits_of_full_search(phi, CStarAlgebraFin(2)) == 0.0.hex()


def test_a_constant_of_negative_zero_is_stored_as_zero():
    zero, x = FConst(-0.0), CVar("x")
    assert math.copysign(1.0, zero.value) == 1.0 and zero == FConst(0.0)
    # min keeps its left side on a tie, so a kept -0.0 would be the value on both paths
    for sort in (SORT_PROJ, SORT_BALL):
        cert = ceval(FSup("x", sort, FMin(zero, FNorm(x))), CStarAlgebraFin(2))
        assert (cert.lower.hex(), cert.upper.hex()) == (0.0.hex(), 0.0.hex())


def test_exact_path_refuses_more_search_than_the_budget_before_running():
    # points x rank above boolalg.FO_EVAL_BUDGET_EXPONENT (24) raises before any
    # body runs, with fo_eval's message; the rank is counted as given, so an
    # outer binder that an inner one of the same name shadows counts too

    def chain(names, c):  # sup over each name in turn of |c (sum of the names)|
        term = CVar(names[0])
        for v in names[1:]:
            term = CAdd(term, CVar(v))
        phi = FNorm(CMul(c, term))
        for v in reversed(names):
            phi = FSup(v, SORT_PROJ, phi)
        return phi

    for names, n, exponent in (("abcde", 6, 30), ("abcdd", 5, 25), ("abbbb", 6, 30)):
        phi = chain(names, CConst(tuple(complex(p) for p in range(n))))
        with pytest.raises(ResourceBudgetError, match=rf"^exhaustive evaluation budget exceeded: 2\*\*{exponent} leaves$"):
            ceval(phi, CStarAlgebraFin(n))
    # at the budget, a rank-4 sentence runs on 6 points
    assert ceval(chain("abcd", COne()), CStarAlgebraFin(6)).lower == 4.0


def test_exact_path_on_three_binders_with_partial_reads():
    # the first z quantifier's body ignores y, its enclosing binder, and reads
    # only x; its atom |x + d| ignores z, its innermost binder.  The second
    # reads y, so its values over y are added to the atom's point by point.
    x, y, z, w = CVar("x"), CVar("y"), CVar("z"), CVar("w")

    def shape(c, d):
        return FSup("x", SORT_PROJ, FInf("y", SORT_PROJ, FPlus(
            FPlus(FNorm(CSub(CMul(x, c), y)), FInf("z", SORT_PROJ, FNorm(CSub(CMul(y, z), d)))),
            FSup("z", SORT_PROJ, FMax(
                FNorm(CSub(CMul(x, z), CScale(0.5j, z))), FScale(0.5, FNorm(CAdd(x, d))),
            )),
        )))

    c, d = (0.5 + 0j, -1j, 0.25 + 0j, 2 + 0j), (-1 + 0j, 0.5j, 0j, -0.75 + 0j)
    _assert_exact(shape(CConst(c), CConst(d)), CStarAlgebraFin(4), {})
    # the same shapes one binder deeper, under w
    c, d = CConst(c[:3]), CConst(d[:3])
    _assert_exact(FInf("w", SORT_PROJ, FAbsDiff(FNorm(CMul(w, c)), shape(c, d))),
                  CStarAlgebraFin(3), {})


def test_exact_path_pairs_atom_and_quantifier_values_by_mask():
    # the atom is 0 only at y = (1, 0), where the sup over z is 1; paired with
    # the sup at the mirror image (0, 1), where it is 0.5, it would give 0.5
    y, z = CVar("y"), CVar("z")
    phi = FInf("y", SORT_PROJ, FPlus(
        FNorm(CSub(y, CConst((1 + 0j, 0j)))),
        FSup("z", SORT_PROJ, FNorm(CSub(CMul(y, z), CConst((0j, 0.5 + 0j))))),
    ))
    _assert_exact(phi, CStarAlgebraFin(2), {})
    assert ceval(phi, CStarAlgebraFin(2)).lower == 1.0


def test_exact_path_leaves_the_free_variable_memos_alone():
    sentence = boolalg.Forall("x", boolalg.Exists("y", boolalg.Forall("z", boolalg.Eq(
        boolalg.TMeet(boolalg.TVar("x"), boolalg.TCompl(boolalg.TVar("y"))), boolalg.TVar("z")))))
    x, y, z = CVar("x"), CVar("y"), CVar("z")
    with_params = FMax(
        FNorm(CSub(CMul(x, y), CStar(x))),
        FInf("z", SORT_PROJ, FAbsDiff(FNorm(CAdd(x, z)), FScale(0.5, FNorm(y)))),
    )
    A = CStarAlgebraFin(4)
    for phi, params in ((translate_fo(sentence), {}), (with_params, {"x": A.one(), "y": A.zero()})):
        before = [(m.cache_info().currsize, m.cache_info().hits)
                  for m in (term_free_vars, cformula_free_vars)]
        ceval(phi, A, params)
        after = [(m.cache_info().currsize, m.cache_info().hits)
                 for m in (term_free_vars, cformula_free_vars)]
        assert after == before, phi


def test_unassigned_free_variables_are_named_on_both_paths():
    x, q, a = CVar("x"), CVar("q"), CVar("a")
    A = CStarAlgebraFin(2)
    projection_only = FPlus(FNorm(a), FSup("x", SORT_PROJ, FNorm(CSub(x, q))))
    continuous = FPlus(FNorm(a), FSup("x", SORT_BALL, FNorm(CSub(x, q))))
    for phi in (projection_only, continuous):
        with pytest.raises(PreconditionError) as excinfo:
            ceval(phi, A, {"x": A.one()})
        assert str(excinfo.value) == "unassigned free variables: ['a', 'q']"


def test_exact_path_preconditions():
    A = CStarAlgebraFin(3)
    wrong_size = FSup("x", SORT_PROJ, FNorm(CMul(CVar("x"), CConst((1 + 0j, 0j)))))
    with pytest.raises(PreconditionError):
        ceval(wrong_size, A, {})
    open_body = FSup("x", SORT_PROJ, FNorm(CSub(CVar("x"), CVar("q"))))
    with pytest.raises(PreconditionError):
        ceval(open_body, A, {})
    with pytest.raises(PreconditionError):
        ceval(open_body, A, {"x": A.one()})


# ---------------------------------------------------------------------------
# The term walker and its arithmetics
# ---------------------------------------------------------------------------


def _ref_bound(term, bounds):
    if isinstance(term, CVar):
        return bounds[term.name]
    if isinstance(term, CZero):
        return 0.0
    if isinstance(term, COne):
        return 1.0
    if isinstance(term, CConst):
        return max(abs(v) for v in term.values)
    if isinstance(term, (CStar, CScale)):
        scale = abs(term.scalar) if isinstance(term, CScale) else 1
        return scale * _ref_bound(term.arg, bounds)
    left, right = _ref_bound(term.left, bounds), _ref_bound(term.right, bounds)
    return left * right if isinstance(term, CMul) else left + right


def _ref_modulus(term, var, bounds):
    """The product rule by direct recursion, bounds recomputed per node."""
    if isinstance(term, CVar):
        return 1.0 if term.name == var else 0.0
    if isinstance(term, (CZero, COne, CConst)):
        return 0.0
    if isinstance(term, (CStar, CScale)):
        scale = abs(term.scalar) if isinstance(term, CScale) else 1
        return scale * _ref_modulus(term.arg, var, bounds)
    left = _ref_modulus(term.left, var, bounds)
    right = _ref_modulus(term.right, var, bounds)
    if isinstance(term, CMul):
        return _ref_bound(term.left, bounds) * right + _ref_bound(term.right, bounds) * left
    return left + right


def test_bound_and_modulus_equal_reference_recursion():
    rng = random.Random(4101)
    for _ in range(600):
        n = rng.randint(1, 3)
        A = CStarAlgebraFin(n)
        term = random_term(rng, n, rng.randint(1, 5))
        bounds = {v: rng.choice((1.0, 0.5, 2.0, rng.uniform(0, 2))) for v in TERM_NAMES}
        assert term_bound(term, A, bounds) == _ref_bound(term, bounds), term
        for v in TERM_NAMES:
            assert term_modulus(term, v, A, bounds) == _ref_modulus(term, v, bounds), term


def test_bound_and_modulus_reject_unbounded_variables():
    A = CStarAlgebraFin(2)
    x, y = CVar("x"), CVar("y")
    with pytest.raises(PreconditionError):
        term_bound(CAdd(x, y), A, {"x": 1.0})
    with pytest.raises(PreconditionError):
        term_modulus(x, "x", A, {})
    with pytest.raises(PreconditionError):
        term_modulus(CMul(x, y), "x", A, {"x": 1.0})
    with pytest.raises(PreconditionError):
        term_bound(CMul(x, CConst((1 + 0j,))), A, {"x": 1.0})


def test_rectangles_on_point_boxes_reproduce_exact_values():
    rng = random.Random(4102)
    for _ in range(2000):
        n = rng.randint(1, 3)
        A = CStarAlgebraFin(n)
        term = random_term(rng, n, rng.randint(1, 4))
        env = {
            v: tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
            for v in TERM_NAMES
        }
        boxes = {v: _box_point(value) for v, value in env.items()}
        exact = eval_term(term, env, A, EXACT)
        rects = eval_term(term, boxes, A, _RECTS)
        assert rects == _box_point(exact), term
        assert exact == _ref_term(term, env, A)
        norm = max(math.hypot(v.real, v.imag) for v in exact)
        assert _atom_enclosure(term, boxes, A) == (norm, norm)


def _stacked_or_error(phi, env, A, copies):
    try:
        return [v.hex() for v in clogic._stacked_eval(phi, env, A, copies)]
    except PreconditionError as err:
        return str(err)


def _interval_or_error(phi, env, A):
    try:
        lo, hi = clogic._interval_eval(phi, env, A, 0.05, {"boxes": 0, "max": 1, "depth": 0})
        assert lo.hex() == hi.hex(), (phi, env)
        return lo.hex()
    except PreconditionError as err:
        return str(err)


def test_stacked_walk_scores_each_assignment_as_the_interval_path_does():
    # One walk over c assignments stacked against ``_interval_eval`` on each
    # assignment's point rectangles: the same floats, a zero's sign included,
    # and the same errors.  Parameters of norm ~1e155 overflow to inf and nan.
    rng = random.Random(6066)
    for _ in range(1500):
        n, copies, var = rng.randint(1, 3), rng.randint(1, 5), rng.choice(TERM_NAMES)
        A = CStarAlgebraFin(n)
        phi = _random_formula(rng, n, rng.randint(1, 4), 0)
        phi = rng.choice((phi, phi, FAbsDiff(FConst(-0.0), phi), FMin(phi, FConst(-0.0))))
        big = rng.choice((1.0, 1.0, 3.0, 1e155))
        params = {v: tuple(big * z for z in random_element(rng, n)) for v in TERM_NAMES if v != var}
        points = [random_element(rng, n) for _ in range(copies)]
        stacked = {name: value * copies for name, value in params.items()}
        stacked[var] = sum(points, ())
        got = _stacked_or_error(phi, stacked, A, copies)
        each = [_interval_or_error(phi, {name: _box_point(value) for name, value in
                                         {**params, var: point}.items()}, A) for point in points]
        if isinstance(got, str):  # a nan is the only error here, whichever point gives it
            assert got in each, (phi, params, points)
        else:
            assert got == each, (phi, params, points)
    A, x, big = CStarAlgebraFin(2), CVar("x"), CScale(1e200, CScale(1e200, CVar("x")))
    for phi, message in [
        (FScale(0.0, FNorm(CMul(x, CConst((1j,) * 3)))), "constant element has the wrong size"),
        (FMax(FNorm(x), FNorm(CVar("q"))), "unbound variable 'q'"),
        (FTruncSub(FNorm(big), FNorm(big)), "the value overflows the floats: an overflowed operation gave nan"),
    ]:
        points = [A.one(), (0.5j, -1 + 0j), (1j, 0.5 + 0j)]
        assert _stacked_or_error(phi, {"x": sum(points, ())}, A, 3) == message
        assert [_interval_or_error(phi, {"x": _box_point(p)}, A) for p in points] == [message] * 3


def test_walker_rejects_unbound_variables_and_wrong_sizes():
    A = CStarAlgebraFin(2)
    for arith, env in ((EXACT, {"x": A.one()}), (_RECTS, {"x": _box_point(A.one())})):
        with pytest.raises(PreconditionError):
            eval_term(CAdd(CVar("x"), CVar("q")), env, A, arith)
        with pytest.raises(PreconditionError):
            eval_term(CMul(CVar("x"), CConst((1 + 0j,))), env, A, arith)
        with pytest.raises(PreconditionError):
            eval_term("x", env, A, arith)


def test_free_variable_memos_are_bounded():
    for memo in (term_free_vars, cformula_free_vars):
        assert memo.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# Classical-to-continuous translation
# ---------------------------------------------------------------------------


def test_translation_frozen_idempotence():
    x = boolalg.TVar("x")
    sent = boolalg.Forall("x", boolalg.Eq(boolalg.TMeet(x, x), x))
    phi = translate_fo(sent)
    assert phi == FSup(
        "x", SORT_PROJ, FNorm(CSub(CMul(CVar("x"), CVar("x")), CVar("x")))
    )
    for n in (1, 2, 3, 4):
        cert = ceval(phi, CStarAlgebraFin(n), {}, 1e-6)
        assert cert.lower == cert.upper == 0


def test_translation_frozen_nontrivial_element():
    x = boolalg.TVar("x")
    sent = boolalg.Exists(
        "x",
        boolalg.And(
            boolalg.Not(boolalg.Eq(x, boolalg.TZero())),
            boolalg.Not(boolalg.Eq(x, boolalg.TOne())),
        ),
    )
    phi = translate_fo(sent)
    assert ceval(phi, CStarAlgebraFin(2), {}, 1e-6).lower == 0
    assert ceval(phi, CStarAlgebraFin(1), {}, 1e-6).lower == 1


def test_translation_requires_sentence():
    x, y = boolalg.TVar("x"), boolalg.TVar("y")
    open_formula = boolalg.Eq(x, boolalg.TZero())
    bound_then_free = boolalg.And(boolalg.Forall("x", boolalg.Eq(x, x)), open_formula)
    for phi in (open_formula, bound_then_free, boolalg.Forall("y", boolalg.Eq(x, y)),
                boolalg.Exists("y", boolalg.Le(boolalg.TCompl(x), boolalg.TOne()))):
        with pytest.raises(PreconditionError, match="only sentences"):
            translate_fo(phi)
    shadowed = boolalg.Forall("x", boolalg.And(boolalg.Exists("x", open_formula),
                                               boolalg.Le(x, boolalg.TOne())))
    assert translate_fo(shadowed) == FSup("x", SORT_PROJ, FMax(
        FInf("x", SORT_PROJ, FNorm(CSub(CVar("x"), CZero()))),
        FNorm(CSub(CMul(CVar("x"), COne()), CVar("x")))))


def test_translation_reads_implication_as_negation_or():
    # node for node min(1 ∸ φ, ψ), on pairs of corpus sentences
    corpus = sentence_corpus(30)
    for phi, psi in zip(corpus, corpus[1:] + corpus[:1]):
        got = translate_fo(boolalg.Implies(phi, psi))
        assert got == translate_fo(boolalg.Or(boolalg.Not(phi), psi))
        assert got == FMin(FTruncSub(FConst(1.0), translate_fo(phi)), translate_fo(psi))


def test_translation_values_are_two_valued():
    corpus = sentence_corpus(40)
    A = CStarAlgebraFin(3)
    for phi in corpus:
        cert = ceval(translate_fo(phi), A, {}, 1e-6)
        assert cert.width() == 0
        assert cert.lower in (0.0, 1.0)


def test_translation_bridge_on_shadowed_sentences():
    x = boolalg.TVar("x")
    sent = boolalg.Exists("x", boolalg.And(
        boolalg.Forall("x", boolalg.Le(x, boolalg.TOne())), boolalg.Eq(x, boolalg.TZero())))
    assert fo_eval(sent, FiniteBoolAlg(2))
    rng = random.Random(6064)
    for phi in [sent] + shadowed_sentences(rng, sentence_corpus(60), 60):
        for n in (1, 2, 3):
            truth = fo_eval(phi, FiniteBoolAlg(n))
            value = ceval(translate_fo(phi), CStarAlgebraFin(n), {}, 1e-6).lower
            assert value == (0.0 if truth else 1.0), phi


def test_translation_bridge_sampled():
    corpus = sentence_corpus(60)
    for n in (1, 2, 3):
        b = FiniteBoolAlg(n)
        A = CStarAlgebraFin(n)
        for phi in corpus:
            truth = fo_eval(phi, b)
            value = ceval(translate_fo(phi), A, {}, 1e-6).lower
            assert value == (0.0 if truth else 1.0)


def test_translation_bridge_on_five_and_six_points():
    # orbits under the masks each binder reads make rank 3 on 6 points cheap
    for n in (5, 6):
        b, A = FiniteBoolAlg(n), CStarAlgebraFin(n)
        for phi in sentence_corpus(100):
            value = ceval(translate_fo(phi), A, {}, 1e-6).lower
            assert value == (0.0 if fo_eval(phi, b) else 1.0), phi
