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
    _EXACT_OPS,
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
from elemeq.errors import PreconditionError, ResourceBudgetError
from util import TERM_NAMES, check_frozen_nodes, check_node_shape, random_element, random_term


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
    # Over positive contractions the supremum of ||x(1-x)|| is 1/4 (at
    # x = 1/2), but interval bounds cannot certify it to 1e-12 within 50 boxes.
    A = CStarAlgebraFin(2)
    x = CVar("x")
    phi = FSup("x", SORT_POS, FNorm(CMul(x, CSub(COne(), x))))
    with pytest.raises(ResourceBudgetError) as info:
        ceval(phi, A, {}, 1e-12, max_boxes=50)
    best = info.value.best_known
    assert best.lower <= 0.25 <= best.upper


def test_budget_error_encloses_the_whole_formula():
    # The budget runs out in a quantifier below a connective or another
    # quantifier; the enclosure reported was that quantifier's (about 1/4).
    A, x, y = CStarAlgebraFin(2), CVar("x"), CVar("y")
    inner = FSup("x", SORT_POS, FNorm(CMul(x, CSub(COne(), x))))
    for phi, value in ((FPlus(FConst(0.5), inner), 0.75),
                       (FSup("y", SORT_POS, FPlus(inner, FNorm(y))), 1.25)):
        with pytest.raises(ResourceBudgetError) as info:
            ceval(phi, A, {}, 1e-12, max_boxes=50)
        best = info.value.best_known
        assert best.lower <= value <= best.upper, phi


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


def test_nested_search_stops_at_the_outer_cone_width():
    # Each inner search over an x-box aims only for the outer Lipschitz cone's
    # width: aiming for tol ran 64 non-improving rounds (665 and 931 boxes).
    phi = FInf("x", SORT_SA, FSup("y", SORT_POS, FNorm(CSub(CVar("x"), CVar("y")))))
    for n, tol, budget in ((1, 1e-3, 60), (2, 1e-2, 100)):
        cert = ceval(phi, CStarAlgebraFin(n), {}, tol, max_boxes=budget)
        assert cert.lower <= 0.5 <= cert.upper
        assert cert.width() <= tol


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


def test_importing_clogic_loads_no_numpy_fractions_or_decimal():
    # Each would add to the set-up of every process that only evaluates.
    script = (
        "import sys\n"
        "import elemeq.clogic\n"
        "print(sorted(m for m in ('numpy', 'fractions', 'decimal') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
    # the z quantifier ignores y, so it is evaluated once per value of x
    hoisted = FSup("x", SORT_PROJ, FInf("y", SORT_PROJ, FPlus(
        FSup("z", SORT_PROJ, FNorm(CSub(x, z))), FScale(0.25, FNorm(CVar("y")))
    )))
    # a quantifier whose body ignores its own variable
    vacuous = FInf("x", SORT_PROJ, FSup("y", SORT_PROJ, FNorm(CAdd(x, COne()))))
    for n in range(1, 5):
        A = CStarAlgebraFin(n)
        _assert_exact(hoisted, A, {})
        _assert_exact(vacuous, A, {})
    assert ceval(vacuous, CStarAlgebraFin(3), {}).lower == 1


def test_exact_path_hoists_on_several_binders(monkeypatch):
    # the w quantifier reads x and z but not y, so it is memoised on x and
    # loops over z once per x; its atom tells the three bound variables apart
    x, y, z, w = (CVar(v) for v in "xyzw")
    atom = FNorm(CSub(CMul(x, CSub(COne(), w)), CScale(0.5j, CMul(z, w))))
    phi = FSup("x", SORT_PROJ, FInf("y", SORT_PROJ, FSup("z", SORT_PROJ, FTruncSub(
        FInf("w", SORT_PROJ, FMax(atom, FScale(0.75, FNorm(CSub(w, z))))),
        FScale(0.5, FNorm(CMul(y, CSub(COne(), x)))),
    ))))
    calls, fmax = [], _EXACT_OPS[FMax]
    monkeypatch.setitem(_EXACT_OPS, FMax, lambda l, r: calls.append(1) or fmax(l, r))
    for n in range(1, 5):
        calls.clear()
        _assert_exact(phi, CStarAlgebraFin(n), {})
        assert len(calls) == 4**n  # the w body once per (x, z), not per (x, y, z)


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
    open_formula = boolalg.Eq(boolalg.TVar("x"), boolalg.TZero())
    with pytest.raises(PreconditionError):
        translate_fo(open_formula)


def test_translation_values_are_two_valued():
    corpus = sentence_corpus(40)
    A = CStarAlgebraFin(3)
    for phi in corpus:
        cert = ceval(translate_fo(phi), A, {}, 1e-6)
        assert cert.width() == 0
        assert cert.lower in (0.0, 1.0)


def _shadowed_sentences(rng, corpus, count):
    """Sentences ``Q x. (s op a)`` with ``s`` a corpus sentence binding x
    itself and ``a`` an atom read after ``s``, so under the outer x."""
    x, zero = boolalg.TVar("x"), boolalg.TZero()
    atoms = [boolalg.Eq(x, zero), boolalg.Eq(x, boolalg.TOne()), boolalg.Le(boolalg.TCompl(x), x),
             boolalg.Not(boolalg.Eq(boolalg.TMeet(x, x), zero))]
    inner = [phi for phi in corpus
             if isinstance(phi, (boolalg.Forall, boolalg.Exists)) and phi.var == "x"]
    out = []
    for _ in range(count):
        op = rng.choice((boolalg.And, boolalg.Or, boolalg.Implies))
        body = op(rng.choice(inner), rng.choice(atoms))
        out.append(rng.choice((boolalg.Forall, boolalg.Exists))("x", body))
    return out


def test_translation_bridge_on_shadowed_sentences():
    x = boolalg.TVar("x")
    sent = boolalg.Exists("x", boolalg.And(
        boolalg.Forall("x", boolalg.Le(x, boolalg.TOne())), boolalg.Eq(x, boolalg.TZero())))
    assert fo_eval(sent, FiniteBoolAlg(2))
    rng = random.Random(6064)
    for phi in [sent] + _shadowed_sentences(rng, sentence_corpus(60), 60):
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
