"""Workload ``realize``: degree-1 type realization and chain interpolation.

``saturation.realize_type`` runs on seeded degree-1 types with 1-3 variables
on 2-4 points, through the batched numpy branch-and-bound.  Types that can
be realized (k <= n pairwise-orthogonal norm-1 positive elements, elements
of a given norm) are mixed with types that must be refuted (k > n orthogonal
elements, a norm-1 element vanishing at every point, an element strictly
between a chain and its supremum).  ``saturation.interpolate_chain`` runs on
seeded chains of the presented atomless algebra.

Terms are built here in a tuple form and evaluated apart from the program:
exactly, with fractions, at dyadic sample points, and in plain complex
arithmetic at the assignments the program returns.
"""

import itertools
import random
from fractions import Fraction

from elemeq.clogic import CConst, CMul, COne, CSub, CVar
from elemeq.cstar import CStarAlgebraFin
from elemeq.saturation import (
    CylinderElement, PresentedAtomlessBA, Realized, TypeCondition, Unsatisfiable,
    interpolate_chain, realize_type,
)

from common import Counters as BaseCounters, Op, mean_ms, require

#: Admissible assignments tried against every refutation floor.
REFUTATION_SAMPLES = 64
ATOMLESS = PresentedAtomlessBA()


# ---------------------------------------------------------------------------
# Terms: ("var", name) | ("one",) | ("const", values) | ("sub", s, t) | ("mul", s, t)
# ---------------------------------------------------------------------------


def to_clogic(t):
    tag = t[0]
    if tag == "var":
        return CVar(t[1])
    if tag == "one":
        return COne()
    if tag == "const":
        return CConst(tuple(complex(v) for v in t[1]))
    cls = CSub if tag == "sub" else CMul
    return cls(to_clogic(t[1]), to_clogic(t[2]))


def term_values(t, env, n):
    """Pointwise values of a term; works on complex and on Fraction values."""
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "one":
        return [1] * n
    if tag == "const":
        return list(t[1])
    left, right = term_values(t[1], env, n), term_values(t[2], env, n)
    if tag == "sub":
        return [a - b for a, b in zip(left, right)]
    return [a * b for a, b in zip(left, right)]


def in_sort(v, sort):
    """Whether one coordinate lies in the sort's domain, exactly."""
    re, im = Fraction(v.real), Fraction(v.imag)
    if sort == "ball":
        return re * re + im * im <= 1
    return im == 0 and (-1 if sort == "sa" else 0) <= re <= 1


def deviation(conditions, env, n):
    """Largest distance of a condition's norm from its target, in floats."""
    worst = 0.0
    for term, target in conditions:
        norm = max(abs(complex(v)) for v in term_values(term, env, n))
        worst = max(worst, min(max(lo - norm, norm - hi, 0.0) for lo, hi in target))
    return worst


def beats(conditions, env, n, epsilon):
    """Whether the deviation at ``env`` is below ``epsilon``, decided exactly.

    ``env`` holds pairs of Fractions (re, im); a norm is compared through
    its square, so no rounding enters.
    """
    eps = Fraction(epsilon)
    for term, target in conditions:
        values = [v if isinstance(v, _Pair) else _Pair(v) for v in term_values(term, env, n)]
        sq = max(a * a + b * b for a, b in values)
        # the distance of sqrt(sq) from every target interval must reach eps
        far = all(
            (lo - eps >= 0 and sq <= (lo - eps) ** 2) or sq >= (hi + eps) ** 2
            for lo, hi in ((Fraction(lo), Fraction(hi)) for lo, hi in target)
        )
        if far:
            return False
    return True


class _Pair(tuple):
    """A complex number as an exact (re, im) pair of Fractions."""

    def __new__(cls, re, im=0):
        return super().__new__(cls, (Fraction(re), Fraction(im)))

    def _lift(self, other):
        return other if isinstance(other, _Pair) else _Pair(other)

    def __sub__(self, other):
        o = self._lift(other)
        return _Pair(self[0] - o[0], self[1] - o[1])

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return _Pair(self[0] * o[0] - self[1] * o[1], self[0] * o[1] + self[1] * o[0])

    __rmul__ = __mul__


def _sample(rng, sort):
    k = 64
    if sort == "pos":
        return _Pair(Fraction(rng.randint(0, k), k))
    if sort == "sa":
        return _Pair(Fraction(rng.randint(-k, k), k))
    while True:
        re, im = rng.randint(-k, k), rng.randint(-k, k)
        if re * re + im * im <= k * k:
            return _Pair(Fraction(re, k), Fraction(im, k))


# ---------------------------------------------------------------------------
# Type families: (conditions in tuple form, sorts, tol, required verdict)
# ---------------------------------------------------------------------------


def _indicator(n, points):
    return ("const", tuple(1 if p in points else 0 for p in range(n)))


def orthogonal(rng, n, k, tol):
    names = [f"x{i}" for i in range(k)]
    rng.shuffle(names)
    conditions = [(("var", v), ((1.0, 1.0),)) for v in names]
    for a, b in itertools.combinations(names, 2):
        conditions.append((("mul", ("var", a), ("var", b)), ((0.0, 0.0),)))
    verdict = "realized" if k <= n else "unsatisfiable"
    return conditions, {v: "pos" for v in names}, tol, verdict


def given_norm(rng, n, target, sort, tol):
    # a norm-1 target sits on the sort boundary, which midpoint witnesses
    # never reach (4 points at 0.01 then take seconds), and the cost moves
    # with the target and the sort, so each slot fixes both
    return [(("var", "x"), ((target, target),))], {"x": sort}, tol, "realized"


def vanishing(rng, n, tol):
    points = list(range(n))
    rng.shuffle(points)
    conditions = [(("var", "x"), ((1.0, 1.0),))]
    for p in points:
        conditions.append((("mul", ("var", "x"), _indicator(n, {p})), ((0.0, 0.0),)))
    return conditions, {}, tol, "unsatisfiable"


def chain_gap(rng, n, tol):
    """x of norm 1 strictly above the step e_i and strictly below e_i + e_j."""
    i, j = rng.sample(range(n), 2)
    step, bound = _indicator(n, {i}), _indicator(n, {i, j})
    x, one = ("var", "x"), ("one",)
    conditions = [
        (x, ((1.0, 1.0),)),
        (("sub", bound, x), ((1.0, 2.0),)),
        (("sub", ("sub", bound, x), one), ((1.0, 1.0),)),
        (("sub", ("sub", x, step), one), ((0.0, 1.0),)),
        (("sub", ("sub", x, bound), one), ((0.0, 1.0),)),
    ]
    return conditions, {}, tol, "unsatisfiable"


#: (family, points, extra args) per pass, chosen to stay well inside the
#: box budget: the ball sort with a norm-1 target on 3 or more points
#: exhausts it, so realizable types use the ``pos`` and ``sa`` sorts.  With
#: the interpolations (~0.3 ms) the pass has 14 operations under 10 ms, 14
#: chain-gap types on 2-3 points (7-15 ms), 3 types of 15-25 ms, 8 chain-gap
#: types on 4 points (~25 ms) and 6 types of 45-110 ms: the median falls in
#: the second group and the 11th-costliest in the fourth, each mid-way.
PLAN = (
    [(given_norm, 2, (0.5, "pos", 0.01)), (given_norm, 3, (0.75, "sa", 0.01)),
     (given_norm, 4, (0.625, "pos", 0.05)), (orthogonal, 2, (1, 0.01)), (vanishing, 2, (0.25,)),
     (chain_gap, 2, (0.1,)), (chain_gap, 2, (0.05,))]
    + [(chain_gap, 3, (tol,)) for tol in (0.1, 0.05) * 6]
    + [(orthogonal, 2, (2, 0.01)), (orthogonal, 4, (1, 0.05)), (vanishing, 3, (0.25,))]
    + [(chain_gap, 4, (tol,)) for tol in (0.1, 0.05) * 4]
    + [(orthogonal, 2, (3, 0.25)), (orthogonal, 2, (3, 0.25)), (orthogonal, 3, (1, 0.01)),
       (orthogonal, 3, (2, 0.01)), (orthogonal, 3, (3, 0.01)), (vanishing, 4, (0.25,))]
)
INTERPOLATIONS = 8
#: Word depth and chain lengths of every interpolation: fixed, so that the
#: seed picks the words but not the cost.
CHAIN_DEPTH, CHAIN_LOWER, CHAIN_UPPER = 6, 2, 2


def _make_type_op(name, seed, conditions, sorts, tol, verdict, n):
    algebra = CStarAlgebraFin(n)
    program_conditions = [TypeCondition(to_clogic(t), target) for t, target in conditions]
    names = sorted({v for t, _ in conditions for v in _variables(t)})
    domains = {v: sorts.get(v, "ball") for v in names}
    floors_checked, drawn = set(), []

    def samples():
        # check data, not input: drawn at the first check, outside set-up
        if not drawn:
            rng = random.Random(f"realize-{seed}-samples-{name}")
            drawn.extend({v: [_sample(rng, domains[v]) for _ in range(n)] for v in names}
                         for _ in range(REFUTATION_SAMPLES))
        return drawn

    def run(tr):
        result = tr.call("saturation.realize_type", realize_type, program_conditions, algebra, tol,
                         sorts=sorts)
        if isinstance(result, Realized):
            return "realized", {v: tuple(z) for v, z in result.assignment.items()}
        if isinstance(result, Unsatisfiable):
            return "unsatisfiable", result.epsilon
        return "inconclusive", result.boxes_used

    def check(out):
        kind, data = out
        require(kind == verdict, f"{kind}, but this type must come out {verdict}")
        if kind == "realized":
            require(set(data) == set(names), f"assignment covers {sorted(data)}, not {names}")
            for v, values in data.items():
                require(len(values) == n and all(in_sort(z, domains[v]) for z in values),
                        f"{v} = {values} leaves the {domains[v]} sort")
            env = {v: list(values) for v, values in data.items()}
            dev = deviation(conditions, env, n)
            require(dev <= tol, f"recomputed deviation {dev} exceeds tol {tol}")
        else:
            require(data > tol, f"refutation floor {data} is not above tol {tol}")
            if data not in floors_checked:
                for env in samples():
                    require(not beats(conditions, env, n, data),
                            f"an admissible assignment beats the floor {data}")
                floors_checked.add(data)

    return Op(name, run, check, cat=verdict, info=tol)


def _variables(t):
    if t[0] == "var":
        return {t[1]}
    if t[0] in ("sub", "mul"):
        return _variables(t[1]) | _variables(t[2])
    return set()


# ---------------------------------------------------------------------------
# Chain interpolation in the presented atomless algebra
# ---------------------------------------------------------------------------


def _words(depth):
    return ["".join(bits) for bits in itertools.product("01", repeat=depth)]


def _lift(depth, words, to_depth):
    pad = _words(to_depth - depth)
    return {w + s for w in words for s in pad}


def random_chains(rng):
    """A strictly ascending lower chain below a strictly descending upper
    chain, as word sets at depth ``CHAIN_DEPTH``."""
    lower_set, upper_set = set(), set(_words(CHAIN_DEPTH))
    lower, upper = [], []
    sides = ["lower"] * CHAIN_LOWER + ["upper"] * CHAIN_UPPER
    rng.shuffle(sides)
    for side in sides:
        gap = sorted(upper_set - lower_set)
        piece = set(rng.sample(gap, len(gap) // 4))
        if side == "lower":
            lower_set = lower_set | piece
            lower.append(frozenset(lower_set))
        else:
            upper_set = upper_set - piece
            upper.append(frozenset(upper_set))
    return CHAIN_DEPTH, lower, upper


def strictly_below(a, b):
    """a < b for (depth, words) elements, by lifting both to one depth."""
    depth = max(a[0], b[0])
    wa, wb = _lift(a[0], a[1], depth), _lift(b[0], b[1], depth)
    return wa < wb


def _make_interpolation_op(name, rng):
    depth, lower, upper = random_chains(rng)
    lower_el = [CylinderElement(depth, w) for w in lower]
    upper_el = [CylinderElement(depth, w) for w in upper]

    def run(tr):
        c = tr.call("saturation.interpolate_chain", interpolate_chain, lower_el, upper_el, ATOMLESS)
        return c.depth, c.words

    def check(out):
        for y in lower:
            require(strictly_below((depth, y), out), "interpolant is not strictly above the lower chain")
        for z in upper:
            require(strictly_below(out, (depth, z)), "interpolant is not strictly below the upper chain")
        if not lower:
            require(strictly_below((0, set()), out), "interpolant is not strictly above bottom")
        if not upper:
            require(strictly_below(out, (0, {""})), "interpolant is not strictly below top")

    return Op(name, run, check, cat="interpolate")


def build(seed):
    rng = random.Random(f"realize-{seed}")
    ops = []
    for family, n, args in PLAN:
        conditions, sorts, tol, verdict = family(rng, n, *args)
        name = f"{family.__name__}.n{n}.{len(ops)}"
        ops.append(_make_type_op(name, seed, conditions, sorts, tol, verdict, n))
    for i in range(INTERPOLATIONS):
        ops.append(_make_interpolation_op(f"interpolate.{i}", rng))
    rng.shuffle(ops)
    return ops


class Counters(BaseCounters):
    """Verdict counts over the first pass."""

    def __init__(self, ops):
        super().__init__(ops)
        self.cats = [op.cat for op in ops]
        self.verdicts = {"realized": 0, "unsatisfiable": 0}

    def record(self, pass_index, op, out):
        if pass_index == 0 and op.cat in self.verdicts and out[0] in self.verdicts:
            self.verdicts[out[0]] += 1

    def layer_metrics(self, spans, n_ops):
        first = [(self.cats[op_id], name, t) for name, op_id, t in spans if op_id < n_ops]

        def ms(name, cat):
            return mean_ms([t for c, n, t in first if n == name and c == cat])

        return {
            "saturation.realize_type.ms_per_op.realized": ms("saturation.realize_type", "realized"),
            "saturation.realize_type.ms_per_op.unsatisfiable": ms("saturation.realize_type", "unsatisfiable"),
            "saturation.realize_type.realized": self.verdicts["realized"],
            "saturation.realize_type.unsatisfiable": self.verdicts["unsatisfiable"],
            "saturation.interpolate_chain.ms_per_op": ms("saturation.interpolate_chain", "interpolate"),
        }
