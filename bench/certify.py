"""Workload ``certify``: certified sup/inf enclosures by interval branch-and-bound.

Every formula quantifies over the ``ball``, ``sa`` or ``pos`` sort (some
nest two quantifiers), so ``clogic.ceval`` takes its scalar branch-and-bound
path and never the exact projection path or numpy.  Each value has a closed
form, kept here exactly as ``max_i (a_i + sqrt(q_i))`` with rational
``a_i, q_i``; an enclosure is checked against it through exact squares.

Seeded parameters are dyadic rationals, so the program's float arithmetic
on them is exact wherever a box corner can attain the value; where it
cannot, the value is irrational and lies strictly inside the box bounds.
The two operations over the constants 0.1 and 0.2 are the known fault of
round-to-nearest enclosures: no float holds ``Fraction(0.1) + Fraction(0.2)``
and the returned point enclosure excludes it, on every run.
"""

import random
from fractions import Fraction

from elemeq.clogic import (
    CAdd, CConst, CMul, COne, CStar, CSub, CVar, FInf, FNorm, FSup, ceval,
)
from elemeq.cstar import CStarAlgebraFin

from common import Counters as BaseCounters, Op, mean_ms, require

ROUNDING_FAULT = "enclosures are rounded to nearest, so a float constant sum can fall outside"

X, Y, C = CVar("x"), CVar("y"), CVar("c")

class Value:
    """The exact value ``max_i (a_i + sqrt(q_i))``; ``q_i`` is a square of a modulus."""

    def __init__(self, *terms):
        self.terms = [(Fraction(a), Fraction(q)) for a, q in terms]

    def at_least(self, x):
        """value >= x, exactly."""
        x = Fraction(x)
        return any(x - a <= 0 or (x - a) ** 2 <= q for a, q in self.terms)

    def at_most(self, x):
        """value <= x, exactly."""
        x = Fraction(x)
        return all(x - a >= 0 and (x - a) ** 2 >= q for a, q in self.terms)


def modsq(z):
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


def check_enclosure(lower, upper, value, tol):
    require(value.at_least(lower), f"lower bound {lower!r} exceeds the exact value")
    require(value.at_most(upper), f"upper bound {upper!r} is below the exact value")
    require(upper - lower <= tol, f"width {upper - lower!r} exceeds tol {tol}")


# ---------------------------------------------------------------------------
# Formula families: (formula, category, params, exact value)
#
# Branch-and-bound cost moves a lot with a parameter's value, so each
# family's parameter is a fixed dyadic base value moved by a seeded symmetry
# of the sort's domain that keeps the box splitting order: a sign flip, a
# conjugation, x -> 1 - x on [0, 1].  (Swapping points or turning the disc
# by a quarter changes which axis is split first, and the cost by up to 2x.)
# The seed changes the inputs; the cost of each operation stays put.
# ---------------------------------------------------------------------------


def _signed(rng, base):
    return tuple(rng.choice((-1, 1)) * v for v in base)


def quad(rng, n):
    return FSup("x", "pos", FNorm(CMul(X, CSub(COne(), X)))), "pos", {}, Value((0, Fraction(1, 16)))


def sa_dist(rng, n):
    c = tuple(complex(v) for v in _signed(rng, (0.375, 0.625)[:n]))
    value = Value(*((0, (1 + abs(Fraction(z.real))) ** 2) for z in c))
    return FSup("x", "sa", FNorm(CSub(X, C))), "sa", {"c": c}, value


def pos_dist(rng, n):
    c = tuple(complex(v if rng.random() < 0.5 else 1 - v) for v in (0.25, -0.375)[:n])
    value = Value(*((0, max(modsq(z), modsq(1 - z))) for z in c))
    return FSup("x", "pos", FNorm(CSub(X, C))), "pos", {"c": c}, value


def sa_gap(rng, n):
    c = tuple(complex(*_signed(rng, ab)) for ab in ((0.375, 0.5), (-0.25, 0.125))[:n])
    value = Value(*((0, Fraction(z.imag) ** 2) for z in c))
    return FInf("x", "sa", FNorm(CSub(X, C))), "sa", {"c": c}, value


def _disc_symmetry(rng, z):
    z = z * rng.choice((1, -1))
    return z.conjugate() if rng.random() < 0.5 else z


def ball_gap(rng, n):
    c = tuple(_disc_symmetry(rng, z) for z in (1.25 + 0.5j, 1.125 + 0.75j)[:n])
    value = Value(*((-1, modsq(z)) for z in c))
    return FInf("x", "ball", FNorm(CSub(X, C))), "ball", {"c": c}, value


def ball_scale(rng, n):
    c = (_disc_symmetry(rng, 0.375 + 0.5j),)
    value = Value(*((0, modsq(z)) for z in c))
    return FSup("x", "ball", FNorm(CMul(X, C))), "ball", {"c": c}, value


def hermitian(rng, n):
    return FSup("x", "sa", FNorm(CAdd(X, CStar(X)))), "sa", {}, Value((2, 0))


def pos_adjoint(rng, n):
    # moduli that are dyadic too, so the value at the box corner x = 1 is exact
    c = tuple(_disc_symmetry(rng, z) for z in (0.375 + 0.5j, 0.3125 + 0.75j)[:n])
    value = Value(*((0, modsq(z)) for z in c))
    return FSup("x", "pos", FNorm(CMul(CStar(X), C))), "pos", {"c": c}, value


def nested_inf_sup(rng, n):
    return FInf("x", "pos", FSup("y", "sa", FNorm(CSub(X, Y)))), "nested", {}, Value((1, 0))


def nested_sup_inf(rng, n):
    return FSup("x", "sa", FInf("y", "pos", FNorm(CSub(X, Y)))), "nested", {}, Value((1, 0))


def nested_product(rng, n):
    return FSup("x", "pos", FSup("y", "pos", FNorm(CMul(X, Y)))), "nested", {}, Value((1, 0))


def nested_centre(rng, n):
    return FInf("x", "sa", FSup("y", "pos", FNorm(CSub(X, Y)))), "nested", {}, Value((Fraction(1, 2), 0))


def nested_shift(rng, n):
    # sup over t in [-1, 1] of the distance from t - c to [0, 1]: convex in t,
    # so attained at t = -1 or t = 1
    c = (0.25 + 0j,)

    def dist(z):
        return max(-z, z - 1, Fraction(0))

    terms = [(max(dist(-1 - Fraction(z.real)), dist(1 - Fraction(z.real))), 0) for z in c]
    return (FSup("x", "sa", FInf("y", "pos", FNorm(CSub(CSub(X, C), Y)))), "nested",
            {"c": c}, Value(*terms))


#: (family, points, tol) per pass, in four cost groups: 16 operations under
#: ~7 ms (plus the two fault operations); 8 of 5-40 ms with four parameter-
#: free ones (~20 ms) at the centre; 17 of 30-130 ms; one of ~0.25 s.  The
#: median operation falls among the four parameter-free ones and the
#: 11th-costliest inside the third group.  Left out: the ball sort at 1e-3 on
#: ``ball_scale`` and on two-point ``ball_gap``, whose cost swings by 2x
#: between symmetric parameters, and sup x:pos ||x(1-x)|| on two points at
#: 1e-3: alone it takes ~3.5 s, two thirds of a pass, which would leave each
#: operation three samples a run.
PLAN = [
    (quad, 1, 1e-2), (quad, 1, 1e-3), (sa_dist, 1, 1e-2), (sa_dist, 1, 1e-3),
    (pos_dist, 1, 1e-2), (pos_dist, 1, 1e-3), (sa_gap, 1, 1e-2), (sa_gap, 1, 1e-3),
    (sa_gap, 2, 1e-2), (sa_gap, 2, 1e-3), (hermitian, 1, 1e-2), (hermitian, 1, 1e-3),
    (pos_adjoint, 1, 1e-2), (pos_adjoint, 1, 1e-3), (ball_gap, 1, 1e-2), (ball_gap, 1, 1e-3),

    (pos_dist, 2, 1e-2), (pos_dist, 2, 1e-2), (nested_centre, 1, 1e-2), (nested_centre, 1, 5e-3),
    (nested_centre, 1, 2e-3), (nested_centre, 1, 1e-3), (ball_gap, 2, 1e-2), (ball_gap, 2, 1e-2),

    (nested_inf_sup, 1, 1e-2), (nested_inf_sup, 1, 1e-3), (nested_sup_inf, 1, 1e-2),
    (nested_sup_inf, 1, 1e-3), (nested_product, 1, 1e-2), (nested_product, 1, 1e-3),
    (nested_shift, 1, 1e-2), (nested_shift, 1, 1e-3), (sa_dist, 2, 1e-3), (sa_dist, 2, 1e-3),
    (ball_scale, 1, 1e-2), (pos_dist, 2, 1e-3), (pos_dist, 2, 1e-3), (pos_adjoint, 2, 1e-3),
    (pos_adjoint, 2, 1e-3), (quad, 2, 1e-2), (hermitian, 2, 1e-2),

    (nested_centre, 2, 1e-2),
]


def _make_op(name, phi, cat, params, value, n, tol, fault=None):
    algebra = CStarAlgebraFin(n)

    def run(tr):
        cert = tr.call("clogic.ceval_bnb", ceval, phi, algebra, params, tol)
        return cert.lower, cert.upper, cert.grid_depth

    def check(out):
        check_enclosure(out[0], out[1], value, tol)

    return Op(name, run, check, cat=cat, fault=fault, info=(tol, value))


def _fault_ops():
    """The rounding fault: fixed inputs, failing on every run."""
    total = CAdd(CConst((0.1,)), CConst((0.2,)))
    value = Value((Fraction(0.1) + Fraction(0.2), 0))
    return [
        _make_op("fault.norm_sum", FNorm(total), "const", {}, value, 1, 1e-2, ROUNDING_FAULT),
        _make_op("fault.sup_sa_sum", FSup("x", "sa", FNorm(total)), "const", {}, value, 1, 1e-2,
                 ROUNDING_FAULT),
    ]


def build(seed):
    rng = random.Random(f"certify-{seed}")
    ops = []
    for family, n, tol in PLAN:
        phi, cat, params, value = family(rng, n)
        ops.append(_make_op(f"{family.__name__}.n{n}.{tol:g}.{len(ops)}", phi, cat, params, value, n, tol))
    ops.extend(_fault_ops())
    rng.shuffle(ops)
    return ops


class Counters(BaseCounters):
    """Box-refinement counters over the first pass, from ``EvalCertificate``."""

    def __init__(self, ops):
        super().__init__(ops)
        self.depth = 0
        self.ratios = []

    def record(self, pass_index, op, out):
        if pass_index == 0 and op.fault is None:
            lower, upper, depth = out
            self.depth += depth
            self.ratios.append((upper - lower) / op.info[0])

    def layer_metrics(self, spans, n_ops):
        cats = [op.cat for op in self.ops]
        first = [(cats[op_id], t) for name, op_id, t in spans if op_id < n_ops and name == "clogic.ceval_bnb"]
        out = {f"clogic.ceval_bnb.ms_per_op.{c}": mean_ms([t for k, t in first if k == c])
               for c in ("ball", "sa", "pos", "nested")}
        out["clogic.ceval_bnb.grid_depth"] = self.depth
        out["clogic.ceval_bnb.width_over_tol"] = sum(self.ratios) / len(self.ratios)
        return out
