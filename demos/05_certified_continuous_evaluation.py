"""
Continuous logic with certified evaluation
==========================================

Formulas of continuous logic take real truth values: norms of
*-polynomials are the atoms, the connectives are continuous functions,
and quantifiers are suprema and infima over sorted balls (the unit
ball, its self-adjoint or positive parts, or the projections).

The evaluator returns an interval certificate [lower, upper] containing
the exact value, produced by branch-and-bound with rigorous Lipschitz
and interval bounds — never a bare float that might be wrong.
"""

from elemeq.cli import format_cformula, parse_cformula, parse_fo_formula
from elemeq.clogic import ceval, translate_fo
from elemeq.cstar import CStarAlgebraFin
from elemeq.errors import ResourceBudgetError

# ---------------------------------------------------------------------------
# Formulas are written as s-expressions.  This one asks how far a
# projection can be from being idempotent — the supremum over the
# projection sort of ||p^2 - p||, which is of course 0.
# ---------------------------------------------------------------------------

algebra = CStarAlgebraFin(3)
phi = parse_cformula("(sup p :proj (norm (- (* p p) p)))")
certificate = ceval(phi, algebra, {}, tol=1e-9)
print("sup_p ||p^2 - p||            in", [certificate.lower, certificate.upper])

# ---------------------------------------------------------------------------
# A genuinely quantitative one: the positive contraction maximizing
# ||x(1-x)|| attains 1/4 at x = 1/2.  Each half of [0, 1] is monotone,
# so the search shrinks it to its face x = 1/2, and the certificate is
# exact: [1/4, 1/4], well inside the requested tolerance.
# ---------------------------------------------------------------------------

phi = parse_cformula("(sup x :pos (norm (* x (- 1 x))))")
certificate = ceval(phi, CStarAlgebraFin(2), {}, tol=1e-3)
print("sup_x ||x(1 - x)|| (positive) in",
      [round(certificate.lower, 5), round(certificate.upper, 5)])

# ---------------------------------------------------------------------------
# Free variables are supplied as parameters: concrete value tuples.
# Here we measure how far a fixed element is from being self-adjoint;
# with purely imaginary coordinates the distance is twice their modulus.
# ---------------------------------------------------------------------------

phi = parse_cformula("(norm (- a (star a)))")
certificate = ceval(phi, algebra, {"a": (1j, 0.5 + 0j, -0.25j)}, tol=1e-9)
print("||a - a*|| for a = (i, 1/2, -i/4) =", round(certificate.upper, 9))

# ---------------------------------------------------------------------------
# The classical-to-continuous bridge.  Any sentence about Boolean
# algebras translates to a continuous sentence about projections whose
# value is 0 when the classical sentence holds in the dual clopen
# algebra and 1 when it fails.
# ---------------------------------------------------------------------------

classical = parse_fo_formula("exists x. (!(x = 0) & !(x = 1))")
continuous = translate_fo(classical)
print("translated:", format_cformula(continuous)[:64], "...")
for n in (1, 2):
    value = ceval(continuous, CStarAlgebraFin(n), {}, tol=1e-6)
    verdict = "holds (value 0)" if value.upper <= 1e-6 else "fails (value 1)"
    print(f"  'a nontrivial element exists' over {n} points: {verdict}")

# ---------------------------------------------------------------------------
# Budgets are first-class: when the box budget is too small for the
# requested tolerance, the evaluator raises — carrying its best partial
# enclosure rather than silently returning an unpinned value.
# ---------------------------------------------------------------------------

phi = parse_cformula("(sup x :ball (norm (- (* x x) x)))")
try:
    ceval(phi, CStarAlgebraFin(1), {}, tol=1e-12, max_boxes=50)
except ResourceBudgetError as error:
    best = error.best_known
    print("budget ran out; best enclosure so far:",
          [round(best.lower, 4), round(best.upper, 4)])
