"""
Saturation at desk scale: chain interpolation and type realization
==================================================================

Two saturation phenomena made computational.  First, in an atomless
Boolean algebra every strictly increasing chain sitting below a strictly
decreasing chain admits a strict interpolant — while finite algebras can
run out of room.  Second, a finite set of degree-1 norm conditions over
a function algebra is either realized by a concrete assignment (with an
independent certificate) or refuted with a certified positive deviation
floor — the computational content of "this type is inconsistent".
"""

from elemeq.boolalg import FiniteBoolAlg
from elemeq.clogic import CMul, COne, CSub, CVar
from elemeq.cstar import CStarAlgebraFin, c_norm
from elemeq.saturation import (
    NOT_FOUND,
    PresentedAtomlessBA,
    TypeCondition,
    Unsatisfiable,
    interpolate_chain,
    max_orthogonal_family,
    orthogonal_witness_family,
    realize_type,
)

# ---------------------------------------------------------------------------
# The presented atomless algebra: finite unions of binary cylinders,
# stored as the sorted points of [0, 1) where they start and stop, and
# printed as their maximal cylinders.  Between ANY strict pair there is
# always room — and interpolate_chain finds a canonical witness.
# ---------------------------------------------------------------------------

algebra = PresentedAtomlessBA()
lower = [algebra.cylinder("00")]
upper = [algebra.join(algebra.cylinder("0"), algebra.cylinder("10"))]
interpolant = interpolate_chain(lower, upper, algebra)
print("strictly between", lower[0].cylinders, "and", upper[0].cylinders, ":", interpolant.cylinders)

# Longer chains: ascending on the left, descending on the right.
lower = [algebra.cylinder("000"), algebra.cylinder("00")]
upper = [algebra.complement(algebra.cylinder("11")), algebra.cylinder("0")]
interpolant = interpolate_chain(lower, upper, algebra)
print("chain interpolant:", interpolant.cylinders)

# ---------------------------------------------------------------------------
# Finite algebras are NOT saturated this way: between an element and a
# cover there is nothing, and the decision procedure reports it rather
# than inventing an answer.
# ---------------------------------------------------------------------------

finite_algebra = FiniteBoolAlg(2)
print("between 01 and 11 in a 2-atom algebra:",
      interpolate_chain([0b01], [0b11], finite_algebra) is NOT_FOUND and "nothing")
print("between 001 and 111 in a 3-atom algebra: mask",
      interpolate_chain([0b001], [0b111], FiniteBoolAlg(3)))

# ---------------------------------------------------------------------------
# Type realization.  A condition constrains the norm of a degree-1
# *-polynomial (each variable appearing at most once per monomial) to a
# closed target set.  Two conditions on the same variable can contradict
# each other outright — "x has norm 1" and "x has norm 0" — and the
# solver then certifies a deviation floor no assignment can beat.
# ---------------------------------------------------------------------------

x = CVar("x")
conditions = [
    TypeCondition(x, ((1.0, 1.0),)),
    TypeCondition(x, ((0.0, 0.0),)),
]
result = realize_type(conditions, CStarAlgebraFin(2), 0.25, sorts={"x": "pos"})
if isinstance(result, Unsatisfiable):
    print(f"norm 1 and norm 0 at once: unsatisfiable, deviation floor {result.epsilon:.4f}")

# A satisfiable neighbor: norm exactly 1 while staying within 1/2 of the
# unit — realized by a concrete tuple, certified by the independent
# interval evaluator.
result = realize_type(
    [
        TypeCondition(x, ((1.0, 1.0),)),
        TypeCondition(CSub(x, COne()), ((0.0, 0.5),)),
    ],
    CStarAlgebraFin(2),
    0.05,
    sorts={"x": "pos"},
)
print("norm 1 and within 1/2 of the unit: realized at",
      tuple(round(v.real, 3) for v in result.assignment["x"]),
      "deviation", round(result.max_deviation, 6))

# ---------------------------------------------------------------------------
# Orthogonal families.  Over n points at most n positive norm-one
# elements can be pairwise orthogonal (each needs its own support
# point); the package computes the maximum with a verified witness
# family and refutes any attempt to exceed it.
# ---------------------------------------------------------------------------

for size in (2, 4, 8):
    algebra_c = CStarAlgebraFin(size)
    family = orthogonal_witness_family(algebra_c)
    print(f"{size} points: family of {max_orthogonal_family(algebra_c)}, "
          f"norms {[c_norm(f) for f in family[:3]]}...")

y, z = CVar("y"), CVar("z")
too_many = [
    TypeCondition(x, ((1.0, 1.0),)),
    TypeCondition(y, ((1.0, 1.0),)),
    TypeCondition(z, ((1.0, 1.0),)),
    TypeCondition(CMul(x, y), ((0.0, 0.0),)),
    TypeCondition(CMul(x, z), ((0.0, 0.0),)),
    TypeCondition(CMul(y, z), ((0.0, 0.0),)),
]
result = realize_type(
    too_many, CStarAlgebraFin(2), 0.25, sorts={"x": "pos", "y": "pos", "z": "pos"}
)
print("3 orthonormal positives over 2 points:",
      f"unsatisfiable with certified floor {result.epsilon:.5f}")
