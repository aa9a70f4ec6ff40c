"""Finite-dimensional abelian C*-algebras of complex functions on a finite set.

Elements of the algebra over a space with ``n`` points are tuples of ``n``
complex numbers; all operations act pointwise and the norm is the maximum
modulus.  On top of the element arithmetic the module provides the
spectrum-flavoured decision procedures: the joint spectrum of a tuple, the
singularity test with its three mutually checking routes, the real-valued
indicator whose zero set is exactly the joint spectrum, the grid coding of
an element by labelled preimage sets together with its reconstruction, and
the infinite-projection score, which must stay bounded away from zero in
finite dimensions.
"""

from __future__ import annotations

import cmath
import math
import operator

from .errors import Frozen, PreconditionError, ResourceBudgetError

__all__ = [
    "CStarAlgebraFin",
    "c_add",
    "c_sub",
    "c_mul",
    "c_star",
    "c_scale",
    "c_norm",
    "is_projection",
    "projections",
    "joint_spectrum",
    "is_singular",
    "singular_cross_checks",
    "spectrum_indicator",
    "ClopenCode",
    "clopen_code",
    "reconstruct",
    "psi_infinite_projection",
]

#: Largest space size accepted by the infinite-projection score: the
#: infimum runs over the 2^n {0, 1}-valued partial isometries.
MAX_PSI_POINTS = 4

#: Largest grid parameter of the clopen coding: (2m + 1)^2 sets, 66,049 at it.
MAX_CODE_SCALE = 128

#: Residual bound used when certifying solvability of the singularity
#: equation by the explicit pointwise solution.
SOLVABILITY_RESIDUAL = 1e-12


class CStarAlgebraFin(Frozen):
    """The algebra of complex-valued functions on ``point_count`` points."""

    point_count: int

    def __post_init__(self) -> None:
        if self.point_count < 1:
            raise PreconditionError("the space needs at least one point")

    # -- distinguished elements -------------------------------------------

    def zero(self) -> tuple:
        return (0j,) * self.point_count

    def one(self) -> tuple:
        return (1 + 0j,) * self.point_count

    def indicator(self, points) -> tuple:
        """The {0,1}-valued function supported on the given point set."""
        pts = set(points)
        for p in pts:
            if not 0 <= p < self.point_count:
                raise PreconditionError(f"point {p} outside the space")
        return tuple(1 + 0j if p in pts else 0j for p in range(self.point_count))

    def element(self, values) -> tuple:
        vals = tuple(complex(v) for v in values)
        if len(vals) != self.point_count:
            raise PreconditionError(
                f"element needs {self.point_count} coordinates, got {len(vals)}"
            )
        if not all(map(cmath.isfinite, vals)):
            raise PreconditionError("element coordinates must be finite")
        return vals


# ---------------------------------------------------------------------------
# Pointwise element arithmetic.  ``_sized`` lifts a binary operation on the
# values at one point to tuples of them of one size, point by point; it builds
# the element operations here and ``clogic``'s rectangle, centred-form and
# modulus ones.  The size is checked inline, since a helper's call would cost
# more than the operation itself on a few points.
# ---------------------------------------------------------------------------


def _sized(op):
    def lifted(f: tuple, g: tuple) -> tuple:
        if len(f) != len(g):
            raise PreconditionError("elements of different sizes")
        return tuple(map(op, f, g))
    return lifted


c_add, c_sub, c_mul = _sized(operator.add), _sized(operator.sub), _sized(operator.mul)


def c_star(f: tuple) -> tuple:
    return tuple(a.conjugate() for a in f)


def c_scale(s: complex, f: tuple) -> tuple:
    return tuple(s * a for a in f)


def c_norm(f: tuple) -> float:
    return max(abs(a) for a in f)


def is_projection(f: tuple) -> bool:
    """Exact test: every coordinate is exactly 0 or exactly 1."""
    return all(v == 0 or v == 1 for v in f)


def projections(algebra: CStarAlgebraFin):
    """All 2^n projections of the algebra, in mask order."""
    n = algebra.point_count
    return tuple(
        tuple(1 + 0j if mask >> p & 1 else 0j for p in range(n))
        for mask in range(1 << n)
    )


# ---------------------------------------------------------------------------
# Joint spectrum and singularity
# ---------------------------------------------------------------------------


def _check_tuple(a: tuple, lam: tuple | None = None) -> int:
    if not a:
        raise PreconditionError("the element tuple must be nonempty")
    n = len(a[0])
    for f in a:
        if len(f) != n:
            raise PreconditionError("elements live on spaces of different sizes")
    if lam is not None and len(lam) != len(a):
        raise PreconditionError("one spectral parameter per element is required")
    return n


def joint_spectrum(a: tuple) -> frozenset:
    """The set of pointwise value tuples ``(a_1(x), ..., a_k(x))``."""
    n = _check_tuple(a)
    return frozenset(tuple(f[x] for f in a) for x in range(n))


def is_singular(a: tuple, lam: tuple) -> bool:
    """Whether the translated tuple ``(lam_i - a_i)`` has a common zero."""
    n = _check_tuple(a, lam)
    return any(all(f[x] == lam[i] for i, f in enumerate(a)) for x in range(n))


def singular_cross_checks(a: tuple, lam: tuple) -> dict:
    """The three independent singularity routes, reported together.

    ``pointwise``: some point realizes every coordinate of ``lam``.
    ``absolute_sum``: the positive element sum of |lam_i - a_i| fails to be
    invertible (vanishes somewhere).
    ``solvable``: the equation sum (lam_i - a_i) x_i = 1 admits the explicit
    pointwise solution x_i = conj(lam_i - a_i) / sum |lam_j - a_j|^2; the
    residual of that candidate is reported.  Singularity is equivalent to
    unsolvability.
    """
    n = _check_tuple(a, lam)
    diffs = [tuple(lam[i] - f[x] for x in range(n)) for i, f in enumerate(a)]
    pointwise = any(all(d[x] == 0 for d in diffs) for x in range(n))
    abs_sum = tuple(sum(abs(d[x]) for d in diffs) for x in range(n))
    not_invertible = any(s == 0 for s in abs_sum)
    sq_sum = tuple(sum(abs(d[x]) ** 2 for d in diffs) for x in range(n))
    if any(s == 0 for s in sq_sum):
        solvable, residual = False, None
    else:
        solution = [
            tuple(d[x].conjugate() / sq_sum[x] for x in range(n)) for d in diffs
        ]
        lhs = tuple(
            sum(d[x] * s[x] for d, s in zip(diffs, solution)) for x in range(n)
        )
        residual = max(abs(v - 1) for v in lhs)
        solvable = residual <= SOLVABILITY_RESIDUAL
    return {
        "pointwise": pointwise,
        "absolute_sum_not_invertible": not_invertible,
        "solvable": solvable,
        "solution_residual": residual,
    }


def spectrum_indicator(a: tuple, lam: tuple) -> float:
    """The value ``|1 - || (1 - sum_i |lam_i - a_i|)_+ ||``.

    Zero exactly on the joint spectrum; away from it the value is the
    distance-like defect ``min(1, pointwise distance to the spectrum in the
    sum metric)``.
    """
    n = _check_tuple(a, lam)
    s = [sum(abs(lam[i] - f[x]) for i, f in enumerate(a)) for x in range(n)]
    truncated = [max(1 - v, 0.0) for v in s]
    return abs(1 - max(truncated))


# ---------------------------------------------------------------------------
# Clopen coding
# ---------------------------------------------------------------------------


class ClopenCode(Frozen):
    """One labelled code set: the preimage of the open 1/m-ball at ``y``."""

    y: complex
    m: int
    points: frozenset


def clopen_code(f: tuple, m: int) -> tuple:
    """Code ``f`` by preimages of 1/m-balls centred on the (1/m)-grid.

    The grid is ``{(j1 + i*j2)/m : |j1| <= m, |j2| <= m}``, which covers the
    unit square and hence the closed unit disc; every value of ``f`` lies
    strictly within 1/m of some grid point, so the nonempty code sets cover
    the space.  All grid labels are emitted, empty preimages included, in
    lexicographic ``(j1, j2)`` order.  ``m`` is at most ``MAX_CODE_SCALE``.
    """
    if m < 1:
        raise PreconditionError("the grid parameter must be at least 1")
    if m > MAX_CODE_SCALE:
        raise ResourceBudgetError(f"scale {m} exceeds the cap {MAX_CODE_SCALE}")
    if c_norm(f) > 1:
        raise PreconditionError("coding requires a norm-at-most-1 element")
    codes = []
    for j1 in range(-m, m + 1):
        for j2 in range(-m, m + 1):
            y = complex(j1, j2) / m
            pts = frozenset(x for x, v in enumerate(f) if abs(v - y) < 1 / m)
            codes.append(ClopenCode(y=y, m=m, points=pts))
    return tuple(codes)


def reconstruct(codes) -> tuple:
    """Rebuild an element from labelled code sets.

    Only the finest scale present (largest ``m``) is used.  For every point
    the candidate labels are the grid points whose code set contains it; the
    reconstruction picks the candidate of minimal absolute value, breaking
    ties lexicographically by (real part, imaginary part).  The result is
    within 1/m of the coded element at every point.
    """
    codes = tuple(codes)
    if not codes:
        raise PreconditionError("at least one code set is required")
    finest = max(c.m for c in codes)
    at_scale = [c for c in codes if c.m == finest]
    covered = set()
    for c in at_scale:
        covered |= c.points
    if not covered:
        raise PreconditionError("the finest-scale code sets are all empty")
    n = max(covered) + 1
    values = []
    for x in range(n):
        candidates = [c.y for c in at_scale if x in c.points]
        if not candidates:
            raise PreconditionError(f"point {x} is not covered at the finest scale")
        values.append(min(candidates, key=lambda y: (abs(y), y.real, y.imag)))
    return tuple(values)


# ---------------------------------------------------------------------------
# Infinite-projection score
# ---------------------------------------------------------------------------


def psi_infinite_projection(p: tuple, algebra: CStarAlgebraFin) -> float:
    """The infinite-projection score of a projection ``p``.

    The score is ``||p - p*|| + ||p - p^2|| + inf_y (||y*y - p|| +
    ||(yy*)p - yy*|| + (1 - ||yy* - p||)_+)`` with the infimum over the
    finite set of partial isometries whose coordinates have modulus 0 or 1.
    Only ``|y|`` enters the score, so the infimum runs over the 2^n
    candidates with coordinates 0 and 1, one per modulus pattern; every
    other phase gives the same terms.  A zero would witness a proper
    subprojection equivalent to ``p``; in finite dimensions that is
    impossible, so the score stays at least 1/4 — in fact the infimum term
    alone contributes at least 1 here.
    """
    if algebra.point_count > MAX_PSI_POINTS:
        raise PreconditionError(
            f"the score is exhaustive only up to {MAX_PSI_POINTS} points"
        )
    if len(p) != algebra.point_count:
        raise PreconditionError("the projection does not live on this algebra")
    if not is_projection(p):
        raise PreconditionError("the score is defined on projections only")
    fixed = c_norm(c_sub(p, c_star(p))) + c_norm(c_sub(p, c_mul(p, p)))
    best = math.inf
    for y in projections(algebra):
        yy = c_mul(y, c_star(y))
        gap = c_norm(c_sub(yy, p))
        under = c_norm(c_sub(c_mul(yy, p), yy))
        best = min(best, gap + under + max(1 - gap, 0.0))
    return fixed + best
