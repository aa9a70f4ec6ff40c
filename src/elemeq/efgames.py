"""Back-and-forth game solvers for linear orders and finite Boolean algebras.

Three deciders for rank-``r`` back-and-forth equivalence:

* :func:`ef_ordinals` — ordinal linear orders below ``omega**omega * omega``,
  decided exactly by compositional type arithmetic: the hereditary rank-``r``
  type of a sum is computed from the types of the summands, and the type of
  an ``omega``-power from the orbit of the multiply-by-``omega`` operator.
  No move-set heuristics are involved; the computation is exact.
* :func:`ef_finite_orders` — finite linear orders given by size, decided by
  the same type arithmetic: ``n`` points are ``n`` copies of a singleton.
* :func:`ef_finite_bas` — finite powerset algebras, decided over abstracted
  positions (cell-size vectors of the partition generated by played
  elements), with the end condition that played tuples generate isomorphic
  subalgebras.

Rank-``r`` equivalence of two structures holds exactly when their rank-``r``
types coincide; every solver here computes those types bottom-up rather than
searching the game tree move by move, which keeps the recursion polynomial
in the number of distinct positions.  The raw move-by-move game that checks
them on tiny instances lives with the test oracles, in
``tests/oracle_games.py``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .boolalg import FiniteBoolAlg
from .errors import PreconditionError, ResourceBudgetError
from .ordinals import OMEGA, Ordinal, finite

__all__ = [
    "ef_finite_orders",
    "ef_ordinals",
    "ef_finite_bas",
]

#: Rank cap for the finite-order solver.
MAX_RANK_ORDERS = 6
#: Size cap for the finite-order solver.  Sizes from ``2**rank - 1`` on
#: share one type, so the cycle cut-off of the repetition stops after at
#: most ``2**rank`` sums whatever the size.
MAX_SIZE_ORDERS = 1000
#: Rank cap for the ordinal solver.
MAX_RANK_ORDINALS = 4
#: Rank cap for the Boolean-algebra solver.
MAX_RANK_BAS = 3
#: Atom cap for the Boolean-algebra solver.
MAX_ATOMS_BAS = 5


# ---------------------------------------------------------------------------
# Linear orders: compositional type arithmetic
# ---------------------------------------------------------------------------
#
# The hereditary rank-r type of a linear order L is
#
#     T_r(L) = (r, T_{r-1}(L), { (T_{r-1}(L_<x), T_{r-1}(L_>x)) : x in L })
#
# with T_0(L) a single constant.  Equality of hereditary types is exactly
# rank-r equivalence: playing x splits the order into the independent
# intervals below and above x, and the remaining game composes over the
# split.  Types of compound orders are computed without enumerating points:
#
#   * sum rule:  the splits of A + B are the splits of A with B appended on
#     the right, plus the splits of B with A prepended on the left;
#   * repetition rule: T(L * k) is an iterated sum, short-circuited by value
#     cycle detection, so arbitrary finite coefficients cost O(cycle);
#   * omega rule: a split of L * omega lands in some copy k, leaving
#     L * k + (prefix of L) on the left and (suffix of L) + L * omega on the
#     right; the set of prefix types {T(L * k) : k} is the orbit of the
#     "add T(L)" map and is computed exactly by cycle detection;
#   * omega-power rule: T(omega**f) is the f-th step of the "* omega" orbit
#     from a singleton, and T(omega**omega) is the orbit's fixed point P_r.
#     Every split of omega**f (f >= 1) or of omega**omega leaves the whole
#     order on the right.  By induction on r the orbit settles: once
#     T_{r-1}(omega**f) = P_{r-1}, the ordinals below omega**omega realize
#     no rank r-1 type that those below omega**(f+1) miss, since lowering
#     each exponent >= f+1 of such an ordinal to f keeps its rank r-1 type
#     under the sum rule.  So T_r(omega**(f+1)) = T_r(omega**omega) = P_r
#     from there on, and the sub-type of a fixed point is the rank r-1
#     fixed point.  The solver still checks that P_r is fixed before use.
#
# All rules are exact; no theorem about which moves "suffice" is assumed.

_T0 = (0,)

_intern_table: dict = {}


def _intern(value):
    return _intern_table.setdefault(value, value)


@lru_cache(maxsize=None)
def _type_empty(rank: int):
    if rank == 0:
        return _T0
    return _intern((rank, _type_empty(rank - 1), frozenset()))


@lru_cache(maxsize=None)
def _type_singleton(rank: int):
    if rank == 0:
        return _T0
    z = _type_empty(rank - 1)
    return _intern((rank, _type_singleton(rank - 1), frozenset({(z, z)})))


@lru_cache(maxsize=None)
def _type_sum(a, b):
    """The hereditary type of ``A + B`` from the types of ``A`` and ``B``."""
    if a[0] == 0:
        return _T0
    sub = _type_sum(a[1], b[1])
    pairs = set()
    for left, right in a[2]:
        pairs.add((left, _type_sum(right, b[1])))
    for left, right in b[2]:
        pairs.add((_type_sum(a[1], left), right))
    return _intern((a[0], sub, frozenset(pairs)))


def _orbit(step, start, count: int | None = None):
    """``step`` applied ``count`` times to ``start`` or, without ``count``, the
    list of values ``step**k(start)`` up to the first repeat; either way the
    iteration stops at the first repeated value."""
    index, values = {start: 0}, [start]
    while count is None or len(values) <= count:
        current = step(values[-1])
        if current in index:
            if count is None:
                return values
            first = index[current]
            return values[first + (count - first) % (len(values) - first)]
        index[current] = len(values)
        values.append(current)
    return values[count]


def _type_repeat(t, count: int):
    """The hereditary type of ``L * count`` from the type of ``L``."""
    zero = _type_empty(t[0])
    return _orbit(lambda s: _type_sum(s, t), zero, count)


@lru_cache(maxsize=None)
def _type_mul_omega(t):
    """The hereditary type of ``L * omega`` from the hereditary type of ``L``."""
    if t[0] == 0:
        return _T0
    sub = _type_mul_omega(t[1])
    prefixes = _orbit(lambda s: _type_sum(s, t[1]), _type_empty(t[0] - 1))
    pairs = set()
    for left, right in t[2]:
        tail = _type_sum(right, sub)
        for prefix in prefixes:
            pairs.add((_type_sum(prefix, left), tail))
    return _intern((t[0], sub, frozenset(pairs)))


@lru_cache(maxsize=None)
def _type_omega_power(exponent: int | None, rank: int):
    """The hereditary type of ``omega**exponent``; ``None`` stands for omega.

    A finite exponent counts steps of the ``* omega`` orbit from a singleton;
    omega takes the orbit's fixed point, which the comment above justifies.
    """
    if exponent is not None:
        return _orbit(_type_mul_omega, _type_singleton(rank), exponent)
    fixed = _orbit(_type_mul_omega, _type_singleton(rank))[-1]
    if _type_mul_omega(fixed) != fixed:
        raise ResourceBudgetError(f"the omega-power types of rank {rank} do not settle")
    return fixed


def _ordinal_type(alpha: Ordinal, rank: int):
    """The hereditary rank-``rank`` type of the ordinal ``alpha`` as an order."""
    acc = _type_empty(rank)
    for exponent, coeff in alpha.terms:
        if exponent.is_finite():
            block = _type_omega_power(exponent.to_int(), rank)
        elif exponent == OMEGA:
            block = _type_omega_power(None, rank)
        else:
            raise ResourceBudgetError(
                "ordinal outside the supported domain (term exponent above omega)"
            )
        acc = _type_sum(acc, _type_repeat(block, coeff))
    return acc


def ef_ordinals(a: Ordinal, b: Ordinal, rank: int) -> bool:
    """Duplicator wins the rank-``rank`` game on ordinals ``a``, ``b`` as orders.

    Supported domain: both ordinals below ``omega**omega * omega`` (every
    term exponent at most ``omega``) and ``rank`` at most
    ``MAX_RANK_ORDINALS``; outside it a :class:`ResourceBudgetError` is
    raised rather than a guess returned.
    """
    if rank < 0:
        raise PreconditionError("rank must be a natural number")
    if rank > MAX_RANK_ORDINALS:
        raise ResourceBudgetError(f"rank {rank} exceeds the cap {MAX_RANK_ORDINALS}")
    return _ordinal_type(a, rank) == _ordinal_type(b, rank)


def ef_finite_orders(m: int, n: int, rank: int) -> bool:
    """Duplicator wins the rank-``rank`` game on linear orders of sizes ``m``, ``n``."""
    if m < 0 or n < 0 or rank < 0:
        raise PreconditionError("sizes and rank must be natural numbers")
    if rank > MAX_RANK_ORDERS:
        raise ResourceBudgetError(f"rank {rank} exceeds the cap {MAX_RANK_ORDERS}")
    if max(m, n) > MAX_SIZE_ORDERS:
        raise ResourceBudgetError(f"size exceeds the cap {MAX_SIZE_ORDERS}")
    return _ordinal_type(finite(m), rank) == _ordinal_type(finite(n), rank)


# ---------------------------------------------------------------------------
# Finite Boolean algebras: cell-size abstraction
# ---------------------------------------------------------------------------
#
# After k elements are played in a powerset algebra, the only data relevant
# to the remaining game is how many atoms lie in each of the 2**k
# membership-pattern cells (atom permutations are automorphisms, and they
# act transitively on elements with equal cell counts).  A position is the
# vector of those cell sizes; a move chooses how many atoms to take from
# each cell.  At the end of play the tuples generate isomorphic subalgebras
# exactly when the same pattern cells are nonempty on both sides.

@lru_cache(maxsize=None)
def _ba_type(cells: tuple[int, ...], rank: int):
    occupied = frozenset(p for p, size in enumerate(cells) if size)
    if rank == 0:
        return (occupied,)
    children = set()
    for taken in itertools.product(*(range(size + 1) for size in cells)):
        nxt = tuple(size - t for size, t in zip(cells, taken)) + taken
        children.add(_ba_type(nxt, rank - 1))
    return (occupied, frozenset(children))


def ef_finite_bas(b1: FiniteBoolAlg, b2: FiniteBoolAlg, rank: int) -> bool:
    """Duplicator wins the rank-``rank`` game on two finite powerset algebras.

    Moves range over all elements of either algebra; the end condition is
    that the matched tuples generate isomorphic subalgebras (the correct
    atomic-formula test in a signature with meet, join, and complement).
    """
    if rank < 0:
        raise PreconditionError("rank must be a natural number")
    if rank > MAX_RANK_BAS:
        raise ResourceBudgetError(f"rank {rank} exceeds the cap {MAX_RANK_BAS}")
    if max(b1.atom_count, b2.atom_count) > MAX_ATOMS_BAS:
        raise ResourceBudgetError(f"atom count exceeds the cap {MAX_ATOMS_BAS}")
    return _ba_type((b1.atom_count,), rank) == _ba_type((b2.atom_count,), rank)
