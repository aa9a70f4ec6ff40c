"""Raw reference back-and-forth game over explicit positions.

The oracle shares nothing with the solvers in :mod:`elemeq.efgames`: it
plays the game move by move over concrete points (order indices, or
element bitmasks of a powerset algebra) and decides it by plain minimax,
with no position abstraction and no move pruning.  The tests compare the
type-arithmetic solvers with it on tiny instances, where the full game
tree fits in ``MAX_RAW_LEAVES`` leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from elemeq.errors import PreconditionError, ResourceBudgetError

#: Leaf-count cap for the raw reference solver.
MAX_RAW_LEAVES = 4_000_000


# ---------------------------------------------------------------------------
# Raw reference game over explicit positions
# ---------------------------------------------------------------------------

_KNOWN_KINDS = ("order", "powerset")


@dataclass(frozen=True)
class GamePosition:
    """A concrete game state: two structures, matched tuples, rounds left.

    Structures are identified by ``(kind, size)`` pairs where ``kind`` is
    ``"order"`` (a linear order with ``size`` points) or ``"powerset"`` (the
    Boolean algebra with ``size`` atoms).  ``left_points[i]`` was matched
    with ``right_points[i]``; for orders the points are indices, for
    powerset algebras they are element bitmasks.
    """

    left: tuple[str, int]
    right: tuple[str, int]
    left_points: tuple[int, ...] = ()
    right_points: tuple[int, ...] = ()
    rounds: int = 0

    def __post_init__(self) -> None:
        if len(self.left_points) != len(self.right_points):
            raise PreconditionError("matched tuples must have equal length")
        if self.rounds < 0:
            raise PreconditionError("rounds remaining must be a natural number")
        for kind, size in (self.left, self.right):
            if kind not in _KNOWN_KINDS:
                raise PreconditionError(f"unknown structure kind: {kind!r}")
            if size < 0:
                raise PreconditionError("structure size must be a natural number")
        if self.left[0] != self.right[0]:
            raise PreconditionError("structures must share a signature")


def _order_partial_iso(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for i in range(len(a)):
        for j in range(len(a)):
            if (a[i] < a[j]) != (b[i] < b[j]) or (a[i] == a[j]) != (b[i] == b[j]):
                return False
    return True


def _powerset_patterns(atom_count: int, chosen: tuple[int, ...]) -> frozenset:
    """The set of membership patterns realized by some atom.

    Pattern bit ``i`` records whether the atom lies in the ``i``-th chosen
    element; the pattern set determines the subalgebra generated by the
    chosen tuple up to isomorphism-respecting-the-tuple.
    """
    patterns = set()
    for atom in range(atom_count):
        p = 0
        for i, elem in enumerate(chosen):
            if elem >> atom & 1:
                p |= 1 << i
        patterns.add(p)
    return frozenset(patterns)


def _is_partial_iso(pos: GamePosition) -> bool:
    kind = pos.left[0]
    if kind == "order":
        return _order_partial_iso(pos.left_points, pos.right_points)
    left = _powerset_patterns(pos.left[1], pos.left_points)
    right = _powerset_patterns(pos.right[1], pos.right_points)
    return left == right


def _universe(structure: tuple[str, int]) -> range:
    kind, size = structure
    if kind == "order":
        return range(size)
    return range(1 << size)


def duplicator_wins(pos: GamePosition) -> bool:
    """Decide the raw game by minimax over concrete moves.

    This is the reference implementation: no position abstraction, no move
    pruning.  It is exponentially expensive and refuses (with
    :class:`ResourceBudgetError`) positions whose full game tree exceeds
    ``MAX_RAW_LEAVES`` leaves.
    """
    branch = (len(_universe(pos.left)) + len(_universe(pos.right))) ** 2
    if branch**pos.rounds > MAX_RAW_LEAVES:
        raise ResourceBudgetError("raw game tree exceeds the search budget")
    return _raw_value(pos)


def _raw_value(pos: GamePosition) -> bool:
    if not _is_partial_iso(pos):
        return False
    if pos.rounds == 0:
        return True
    for spoiler_left in (True, False):
        src = pos.left if spoiler_left else pos.right
        dst = pos.right if spoiler_left else pos.left
        for a in _universe(src):
            answered = False
            for b in _universe(dst):
                if spoiler_left:
                    nxt = GamePosition(
                        pos.left,
                        pos.right,
                        pos.left_points + (a,),
                        pos.right_points + (b,),
                        pos.rounds - 1,
                    )
                else:
                    nxt = GamePosition(
                        pos.left,
                        pos.right,
                        pos.left_points + (b,),
                        pos.right_points + (a,),
                        pos.rounds - 1,
                    )
                if _raw_value(nxt):
                    answered = True
                    break
            if not answered:
                return False
    return True
