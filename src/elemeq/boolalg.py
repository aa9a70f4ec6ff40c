"""Finite Boolean algebras, Stone duality, and an exhaustive first-order
model checker.

Elements of a finite Boolean algebra with ``n`` atoms are represented as
integer bitmasks over the atom indices ``0 .. n-1``; bit ``i`` set means the
element contains atom ``i``.  All ``2**n`` masks are elements, meet is ``&``,
join is ``|``, and complement flips the low ``n`` bits.  This extensional
representation keeps exhaustive quantification cheap enough for the model
checker, whose entire purpose is brute-force truth evaluation at small scale.

The module also provides the finite fragment of Stone duality (atoms as
points, preimage homomorphisms of point maps) and a deterministic generator
of first-order sentences used as a cross-validation corpus by the symbolic
classification and game modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError, ResourceBudgetError, frozen_shape

__all__ = [
    "FiniteBoolAlg",
    "FiniteSpace",
    "SpaceMap",
    "BAHomomorphism",
    "Subalgebra",
    "generate_subalgebra",
    "stone_space",
    "clopen_algebra",
    "compose_maps",
    "dual_morphism",
    "TVar",
    "TZero",
    "TOne",
    "TMeet",
    "TJoin",
    "TCompl",
    "Eq",
    "Le",
    "Not",
    "And",
    "Or",
    "Implies",
    "Forall",
    "Exists",
    "quantifier_rank",
    "free_variables",
    "fo_eval",
    "sentence_corpus",
]

#: Exhaustive evaluation budget: ``atom_count * quantifier_rank`` may not
#: exceed this exponent (the search tree has ``2**(atoms * rank)`` leaves).
FO_EVAL_BUDGET_EXPONENT = 24


# ---------------------------------------------------------------------------
# Algebras, spaces, and duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteBoolAlg:
    """The powerset algebra on ``atom_count`` atoms, elements as bitmasks."""

    atom_count: int

    def __post_init__(self) -> None:
        if self.atom_count < 0:
            raise PreconditionError("atom_count must be a natural number")

    @property
    def full(self) -> int:
        """The top element (all atoms)."""
        return (1 << self.atom_count) - 1

    def elements(self) -> range:
        """All ``2**atom_count`` elements in increasing mask order."""
        return range(1 << self.atom_count)

    def atoms(self) -> list[int]:
        """The atoms, as singleton masks."""
        return [1 << i for i in range(self.atom_count)]

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def complement(self, a: int) -> int:
        return self.full & ~a

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def is_atom(self, a: int) -> bool:
        return a != 0 and a & (a - 1) == 0

    def is_element(self, a: int) -> bool:
        return 0 <= a <= self.full


@dataclass(frozen=True)
class FiniteSpace:
    """A finite discrete space with points ``0 .. point_count-1``."""

    point_count: int

    def __post_init__(self) -> None:
        if self.point_count < 0:
            raise PreconditionError("point_count must be a natural number")

    def points(self) -> range:
        return range(self.point_count)


@dataclass(frozen=True)
class SpaceMap:
    """A total map between finite spaces; ``values[i]`` is the image of ``i``."""

    source: FiniteSpace
    target: FiniteSpace
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.source.point_count:
            raise PreconditionError("map must be total on the source points")
        if any(not 0 <= v < self.target.point_count for v in self.values):
            raise PreconditionError("map value outside the target space")

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def is_surjective(self) -> bool:
        return set(self.values) == set(self.target.points())


def compose_maps(g: SpaceMap, f: SpaceMap) -> SpaceMap:
    """The composite ``g after f`` as a single :class:`SpaceMap`."""
    if f.target != g.source:
        raise PreconditionError("maps are not composable")
    return SpaceMap(f.source, g.target, tuple(g.values[v] for v in f.values))


@dataclass(frozen=True)
class BAHomomorphism:
    """A homomorphism of finite Boolean algebras given by a dual point map.

    The homomorphism sends an element ``c`` of ``source`` to its preimage
    under ``point_map``: atom ``i`` of ``target`` lands in the image exactly
    when atom ``point_map[i]`` of ``source`` lies in ``c``.
    """

    source: FiniteBoolAlg
    target: FiniteBoolAlg
    point_map: tuple[int, ...]

    def apply(self, c: int) -> int:
        out = 0
        for i, p in enumerate(self.point_map):
            if c >> p & 1:
                out |= 1 << i
        return out

    def graph(self) -> tuple[int, ...]:
        """The full action table, indexed by source element."""
        return tuple(self.apply(c) for c in self.source.elements())

    def is_injective(self) -> bool:
        g = self.graph()
        return len(set(g)) == len(g)

    def is_surjective(self) -> bool:
        return len(set(self.graph())) == 1 << self.target.atom_count

    def check_laws(self) -> None:
        """Exhaustively verify that the action preserves the Boolean operations."""
        src, tgt = self.source, self.target
        if self.apply(0) != 0 or self.apply(src.full) != tgt.full:
            raise AssertionError("homomorphism does not preserve bounds")
        for a in src.elements():
            if self.apply(src.complement(a)) != tgt.complement(self.apply(a)):
                raise AssertionError("homomorphism does not preserve complement")
            for b in src.elements():
                if self.apply(a & b) != self.apply(a) & self.apply(b):
                    raise AssertionError("homomorphism does not preserve meet")


def stone_space(b: FiniteBoolAlg) -> FiniteSpace:
    """The dual space of a finite algebra: one point per atom.

    Every ultrafilter of a finite Boolean algebra is principal at an atom,
    so the dual space is discrete on ``atom_count`` points.
    """
    return FiniteSpace(b.atom_count)


def clopen_algebra(x: FiniteSpace) -> FiniteBoolAlg:
    """The algebra of (cl)open subsets of a finite discrete space."""
    return FiniteBoolAlg(x.point_count)


def dual_morphism(f: SpaceMap) -> BAHomomorphism:
    """The preimage homomorphism dual to a point map.

    For ``f`` mapping a space ``X`` into ``Y``, the dual sends a subset of
    ``Y`` to its preimage in ``X``; it runs contravariantly from the clopen
    algebra of the target to that of the source.  Injectivity of ``f`` forces
    surjectivity of the dual and vice versa; both implications are checked
    here, as are the homomorphism laws.
    """
    hom = BAHomomorphism(
        source=clopen_algebra(f.target),
        target=clopen_algebra(f.source),
        point_map=f.values,
    )
    hom.check_laws()
    if f.is_injective() and not hom.is_surjective():
        raise AssertionError("dual of an injective map must be surjective")
    if f.is_surjective() and not hom.is_injective():
        raise AssertionError("dual of a surjective map must be injective")
    return hom


@dataclass(frozen=True)
class Subalgebra:
    """A subalgebra together with its embedding into the parent.

    ``atom_images[i]`` is the parent element realizing atom ``i`` of the
    subalgebra; the embedding of an arbitrary subalgebra element is the join
    of its atoms' images.
    """

    algebra: FiniteBoolAlg
    parent: FiniteBoolAlg
    atom_images: tuple[int, ...]

    def embed(self, a: int) -> int:
        out = 0
        for i, img in enumerate(self.atom_images):
            if a >> i & 1:
                out |= img
        return out


def generate_subalgebra(parent: FiniteBoolAlg, gens) -> Subalgebra:
    """The smallest subalgebra of ``parent`` containing ``gens``.

    The subalgebra's atoms are the nonempty cells of the partition induced
    by the generators: two parent atoms fall in the same cell when every
    generator contains either both or neither.
    """
    gens = list(gens)
    for g in gens:
        if not parent.is_element(g):
            raise PreconditionError("generator is not an element of the parent")
    cells: dict[tuple[bool, ...], int] = {}
    for i in range(parent.atom_count):
        pattern = tuple(bool(g >> i & 1) for g in gens)
        cells[pattern] = cells.get(pattern, 0) | 1 << i
    atom_images = tuple(sorted(cells.values()))
    return Subalgebra(FiniteBoolAlg(len(atom_images)), parent, atom_images)


# ---------------------------------------------------------------------------
# First-order formulas over the Boolean-algebra signature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TZero:
    pass


@dataclass(frozen=True)
class TOne:
    pass


# One dataclass per node shape; its generated == still tells the subclasses apart.
@frozen_shape
class _Pair:
    left: object
    right: object


@frozen_shape
class _Unary:
    arg: object


@frozen_shape
class _Quantifier:
    var: str
    body: object


class TMeet(_Pair):
    pass


class TJoin(_Pair):
    pass


class TCompl(_Unary):
    pass


class Eq(_Pair):
    pass


class Le(_Pair):
    pass


class Not(_Unary):
    pass


class And(_Pair):
    pass


class Or(_Pair):
    pass


class Implies(_Pair):
    pass


class Forall(_Quantifier):
    pass


class Exists(_Quantifier):
    pass


def quantifier_rank(phi) -> int:
    """The quantifier rank (maximum nesting depth of quantifiers)."""
    if isinstance(phi, (Eq, Le)):
        return 0
    if isinstance(phi, Not):
        return quantifier_rank(phi.arg)
    if isinstance(phi, (And, Or, Implies)):
        return max(quantifier_rank(phi.left), quantifier_rank(phi.right))
    if isinstance(phi, (Forall, Exists)):
        return 1 + quantifier_rank(phi.body)
    raise PreconditionError(f"not a formula node: {phi!r}")


def _term_variables(t) -> set[str]:
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, (TZero, TOne)):
        return set()
    if isinstance(t, (TMeet, TJoin)):
        return _term_variables(t.left) | _term_variables(t.right)
    if isinstance(t, TCompl):
        return _term_variables(t.arg)
    raise PreconditionError(f"not a term node: {t!r}")


def free_variables(phi) -> set[str]:
    """The free variables of a formula."""
    return _without_vacuous(phi)[1]


def _without_vacuous(phi) -> tuple:
    """``phi`` without the quantifiers whose body ignores their variable (the
    domain is never empty, so no truth value changes), and its free variables."""
    if isinstance(phi, (Eq, Le)):
        return phi, _term_variables(phi.left) | _term_variables(phi.right)
    if isinstance(phi, Not):
        arg, free = _without_vacuous(phi.arg)
        return (phi if arg is phi.arg else Not(arg)), free
    if isinstance(phi, (And, Or, Implies)):
        left, free_left = _without_vacuous(phi.left)
        right, free_right = _without_vacuous(phi.right)
        if left is not phi.left or right is not phi.right:
            phi = type(phi)(left, right)
        return phi, free_left | free_right
    if isinstance(phi, (Forall, Exists)):
        body, free = _without_vacuous(phi.body)
        if phi.var not in free:
            return body, free
        return (phi if body is phi.body else type(phi)(phi.var, body)), free - {phi.var}
    raise PreconditionError(f"not a formula node: {phi!r}")


def _eval_term(t, b: FiniteBoolAlg, env: dict[str, int]) -> int:
    if isinstance(t, TVar):
        try:
            return env[t.name]
        except KeyError:
            raise PreconditionError(f"unbound variable: {t.name}") from None
    if isinstance(t, TZero):
        return 0
    if isinstance(t, TOne):
        return b.full
    if isinstance(t, TMeet):
        return _eval_term(t.left, b, env) & _eval_term(t.right, b, env)
    if isinstance(t, TJoin):
        return _eval_term(t.left, b, env) | _eval_term(t.right, b, env)
    if isinstance(t, TCompl):
        return b.full & ~_eval_term(t.arg, b, env)
    raise PreconditionError(f"not a term node: {t!r}")


def _eval(phi, b: FiniteBoolAlg, env: dict[str, int]) -> bool:
    if isinstance(phi, Eq):
        return _eval_term(phi.left, b, env) == _eval_term(phi.right, b, env)
    if isinstance(phi, Le):
        s = _eval_term(phi.left, b, env)
        t = _eval_term(phi.right, b, env)
        return s & ~t == 0
    if isinstance(phi, Not):
        return not _eval(phi.arg, b, env)
    if isinstance(phi, And):
        return _eval(phi.left, b, env) and _eval(phi.right, b, env)
    if isinstance(phi, Or):
        return _eval(phi.left, b, env) or _eval(phi.right, b, env)
    if isinstance(phi, Implies):
        return not _eval(phi.left, b, env) or _eval(phi.right, b, env)
    if isinstance(phi, (Forall, Exists)):
        # an inner binder shadows an outer one of the same name only while it runs
        wanted, outer = isinstance(phi, Exists), env.get(phi.var)
        result = not wanted
        for a in b.elements():
            env[phi.var] = a
            if _eval(phi.body, b, env) == wanted:
                result = wanted
                break
        if outer is None:
            env.pop(phi.var, None)
        else:
            env[phi.var] = outer
        return result
    raise PreconditionError(f"not a formula node: {phi!r}")


def fo_eval(phi, b: FiniteBoolAlg, assignment: dict[str, int] | None = None) -> bool:
    """Tarskian truth of ``phi`` in ``b`` by exhaustive quantification.

    ``assignment`` must cover the free variables of ``phi``.  The search
    tree has ``2**(atom_count * quantifier_rank)`` leaves; evaluation is
    refused with :class:`ResourceBudgetError` when that exponent exceeds
    ``FO_EVAL_BUDGET_EXPONENT``.
    """
    env = dict(assignment) if assignment else {}
    body, free = _without_vacuous(phi)
    missing = free - set(env)
    if missing:
        raise PreconditionError(f"assignment misses free variables: {sorted(missing)}")
    cost = b.atom_count * quantifier_rank(phi)
    if cost > FO_EVAL_BUDGET_EXPONENT:
        raise ResourceBudgetError(
            f"exhaustive evaluation budget exceeded: 2**{cost} leaves"
        )
    return _eval(body, b, env)


# ---------------------------------------------------------------------------
# Sentence corpus
# ---------------------------------------------------------------------------


def _nonzero(t) -> Not:
    return Not(Eq(t, TZero()))


def _disjoint(s, t) -> Eq:
    return Eq(TMeet(s, t), TZero())


def _is_atom(var: str, witness: str) -> And:
    """``var`` is an atom: nonzero, and no element sits strictly below it."""
    below = Implies(
        Le(TVar(witness), TVar(var)),
        Or(Eq(TVar(witness), TZero()), Eq(TVar(witness), TVar(var))),
    )
    return And(_nonzero(TVar(var)), Forall(witness, below))


def _core_battery() -> list:
    """Hand-built sentences that separate small powerset algebras.

    The battery is ordered by quantifier rank and covers: nontriviality,
    atom existence, counts of pairwise-disjoint nonzero elements, and a
    rank-3 sentence splitting a fourth cell (true first at five atoms).
    """
    x, y, z = TVar("x"), TVar("y"), TVar("z")
    battery = [
        # Rank 1: some element other than the bounds exists (fails at 1 atom).
        Exists("x", And(_nonzero(x), Not(Eq(x, TOne())))),
        # Rank 1: idempotence of meet (true everywhere; sanity anchor).
        Forall("x", Eq(TMeet(x, x), x)),
        # Rank 2: an atom exists (true in every nontrivial finite algebra).
        Exists("x", _is_atom("x", "y")),
        # Rank 2: two disjoint nonzero elements exist (fails at 1 atom).
        Exists("x", Exists("y", And(And(_nonzero(x), _nonzero(y)), _disjoint(x, y)))),
        # Rank 2: two disjoint nonzero elements that do not exhaust the top
        # (true from 3 atoms on).
        Exists(
            "x",
            Exists(
                "y",
                And(
                    And(And(_nonzero(x), _nonzero(y)), _disjoint(x, y)),
                    Not(Eq(TJoin(x, y), TOne())),
                ),
            ),
        ),
        # Rank 3: three pairwise-disjoint nonzero elements that do not
        # exhaust the top (true from 4 atoms on).
        Exists(
            "x",
            Exists(
                "y",
                Exists(
                    "z",
                    And(
                        And(
                            And(And(_nonzero(x), _nonzero(y)), _nonzero(z)),
                            And(And(_disjoint(x, y), _disjoint(x, z)), _disjoint(y, z)),
                        ),
                        Not(Eq(TJoin(TJoin(x, y), z), TOne())),
                    ),
                ),
            ),
        ),
        # Rank 3: the four cells of x, y are nonempty and z properly splits
        # the outer cell (true from 5 atoms on).
        Exists(
            "x",
            Exists(
                "y",
                Exists(
                    "z",
                    And(
                        And(
                            And(_nonzero(TMeet(x, y)), _nonzero(TMeet(x, TCompl(y)))),
                            And(
                                _nonzero(TMeet(TCompl(x), y)),
                                _nonzero(z),
                            ),
                        ),
                        And(
                            _disjoint(z, TJoin(x, y)),
                            Not(Eq(z, TCompl(TJoin(x, y)))),
                        ),
                    ),
                ),
            ),
        ),
        # Rank 3: every nonzero element has an atom below it (atomicity;
        # true in every finite algebra).
        Forall(
            "x",
            Implies(
                _nonzero(x),
                Exists("y", And(_is_atom("y", "z"), Le(y, x))),
            ),
        ),
    ]
    return battery


def _random_term(rng: random.Random, variables: list[str], depth: int):
    if depth == 0 or rng.random() < 0.35:
        choice = rng.randrange(len(variables) + 2)
        if choice < len(variables):
            return TVar(variables[choice])
        return TZero() if choice == len(variables) else TOne()
    op = rng.randrange(3)
    if op == 0:
        return TMeet(
            _random_term(rng, variables, depth - 1),
            _random_term(rng, variables, depth - 1),
        )
    if op == 1:
        return TJoin(
            _random_term(rng, variables, depth - 1),
            _random_term(rng, variables, depth - 1),
        )
    return TCompl(_random_term(rng, variables, depth - 1))


def _random_body(rng: random.Random, variables: list[str], depth: int):
    if depth == 0 or rng.random() < 0.4:
        s = _random_term(rng, variables, 2)
        t = _random_term(rng, variables, 2)
        atom = Eq(s, t) if rng.random() < 0.5 else Le(s, t)
        return Not(atom) if rng.random() < 0.3 else atom
    op = rng.randrange(3)
    left = _random_body(rng, variables, depth - 1)
    right = _random_body(rng, variables, depth - 1)
    if op == 0:
        return And(left, right)
    if op == 1:
        return Or(left, right)
    return Implies(left, right)


def sentence_corpus(count: int = 200, max_rank: int = 3, seed: int = 2026) -> list:
    """A deterministic corpus of closed sentences of quantifier rank <= ``max_rank``.

    The corpus opens with a fixed battery of hand-built separating sentences
    (atom counts 1 through 5 are pairwise distinguished) and is padded to
    ``count`` with seeded random sentences.  The same arguments always yield
    the same list.
    """
    corpus = [phi for phi in _core_battery() if quantifier_rank(phi) <= max_rank]
    corpus = corpus[:count]
    rng = random.Random(seed)
    names = ["x", "y", "z", "u"]
    while len(corpus) < count:
        rank = rng.randint(1, max_rank)
        variables = names[:rank]
        body = _random_body(rng, variables, 2)
        phi = body
        for var in reversed(variables):
            phi = Forall(var, phi) if rng.random() < 0.5 else Exists(var, phi)
        corpus.append(phi)
    return corpus
