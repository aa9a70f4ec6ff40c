"""Tests for the symbolic Boolean-algebra classification."""

import random
import re

import pytest

from elemeq import batheory
from elemeq.batheory import (
    OMEGA_ATOMS,
    ErshovInvariant,
    FinCof,
    Finite,
    FreeAtomless,
    IntervalAlgebra,
    PowersetModFin,
    PowersetOmega,
    Product,
    Trivial,
    atom_count,
    ba_derivative,
    ba_equiv,
    classification_conflict,
    cstar_equiv,
    derivative_chain,
    descriptor_corpus,
    enumerate_theories,
    ershov_invariants,
    format_descriptor,
    has_atomless_element,
    is_atomic,
)
from elemeq.boolalg import FiniteBoolAlg
from elemeq.cli import parse_descriptor
from elemeq.efgames import ef_finite_bas
from elemeq.errors import PreconditionError, ResourceBudgetError
from elemeq.ordinals import Ordinal, finite

from util import (
    check_frozen_nodes,
    check_node_shape,
    mk,
    reference_atom_count,
    reference_ba_derivative,
    reference_classification_conflict,
    reference_derivative_chain,
    reference_ershov_invariants,
    reference_format_descriptor,
    reference_has_atomless_element,
    w,
)


def intalg(*term_pairs):
    return IntervalAlgebra(mk(list(term_pairs)))


# ---------------------------------------------------------------------------
# Descriptor construction and formatting
# ---------------------------------------------------------------------------


def test_descriptor_validation():
    with pytest.raises(PreconditionError):
        Finite(0)
    with pytest.raises(PreconditionError):
        IntervalAlgebra(Ordinal(()))
    with pytest.raises(PreconditionError):
        IntervalAlgebra(Ordinal(((w(1), 1),)))  # exponent omega is not finite
    with pytest.raises(PreconditionError):
        Product(())
    with pytest.raises(PreconditionError):
        Product(("not a descriptor",))


def test_named_descriptor_shape():
    named = (Trivial, FinCof, PowersetOmega, PowersetModFin, FreeAtomless)
    check_node_shape(named, (), (), "Trivial()")


def test_every_descriptor_refuses_new_attributes():
    named = [cls() for cls in (Trivial, FinCof, PowersetOmega, PowersetModFin, FreeAtomless)]
    nodes = named + [Finite(2), intalg((1, 1)), Product((Finite(2), FreeAtomless()))]
    check_frozen_nodes(nodes, (batheory._Named,))


def test_format_descriptor_frozen_strings():
    assert format_descriptor(Trivial()) == "trivial"
    assert format_descriptor(Finite(3)) == "finite(3)"
    assert format_descriptor(FinCof()) == "fincof"
    assert format_descriptor(PowersetOmega()) == "P(omega)"
    assert format_descriptor(PowersetModFin()) == "P(omega)/fin"
    assert format_descriptor(FreeAtomless()) == "free"
    assert format_descriptor(intalg((2, 2), (1, 3), (0, 4))) == "intalg(w^2*2+w*3+4)"
    assert format_descriptor(intalg((1, 1))) == "intalg(w)"
    assert (
        format_descriptor(Product((Finite(2), FreeAtomless())))
        == "prod(finite(2),free)"
    )


def test_structural_predicates():
    assert atom_count(Finite(5)) == 5
    assert atom_count(FinCof()) == OMEGA_ATOMS
    assert atom_count(PowersetOmega()) == OMEGA_ATOMS
    assert atom_count(PowersetModFin()) == 0
    assert atom_count(FreeAtomless()) == 0
    assert atom_count(intalg((0, 4))) == 4
    assert atom_count(intalg((1, 1))) == OMEGA_ATOMS
    assert atom_count(Product((Finite(2), Finite(3)))) == 5
    assert atom_count(Product((Finite(2), FinCof()))) == OMEGA_ATOMS

    assert has_atomless_element(FreeAtomless())
    assert has_atomless_element(PowersetModFin())
    assert not has_atomless_element(PowersetOmega())
    assert not has_atomless_element(intalg((3, 2)))
    assert has_atomless_element(Product((Finite(1), FreeAtomless())))

    assert is_atomic(FinCof())
    assert is_atomic(PowersetOmega())
    assert is_atomic(intalg((2, 1)))
    assert not is_atomic(FreeAtomless())
    assert not is_atomic(Product((Finite(1), FreeAtomless())))


# ---------------------------------------------------------------------------
# Derivative rewriting
# ---------------------------------------------------------------------------


def test_derivative_frozen_examples():
    assert ba_derivative(Finite(7)) == Trivial()
    assert ba_derivative(FreeAtomless()) == Trivial()
    assert ba_derivative(FinCof()) == Finite(1)
    assert ba_derivative(PowersetOmega()) == PowersetModFin()
    assert ba_derivative(PowersetModFin()) == Trivial()
    assert ba_derivative(intalg((2, 2), (1, 3), (0, 4))) == intalg((1, 2), (0, 3))
    assert ba_derivative(intalg((0, 9))) == Trivial()
    assert ba_derivative(Product((Finite(2), FinCof()))) == Product((Finite(1),))
    assert ba_derivative(Product((Finite(2), Finite(3)))) == Trivial()


def test_derivative_chain_examples():
    chain = derivative_chain(PowersetOmega())
    assert chain == [PowersetOmega(), PowersetModFin(), Trivial()]
    chain = derivative_chain(intalg((2, 1)))
    assert chain == [intalg((2, 1)), intalg((1, 1)), intalg((0, 1)), Trivial()]
    assert derivative_chain(Trivial()) == [Trivial()]


def test_chain_length_matches_leading_exponent():
    # For an interval algebra the chain takes one step per exponent level
    # plus the final step that kills the finite remainder.
    for top in range(5):
        for coeff in (1, 2, 3):
            d = intalg((top, coeff))
            assert len(derivative_chain(d)) - 1 == top + 1
    # Lower-order terms never extend the chain.
    assert len(derivative_chain(intalg((4, 2), (2, 3), (0, 1)))) - 1 == 5
    assert len(derivative_chain(intalg((3, 1), (1, 2)))) - 1 == 4


# ---------------------------------------------------------------------------
# Invariants and equivalence
# ---------------------------------------------------------------------------


def test_invariants_frozen_values():
    assert ershov_invariants(Trivial()).as_tuple() == (0, 0, False)
    assert ershov_invariants(Finite(3)).as_tuple() == (0, 3, False)
    assert ershov_invariants(FreeAtomless()).as_tuple() == (0, 0, True)
    assert ershov_invariants(PowersetModFin()).as_tuple() == (0, 0, True)
    assert ershov_invariants(PowersetOmega()).as_tuple() == (1, 0, True)
    assert ershov_invariants(FinCof()).as_tuple() == (1, 1, False)
    assert ershov_invariants(intalg((1, 1))).as_tuple() == (1, 1, False)
    assert ershov_invariants(intalg((1, 2))).as_tuple() == (1, 2, False)
    assert ershov_invariants(intalg((3, 2), (1, 5))).as_tuple() == (3, 2, False)


def test_equivalence_frozen_verdicts():
    assert ba_equiv(PowersetModFin(), FreeAtomless())
    assert ba_equiv(FinCof(), intalg((1, 1)))
    assert not ba_equiv(Finite(2), Finite(3))
    assert not ba_equiv(intalg((1, 1)), intalg((1, 2)))
    assert not ba_equiv(FinCof(), PowersetOmega())
    assert not ba_equiv(PowersetOmega(), FreeAtomless())
    assert cstar_equiv(FreeAtomless(), PowersetModFin())
    assert not cstar_equiv(PowersetOmega(), FreeAtomless())


def test_equivalence_is_an_equivalence_relation():
    corpus = descriptor_corpus()
    inv = {i: ershov_invariants(d) for i, d in enumerate(corpus)}
    # ba_equiv is definitionally invariant equality; verify agreement on a
    # pairwise sweep so a broken __eq__ or cache cannot slip through.
    for i, di in enumerate(corpus):
        assert ba_equiv(di, di)
        for j in range(i + 1, len(corpus)):
            forward = ba_equiv(di, corpus[j])
            assert forward == ba_equiv(corpus[j], di)
            assert forward == (inv[i] == inv[j])


def test_finite_descriptors_match_concrete_games():
    for m in range(1, 5):
        for n in range(1, 5):
            assert ba_equiv(Finite(m), Finite(n)) == (m == n)
            assert ef_finite_bas(FiniteBoolAlg(m), FiniteBoolAlg(n), 3) == (m == n)


def test_product_laws():
    corpus = [d for d in descriptor_corpus() if not isinstance(d, Product)]
    for a in corpus:
        assert ba_equiv(Product((a, Trivial())), a)
        for b in corpus:
            assert ba_equiv(Product((a, b)), Product((b, a)))
            # The product's last nontrivial stage is driven by the factors
            # that survive longest.
            ia, ib = ershov_invariants(a), ershov_invariants(b)
            level = max(ia.level, ib.level)
            tops = [i for i in (ia, ib) if i.level == level]
            expected = ErshovInvariant(
                level,
                sum(i.atom_count for i in tops),
                any(i.atomless_flag for i in tops),
            )
            assert ershov_invariants(Product((a, b))) == expected
    a, b, c = Finite(2), FinCof(), FreeAtomless()
    assert ba_equiv(Product((a, Product((b, c)))), Product((a, b, c)))


# ---------------------------------------------------------------------------
# Conflict notes
# ---------------------------------------------------------------------------


def test_conflict_note_for_atomic_infinite_pairs():
    for d1, d2 in [
        (FinCof(), PowersetOmega()),
        (intalg((1, 1)), intalg((1, 2))),
    ]:
        note = classification_conflict(d1, d2)
        assert note is not None
        assert note["kind"] == "classification-conflict"
        assert note["status"] == "unresolved"
        assert note["left"]["descriptor"] == format_descriptor(d1)
        assert note["right"]["descriptor"] == format_descriptor(d2)
        assert note["left"]["invariants"] != note["right"]["invariants"]


def test_no_conflict_note_otherwise():
    # Equivalent pair: nothing to report.
    assert classification_conflict(PowersetModFin(), FreeAtomless()) is None
    # Inequivalent but finite: the external claim does not apply.
    assert classification_conflict(Finite(2), Finite(3)) is None
    # Inequivalent but not atomic on one side.
    assert classification_conflict(FreeAtomless(), PowersetOmega()) is None


# ---------------------------------------------------------------------------
# The one walk against the reference walkers, and the chain cap
# ---------------------------------------------------------------------------

NAMED = (Trivial(), FinCof(), PowersetOmega(), PowersetModFin(), FreeAtomless())


def _seeded_descriptor(rng, depth):
    """A named kind, ``Finite(1..9)``, an interval algebra with exponents 0-8, or
    a product of two or three of these nested up to ``depth`` levels."""
    kind = rng.randrange(4 if depth else 3)
    if kind == 0:
        return rng.choice(NAMED)
    if kind == 1:
        return Finite(rng.randint(1, 9))
    if kind == 2:
        exponents = sorted(rng.sample(range(9), rng.randint(1, 3)), reverse=True)
        return intalg(*((e, rng.randint(1, 5)) for e in exponents))
    return Product(tuple(_seeded_descriptor(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def _program_and_reference(d):
    facts = (atom_count, has_atomless_element, ba_derivative, derivative_chain,
             ershov_invariants, format_descriptor)
    references = (reference_atom_count, reference_has_atomless_element, reference_ba_derivative,
                  reference_derivative_chain, reference_ershov_invariants, reference_format_descriptor)
    return [f(d) for f in facts], [f(d) for f in references]


def test_classification_matches_the_reference_walkers_on_seeded_descriptors():
    rng = random.Random(36)
    corpus = list(NAMED) + [Finite(n) for n in range(1, 10)]
    corpus += [intalg((e, c)) for e in range(9) for c in (1, 2)]
    corpus += [_seeded_descriptor(rng, 3) for _ in range(2_000)]
    depths = {0}
    for d in corpus:
        got, want = _program_and_reference(d)
        assert got == want, d
        assert is_atomic(d) is (not want[1])
        assert parse_descriptor(format_descriptor(d)) == d
        depth, level = 0, [d]
        while any(isinstance(f, Product) for f in level):
            depth += 1
            level = [g for f in level if isinstance(f, Product) for g in f.factors]
        depths.add(depth)
    assert depths == {0, 1, 2, 3}
    outcomes = {"note": 0, "equivalent": 0, "atomless": 0, "finitely many atoms": 0}
    for d1, d2 in zip(corpus, rng.sample(corpus, len(corpus))):
        note = classification_conflict(d1, d2)
        assert note == reference_classification_conflict(d1, d2), (d1, d2)
        equivalent = reference_ershov_invariants(d1) == reference_ershov_invariants(d2)
        assert ba_equiv(d1, d2) is cstar_equiv(d1, d2) is equivalent
        if note is not None:
            outcomes["note"] += 1
        elif equivalent:
            outcomes["equivalent"] += 1
        elif reference_has_atomless_element(d1) or reference_has_atomless_element(d2):
            outcomes["atomless"] += 1
        else:
            outcomes["finitely many atoms"] += 1
    # each way through the conflict check is taken many times
    assert min(outcomes.values()) >= 20, outcomes


def test_the_chain_cap_admits_63_lowerings_and_refuses_64():
    top = intalg((63, 1))
    chain = derivative_chain(top)
    assert len(chain) == 65 and chain == reference_derivative_chain(top)
    assert chain[-2:] == [intalg((0, 1)), Trivial()]
    assert ershov_invariants(top).as_tuple() == (63, 1, False)
    assert ershov_invariants(Product((top, Finite(2)))).as_tuple() == (63, 1, False)
    over = intalg((64, 1))
    calls = [
        lambda: derivative_chain(over),
        lambda: ershov_invariants(over),
        lambda: ershov_invariants(Product((Finite(1), over))),
        lambda: ba_equiv(top, over),
        lambda: cstar_equiv(over, top),
        lambda: classification_conflict(top, over),
        lambda: reference_derivative_chain(over),
    ]
    for call in calls:
        with pytest.raises(ResourceBudgetError, match=r"^derivative chain exceeded the hard cap$"):
            call()
    # one step is not a chain: the capped descriptor still has its own facts
    assert atom_count(over) == OMEGA_ATOMS and ba_derivative(over) == intalg((63, 1))


@pytest.mark.parametrize("bad", ["finite(2)", 3, None, (Finite, 2), Ordinal(())])
def test_every_public_function_refuses_a_non_descriptor(bad):
    message = "^" + re.escape(f"not a descriptor: {bad!r}") + "$"
    calls = [
        lambda: format_descriptor(bad),
        lambda: atom_count(bad),
        lambda: has_atomless_element(bad),
        lambda: is_atomic(bad),
        lambda: ba_derivative(bad),
        lambda: derivative_chain(bad),
        lambda: ershov_invariants(bad),
        lambda: ba_equiv(Finite(2), bad),
        lambda: cstar_equiv(bad, Finite(2)),
        lambda: classification_conflict(FinCof(), bad),
        lambda: Product((Finite(2), bad)),
        lambda: reference_atom_count(bad),
        lambda: reference_has_atomless_element(bad),
        lambda: reference_derivative_chain(bad),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match=message):
            call()


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_first_entries():
    assert [t.as_tuple() for t in enumerate_theories(1)] == [(0, 1, False)]
    assert [t.as_tuple() for t in enumerate_theories(8)] == [
        (0, 1, False),
        (0, 1, True),
        (0, 0, True),
        (0, 2, False),
        (0, 2, True),
        (1, 1, False),
        (1, 1, True),
        (0, 3, False),
    ]
    assert enumerate_theories(0) == []


def test_enumerate_distinct_and_prefix_stable():
    ts = enumerate_theories(500)
    assert len(ts) == 500
    assert len(set(ts)) == 500
    assert ts[:100] == enumerate_theories(100)


def test_enumerate_bounds():
    with pytest.raises(PreconditionError):
        enumerate_theories(-1)
    with pytest.raises(ResourceBudgetError, match=r"^k exceeds the cap 10000$"):
        enumerate_theories(10_001)


def test_corpus_invariants_are_enumerated():
    corpus = descriptor_corpus()
    assert len(corpus) >= 50
    realized = {ershov_invariants(d) for d in corpus}
    listed = set(enumerate_theories(1000))
    assert realized <= listed


def test_enumerated_triples_are_realizable_shapes():
    for t in enumerate_theories(1000):
        level, atoms, flag = t.as_tuple()
        assert level >= 0
        assert (atoms >= 1) or (atoms == 0 and flag)
