"""Tests for finite Boolean algebras, Stone duality, and the FO model checker."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemeq import boolalg
from elemeq.boolalg import (
    And,
    BAHomomorphism,
    Eq,
    Exists,
    FiniteBoolAlg,
    FiniteSpace,
    Forall,
    Implies,
    Le,
    Not,
    Or,
    SpaceMap,
    TCompl,
    TJoin,
    TMeet,
    TOne,
    TVar,
    TZero,
    clopen_algebra,
    compose_maps,
    dual_morphism,
    fo_eval,
    free_variables,
    quantifier_rank,
    sentence_corpus,
    stone_space,
)
from elemeq.errors import PreconditionError, ResourceBudgetError
from util import check_frozen_nodes, check_node_shape, reference_fo_eval, shadowed_sentences


# ---------------------------------------------------------------------------
# Algebra basics
# ---------------------------------------------------------------------------


def test_element_ranges_and_atoms():
    b = FiniteBoolAlg(3)
    assert list(b.elements()) == list(range(8))
    assert b.atoms() == [1, 2, 4]
    assert b.full == 7


@given(st.integers(0, 5), st.data())
def test_lattice_laws(n, data):
    b = FiniteBoolAlg(n)
    a = data.draw(st.integers(0, b.full))
    c = data.draw(st.integers(0, b.full))
    d = data.draw(st.integers(0, b.full))
    assert b.meet(a, b.join(c, d)) == b.join(b.meet(a, c), b.meet(a, d))
    assert b.complement(b.meet(a, c)) == b.join(b.complement(a), b.complement(c))
    assert b.complement(b.complement(a)) == a
    assert b.meet(a, b.complement(a)) == 0
    assert b.join(a, b.complement(a)) == b.full
    assert b.leq(b.meet(a, c), a)
    assert b.leq(a, b.join(a, c))


# ---------------------------------------------------------------------------
# Stone duality
# ---------------------------------------------------------------------------


def test_stone_space_examples():
    assert stone_space(FiniteBoolAlg(3)).point_count == 3
    assert stone_space(FiniteBoolAlg(1)).point_count == 1


def test_clopen_algebra_examples():
    assert clopen_algebra(FiniteSpace(3)) == FiniteBoolAlg(3)
    assert clopen_algebra(FiniteSpace(1)).atom_count == 1


def test_duality_round_trips():
    for n in range(6):
        b = FiniteBoolAlg(n)
        assert clopen_algebra(stone_space(b)) == b
        x = FiniteSpace(n)
        assert stone_space(clopen_algebra(x)) == x


def test_dual_morphism_identity():
    x = FiniteSpace(3)
    ident = SpaceMap(x, x, (0, 1, 2))
    hom = dual_morphism(ident)
    assert hom.graph() == tuple(range(8))


def test_dual_morphism_collapse_to_point():
    f = SpaceMap(FiniteSpace(3), FiniteSpace(1), (0, 0, 0))
    hom = dual_morphism(f)
    assert hom.apply(0) == 0
    assert hom.apply(1) == 0b111


def test_dual_morphism_non_surjective_map_kills_missed_point():
    # f maps both points of X to the first point of Y; the singleton at the
    # second point of Y has empty preimage.
    f = SpaceMap(FiniteSpace(2), FiniteSpace(2), (0, 0))
    hom = dual_morphism(f)
    assert hom.apply(0b10) == 0
    assert not hom.is_injective()


def test_dual_morphism_injectivity_surjectivity():
    inj = SpaceMap(FiniteSpace(2), FiniteSpace(3), (0, 2))
    assert dual_morphism(inj).is_surjective()
    surj = SpaceMap(FiniteSpace(3), FiniteSpace(2), (0, 1, 1))
    assert dual_morphism(surj).is_injective()


@given(st.data())
@settings(max_examples=60)
def test_dual_functoriality(data):
    nx = data.draw(st.integers(1, 4))
    ny = data.draw(st.integers(1, 4))
    nz = data.draw(st.integers(1, 4))
    x, y, z = FiniteSpace(nx), FiniteSpace(ny), FiniteSpace(nz)
    f = SpaceMap(x, y, tuple(data.draw(st.integers(0, ny - 1)) for _ in range(nx)))
    g = SpaceMap(y, z, tuple(data.draw(st.integers(0, nz - 1)) for _ in range(ny)))
    left = dual_morphism(compose_maps(g, f))
    dg, df = dual_morphism(g), dual_morphism(f)
    for c in clopen_algebra(z).elements():
        assert left.apply(c) == df.apply(dg.apply(c))


# ---------------------------------------------------------------------------
# Formula nodes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "classes, args, fields, text",
    [
        ((TMeet, TJoin, Eq, Le, And, Or, Implies), (TVar("x"), TOne()), ("left", "right"),
         "TMeet(left=TVar(name='x'), right=TOne())"),
        ((TCompl, Not), (TVar("x"),), ("arg",), "TCompl(arg=TVar(name='x'))"),
        ((Forall, Exists), ("x", Eq(TVar("x"), TZero())), ("var", "body"),
         "Forall(var='x', body=Eq(left=TVar(name='x'), right=TZero()))"),
        ((TZero, TOne), (), (), "TZero()"),
    ],
)
def test_node_shapes(classes, args, fields, text):
    check_node_shape(classes, args, fields, text)


def test_every_node_refuses_new_attributes():
    x, zero = TVar("x"), TZero()
    nodes = [x, zero, TOne(), TCompl(x), Not(Eq(x, zero)), Forall("x", Eq(x, zero)),
             Exists("x", Le(x, zero))]
    nodes += [cls(x, zero) for cls in (TMeet, TJoin, Eq, Le, And, Or, Implies)]
    check_frozen_nodes(nodes, (boolalg._Pair, boolalg._Unary, boolalg._Quantifier))


# ---------------------------------------------------------------------------
# First-order evaluation
# ---------------------------------------------------------------------------


def _x():
    return TVar("x")


def test_fo_eval_idempotence():
    phi = Forall("x", Eq(TMeet(_x(), _x()), _x()))
    assert fo_eval(phi, FiniteBoolAlg(3))


def test_fo_eval_atom_exists():
    below = Implies(
        Le(TVar("y"), _x()),
        Or(Eq(TVar("y"), TZero()), Eq(TVar("y"), _x())),
    )
    atom = And(Not(Eq(_x(), TZero())), Forall("y", below))
    phi = Exists("x", atom)
    assert fo_eval(phi, FiniteBoolAlg(3))
    # In the two-element algebra the top element is an atom, so this holds
    # there as well.
    assert fo_eval(phi, FiniteBoolAlg(1))


def test_fo_eval_disjoint_pair_fails_in_two_element_algebra():
    phi = Exists(
        "x",
        Exists(
            "y",
            And(
                Eq(TMeet(TVar("x"), TVar("y")), TZero()),
                And(Not(Eq(TVar("x"), TZero())), Not(Eq(TVar("y"), TZero()))),
            ),
        ),
    )
    assert not fo_eval(phi, FiniteBoolAlg(1))
    assert fo_eval(phi, FiniteBoolAlg(2))


def test_fo_eval_free_variable_assignment():
    phi = Eq(TJoin(_x(), TCompl(_x())), TOne())
    b = FiniteBoolAlg(2)
    assert fo_eval(phi, b, {"x": 0b01})
    with pytest.raises(PreconditionError):
        fo_eval(phi, b)


def test_fo_eval_budget():
    # y and z are vacuous, and still count in the rank the budget reads
    deep = Forall("x", Forall("y", Forall("z", Eq(_x(), _x()))))
    with pytest.raises(ResourceBudgetError, match=r"^exhaustive evaluation budget exceeded: 2\*\*27 leaves$"):
        fo_eval(deep, FiniteBoolAlg(9))
    assert fo_eval(deep, FiniteBoolAlg(8))


def _reference_rank(phi) -> int:
    """Quantifier rank by its definition, walking every node."""
    if isinstance(phi, (Eq, Le)):
        return 0
    if isinstance(phi, (Forall, Exists)):
        return 1 + _reference_rank(phi.body)
    return max(_reference_rank(part) for part in phi[1:])


def test_quantifier_rank_matches_the_definition():
    sentences = sentence_corpus(200)
    sentences += shadowed_sentences(random.Random(6064), sentence_corpus(60), 60)
    for phi in sentences + [Exists("v", phi) for phi in sentences[:40]]:
        assert quantifier_rank(phi) == _reference_rank(phi), phi
    assert {_reference_rank(phi) for phi in sentences} == {1, 2, 3, 4}


def test_fo_eval_rejects_assigned_values_outside_the_algebra():
    b = FiniteBoolAlg(2)
    for phi in (Le(_x(), TOne()), Eq(TJoin(_x(), TCompl(_x())), TOne())):
        assert fo_eval(phi, b, {"x": 0b11})
        for bad in (0b111, 0b100, -1, 1.0, None):
            with pytest.raises(PreconditionError):
                fo_eval(phi, b, {"x": bad})
    with pytest.raises(PreconditionError):
        fo_eval(Forall("y", Eq(TVar("y"), TVar("y"))), b, {"x": 0b111})


def test_fo_eval_vacuous_quantifier_parity():
    # Wrapping a sentence in a quantifier it ignores changes no truth value;
    # the direct exhaustive walk over the wrapped sentence is the reference.
    corpus = sentence_corpus(200)
    for atoms in (1, 2, 3):
        b = FiniteBoolAlg(atoms)
        for phi in corpus:
            want = fo_eval(phi, b)
            for quantifier in (Forall, Exists):
                wrapped = quantifier("v", phi)
                assert fo_eval(wrapped, b) == want == reference_fo_eval(wrapped, b, {}), phi


def test_fo_eval_matches_the_direct_walk_on_shadowed_and_open_formulas():
    # Peeling a sentence's leading quantifiers leaves a formula open in their
    # variables; every assignment of them is checked.  The shadowed sentences
    # rebind x inside, so peeling their outer x also makes an inner binder
    # shadow, and then restore, a variable of the assignment.
    sentences = sentence_corpus(200)
    sentences += shadowed_sentences(random.Random(6064), sentence_corpus(60), 60)
    for atoms in (1, 2, 3):
        b = FiniteBoolAlg(atoms)
        for phi in sentences:
            assert fo_eval(phi, b) == reference_fo_eval(phi, b, {}), phi
            names = []
            while isinstance(phi, (Forall, Exists)):
                names.append(phi.var)
                phi = phi.body
                for values in itertools.product(b.elements(), repeat=len(names)):
                    assignment = dict(zip(names, values))
                    want = reference_fo_eval(phi, b, assignment)
                    assert fo_eval(phi, b, assignment) == want, (phi, assignment)
                    assert assignment == dict(zip(names, values))


def test_quantifier_rank_and_free_variables():
    phi = Forall("x", Exists("y", Eq(TMeet(_x(), TVar("y")), TVar("z"))))
    assert quantifier_rank(phi) == 2
    assert free_variables(phi) == {"z"}
    x_is_zero = Eq(_x(), TZero())
    # bound in one conjunct, free in the other
    assert free_variables(And(Forall("x", Eq(_x(), _x())), x_is_zero)) == {"x"}
    # free under binders of other names, vacuous or not
    assert free_variables(Forall("y", Eq(_x(), TVar("y")))) == {"x"}
    assert free_variables(Exists("y", x_is_zero)) == {"x"}
    # shadowed but bound
    shadowed = Forall("x", And(Exists("x", x_is_zero), Le(_x(), TOne())))
    assert quantifier_rank(shadowed) == 2
    assert free_variables(shadowed) == set()


# ---------------------------------------------------------------------------
# Sentence corpus
# ---------------------------------------------------------------------------


def test_corpus_is_deterministic_and_well_formed():
    corpus = sentence_corpus(200)
    again = sentence_corpus(200)
    assert corpus == again
    assert len(corpus) == 200
    for phi in corpus:
        assert quantifier_rank(phi) <= 3
        assert free_variables(phi) == set()


def test_corpus_separates_small_atom_counts():
    corpus = sentence_corpus(200)
    profiles = {}
    for n in range(1, 6):
        b = FiniteBoolAlg(n)
        profiles[n] = tuple(fo_eval(phi, b) for phi in corpus)
    for m, n in itertools.combinations(range(1, 6), 2):
        assert profiles[m] != profiles[n], (m, n)


def test_corpus_agreement_is_isomorphism_invariant():
    corpus = sentence_corpus(60)
    b = FiniteBoolAlg(4)
    round_trip = clopen_algebra(stone_space(b))
    for phi in corpus:
        assert fo_eval(phi, b) == fo_eval(phi, round_trip)
