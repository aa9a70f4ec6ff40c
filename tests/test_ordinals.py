"""Normal-form ordinal arithmetic against the order-construction oracle."""

from __future__ import annotations

import random
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given, strategies as st

from elemeq.errors import PreconditionError
from elemeq.ordinals import (
    OMEGA,
    OMEGA_OMEGA,
    ONE,
    ZERO,
    Ordinal,
    calkin_equiv,
    compare,
    finite,
    left_difference,
    omega_power,
    ord_add,
    ord_equiv,
    ord_mul,
    ord_pow,
    split_mod_omega_omega,
)

from oracle_orders import (
    Unrepresentable,
    add_words,
    cnf_of_word,
    mul_words,
    pow_words,
    word_of_cnf,
)
from util import below_omega_cubed, mk, nat, osum, pairs_of, w


# -- representation invariants ---------------------------------------


def test_rejects_zero_coefficient():
    with pytest.raises(PreconditionError):
        Ordinal(((ZERO, 0),))


def test_rejects_unsorted_exponents():
    with pytest.raises(PreconditionError):
        Ordinal(((ZERO, 1), (ONE, 1)))


def test_structural_equality_is_ordinal_equality():
    assert mk([(2, 1), (0, 3)]) == mk([(2, 1), (0, 3)])
    assert mk([(2, 1)]) != mk([(1, 1)])


# -- frozen examples --------------------------------------------------


def test_add_examples():
    assert ord_add(OMEGA, ONE) == mk([(1, 1), (0, 1)])
    assert ord_add(ONE, OMEGA) == OMEGA
    assert ord_add(mk([(2, 1), (1, 1)]), mk([(2, 1)])) == mk([(2, 2)])


def test_mul_example():
    assert ord_mul(mk([(1, 1), (0, 1)]), OMEGA) == mk([(2, 1)])


def test_cmp_example():
    assert compare(OMEGA_OMEGA, mk([(2, 9), (1, 9), (0, 9)])) == 1


def test_pow_builds_omega_omega():
    assert ord_pow(OMEGA, OMEGA) == OMEGA_OMEGA
    assert ord_pow(ZERO, ZERO) == ONE
    assert ord_pow(ZERO, OMEGA) == ZERO
    assert ord_pow(finite(2), OMEGA) == OMEGA


def test_split_examples():
    s = split_mod_omega_omega(osum(omega_power(OMEGA, 2), mk([(2, 3), (0, 5)])))
    assert s.quotient == nat(2)
    assert s.residue == mk([(2, 3), (0, 5)])

    s = split_mod_omega_omega(nat(7))
    assert s.quotient == ZERO
    assert s.residue == nat(7)

    s = split_mod_omega_omega(ord_pow(OMEGA, ord_add(OMEGA, ONE)))
    assert s.quotient == OMEGA
    assert s.residue == ZERO


def test_ord_equiv_examples():
    assert ord_equiv(ord_add(OMEGA_OMEGA, nat(3)),
                     ord_add(omega_power(OMEGA, 5), nat(3)))
    assert not ord_equiv(nat(3), ord_add(OMEGA_OMEGA, nat(3)))


def test_calkin_equiv_examples():
    assert calkin_equiv(osum(omega_power(OMEGA, 7), OMEGA),
                        osum(OMEGA_OMEGA, OMEGA))
    assert not calkin_equiv(ONE, nat(2))
    assert calkin_equiv(OMEGA_OMEGA, ord_pow(OMEGA, ord_add(OMEGA, ONE)))


# -- agreement with the order-construction oracle ---------------------


FAMILY_SMALL = below_omega_cubed(max_terms=3, max_coeff=2)


def _oracle_pairs(alpha: Ordinal) -> tuple[int, ...]:
    return word_of_cnf(pairs_of(alpha))


def test_add_matches_oracle_small_family():
    for a in FAMILY_SMALL:
        for b in FAMILY_SMALL:
            got = pairs_of(ord_add(a, b))
            want = cnf_of_word(add_words(_oracle_pairs(a), _oracle_pairs(b)))
            assert got == want, (a, b)


def test_mul_matches_oracle_small_family():
    for a in FAMILY_SMALL:
        for b in FAMILY_SMALL:
            got = pairs_of(ord_mul(a, b))
            want = cnf_of_word(mul_words(_oracle_pairs(a), _oracle_pairs(b)))
            assert got == want, (a, b)


def test_pow_matches_oracle_where_representable():
    exponents = [nat(n) for n in range(5)]
    exponents += [osum(w(1, m), nat(n)) for m in range(1, 4) for n in range(3)]
    checked = 0
    for a in below_omega_cubed(max_terms=3, max_coeff=4):
        for b in exponents:
            try:
                want = cnf_of_word(pow_words(_oracle_pairs(a), _oracle_pairs(b)))
            except Unrepresentable:
                continue
            assert pairs_of(ord_pow(a, b)) == want, (a, b)
            checked += 1
    assert checked > 400


# -- algebraic laws ----------------------------------------------------


TRIPLE_FAMILY = below_omega_cubed(max_terms=2, max_coeff=2)[:26]


def test_associativity_and_distributivity_exhaustive_slice():
    for a, b, c in product(TRIPLE_FAMILY, repeat=3):
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
        assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))
        assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))


def _nested_ordinals() -> st.SearchStrategy[Ordinal]:
    exps = st.sampled_from(
        [ZERO, ONE, nat(2), OMEGA, ord_add(OMEGA, ONE), w(1, 2),
         w(2), osum(w(2), w(1)), w(2, 2)]
    )
    term = st.tuples(exps, st.integers(min_value=1, max_value=3))
    def build(terms):
        seen = []
        for e, c in sorted(terms, key=lambda t: t[0], reverse=True):
            if not seen or seen[-1][0] != e:
                seen.append((e, c))
        return Ordinal(tuple(seen))
    return st.lists(term, max_size=3).map(build)


@given(_nested_ordinals(), _nested_ordinals(), _nested_ordinals())
def test_laws_on_nested_exponents(a, b, c):
    assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
    assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))
    assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))


@given(_nested_ordinals())
def test_split_recombines(alpha):
    assert split_mod_omega_omega(alpha).recombine() == alpha


@given(_nested_ordinals())
def test_split_residue_below_omega_omega(alpha):
    assert split_mod_omega_omega(alpha).residue < OMEGA_OMEGA


def test_left_difference_inverts_add():
    for a in TRIPLE_FAMILY:
        for b in TRIPLE_FAMILY:
            s = ord_add(a, b)
            assert ord_add(a, left_difference(a, s)) == s


def test_comparison_total_order_on_family():
    fam = FAMILY_SMALL
    for a in fam:
        assert compare(a, a) == 0
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = rng.choice(fam), rng.choice(fam), rng.choice(fam)
        if a <= b and b <= c:
            assert a <= c


def _loop_compare(a: Ordinal, b: Ordinal) -> int:
    """The normal-form order as a loop over paired terms, then length."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _loop_compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def _random_ordinal(rng: random.Random, depth: int) -> Ordinal:
    """An ordinal whose exponents nest ``depth`` deep, ending in naturals."""
    if depth == 0:
        return nat(rng.randint(0, 3))
    exponents = {_random_ordinal(rng, depth - 1) for _ in range(rng.randint(0, 3))}
    ordered = sorted(exponents, key=cmp_to_key(_loop_compare), reverse=True)
    return Ordinal(tuple((e, rng.randint(1, 3)) for e in ordered))


def test_compare_is_the_normal_form_loop_on_infinite_exponents():
    rng = random.Random(16)
    sample = [_random_ordinal(rng, rng.randint(0, 3)) for _ in range(300)]
    for _ in range(5000):
        a, b = rng.choice(sample), rng.choice(sample)
        want = _loop_compare(a, b)
        assert compare(a, b) == want, (a, b)
        assert (a < b, a <= b, a > b, a >= b) == (want < 0, want <= 0, want > 0, want >= 0)


def test_ord_equiv_is_equivalence_relation():
    sample = [
        nat(0), nat(3), OMEGA, osum(OMEGA_OMEGA, nat(3)),
        osum(omega_power(OMEGA, 5), nat(3)), OMEGA_OMEGA,
        osum(omega_power(OMEGA, 2), w(2, 3)), osum(OMEGA_OMEGA, w(2, 3)),
        ord_pow(OMEGA, ord_add(OMEGA, ONE)),
    ]
    for a in sample:
        assert ord_equiv(a, a)
        for b in sample:
            assert ord_equiv(a, b) == ord_equiv(b, a)
            for c in sample:
                if ord_equiv(a, b) and ord_equiv(b, c):
                    assert ord_equiv(a, c)
