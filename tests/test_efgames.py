"""Tests for the back-and-forth game solvers.

The solvers are validated in three independent ways: frozen small examples,
exact agreement with the raw concrete-move reference game on tiny instances,
and classical facts about linear orders that can be certified by explicit
low-rank sentences (noted inline where used).
"""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemeq import efgames
from elemeq.boolalg import FiniteBoolAlg, fo_eval, quantifier_rank, sentence_corpus
from elemeq.efgames import ef_finite_bas, ef_finite_orders, ef_ordinals
from elemeq.errors import PreconditionError, ResourceBudgetError
from elemeq.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    compare,
    finite,
    left_difference,
    omega_power,
    ord_add,
    ord_equiv,
    ord_mul,
    ord_sum,
)
from oracle_games import GamePosition, duplicator_wins
from util import below_omega_cubed, mk, nat, osum, w


def P(n):
    return FiniteBoolAlg(n)


W2 = omega_power(nat(2))


# ---------------------------------------------------------------------------
# Finite linear orders
# ---------------------------------------------------------------------------


def test_finite_orders_frozen_examples():
    assert ef_finite_orders(3, 3, 5) is True
    assert ef_finite_orders(2, 3, 2) is False
    assert ef_finite_orders(7, 12, 3) is True


def test_finite_orders_closed_form_exhaustive():
    # Checked against the solver itself for all m, n <= 40, r <= 5: true
    # exactly when the sizes are equal or both at least 2**r - 1.
    for r in range(6):
        threshold = 2**r - 1
        for m in range(41):
            for n in range(41):
                want = m == n or (m >= threshold and n >= threshold)
                assert ef_finite_orders(m, n, r) == want, (m, n, r)


@lru_cache(maxsize=None)
def _split_type(size, rank):
    """The rank-``rank`` type of ``size`` points by direct split recursion.

    Playing point ``i`` leaves independent intervals of sizes ``i`` and
    ``size - 1 - i``; two orders are rank-``r`` equivalent exactly when
    their sets of split type pairs at rank ``r - 1`` coincide.
    """
    if rank == 0:
        return 0
    return frozenset(
        (_split_type(i, rank - 1), _split_type(size - 1 - i, rank - 1))
        for i in range(size)
    )


def test_finite_orders_agree_with_split_recursion():
    for r in range(7):
        for m in range(70):
            for n in range(m, 70):
                want = _split_type(m, r) == _split_type(n, r)
                assert ef_finite_orders(m, n, r) == want, (m, n, r)


def test_finite_orders_closed_form_to_size_cap_with_bounded_memo():
    # Sizes up to 1000 against "m = n, or both at least 2**r - 1"; every
    # size shares the same few types, so the sum memo stays small.
    efgames._type_sum.cache_clear()
    for r in range(7):
        threshold = 2**r - 1
        for m in range(1001):
            for n in {0, threshold - 1, threshold, m - 1, m, m + 1, 1000}:
                if 0 <= n <= 1000:
                    want = m == n or (m >= threshold and n >= threshold)
                    assert ef_finite_orders(m, n, r) == want, (m, n, r)
    assert efgames._type_sum.cache_info().currsize < 1000


def test_finite_orders_budget():
    # Only the rank is capped: any size answers by the closed form, "equal,
    # or both at least 2**r - 1", as the repetition stops at its first repeat.
    with pytest.raises(ResourceBudgetError):
        ef_finite_orders(3, 3, 7)
    sizes = (0, 1, 62, 63, 64, 5000, 10**12, 10**12 + 1, 10**25)
    for r in range(7):
        for m, n in itertools.product(sizes, repeat=2):
            want = m == n or min(m, n) >= 2**r - 1
            assert ef_finite_orders(m, n, r) == want, (m, n, r)
    with pytest.raises(PreconditionError):
        ef_finite_orders(-1, 3, 2)


def test_finite_orders_agree_with_raw_game():
    for m in range(6):
        for n in range(6):
            for r in range(3):
                raw = duplicator_wins(
                    GamePosition(("order", m), ("order", n), rounds=r)
                )
                assert raw == ef_finite_orders(m, n, r), (m, n, r)


# ---------------------------------------------------------------------------
# Ordinal orders
# ---------------------------------------------------------------------------


def test_ordinals_frozen_examples():
    w2 = ord_mul(OMEGA, nat(2))
    assert ef_ordinals(OMEGA, OMEGA, 4) is True
    assert ef_ordinals(OMEGA, w2, 1) is True
    assert ef_ordinals(OMEGA, w2, 3) is False


def test_ordinals_classical_facts():
    wp2 = ord_mul(OMEGA, nat(2))
    wp3 = ord_mul(OMEGA, nat(3))
    # "there is a greatest element" is a rank-2 sentence.
    assert ef_ordinals(OMEGA, ord_add(OMEGA, nat(1)), 2) is False
    assert ef_ordinals(OMEGA, ord_add(OMEGA, nat(1)), 1) is True
    # "some point has a nonempty predecessor set whose every member has a
    # successor inside it" is a rank-3 sentence separating w from w^2.
    assert ef_ordinals(OMEGA, W2, 2) is True
    assert ef_ordinals(OMEGA, W2, 3) is False
    # "two limit points exist" is a rank-4 sentence separating w*2 from w*3.
    assert ef_ordinals(wp2, wp3, 3) is True
    assert ef_ordinals(wp2, wp3, 4) is False
    # "some limit point has no limit point above it" is a rank-4 sentence
    # separating w^2 from w^2 + w.
    assert ef_ordinals(W2, ord_add(W2, OMEGA), 4) is False


def test_ordinals_agree_with_finite_order_solver():
    # Both solvers read the same type arithmetic, so each is also compared
    # with the split recursion.
    for m in range(70):
        for n in range(70):
            for r in range(5):
                want = _split_type(m, r) == _split_type(n, r)
                assert ef_ordinals(finite(m), finite(n), r) == want, (m, n, r)
                assert ef_finite_orders(m, n, r) == want, (m, n, r)


FAMILY = below_omega_cubed(max_terms=3, max_coeff=2)


@given(st.sampled_from(FAMILY), st.sampled_from(FAMILY), st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_ordinals_monotone_in_rank(a, b, r):
    if ef_ordinals(a, b, r + 1):
        assert ef_ordinals(a, b, r)


@given(st.sampled_from(FAMILY), st.sampled_from(FAMILY), st.integers(0, 4))
@settings(max_examples=120, deadline=None)
def test_ordinals_symmetric(a, b, r):
    assert ef_ordinals(a, b, r) == ef_ordinals(b, a, r)


@given(st.sampled_from(FAMILY), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_ordinals_reflexive(a, r):
    assert ef_ordinals(a, a, r)


@given(
    st.sampled_from(FAMILY),
    st.sampled_from(FAMILY),
    st.sampled_from(FAMILY),
    st.sampled_from(FAMILY),
    st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_ordinals_sum_composition(a, b, c, d, r):
    # Equivalent summands yield equivalent concatenations.
    if ef_ordinals(a, b, r) and ef_ordinals(c, d, r):
        assert ef_ordinals(ord_add(a, c), ord_add(b, d), r)


def test_ordinals_domain_and_budget():
    with pytest.raises(ResourceBudgetError):
        ef_ordinals(OMEGA, OMEGA, 5)
    beyond = omega_power(ord_add(OMEGA, nat(1)))  # exponent above omega
    with pytest.raises(ResourceBudgetError):
        ef_ordinals(beyond, OMEGA, 2)
    with pytest.raises(PreconditionError):
        ef_ordinals(OMEGA, OMEGA, -1)


def test_omega_power_cache_is_bounded_over_many_exponents():
    # a long-lived process asking for fresh exponents keeps at most maxsize
    # entries; every exponent still reads its orbit entry, the fixed point
    # from the first repeat on
    orbit = efgames._orbit(efgames._type_mul_omega, efgames._type_singleton(3))
    cache = efgames._type_omega_power
    cache.cache_clear()
    for k in range(20_000):
        assert cache(k, 3) == orbit[min(k, len(orbit) - 1)]
        assert cache.cache_info().currsize <= cache.cache_info().maxsize
    assert cache.cache_info().maxsize < 20_000
    last = len(orbit) - 1  # omega**last is the first omega-power of the fixed type
    assert ef_ordinals(omega_power(nat(19_999)), omega_power(nat(last)), 3) is True
    assert ef_ordinals(omega_power(nat(last - 1)), omega_power(nat(last)), 3) is False


@pytest.mark.parametrize("rank", range(efgames.MAX_RANK_ORDINALS + 1))
def test_omega_powers_read_one_orbit_that_ends_at_a_fixed_point(rank):
    # a finite exponent k is the k-th step of the * omega orbit from a singleton,
    # which settles at a fixed point: omega's type
    steps = [efgames._type_singleton(rank)]
    for k in range(14):
        assert efgames._type_omega_power(k, rank) == steps[-1]
        steps.append(efgames._type_mul_omega(steps[-1]))
    fixed = efgames._type_omega_power(None, rank)
    assert efgames._type_mul_omega(fixed) == fixed == steps[-1]


def _seeded_ordinal(rng):
    """A sum of up to four terms ``omega**e * c``, ``e`` finite or omega, any order."""
    terms = [(OMEGA if rng.random() < 0.2 else finite(rng.randint(0, 8)), rng.randint(0, 9))
             for _ in range(rng.randint(0, 4))]
    return ord_sum(terms)


def test_game_memos_keep_their_whole_reach_within_the_caps():
    # the rank and atom caps keep every memo's reach finite and far below its maxsize:
    # over every ef_finite_bas algebra within the caps, every finite order below 300
    # and 20,000 seeded ordinals, at every rank up to the caps, no memo evicts an
    # entry (each computed type is kept), and the interned types stay few
    memos = (efgames._ba_type, efgames._type_sum, efgames._type_mul_omega,
             efgames._type_empty, efgames._type_singleton)
    for memo in memos:
        memo.cache_clear()
    for r in range(efgames.MAX_RANK_BAS + 1):
        for m in range(efgames.MAX_ATOMS_BAS + 1):
            assert ef_finite_bas(P(m), P(m), r)
    for r in range(efgames.MAX_RANK_ORDERS + 1):
        for m in range(300):
            assert ef_finite_orders(m, m + 1, r) == (m >= 2**r - 1)
    rng = random.Random(36)
    for i in range(20_000):
        alpha = _seeded_ordinal(rng)
        assert ef_ordinals(alpha, alpha, i % (efgames.MAX_RANK_ORDINALS + 1))
    assert efgames._ba_type.cache_info().currsize == 1626  # every (cells, rank) key
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize == info.misses, (memo.__name__, info)
    assert len(efgames._intern_table) < 1000


def test_ordinals_large_domain_is_fast():
    big1 = osum(ord_mul(omega_power(OMEGA), nat(3)), omega_power(nat(5)), nat(7))
    big2 = osum(ord_mul(omega_power(OMEGA), nat(2)), omega_power(nat(5)), nat(7))
    # Quotient coefficients 3 vs 2 are invisible at rank 4.
    assert ef_ordinals(big1, big2, 4) is True
    # "there is a greatest element" is a rank-2 sentence: big1 ends in a
    # finite tail, the pure limit does not.
    assert ef_ordinals(big1, ord_mul(omega_power(OMEGA), nat(3)), 2) is False


def _sum_closure_omega_omega_type(rank):
    """The type of ``omega**omega`` from its splits: every left part is a
    finite sum of ``omega**f`` blocks, so the left types are the sum-closure
    of the rank - 1 orbit, and every right part is the whole order."""
    if rank == 0:
        return efgames._T0
    sub = _sum_closure_omega_omega_type(rank - 1)
    q = rank - 1
    realized = set(efgames._orbit(efgames._type_mul_omega, efgames._type_singleton(q)))
    realized.add(efgames._type_empty(q))
    while True:
        fresh = {efgames._type_sum(a, b) for a in realized for b in realized} - realized
        if not fresh:
            break
        realized |= fresh
    return (rank, sub, frozenset((left, sub) for left in realized))


@pytest.mark.parametrize("rank", range(6))
def test_omega_omega_type_is_the_sum_closure_of_its_splits(rank):
    assert efgames._type_omega_power(None, rank) == _sum_closure_omega_omega_type(rank)


def test_ordinals_past_omega_omega_agree_with_ord_equiv():
    # ord_equiv is the Doner-Mostowski-Tarski rule, stated apart from the
    # games: ordinals it calls equivalent must be equivalent at every rank.
    family = [
        ord_add(omega_power(OMEGA, c), beta)
        for c in range(3)
        for beta in below_omega_cubed(max_terms=2, max_coeff=2)
    ]
    pairs = [(a, b) for a, b in itertools.product(family, repeat=2) if ord_equiv(a, b)]
    assert len(family) == 57 and len(pairs) == 95
    for a, b in pairs:
        for r in range(efgames.MAX_RANK_ORDINALS + 1):
            assert ef_ordinals(a, b, r), (a, b, r)


def test_ordinal_split_pairs_match_sum_rule_on_samples():
    # Independent spot check of the compositional machinery: playing x in
    # alpha must leave intervals (x, rest) whose equivalence data the solver
    # already reflects — i.e. alpha is equivalent to x + 1 + rest at every
    # rank within budget.
    for alpha in below_omega_cubed(max_terms=2, max_coeff=2):
        for x in below_omega_cubed(max_terms=2, max_coeff=2):
            if compare(x, alpha) >= 0:
                continue
            rest = left_difference(ord_add(x, ONE), alpha)
            recombined = osum(x, nat(1), rest)
            assert recombined == alpha


# ---------------------------------------------------------------------------
# Finite Boolean algebras
# ---------------------------------------------------------------------------


def test_finite_bas_frozen_examples():
    assert ef_finite_bas(P(3), P(3), 3) is True
    assert ef_finite_bas(P(2), P(3), 2) is False
    assert ef_finite_bas(P(4), P(5), 1) is True


def test_finite_bas_agree_with_raw_game():
    for m in range(4):
        for n in range(4):
            for r in range(3):
                raw = duplicator_wins(
                    GamePosition(("powerset", m), ("powerset", n), rounds=r)
                )
                assert raw == ef_finite_bas(P(m), P(n), r), (m, n, r)


def test_finite_bas_equal_counts_always_equivalent():
    for n in range(6):
        for r in range(4):
            assert ef_finite_bas(P(n), P(n), r)


def test_finite_bas_monotone_and_symmetric():
    for m in range(6):
        for n in range(6):
            for r in range(3):
                if ef_finite_bas(P(m), P(n), r + 1):
                    assert ef_finite_bas(P(m), P(n), r)
                assert ef_finite_bas(P(m), P(n), r) == ef_finite_bas(P(n), P(m), r)


def test_finite_bas_budget():
    with pytest.raises(ResourceBudgetError):
        ef_finite_bas(P(2), P(3), 4)
    with pytest.raises(ResourceBudgetError):
        ef_finite_bas(P(6), P(3), 2)


def test_finite_bas_implies_corpus_agreement():
    # Game equivalence at rank r must force agreement on every corpus
    # sentence of quantifier rank at most r.
    corpus = sentence_corpus(200)
    values = {
        n: [(quantifier_rank(phi), fo_eval(phi, P(n))) for phi in corpus]
        for n in range(1, 6)
    }
    for m in range(1, 6):
        for n in range(1, 6):
            for r in range(4):
                if ef_finite_bas(P(m), P(n), r):
                    for (qm, vm), (qn, vn) in zip(values[m], values[n]):
                        if qm <= r:
                            assert vm == vn, (m, n, r)


# ---------------------------------------------------------------------------
# Raw reference game
# ---------------------------------------------------------------------------


def test_game_position_invariants():
    with pytest.raises(PreconditionError):
        GamePosition(("order", 2), ("order", 3), (0,), (), 1)
    with pytest.raises(PreconditionError):
        GamePosition(("order", 2), ("order", 3), rounds=-1)
    with pytest.raises(PreconditionError):
        GamePosition(("ring", 2), ("order", 3), rounds=1)
    with pytest.raises(PreconditionError):
        GamePosition(("order", 2), ("powerset", 3), rounds=1)


def test_raw_game_budget():
    with pytest.raises(ResourceBudgetError):
        duplicator_wins(GamePosition(("order", 50), ("order", 50), rounds=6))


def test_raw_game_respects_existing_matches():
    # A mismatched pre-played pair is an immediate Spoiler win.
    pos = GamePosition(("order", 3), ("order", 3), (0, 1), (1, 0), 1)
    assert duplicator_wins(pos) is False
    pos = GamePosition(("order", 3), ("order", 3), (0, 1), (0, 2), 0)
    assert duplicator_wins(pos) is True
