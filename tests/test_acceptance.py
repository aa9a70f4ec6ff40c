"""Acceptance gate: one test per shipped guarantee, one line per verdict.

Every test prints ``[PASS] criterion NN: ...`` with the measured numbers
when its assertions hold; a failing criterion shows up as a failed test
(and never prints a pass line).  Tolerances are pinned in the assertions,
not configurable.
"""

import itertools
import json
import random

from elemeq.batheory import (
    FinCof,
    Finite,
    FreeAtomless,
    IntervalAlgebra,
    PowersetOmega,
    cstar_equiv,
    derivative_chain,
    descriptor_corpus,
    enumerate_theories,
    ershov_invariants,
)
from elemeq.boolalg import (
    FiniteBoolAlg,
    FiniteSpace,
    SpaceMap,
    clopen_algebra,
    compose_maps,
    dual_morphism,
    fo_eval,
    quantifier_rank,
    sentence_corpus,
    stone_space,
)
from elemeq.cli import main
from elemeq.clogic import ceval, translate_fo
from elemeq.cstar import (
    CStarAlgebraFin,
    c_norm,
    c_sub,
    clopen_code,
    psi_infinite_projection,
    reconstruct,
    singular_cross_checks,
)
from elemeq.efgames import ef_ordinals
from elemeq.ordinals import (
    OMEGA_OMEGA,
    ZERO,
    calkin_equiv,
    finite,
    ord_add,
    ord_equiv,
    ord_mul,
    ord_pow,
)
from elemeq.saturation import (
    NOT_FOUND,
    CylinderElement,
    PresentedAtomlessBA,
    interpolate_chain,
    max_orthogonal_family,
    orthogonal_witness_family,
)

from oracle_orders import Unrepresentable, add_words, cnf_of_word, mul_words, pow_words, word_of_cnf
from util import below_omega_cubed, mk, osum, pairs_of, w


def _report(number: int, summary: str) -> None:
    print(f"[PASS] criterion {number:02d}: {summary}")


# ---------------------------------------------------------------------------
# 1. Ordinal arithmetic against the order-construction oracle
# ---------------------------------------------------------------------------


def test_criterion_01_ordinal_arithmetic_matches_order_oracle():
    family = below_omega_cubed(max_terms=3, max_coeff=4)
    assert len(family) == 125
    checked = {"add": 0, "mul": 0, "pow": 0}
    for alpha, beta in itertools.product(family, family):
        wa, wb = word_of_cnf(pairs_of(alpha)), word_of_cnf(pairs_of(beta))
        assert pairs_of(ord_add(alpha, beta)) == cnf_of_word(add_words(wa, wb))
        checked["add"] += 1
        assert pairs_of(ord_mul(alpha, beta)) == cnf_of_word(mul_words(wa, wb))
        checked["mul"] += 1
        try:
            expected = cnf_of_word(pow_words(wa, wb))
        except Unrepresentable:
            continue
        assert pairs_of(ord_pow(alpha, beta)) == expected
        checked["pow"] += 1
    assert checked["add"] >= 1000 and checked["mul"] >= 1000
    total = sum(checked.values())
    assert total >= 1000
    _report(
        1,
        f"add/mul/pow exact vs order oracle on {total} cases "
        f"(add {checked['add']}, mul {checked['mul']}, pow {checked['pow']})",
    )


# ---------------------------------------------------------------------------
# 2. Equivalence comparator vs finite-rank games
# ---------------------------------------------------------------------------


def test_criterion_02_comparator_agrees_with_games_below_omega_cubed():
    family = below_omega_cubed(max_terms=3, max_coeff=3)
    equivalent = inequivalent = distinguished = 0
    for alpha in family:
        assert ord_equiv(alpha, alpha)
        assert all(ef_ordinals(alpha, alpha, rank) for rank in (1, 2, 3))
        equivalent += 1
    beyond_rank_four = []
    for alpha, beta in itertools.combinations(family, 2):
        if ord_equiv(alpha, beta):
            equivalent += 1
            assert all(ef_ordinals(alpha, beta, rank) for rank in (1, 2, 3))
        else:
            inequivalent += 1
            if any(not ef_ordinals(alpha, beta, rank) for rank in (1, 2, 3, 4)):
                distinguished += 1
            else:
                beyond_rank_four.append((alpha, beta))
    sampled = equivalent + inequivalent
    assert sampled >= 200
    ratio = distinguished / inequivalent
    assert ratio >= 0.90
    # The remaining pairs need deeper games than rank 4; they are counted
    # here and exercised (as still-indistinguishable) to document them.
    for alpha, beta in beyond_rank_four[:5]:
        assert ef_ordinals(alpha, beta, 4)
    _report(
        2,
        f"{sampled} pairs: {equivalent} equivalent all pass ranks 1-3; "
        f"{distinguished}/{inequivalent} inequivalent refuted at rank <= 4 "
        f"({100 * ratio:.1f}%); {len(beyond_rank_four)} pairs documented as "
        "needing rank > 4",
    )


# ---------------------------------------------------------------------------
# 3. Equivalence modulo the first epsilon-like power
# ---------------------------------------------------------------------------


def _small_tails():
    tails = [ZERO]
    for coeff in range(1, 5):
        tails.append(mk([(1, coeff)]))
        tails.append(mk([(0, coeff)]))
        for unit in range(1, 5):
            tails.append(mk([(1, coeff), (0, unit)]))
    return tails


def test_criterion_03_tail_equivalence_modulo_leading_power():
    tails = _small_tails()
    checked = 0
    for m in range(1, 6):
        for n in range(1, 6):
            for delta in tails:
                alpha = osum(ord_mul(OMEGA_OMEGA, finite(m)), delta)
                beta = osum(ord_mul(OMEGA_OMEGA, finite(n)), delta)
                assert calkin_equiv(alpha, beta)
                checked += 1
    for delta, gamma in itertools.combinations(tails, 2):
        alpha = osum(OMEGA_OMEGA, delta)
        beta = osum(OMEGA_OMEGA, gamma)
        assert not calkin_equiv(alpha, beta)
    _report(
        3,
        f"equal-tail pairs equivalent for all 25 coefficient choices x "
        f"{len(tails)} tails ({checked} cases); distinct tails all inequivalent",
    )


# ---------------------------------------------------------------------------
# 4. Stone duality round trips and functoriality
# ---------------------------------------------------------------------------


def test_criterion_04_stone_duality_round_trips_and_functoriality():
    for size in range(0, 6):
        algebra = FiniteBoolAlg(size)
        space = stone_space(algebra)
        assert space.point_count == size
        assert clopen_algebra(space).atom_count == algebra.atom_count
        point_space = FiniteSpace(size)
        assert clopen_algebra(point_space).atom_count == size
        assert stone_space(clopen_algebra(point_space)).point_count == size
    rng = random.Random(2026)
    compositions = 100
    for _ in range(compositions):
        sizes = [rng.randint(1, 5) for _ in range(3)]
        spaces = [FiniteSpace(s) for s in sizes]
        f = SpaceMap(spaces[0], spaces[1], tuple(rng.randrange(sizes[1]) for _ in range(sizes[0])))
        g = SpaceMap(spaces[1], spaces[2], tuple(rng.randrange(sizes[2]) for _ in range(sizes[1])))
        lhs = dual_morphism(compose_maps(g, f))
        dual_g, dual_f = dual_morphism(g), dual_morphism(f)
        for element in FiniteBoolAlg(sizes[2]).elements():
            assert lhs.apply(element) == dual_f.apply(dual_g.apply(element))
    _report(
        4,
        f"round trips exact for sizes 0-5; contravariant functoriality on "
        f"{compositions} seeded compositions",
    )


# ---------------------------------------------------------------------------
# 5. Function-algebra equivalence = sentence-by-sentence agreement = equality
# ---------------------------------------------------------------------------


def test_criterion_05_finite_function_algebra_equivalence_three_ways():
    corpus = sentence_corpus(200)
    verdicts = {m: tuple(fo_eval(phi, FiniteBoolAlg(m)) for phi in corpus) for m in range(1, 5)}
    disagreements = 0
    for m in range(1, 5):
        for n in range(1, 5):
            decided = cstar_equiv(Finite(m), Finite(n))
            corpus_agrees = verdicts[m] == verdicts[n]
            if not (decided == corpus_agrees == (m == n)):
                disagreements += 1
    assert disagreements == 0
    _report(
        5,
        "cstar_equiv = corpus agreement = size equality on all 16 pairs "
        f"(corpus of {len(corpus)} sentences), zero disagreements",
    )


# ---------------------------------------------------------------------------
# 6. Classical-to-continuous translation bridge
# ---------------------------------------------------------------------------


def test_criterion_06_translation_bridge_matches_discrete_truth():
    corpus = sentence_corpus(200)
    assert len(corpus) == 200
    assert max(quantifier_rank(phi) for phi in corpus) <= 3
    agreements = 0
    for size in range(1, 5):
        algebra = CStarAlgebraFin(size)
        discrete = FiniteBoolAlg(size)
        for phi in corpus:
            certificate = ceval(translate_fo(phi), algebra, {}, tol=1e-6)
            if fo_eval(phi, discrete):
                assert certificate.upper <= 1e-6
            else:
                assert certificate.lower >= 1 - 1e-6
            agreements += 1
    _report(
        6,
        f"{agreements}/800 sentence-space pairs: certified value on the "
        "0-side exactly when the discrete verdict is true (tolerance 1e-6)",
    )


# ---------------------------------------------------------------------------
# 7. Classification invariants with the symbolic derivative oracle
# ---------------------------------------------------------------------------


def test_criterion_07_invariants_frozen_values_and_chain_length_law():
    frozen = [
        (FreeAtomless(), (0, 0, True)),
        (FinCof(), (1, 1, False)),
        (PowersetOmega(), (1, 0, True)),
    ]
    frozen.extend((Finite(n), (0, n, False)) for n in range(1, 7))
    for descriptor, expected in frozen:
        invariant = ershov_invariants(descriptor)
        assert (invariant.level, invariant.atom_count, invariant.atomless_flag) == expected
        # the chain walks one derivative per level and ends at the trivial algebra
        assert invariant.level == len(derivative_chain(descriptor)) - 2
    chains = 0
    for exponent in range(1, 5):
        for coeff in range(1, 4):
            descriptor = IntervalAlgebra(w(exponent, coeff))
            chain = derivative_chain(descriptor)
            assert len(chain) - 1 == exponent + 1
            invariant = ershov_invariants(descriptor)
            assert invariant.level == exponent
            assert invariant.atom_count == coeff
            assert invariant.atomless_flag is False
            chains += 1
    _report(
        7,
        f"9 frozen invariant triples re-derived by the derivative chain; "
        f"chain length = exponent + 1 on {chains} interval algebras (exponents <= 4)",
    )


# ---------------------------------------------------------------------------
# 8. The enumeration realizes every corpus theory, without repetition
# ---------------------------------------------------------------------------


def test_criterion_08_enumeration_distinct_and_covers_corpus():
    theories = enumerate_theories(1000)
    assert len(theories) == 1000
    assert len(set(theories)) == 1000
    corpus = descriptor_corpus()
    assert len(corpus) >= 50
    realized = {ershov_invariants(descriptor) for descriptor in corpus}
    missing = realized - set(theories)
    assert not missing
    _report(
        8,
        f"1000 pairwise-distinct theories include all {len(realized)} invariants "
        f"realized by the {len(corpus)}-descriptor corpus",
    )


# ---------------------------------------------------------------------------
# 9. Joint spectrum: three singularity routes agree
# ---------------------------------------------------------------------------


def test_criterion_09_singularity_three_way_agreement():
    grid = [0, 1, -1, 0.5, -0.5, 1j, -1j, 0.5 + 0.5j]
    rng = random.Random(2026)
    solvable_count = member_count = 0
    for _ in range(100):
        size = rng.randint(1, 5)
        coords = rng.randint(1, 3)
        elements = tuple(
            tuple(complex(rng.choice(grid)) for _ in range(size)) for _ in range(coords)
        )
        if rng.random() < 0.5:
            point = rng.randrange(size)
            lam = tuple(element[point] for element in elements)
        else:
            lam = tuple(complex(rng.choice(grid)) for _ in range(coords))
        checks = singular_cross_checks(elements, lam)
        positive_sum = tuple(
            sum(abs(lam[i] - element[x]) for i, element in enumerate(elements))
            for x in range(size)
        )
        vanishes = min(positive_sum) <= 1e-10
        assert checks["pointwise"] == checks["absolute_sum_not_invertible"] == vanishes
        assert checks["solvable"] == (not checks["pointwise"])
        if checks["solvable"]:
            assert checks["solution_residual"] <= 1e-12
            solvable_count += 1
        else:
            member_count += 1
    _report(
        9,
        f"100 random tuples: membership, vanishing positive sum (tol 1e-10), "
        f"and solvability (residual <= 1e-12) agree on all "
        f"({member_count} singular, {solvable_count} invertible)",
    )


# ---------------------------------------------------------------------------
# 10. Infinite-projection score is bounded away from zero
# ---------------------------------------------------------------------------


def test_criterion_10_projection_score_at_least_one_quarter():
    checked = 0
    worst = float("inf")
    for size in range(1, 5):
        algebra = CStarAlgebraFin(size)
        for bits in itertools.product((0.0, 1.0), repeat=size):
            projection = tuple(complex(b) for b in bits)
            score = psi_infinite_projection(projection, algebra)
            worst = min(worst, score)
            assert score >= 0.25
            checked += 1
    _report(
        10,
        f"score >= 1/4 on all {checked} projections over spaces of size <= 4 "
        f"(worst observed {worst:.6f})",
    )


# ---------------------------------------------------------------------------
# 11. Clopen coding reconstruction error
# ---------------------------------------------------------------------------


def test_criterion_11_coding_reconstruction_error_bound():
    rng = random.Random(2026)
    checked = 0
    for scale in (4, 8, 16):
        for size in range(1, 7):
            for _ in range(12):
                element = tuple(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2 ** rng.randint(0, 1)
                    for _ in range(size)
                )
                shrink = 0.999 / max(1.0, max(abs(x) for x in element))
                element = tuple(v * shrink for v in element)
                recovered = reconstruct(clopen_code(element, scale))
                assert c_norm(c_sub(element, recovered)) <= 2.0 / scale
                checked += 1
    _report(
        11,
        f"reconstruction error <= 2/M on {checked} sampled contractions, "
        "M in {4, 8, 16}, sizes <= 6",
    )


# ---------------------------------------------------------------------------
# 12. Chain interpolation: always possible when atomless, sharp when finite
# ---------------------------------------------------------------------------


def _seeded_chains(rng, algebra, max_len=6):
    lower, upper = [], []
    current_low, current_high = algebra.bottom, algebra.top
    for _ in range(rng.randint(0, max_len)):
        gap = algebra.meet(current_high, algebra.complement(current_low))
        word = rng.choice(sorted(gap.words))
        piece = algebra.cylinder(word + rng.choice("01"))
        if rng.random() < 0.5:
            candidate = algebra.join(current_low, piece)
            if candidate not in (current_low, current_high) and algebra.leq(candidate, current_high):
                lower.append(candidate)
                current_low = candidate
        else:
            candidate = algebra.meet(current_high, algebra.complement(piece))
            if candidate not in (current_low, current_high) and algebra.leq(current_low, candidate):
                upper.append(candidate)
                current_high = candidate
    return lower, upper


def test_criterion_12_interpolation_complete_atomless_and_sharp_finite():
    algebra = PresentedAtomlessBA()
    rng = random.Random(2026)
    succeeded = 0
    for _ in range(500):
        lower, upper = _seeded_chains(rng, algebra)
        interpolant = interpolate_chain(lower, upper, algebra)
        assert isinstance(interpolant, CylinderElement)
        for element in lower:
            assert algebra.leq(element, interpolant) and element != interpolant
        for element in upper:
            assert algebra.leq(interpolant, element) and interpolant != element
        succeeded += 1
    assert succeeded == 500

    finite_pairs = not_found = 0
    for atoms in range(1, 5):
        algebra_f = FiniteBoolAlg(atoms)
        for low in algebra_f.elements():
            for high in algebra_f.elements():
                if not (algebra_f.leq(low, high) and low != high):
                    continue
                outcome = interpolate_chain([low], [high], algebra_f)
                between = [
                    c
                    for c in algebra_f.elements()
                    if algebra_f.leq(low, c) and algebra_f.leq(c, high) and c not in (low, high)
                ]
                if outcome == NOT_FOUND:
                    assert not between
                    not_found += 1
                else:
                    assert outcome in between
                finite_pairs += 1
    _report(
        12,
        f"500/500 seeded strict chains interpolated in the atomless algebra; "
        f"finite verdicts match brute force on {finite_pairs} ordered pairs "
        f"({not_found} empty intervals), atoms <= 4",
    )


# ---------------------------------------------------------------------------
# 13. Orthogonal family size equals the space size
# ---------------------------------------------------------------------------


def test_criterion_13_orthogonal_family_size_and_refutation():
    for size in range(1, 9):
        algebra = CStarAlgebraFin(size)
        assert max_orthogonal_family(algebra) == size
        family = orthogonal_witness_family(algebra)
        assert len(family) == size
        for element in family:
            assert abs(c_norm(element) - 1.0) <= 1e-12
        for left, right in itertools.combinations(family, 2):
            assert all(a * b == 0 for a, b in zip(left, right))

    # Over a two-point space, three pairwise-orthogonal unit-norm positives
    # are one too many; the solver must certify a positive deviation floor.
    code = main(
        [
            "realize",
            "--cond", "x in {1}",
            "--cond", "y in {1}",
            "--cond", "z in {1}",
            "--cond", "(* x y) in {0}",
            "--cond", "(* x z) in {0}",
            "--cond", "(* y z) in {0}",
            "--points", "2",
            "--tol", "0.25",
            "--sort", "x=pos", "--sort", "y=pos", "--sort", "z=pos",
            "--json",
            "--out", "/tmp/acceptance_orth.json",
        ]
    )
    assert code == 3
    with open("/tmp/acceptance_orth.json", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["result"] == "unsatisfiable"
    assert payload["epsilon"] > 0.25
    _report(
        13,
        "max orthogonal family = |X| with verified witnesses for |X| <= 8; "
        f"3 orthonormal positives over 2 points refuted with epsilon = "
        f"{payload['epsilon']:.5f} > 0.25",
    )


# ---------------------------------------------------------------------------
# 14. Conflicting classifications are surfaced, not resolved
# ---------------------------------------------------------------------------


def _golden_ba_eq(left: str, right: str, out_path: str) -> dict:
    code = main(["ba-eq", left, right, "--json", "--out", out_path])
    assert code == 0
    with open(out_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["verb"] == "ba-eq"
    assert payload["verdict"] is False
    note = payload["conflict_note"]
    assert note["kind"] == "classification-conflict"
    assert note["status"] == "unresolved"
    assert note["left"]["descriptor"] == left
    assert note["right"]["descriptor"] == right
    assert note["left"]["invariants"] != note["right"]["invariants"]
    assert "documented" in note["note"]
    return note


def test_criterion_14_conflict_notes_are_golden():
    _golden_ba_eq("intalg(w)", "intalg(w*2)", "/tmp/acceptance_conflict_1.json")
    _golden_ba_eq("fincof", "P(omega)", "/tmp/acceptance_conflict_2.json")
    _report(
        14,
        "both golden pairs answer false with a machine-readable, unresolved "
        "classification-conflict note",
    )
