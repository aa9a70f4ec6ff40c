"""Tests for the finite-dimensional function algebras and spectrum tools."""

import itertools
import math
import random

import pytest

from elemeq.cstar import (
    MAX_CODE_SCALE,
    CStarAlgebraFin,
    c_add,
    c_mul,
    c_norm,
    c_scale,
    c_star,
    c_sub,
    clopen_code,
    is_projection,
    is_singular,
    joint_spectrum,
    projections,
    psi_infinite_projection,
    reconstruct,
    singular_cross_checks,
    spectrum_indicator,
)
from elemeq.errors import PreconditionError, ResourceBudgetError


def random_element(rng, n, radius=1.0):
    return tuple(
        complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        for _ in range(n)
    )


# ---------------------------------------------------------------------------
# Algebra basics
# ---------------------------------------------------------------------------


def test_algebra_constructors():
    a = CStarAlgebraFin(3)
    assert a.zero() == (0j, 0j, 0j)
    assert a.one() == (1, 1, 1)
    assert a.indicator({0, 2}) == (1, 0, 1)
    with pytest.raises(PreconditionError):
        CStarAlgebraFin(0)
    with pytest.raises(PreconditionError):
        a.indicator({3})
    with pytest.raises(PreconditionError):
        a.element([1, 2])


def test_star_algebra_laws_sampled():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        f, g = random_element(rng, n), random_element(rng, n)
        assert c_star(c_star(f)) == f
        assert c_star(c_mul(f, g)) == c_mul(c_star(g), c_star(f))
        assert c_norm(c_mul(f, g)) <= c_norm(f) * c_norm(g) + 1e-12
        # The C*-identity, exact up to rounding.
        assert math.isclose(
            c_norm(c_mul(c_star(f), f)), c_norm(f) ** 2, rel_tol=1e-12
        )
        assert c_norm(c_add(f, c_scale(-1, f))) == 0


def test_pointwise_ops_reject_mismatched_sizes():
    for op in (c_add, c_sub, c_mul):
        with pytest.raises(PreconditionError):
            op((1j, 2j), (1j,))
        with pytest.raises(ValueError):
            op((), (0j,))


def test_projections_enumeration():
    a = CStarAlgebraFin(3)
    ps = projections(a)
    assert len(ps) == 8
    assert all(is_projection(p) for p in ps)
    assert len(set(ps)) == 8
    assert not is_projection((0.5 + 0j, 0j, 0j))


# ---------------------------------------------------------------------------
# Joint spectrum and singularity
# ---------------------------------------------------------------------------


def test_joint_spectrum_frozen_examples():
    A = CStarAlgebraFin(3)
    a = A.element([0, 1, 2])
    b = A.element([5, 5, 5])
    assert joint_spectrum((a,)) == frozenset({(0,), (1,), (2,)})
    assert joint_spectrum((a, b)) == frozenset({(0, 5), (1, 5), (2, 5)})
    assert joint_spectrum((A.element([7, 7, 7]),)) == frozenset({(7,)})


def test_singularity_frozen_examples():
    A = CStarAlgebraFin(3)
    a = A.element([0, 1, 2])
    assert is_singular((a,), (1 + 0j,))
    assert not is_singular((a,), (5 + 0j,))
    # Evaluating at a point of the space is singular by construction.
    assert is_singular((a,), (a[2],))


def test_singularity_three_routes_agree():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        k = rng.randint(1, 3)
        a = tuple(random_element(rng, n) for _ in range(k))
        # Mix genuinely spectral parameters with off-spectrum ones.
        if rng.random() < 0.5:
            x = rng.randrange(n)
            lam = tuple(f[x] for f in a)
        else:
            lam = tuple(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(k)
            )
        checks = singular_cross_checks(a, lam)
        member = lam in joint_spectrum(a)
        assert checks["pointwise"] == member
        assert checks["absolute_sum_not_invertible"] == member
        assert checks["solvable"] == (not member)
        if checks["solvable"]:
            assert checks["solution_residual"] <= 1e-12
        indicator = spectrum_indicator(a, lam)
        assert (indicator == 0) == member


def test_spectrum_indicator_frozen_values():
    A = CStarAlgebraFin(3)
    a = A.element([0, 1, 2])
    assert spectrum_indicator((a,), (1 + 0j,)) == 0
    assert spectrum_indicator((a,), (5 + 0j,)) == 1
    assert spectrum_indicator((a,), (1.5 + 0j,)) == 0.5


def test_tuple_preconditions():
    A = CStarAlgebraFin(2)
    a = A.element([0, 1])
    with pytest.raises(PreconditionError):
        joint_spectrum(())
    with pytest.raises(PreconditionError):
        is_singular((a,), (1 + 0j, 2 + 0j))
    with pytest.raises(PreconditionError):
        joint_spectrum((a, CStarAlgebraFin(3).one()))


@pytest.mark.parametrize("check", [is_singular, singular_cross_checks, spectrum_indicator])
def test_spectral_parameter_checks_come_after_the_tuple_checks(check):
    a = CStarAlgebraFin(2).element([0, 1])
    for elements, lam, message in (
        ((), (0j,), "nonempty"),
        ((a, CStarAlgebraFin(3).one()), (0j,), "different sizes"),
        ((a,), (0j, 0j), "one spectral parameter"),
    ):
        with pytest.raises(PreconditionError, match=message):
            check(elements, lam)


# ---------------------------------------------------------------------------
# Clopen coding
# ---------------------------------------------------------------------------


def test_clopen_code_frozen_examples():
    A = CStarAlgebraFin(2)
    # Constant zero at scale 1: the whole space sits in the ball at 0 and
    # nowhere else (neighbouring grid points are at distance exactly 1).
    codes = clopen_code(A.zero(), 1)
    nonempty = {(c.y, c.points) for c in codes if c.points}
    assert nonempty == {(0j, frozenset({0, 1}))}
    # Two-point element at scale 2: each point is coded at its own value.
    codes = clopen_code(A.element([0, 1]), 2)
    nonempty = {(c.y, c.points) for c in codes if c.points}
    assert nonempty == {(0j, frozenset({0})), (1 + 0j, frozenset({1}))}


def test_clopen_code_covers_space():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.choice([1, 2, 4, 8])
        f = random_element(rng, n, radius=0.7)
        covered = set()
        for c in clopen_code(f, m):
            assert c.m == m
            covered |= c.points
        assert covered == set(range(n))


def test_reconstruction_error_bound():
    rng = random.Random(6)
    for m_scale in (4, 8, 16):
        for _ in range(25):
            n = rng.randint(1, 6)
            f = random_element(rng, n, radius=0.7)
            rebuilt = reconstruct(clopen_code(f, m_scale))
            assert c_norm(c_sub(f, rebuilt)) <= 2 / m_scale


def test_reconstruction_sharpens_with_scale():
    rng = random.Random(8)
    f = random_element(rng, 4, radius=0.7)
    errors = [
        c_norm(c_sub(f, reconstruct(clopen_code(f, m)))) for m in (4, 8, 16, 32)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse + 1e-12


def test_coding_preconditions():
    A = CStarAlgebraFin(2)
    with pytest.raises(PreconditionError):
        clopen_code(A.element([2, 0]), 4)
    with pytest.raises(PreconditionError):
        clopen_code(A.zero(), 0)
    assert len(clopen_code(A.zero(), MAX_CODE_SCALE)) == (2 * MAX_CODE_SCALE + 1) ** 2
    with pytest.raises(ResourceBudgetError, match="exceeds the cap 128"):
        clopen_code(A.zero(), MAX_CODE_SCALE + 1)
    with pytest.raises(PreconditionError):
        reconstruct([])


# ---------------------------------------------------------------------------
# Infinite-projection score
# ---------------------------------------------------------------------------


def test_psi_frozen_values():
    A = CStarAlgebraFin(2)
    assert psi_infinite_projection(A.zero(), A) == 1
    assert psi_infinite_projection(A.one(), A) == 1


def test_psi_bounded_below_exhaustively():
    for n in range(1, 5):
        A = CStarAlgebraFin(n)
        for p in projections(A):
            assert psi_infinite_projection(p, A) >= 0.25


def _psi_over_phases(p, algebra):
    """The score with the infimum over all 5^n candidates whose coordinates
    are zero or a fourth root of unity."""
    fixed = c_norm(c_sub(p, c_star(p))) + c_norm(c_sub(p, c_mul(p, p)))
    best = math.inf
    phases = (0j, 1 + 0j, -1 + 0j, 1j, -1j)
    for y in itertools.product(phases, repeat=algebra.point_count):
        yy = c_mul(y, c_star(y))
        gap = c_norm(c_sub(yy, p))
        under = c_norm(c_sub(c_mul(yy, p), yy))
        best = min(best, gap + under + max(1 - gap, 0.0))
    return fixed + best


def test_psi_equals_the_search_over_all_phases():
    # only |y| enters the score, so the 2^n {0, 1} candidates give the same value
    for n in range(1, 5):
        A = CStarAlgebraFin(n)
        for p in projections(A):
            assert psi_infinite_projection(p, A) == _psi_over_phases(p, A)


def test_psi_preconditions():
    A = CStarAlgebraFin(2)
    with pytest.raises(PreconditionError):
        psi_infinite_projection((0.5 + 0j, 0j), A)
    big = CStarAlgebraFin(5)
    with pytest.raises(PreconditionError):
        psi_infinite_projection(big.zero(), big)
    with pytest.raises(PreconditionError):
        psi_infinite_projection((1 + 0j,), A)
