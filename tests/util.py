"""Small shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import pickle
from itertools import combinations, product

import pytest

from elemeq.clogic import CAdd, CConst, CMul, COne, CScale, CStar, CSub, CVar, CZero
from elemeq.ordinals import Ordinal, ZERO, finite, omega_power, ord_add, ord_mul


def mk(pairs: list[tuple[int, int]]) -> Ordinal:
    """Ordinal from (finite exponent, coefficient) pairs, decreasing exps."""
    return Ordinal(tuple((finite(e), c) for e, c in pairs))


def pairs_of(alpha: Ordinal) -> tuple[tuple[int, int], ...]:
    """Inverse of :func:`mk`; requires all exponents finite."""
    return tuple((e.to_int(), c) for e, c in alpha.terms)


def below_omega_cubed(max_terms: int = 3, max_coeff: int = 4) -> list[Ordinal]:
    """All ordinals < w^3 with at most ``max_terms`` terms and bounded coeffs."""
    out = [ZERO]
    for nterms in range(1, max_terms + 1):
        for exps in combinations((2, 1, 0), nterms):
            for coeffs in product(range(1, max_coeff + 1), repeat=nterms):
                out.append(mk(list(zip(exps, coeffs))))
    return out


def w(exp: int, coeff: int = 1) -> Ordinal:
    return omega_power(finite(exp), coeff)


def nat(n: int) -> Ordinal:
    return finite(n)


def osum(*parts: Ordinal) -> Ordinal:
    total = ZERO
    for p in parts:
        total = ord_add(total, p)
    return total


TERM_NAMES = ("x", "y", "z")


def random_element(rng, n):
    return tuple(
        complex(rng.choice((-1.0, 0.0, 0.5, 1.0)), rng.choice((0.0, 0.25, -1.0)))
        for _ in range(n)
    )


def random_term(rng, n, depth):
    """A *-polynomial over ``TERM_NAMES`` with every kind of node."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(5)
        if pick < 2:
            return CVar(rng.choice(TERM_NAMES))
        return (CZero(), COne(), CConst(random_element(rng, n)))[pick - 2]
    kind = rng.randrange(5)
    if kind == 0:
        return CStar(random_term(rng, n, depth - 1))
    if kind == 1:
        scalar = complex(rng.choice((0.5, -2.0, 1.0)), rng.choice((0.0, 0.75)))
        return CScale(scalar, random_term(rng, n, depth - 1))
    op = (CAdd, CSub, CMul)[kind - 2]
    return op(random_term(rng, n, depth - 1), random_term(rng, n, depth - 1))


def check_node_shape(classes, args, fields, text):
    """Pin one node shape shared by ``classes``, built from ``args``.

    Each class keeps the field names ``fields``, a dataclass repr (``text`` for
    the first class), frozen fields, pickling, and an ``==`` and ``hash`` that
    tell the classes apart on equal fields, as the memos keyed on nodes need.
    """
    nodes = [cls(*args) for cls in classes]
    assert len(set(nodes)) == len(nodes)
    for a, b in combinations(nodes, 2):
        assert a != b
    for cls, node in zip(classes, nodes):
        assert repr(node) == cls.__name__ + text[len(classes[0].__name__):]
        assert tuple(f.name for f in dataclasses.fields(node)) == fields
        assert node == cls(*args) and hash(node) == hash(cls(*args))
        assert pickle.loads(pickle.dumps(node)) == node
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)


def check_frozen_nodes(nodes, shapes):
    """Every node refuses to set or delete any attribute, fields and new
    names alike, and ``nodes`` covers every subclass of each of ``shapes``."""
    covered = {type(node) for node in nodes}
    for shape in shapes:
        assert set(shape.__subclasses__()) <= covered, shape
    for node in nodes:
        state = dict(node.__dict__)
        names = [f.name for f in dataclasses.fields(node)] + ["extra"]
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert node.__dict__ == state, node
