"""The expansion checked in the n-point permutation representation.

``M(x)[card][position]`` is the total coefficient of the terms of ``x`` that
put ``card`` at ``position``, and ``compose(p, q)`` maps to ``M(p)·M(q)``.
Counting the injections of ``B_a = top_to_random(a, n)`` gives its matrix in
closed form, so ``B_{a_1}···B_{a_k} = Σ_j q_j B_j`` implies
``Π_i M(B_{a_i}) = Σ_j q_j M(B_j)`` at any deck size.  The matrices come from
that counting formula alone, never from the expansion's own kernel, so the
check is independent of the code it tests.
"""

import math
import random
from functools import cache
from operator import mul

import pytest

from topshuffle import ShuffleSpec, all_permutations, expansion, is_term_of


def _entry(a: int, n: int, x: int, y: int) -> int:
    """``M(B_a)[x][y]``: the injections of ``B_a`` that put card ``x`` at
    position ``y``.  A moved card ``x <= a`` lands there in ``P(n-1, a-1)``
    ways; an unmoved card ``x > a`` needs ``t = y - x + a`` of the ``a``
    moved cards above it, ``a - t`` below, in ``a!·C(y-1, t)·C(n-y, a-t)``
    ways."""
    if x <= a:
        return math.perm(n - 1, a - 1)
    t = y - x + a
    if not 0 <= t <= a:
        return 0
    return math.factorial(a) * math.comb(y - 1, t) * math.comb(n - y, a - t)


@cache
def shuffle_matrix(a: int, n: int) -> tuple[tuple[int, ...], ...]:
    """``M(B_a)`` from the counting formula alone."""
    cells = range(1, n + 1)
    return tuple(tuple(_entry(a, n, x, y) for y in cells) for x in cells)


@cache
def _columns(a: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*shuffle_matrix(a, n)))


def _times(v: list[int], a: int, n: int) -> list[int]:
    """The row vector ``v·M(B_a)``."""
    return [sum(map(mul, v, column)) for column in _columns(a, n)]


def _matmul(x, y) -> list[list[int]]:
    return [[sum(map(mul, row, column)) for column in zip(*y)] for row in x]


def _enumerated_matrix(a: int, n: int) -> list[list[int]]:
    """``M(B_a)`` from the terms of ``B_a``, each with coefficient 1."""
    m = [[0] * n for _ in range(n)]
    for p in all_permutations(n):
        if is_term_of(p, a):
            for y, x in enumerate(p.deck):
                m[x - 1][y] += 1
    return m


@pytest.mark.parametrize("n", range(1, 7))
def test_counting_formula_matches_the_enumerated_terms(n):
    for a in range(1, n + 1):
        assert [list(r) for r in shuffle_matrix(a, n)] == _enumerated_matrix(a, n), a


def test_expansion_holds_as_full_matrices_up_to_8_cards():
    rng = random.Random(20141)
    for _ in range(150):
        n = rng.randint(1, 8)
        a = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 5)))
        left = shuffle_matrix(a[0], n)
        for ai in a[1:]:
            left = _matmul(left, shuffle_matrix(ai, n))
        right = [[0] * n for _ in range(n)]
        for j, q in expansion(ShuffleSpec(n, a)).items():
            for row, term in zip(right, shuffle_matrix(j, n)):
                row[:] = [r + q * t for r, t in zip(row, term)]
        assert [list(r) for r in left] == right, (n, a)


def _random_sizes(rng: random.Random, k: int, top: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, top) for _ in range(k))


_rng = random.Random(52)
FULL_DECK_SPECS = [
    (1,) * 300,
    _random_sizes(_rng, 40, 52),
    _random_sizes(_rng, 300, 4),
    _random_sizes(_rng, 120, 13),
]


@pytest.mark.parametrize("a", FULL_DECK_SPECS, ids=lambda a: f"k{len(a)}max{max(a)}")
def test_expansion_holds_on_random_vectors_at_52_cards(a):
    n, rng = 52, random.Random(len(a))
    q = expansion(ShuffleSpec(n, a))
    for _ in range(2):
        v = [rng.randint(-(10**6), 10**6) for _ in range(n)]
        left = v
        for ai in a:
            left = _times(left, ai, n)
        right = [0] * n
        for j, qj in q.items():
            right = [r + qj * t for r, t in zip(right, _times(v, j, n))]
        assert left == right
