"""The expansion checked in the n-point permutation representation.

``M(x)[card][position]`` is the total coefficient of the terms of ``x`` that
put ``card`` at ``position``, and ``compose(p, q)`` maps to ``M(p)·M(q)``.
Counting the injections of ``B_a = top_to_random(a, n)`` gives its matrix in
closed form, so ``B_{a_1}···B_{a_k} = Σ_j q_j B_j`` implies
``Π_i M(B_{a_i}) = Σ_j q_j M(B_j)`` at any deck size.  The matrices come from
that counting formula alone, never from the expansion's own kernel, so the
check is independent of the code it tests.

The faced algebra has the same check on the ``n·order`` points
``(card x, face φ)``: a faced term with card ``x`` at position ``y``
showing face ``f`` adds its coefficient at row ``(x, φ)``, column
``(y, φ·f)``, for every ``φ``, and ``g_compose(s, t)`` maps to
``M̂(s)·M̂(t)``.  Counting the terms of ``B̂_a = hat_top_to_random(a, n)``
gives ``M̂(B̂_a)`` from ``M(B_a)`` and the group's order alone, so the
faced expansion ``B̂_{a_1}···B̂_{a_k} = Σ_c g_expansion[c]·B̂_c`` pins the
power of the order in each of its coefficients.
"""

import itertools
import math
import random
from functools import cache
from operator import mul

import pytest

from topshuffle import (
    FiniteGroup,
    GPermutation,
    ShuffleSpec,
    all_permutations,
    expansion,
    g_compose,
    g_expansion,
    is_term_of,
)


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


# The faced representation ---------------------------------------------------

GROUPS = {
    "Z1": FiniteGroup.cyclic(1),
    "Z2": FiniteGroup.cyclic(2),
    "Z3": FiniteGroup.cyclic(3),
    "S3": FiniteGroup.symmetric_3(),
}


def _g_entry(a: int, n: int, order: int, x: int, phi: int, y: int, psi: int) -> int:
    """``M̂(B̂_a)[(x, φ)][(y, ψ)]``.  A moved card ``x <= a`` shows each face
    in ``order**(a-1)`` of the face choices, so every column gets the same
    count; an unmoved card keeps the identity face, so ``ψ = φ``, and every
    one of its ``M(B_a)`` decks comes with ``order**a`` face choices."""
    if x <= a:
        return order ** (a - 1) * math.perm(n - 1, a - 1)
    return order**a * _entry(a, n, x, y) if psi == phi else 0


def g_shuffle_matrix(a: int, n: int, order: int) -> list[list[int]]:
    """``M̂(B̂_a)`` from the counting formula alone; point ``(x, φ)`` is
    index ``(x-1)·order + φ``."""
    points = [(x, phi) for x in range(1, n + 1) for phi in range(order)]
    return [[_g_entry(a, n, order, *row, *column) for column in points] for row in points]


def _g_times(v: list[int], a: int, n: int, order: int) -> list[int]:
    """The row vector ``v·M̂(B̂_a)`` from the same formula, face by face:
    the moved cards' rows add the same count to every column, and the unmoved
    cards' rows for face ``ψ`` act on the ``ψ`` columns through ``M(B_a)``."""
    moved = order ** (a - 1) * math.perm(n - 1, a - 1) * sum(v[: a * order])
    unmoved = [[0] * a + v[a * order + psi :: order] for psi in range(order)]
    by_face = [_times(w, a, n) for w in unmoved]
    return [moved + order**a * by_face[psi][y] for y in range(n) for psi in range(order)]


def _g_matrix(n: int, group: FiniteGroup, terms) -> list[list[int]]:
    """``M̂`` of the faced decks ``terms``, each with coefficient 1."""
    order = group.order
    m = [[0] * (n * order) for _ in range(n * order)]
    for gp in terms:
        for y, (f, x) in enumerate(gp.deck):
            for phi in range(order):
                m[(x - 1) * order + phi][y * order + group.cayley[phi][f]] += 1
    return m


def _hat_terms(a: int, n: int, order: int):
    """The terms of ``B̂_a``: each term of ``B_a`` with every face on cards
    ``1..a`` and the identity face on the others."""
    for p in all_permutations(n):
        if is_term_of(p, a):
            for faces in itertools.product(range(order), repeat=a):
                yield GPermutation(tuple((faces[c - 1] if c <= a else 0, c) for c in p.deck))


def _random_faced_deck(rng: random.Random, n: int, order: int) -> GPermutation:
    cards = rng.sample(range(1, n + 1), n)
    return GPermutation(tuple((rng.randrange(order), c) for c in cards))


def test_faced_representation_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(320):
        n, group = rng.randint(1, 4), rng.choice(list(GROUPS.values()))
        s, t = (_random_faced_deck(rng, n, group.order) for _ in range(2))
        left = _g_matrix(n, group, [g_compose(s, t, group)])
        assert left == _matmul(_g_matrix(n, group, [s]), _g_matrix(n, group, [t]))


@pytest.mark.parametrize("name", GROUPS)
def test_faced_counting_formula_matches_the_enumerated_terms(name):
    group, rng = GROUPS[name], random.Random(name)
    order = group.order
    for n in range(1, 4 if name == "S3" else 5):
        for a in range(1, n + 1):
            formula = g_shuffle_matrix(a, n, order)
            assert formula == _g_matrix(n, group, _hat_terms(a, n, order)), (n, a)
            v = [rng.randint(-99, 99) for _ in range(n * order)]
            assert _g_times(v, a, n, order) == _matmul([v], formula)[0], (n, a)


def _check_faced_identity(n: int, a: tuple[int, ...], group: FiniteGroup, v: list[int]):
    order = group.order
    left = v
    for ai in a:
        left = _g_times(left, ai, n, order)
    right = [0] * (n * order)
    for c, qc in g_expansion(ShuffleSpec(n, a), group).items():
        right = [r + qc * t for r, t in zip(right, _g_times(v, c, n, order))]
    assert left == right, (n, a, order)


def test_faced_expansion_holds_on_random_vectors_up_to_5_cards():
    rng = random.Random(1992)
    for _ in range(60):
        n, group = rng.randint(1, 5), rng.choice(list(GROUPS.values()))
        a = _random_sizes(rng, rng.randint(1, 4), n)
        v = [rng.randint(-(10**6), 10**6) for _ in range(n * group.order)]
        _check_faced_identity(n, a, group, v)


_rng = random.Random(2014)
FACED_DECK_SPECS = [
    ("Z2", _random_sizes(_rng, 40, 52)),
    ("Z3", (1,) * 100),
    ("S3", _random_sizes(_rng, 60, 4)),
    ("S3", _random_sizes(_rng, 12, 52)),
]


@pytest.mark.parametrize(
    "name, a", FACED_DECK_SPECS, ids=lambda x: x if isinstance(x, str) else f"k{len(x)}"
)
def test_faced_expansion_holds_on_random_vectors_at_52_cards(name, a):
    group, rng = GROUPS[name], random.Random(len(a))
    v = [rng.randint(-(10**6), 10**6) for _ in range(52 * group.order)]
    _check_faced_identity(52, a, group, v)
