"""The top-to-random shuffle of size ``a`` is ``a`` single-card insertions.

``Y_m`` moves the card at position ``m`` to a position ``p >= m`` and the
cards it passes up one.  Performed as ``Y_a, ..., Y_1``, it gives every term
of ``top_to_random(a, n)`` exactly once, and the faced insertions, which
spin the moved card only, give every term of ``hat_top_to_random``.  The
oracles fold over these insertions, so the factorization is pinned here on
its own: terms are built here and multiplied by the public ``compose`` and
``g_compose`` only, which share nothing with the fold.
"""

from collections import Counter

import pytest

from topshuffle import (
    FiniteGroup,
    GPermutation,
    Permutation,
    compose,
    g_compose,
    hat_top_to_random,
    identity,
    top_to_random,
)
from topshuffle.algebra import _insertion_decks
from topshuffle.wreath import _hat_insertions


def insertion(m, n):
    """The decks of ``Y_m`` on ``n`` cards, one per landing position ``p``."""
    decks = {}
    for p in range(m, n + 1):
        deck = list(range(1, n + 1))
        deck.insert(p - 1, deck.pop(m - 1))
        decks[p] = Permutation(tuple(deck))
    return decks


def hat_insertion(m, n, group):
    """The faced ``Y_m``: face ``f`` on the card landing at ``p``, the
    identity face on every other card."""
    return [
        GPermutation(
            tuple((f if i == p else 0, c) for i, c in enumerate(deck.deck, 1))
        )
        for p, deck in insertion(m, n).items()
        for f in range(group.order)
    ]


def performed(start, factors, product):
    """The terms of ``start`` followed by each factor, with their counts."""
    terms = Counter([start])
    for factor in factors:
        nxt = Counter()
        for x, c in terms.items():
            for y in factor:
                nxt[product(x, y)] += c
        terms = nxt
    return terms


@pytest.mark.parametrize("n", range(1, 7))
def test_insertions_factor_the_shuffle_sum(n):
    for a in range(1, n + 1):
        factors = [insertion(m, n).values() for m in range(a, 0, -1)]
        terms = performed(identity(n), factors, compose)
        assert set(terms.values()) == {1}
        assert dict(terms) == dict(top_to_random(a, n).terms)


@pytest.mark.parametrize(
    "group", [FiniteGroup.cyclic(2), FiniteGroup.symmetric_3()], ids=["Z2", "S3"]
)
@pytest.mark.parametrize("n", range(1, 5))
def test_faced_insertions_factor_the_faced_shuffle_sum(n, group):
    def product(x, y):
        return g_compose(x, y, group)

    for a in range(1, n + 1):
        factors = [hat_insertion(m, n, group) for m in range(a, 0, -1)]
        terms = performed(GPermutation.identity(n), factors, product)
        assert set(terms.values()) == {1}
        assert dict(terms) == dict(hat_top_to_random(a, n, group).terms)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("n", range(1, 6))
def test_oracle_terms_are_the_insertions(n, order):
    group = FiniteGroup.cyclic(order)
    for m in range(1, n + 1):
        plain = [Permutation(d) for d in _insertion_decks(m, n)]
        assert plain == list(insertion(m, n).values())
        faced = _hat_insertions(m, n, order)
        assert [GPermutation(tuple(zip(f, d))) for d, f in faced] == hat_insertion(
            m, n, group
        )
