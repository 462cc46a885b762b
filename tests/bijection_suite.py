"""The shuffle-tuple / round-partition bijection checked exhaustively on one
spec, for acceptance criterion 4 and the fast suite alike."""

import itertools
from collections import defaultdict

from topshuffle import (
    Permutation,
    enumerate_segmented_partitions,
    phi,
    phi_inverse,
    q_cardinality,
)
from topshuffle.algebra import _top_to_random_decks
from topshuffle.permutations import _compose_decks


def compositions(total, max_part):
    """Every tuple of parts in ``1..max_part`` summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, max_part) + 1):
        for rest in compositions(total - first, max_part):
            yield (first,) + rest


def check_bijection(spec):
    """Walks every shuffle tuple of ``spec`` once, asserting that
    ``phi_inverse(phi(tup), t)`` gives it back, ``t`` its composite, and
    that the partitions over each block count ``j`` and each term ``t`` of
    the ``j``-card sum are exactly ``Q_j``: the enumerated partitions, none
    listed twice, ``q_cardinality(spec, j)`` of them.

    The round trip makes ``tup -> (alpha, t)`` injective, so each fiber
    holds ``|Q_j|`` tuples, and ``phi_inverse`` maps each pair of
    ``Q_j x T_j`` to a walked tuple whose partition and composite it is."""
    n, k = spec.n, spec.k
    # One object per deck, so that each works out its shuffle size once.
    decks = {d: Permutation(d) for d in itertools.permutations(range(1, n + 1))}
    factors = [[decks[d] for d in _top_to_random_decks(ai, n)] for ai in spec.a]
    fibers = defaultdict(set)
    sigmas: list = [None] * k

    def walk(depth, deck):
        if depth == k:
            tup, t = tuple(sigmas), decks[deck]
            alpha = phi(tup, spec)
            assert phi_inverse(alpha, t, spec) == tup, (spec, tup)
            fibers[alpha.j, t].add(alpha)
            return
        for s in factors[depth]:
            sigmas[depth] = s
            walk(depth + 1, _compose_decks(deck, s.deck))

    walk(0, tuple(range(1, n + 1)))

    expected = {}
    for j in range(spec.j_min, spec.j_max + 1):
        q = enumerate_segmented_partitions(spec, j)
        assert len(set(q)) == len(q) == q_cardinality(spec, j), (spec, j)
        expected.update({(j, decks[d]): set(q) for d in _top_to_random_decks(j, n)})
    assert fibers == expected, spec
