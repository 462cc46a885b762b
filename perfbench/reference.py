"""Reference values computed without the package under test.

Every output check in the benchmark compares against these, so a defect in
the package cannot be confirmed by the same code that produced it.  The
coefficient row here counts round by round (cards opened so far -> weight),
a different route from the package's anchor-tuple enumeration.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def coefficient_row(n: int, a: tuple[int, ...]) -> dict[int, int]:
    """``{j: q_j}`` for every ``j`` with a nonzero count.

    Round ``c`` opens ``l`` fresh blocks (``comb(a_c, l)`` choices of slots)
    and seats its other ``a_c - l`` slots injectively in the blocks already
    opened; states above ``n`` are unreachable and dropped.
    """
    states = {a[0]: 1} if a[0] <= n else {}
    for ac in a[1:]:
        nxt: dict[int, int] = {}
        for opened, weight in states.items():
            for l in range(ac + 1):
                if opened + l > n:
                    break
                w = weight * math.comb(ac, l) * math.perm(opened, ac - l)
                if w:
                    nxt[opened + l] = nxt.get(opened + l, 0) + w
        states = nxt
    return dict(sorted(states.items()))


def stirling_row(k: int) -> list[int]:
    """``[S(k, 0), ..., S(k, k)]`` by the recurrence on ``k``."""
    row = [1]
    for m in range(1, k + 1):
        row = [0] + [
            j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, m + 1)
        ]
    return row


def outcomes(n: int, a: tuple[int, ...], order: int = 1) -> int:
    """Shuffle tuples a spec covers: ``prod P(n, a_i)``, times ``order**sum(a)``."""
    return math.prod(math.perm(n, x) for x in a) * order ** sum(a)


def mass_holds(n: int, a: tuple[int, ...], row: dict[int, int]) -> bool:
    """The mass identity ``sum_j q_j * P(n, j) == prod_i P(n, a_i)``."""
    return sum(q * math.perm(n, j) for j, q in row.items()) == outcomes(n, a)


def min_shuffle(deck: tuple[int, ...]) -> int:
    """Smallest ``c`` such that reinserting the top ``c`` cards of the sorted
    deck can give ``deck``: one less than the smallest card ``m`` whose run
    ``m..n`` appears left to right."""
    n = len(deck)
    pos = [0] * (n + 1)
    for i, c in enumerate(deck):
        pos[c] = i
    m = n
    while m > 1 and pos[m - 1] < pos[m]:
        m -= 1
    return m - 1


def deck_from_targets(targets, n: int) -> tuple[int, ...]:
    """Card ``i`` at position ``targets[i-1]``, other cards in increasing order."""
    deck = [0] * n
    for card0, t in enumerate(targets):
        deck[t - 1] = card0 + 1
    rest = iter(range(len(targets) + 1, n + 1))
    return tuple(c if c else next(rest) for c in deck)


def shuffle_decks(a: int, n: int) -> list[tuple[int, ...]]:
    """Every deck reachable by reinserting cards ``1..a``; ``P(n, a)`` of them."""
    return [
        deck_from_targets(t, n) for t in itertools.permutations(range(1, n + 1), a)
    ]


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right product of raw decks: shuffle by ``p``, then by ``q``."""
    return tuple([p[c - 1] for c in q])


def random_deck(rng, n: int, m: int) -> tuple[int, ...]:
    """A deck drawn by ``rng`` whose minimum shuffle size is exactly ``m``;
    card ``n`` always ends a run, so ``m < n``."""
    if not 0 <= m < n:
        raise ValueError(f"no deck of {n} cards has minimum shuffle size {m}")
    while True:
        deck = deck_from_targets(rng.sample(range(1, n + 1), m), n)
        if min_shuffle(deck) == m:
            return deck


def ways(row: dict[int, int], lo: int, scale=lambda j: 1) -> int:
    """Tuples reaching a target whose smallest admissible block count is ``lo``."""
    return sum(q * scale(j) for j, q in row.items() if j >= lo)


def probability_json(numerator: int, denominator: int) -> dict:
    p = Fraction(numerator, denominator)
    return {"num": str(p.numerator), "den": str(p.denominator)}


def symmetric_3_table() -> list[list[int]]:
    """Multiplication table of the permutations of three letters, composed
    left to right, with the identity as element 0."""
    elems = sorted(itertools.permutations(range(3)))
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple(q[p[x]] for x in range(3))] for q in elems] for p in elems]


def respects_rounds(parts, a: tuple[int, ...]) -> bool:
    """Every block holds at most one slot of each round."""
    owner = [r for r, x in enumerate(a) for _ in range(x)]
    return all(
        len({owner[e - 1] for e in part}) == len(part) for part in parts
    )
