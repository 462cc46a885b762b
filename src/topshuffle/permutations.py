"""Decks of cards, their left-to-right composition, and the injection view.

A permutation of ``n`` cards is stored as a deck ``c1 c2 ... cn``: card
``ci`` sits at position ``i``, i.e. the permutation sends card ``ci`` to
position ``i``.  (This is the inverse of one-line notation.)  Products are
composed left to right: ``compose(p, q)`` shuffles by ``p`` first, then by
``q``, matching the order in which the shuffles are performed on a physical
deck.

Cards and positions are 1-based in every public interface and
serialization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence


@dataclass(frozen=True, order=True)
class Permutation:
    """A deck of ``n`` distinct cards labeled ``1..n``.

    ``deck[i]`` is the card sitting at position ``i + 1``.  Instances
    compare lexicographically on the deck, which is the canonical order
    used for serialization.

    >>> Permutation((2, 1, 3)).position_of(1)
    2
    """

    deck: tuple[int, ...]

    def __post_init__(self) -> None:
        deck = self.deck
        if type(deck) is not tuple or any(type(c) is not int for c in deck):
            deck = tuple(_integer(c) for c in deck)
        object.__setattr__(self, "deck", deck)
        n = len(deck)
        if n == 0:
            raise ValueError("empty deck")
        if sorted(deck) != _range_list(n):
            raise ValueError(f"deck {deck!r} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.deck)

    @cached_property
    def _min_shuffle(self) -> int:
        """``min_shuffle_size(self)``, computed once per object."""
        return _min_shuffle_raw(self.deck)

    def position_of(self, card: int) -> int:
        """Position to which this permutation sends ``card``."""
        return self.deck.index(card) + 1

    def card_at(self, position: int) -> int:
        return self.deck[position - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def as_json(self) -> list[int]:
        return list(self.deck)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "Permutation":
        return cls(tuple(data))


def identity(n: int) -> Permutation:
    """The sorted deck ``1 2 ... n``."""
    if n < 1:
        raise ValueError("deck size must be at least 1")
    return Permutation(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: shuffle by ``p``, then by ``q``.

    >>> compose(Permutation((2, 1, 3, 4)), Permutation((2, 3, 1, 4))).deck
    (1, 3, 2, 4)
    """
    if p.n != q.n:
        raise ValueError(f"deck sizes differ: {p.n} != {q.n}")
    return Permutation(_compose_decks(p.deck, q.deck))


def inverse(p: Permutation) -> Permutation:
    """The group inverse; its deck lists the positions ``p`` gives cards 1..n."""
    return Permutation(_inverse_deck(p.deck))


def min_shuffle_size(p: Permutation) -> int:
    """Smallest ``c`` such that ``p`` can result from reinserting the top
    ``c`` cards into an otherwise sorted deck.

    Equals ``m - 1`` where ``m`` is the smallest card whose run
    ``m, m+1, ..., n`` appears left to right in the deck.  The sorted deck
    yields 0; consumers clamp with ``max(1, _)`` when a size of at least
    one card is required.
    """
    return p._min_shuffle


def is_term_of(p: Permutation, c: int) -> bool:
    """True iff ``p`` is reachable by removing cards ``1..c`` and reinserting
    them, i.e. iff ``p`` appears in ``algebra.top_to_random(c, n)``."""
    return max(1, min_shuffle_size(p)) <= c <= p.n


@dataclass(frozen=True)
class Injection:
    """Record of where a shuffle sent the cards it touched: card ``i`` went
    to position ``targets[i-1]``.

    Only *minimal* injections are valid: the deck determined by the targets
    must actually require all ``a`` cards to be shuffled.  Equivalently,
    some position below ``targets[a-1]`` is free of targets, so the card
    sitting there exceeds ``a`` (vacuous for ``a = 0``).  ``as_injection``
    always produces minimal injections, and ``from_injection`` inverts it.
    """

    a: int
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _integer(self.a))
        object.__setattr__(self, "targets", tuple(_integer(t) for t in self.targets))
        if self.a < 0:
            raise ValueError("domain size must be nonnegative")
        if len(self.targets) != self.a:
            raise ValueError("number of targets must equal the domain size")
        if any(t < 1 for t in self.targets):
            raise ValueError("positions are 1-based")
        if len(set(self.targets)) != self.a:
            raise ValueError("targets must be pairwise distinct")
        if self.a >= 1 and not self._is_minimal():
            raise ValueError(
                f"injection {self.targets!r} would need fewer than {self.a} "
                "shuffled cards"
            )

    def _is_minimal(self) -> bool:
        last = self.targets[self.a - 1]
        occupied = set(self.targets)
        return any(q not in occupied for q in range(1, last))

    def as_json(self) -> dict:
        return {"a": self.a, "targets": list(self.targets)}

    @classmethod
    def from_json(cls, data: dict) -> "Injection":
        return cls(data["a"], tuple(data["targets"]))


def as_injection(p: Permutation) -> Injection:
    """The injection listing where ``p`` sends cards ``1..min_shuffle_size(p)``.

    Together with ``from_injection`` this is a bijection between decks and
    minimal injections.
    """
    a = min_shuffle_size(p)
    return Injection(a, tuple(p.position_of(i) for i in range(1, a + 1)))


def from_injection(inj: Injection, n: int) -> Permutation:
    """The unique deck of size ``n`` sending card ``i`` to ``inj.targets[i-1]``
    with the remaining cards left in increasing order."""
    if any(t > n for t in inj.targets):
        raise ValueError(f"target position out of range for deck size {n}")
    deck = _deck_from_targets(inj.targets, n)
    # Minimality of the injection guarantees this; kept as a hard guard.
    if _min_shuffle_raw(deck) != inj.a:
        raise ValueError(
            f"injection {inj.targets!r} does not determine a minimal "
            f"{inj.a}-card shuffle"
        )
    return Permutation(deck)


def all_permutations(n: int) -> Iterator[Permutation]:
    """Every deck of size ``n``, in canonical (lexicographic) order."""
    for deck in itertools.permutations(range(1, n + 1)):
        yield Permutation(deck)


def _integer(x) -> int:
    """``x`` as an int: ints and integral floats pass; bools and the rest raise."""
    if type(x) is float and x.is_integer():
        return int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


# Raw-tuple helpers shared with the sibling modules.  They skip dataclass
# construction so exhaustive enumerations stay cheap.

_RANGE_LISTS: dict[int, list[int]] = {}


def _range_list(n: int) -> list[int]:
    out = _RANGE_LISTS.get(n)
    if out is None:
        out = list(range(1, n + 1))
        _RANGE_LISTS[n] = out
    return out


def _compose_decks(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([p[c - 1] for c in q])


def _inverse_deck(deck: tuple[int, ...]) -> tuple[int, ...]:
    pos = [0] * len(deck)
    for i, c in enumerate(deck):
        pos[c - 1] = i + 1
    return tuple(pos)


def _min_shuffle_raw(deck: tuple[int, ...]) -> int:
    n = len(deck)
    pos = [0] * (n + 1)
    for i, c in enumerate(deck):
        pos[c] = i
    m = n
    while m > 1 and pos[m - 1] < pos[m]:
        m -= 1
    return m - 1


def _deck_from_targets(targets: Sequence[int], n: int) -> tuple[int, ...]:
    """Deck with card ``i`` at ``targets[i-1]`` and the rest in increasing
    order; always a valid outcome of shuffling ``len(targets)`` cards."""
    deck = [0] * n
    for card0, t in enumerate(targets):
        deck[t - 1] = card0 + 1
    rest = iter(range(len(targets) + 1, n + 1))
    for i in range(n):
        if deck[i] == 0:
            deck[i] = next(rest)
    return tuple(deck)
