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
import re
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
)
from functools import cached_property


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
        deck = _integers(self.deck)
        object.__setattr__(self, "deck", deck)
        n = len(deck)
        if n == 0:
            raise ValueError("empty deck")
        if sorted(deck) != list(range(1, n + 1)):
            raise ValueError(f"deck {_shown(deck)} is not a permutation of 1..{n}")

    @classmethod
    def _trusted(cls, deck: tuple[int, ...]) -> "Permutation":
        """The permutation with this deck, unchecked: only for a tuple of
        ints that is a permutation of ``1..n`` by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "deck", deck)
        return p

    @property
    def n(self) -> int:
        return len(self.deck)

    @cached_property
    def _min_shuffle(self) -> int:
        """``min_shuffle_size(self)``, computed once per object."""
        return _min_shuffle_raw(self.deck)

    def position_of(self, card: int) -> int:
        """Position to which this permutation sends ``card``."""
        return self.deck.index(_in_range(card, 1, self.n, "card")) + 1

    def card_at(self, position: int) -> int:
        return self.deck[_in_range(position, 1, self.n, "position") - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def as_json(self) -> list[int]:
        return list(self.deck)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "Permutation":
        return cls(tuple(_json_list(data)))


def identity(n: int) -> Permutation:
    """The sorted deck ``1 2 ... n``."""
    n = _at_least(_deck_size(n), 1, "deck size must be at least 1")
    return Permutation(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: shuffle by ``p``, then by ``q``.

    >>> compose(Permutation((2, 1, 3, 4)), Permutation((2, 3, 1, 4))).deck
    (1, 3, 2, 4)
    """
    _expect(Permutation, p)
    _expect(Permutation, q)
    if p.n != q.n:
        raise ValueError(f"deck sizes differ: {p.n} != {q.n}")
    return Permutation(_compose_decks(p.deck, q.deck))


def inverse(p: Permutation) -> Permutation:
    """The group inverse; its deck lists the positions ``p`` gives cards 1..n."""
    _expect(Permutation, p)
    return Permutation(_inverse_deck(p.deck))


def min_shuffle_size(p: Permutation) -> int:
    """Smallest ``c`` such that ``p`` can result from reinserting the top
    ``c`` cards into an otherwise sorted deck.

    Equals ``m - 1`` where ``m`` is the smallest card whose run
    ``m, m+1, ..., n`` appears left to right in the deck.  The sorted deck
    yields 0; consumers clamp with ``max(1, _)`` when a size of at least
    one card is required.
    """
    try:
        return p._min_shuffle
    except AttributeError:
        # Only a ``Permutation`` has the attribute, so a deck pays nothing.
        return _expect(Permutation, p)._min_shuffle


def is_term_of(p: Permutation, c: int) -> bool:
    """True iff ``p`` is reachable by removing cards ``1..c`` and reinserting
    them, i.e. iff ``p`` appears in ``algebra.top_to_random(c, n)``."""
    return max(1, min_shuffle_size(p)) <= _integer(c) <= p.n


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
        a = _at_least(self.a, 0, "domain size must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "targets", _integers(self.targets))
        if len(self.targets) != self.a:
            raise ValueError("number of targets must equal the domain size")
        if any(t < 1 for t in self.targets):
            raise ValueError("positions are 1-based")
        if len(set(self.targets)) != self.a:
            raise ValueError("targets must be pairwise distinct")
        if self.a >= 1 and not self._is_minimal():
            raise ValueError(
                f"injection {_shown(self.targets)} would need fewer than {self.a} "
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
        a, targets = _json_object(data, "a", "targets")
        return cls(a, tuple(_json_list(targets)))


def as_injection(p: Permutation) -> Injection:
    """The injection listing where ``p`` sends cards ``1..min_shuffle_size(p)``.

    Together with ``from_injection`` this is a bijection between decks and
    minimal injections.
    """
    a = min_shuffle_size(p)
    return Injection(a, _inverse_deck(p.deck)[:a])


def from_injection(inj: Injection, n: int) -> Permutation:
    """The unique deck of size ``n`` sending card ``i`` to ``inj.targets[i-1]``
    with the remaining cards left in increasing order."""
    n = _deck_size(n)
    if any(t > n for t in _expect(Injection, inj).targets):
        raise ValueError(f"target position out of range for deck size {n}")
    return Permutation(_deck_from_targets(inj.targets, n))


def all_permutations(n: int) -> Iterator[Permutation]:
    """Every deck of size ``n``, in canonical (lexicographic) order."""
    for deck in itertools.permutations(range(1, _deck_size(n) + 1)):
        yield Permutation(deck)


def _integer(x) -> int:
    """``x`` as an int: ints and integral floats pass; bools and the rest raise."""
    if type(x) is float and x.is_integer():
        return int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{_shown(x)} is not an integer")
    return int(x)


def _deck_size(n) -> int:
    """``n`` as an int no larger than ``sys.maxsize``, the longest a deck
    can be; a larger one would raise ``OverflowError`` once built."""
    n = _integer(n)
    if n > sys.maxsize:
        size = _int_str(n)
        raise ValueError(f"deck size {size} exceeds the largest index {sys.maxsize}")
    return n


def _integers(xs) -> tuple[int, ...]:
    """``xs`` as a tuple of ints, each read through ``_integer``; a tuple of
    ints passes as it is, and anything ``_ordered`` refuses raises."""
    if type(xs) is tuple and {*map(type, xs)} <= {int}:
        return xs
    return tuple(map(_integer, _ordered(xs)))


def _ordered(xs):
    """``xs`` if it is iterable in an order of its own; anything not
    iterable, and a mapping or a set, whose order is not data, raise
    ``ValueError``."""
    if isinstance(_expect(Iterable, xs), (Mapping, Set)):
        raise ValueError(f"expected an ordered sequence, got {_shown(xs)}")
    return xs


def _in_range(x, lo: int, hi: int, what: str) -> int:
    """``x`` as an int in ``lo..hi``; anything else raises ``ValueError``."""
    x = _integer(x)
    if not lo <= x <= hi:
        raise ValueError(f"{what} {_int_str(x)} outside {lo}..{hi}")
    return x


def _at_least(x, lo: int, message: str) -> int:
    """``x`` as an int no less than ``lo``; a smaller one raises ``ValueError``
    with ``message``, and anything ``_integer`` refuses raises as it does."""
    x = _integer(x)
    if x < lo:
        raise ValueError(message)
    return x


def _expect(cls: type, x):
    """``x`` if it is a ``cls``; anything else, such as a faced deck where a
    plain one belongs, raises ``ValueError``."""
    if not isinstance(x, cls):
        raise ValueError(f"expected a {cls.__name__}, got {_shown(x)}")
    return x


# What ``int`` reads from a string, in ASCII digits: its sign and digits.
_INT_SHAPE = re.compile(r"\s*([+-]?)([0-9]+(?:_[0-9]+)*)\s*")


def _joined(parts: list, shift):
    """The number whose digits in base ``shift`` are ``parts``, lowest
    first.  Neighbouring parts are joined exactly, ``lo + hi * shift``, pass
    by pass, the shift squaring each time, so each pass multiplies numbers
    of equal size and the whole join stays subquadratic."""
    while len(parts) > 1:
        odd = parts[-1:] if len(parts) % 2 else []
        parts = [lo + hi * shift for lo, hi in zip(parts[::2], parts[1::2])] + odd
        shift *= shift
    return parts[0]


def _json_integer(x) -> int:
    """A decimal string through ``int``, anything else through ``_integer``.
    A string past ``int``'s limit on digits, as ``_int_str`` writes it, is
    read once it has the shape ``int`` would read: its digits are cut from
    the right into chunks ``int`` accepts, and the chunks are joined."""
    if not isinstance(x, str):
        return _integer(x)
    limit = sys.get_int_max_str_digits()
    shape = _INT_SHAPE.fullmatch(x) if limit and len(x) > limit else None
    if shape is None:
        return int(x)
    sign, digits = shape.group(1), shape.group(2).replace("_", "")
    parts = [int(digits[max(i - limit, 0) : i]) for i in range(len(digits), 0, -limit)]
    value = _joined(parts, 10**limit)
    return -value if sign == "-" else value


def _int_str(x) -> str:
    """``str(x)``, for an int of any size too.  ``str`` refuses an int of more
    than ``sys.get_int_max_str_digits()`` digits, so such an int is rendered
    through ``decimal`` instead, and the interpreter's limit is left alone.
    ``Decimal(x)`` alone takes time quadratic in the bits, so ``|x|`` is cut
    into ``2**12``-bit chunks, which ``_joined`` joins in an exact context."""
    limit = sys.get_int_max_str_digits()
    # Below 2**(3 * limit), which is below 10**limit, ``str`` always succeeds.
    if not isinstance(x, int) or not limit or x.bit_length() <= 3 * limit:
        return str(x)
    size = 2**9  # bytes in a chunk
    data = abs(x).to_bytes(-(-x.bit_length() // 8), "little")
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    with localcontext(exact):
        parts = [
            Decimal(int.from_bytes(data[i : i + size], "little"))
            for i in range(0, len(data), size)
        ]
        return "-" * (x < 0) + str(_joined(parts, Decimal(1 << 8 * size)))


def _shown(x) -> str:
    """``x`` for a message, never raising: an int in full through ``_int_str``,
    anything else by its ``repr`` cut to 300 characters, or by its type's
    name when ``repr`` fails, as on a container holding a huge int."""
    if type(x) is int:
        return _int_str(x)
    try:
        text = repr(x)
    except Exception:  # a caller's ``__repr__`` may raise anything
        return f"<unprintable {type(x).__name__}>"
    return text if len(text) <= 300 else text[:300] + "..."


def _json_list(data):
    """``data`` if it has the shape of a JSON list; anything else raises."""
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"expected a JSON list, got {_shown(data)}")
    return data


def _json_object(data, *keys) -> tuple:
    """The values of ``keys`` in ``data`` if it is a JSON object holding
    them all; anything else raises."""
    if not isinstance(data, dict) or not data.keys() >= set(keys):
        names = ", ".join(keys)
        raise ValueError(f"expected a JSON object with {names}, got {_shown(data)}")
    return tuple([data[k] for k in keys])


# Raw-tuple helpers: ``compose``, ``inverse``, ``as_injection``, ``from_injection``
# and ``Permutation._min_shuffle`` work on bare decks through them, and the
# tests' exhaustive walks call them directly, so no step builds a dataclass.

def _compose_decks(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([p[c - 1] for c in q])


def _inverse_deck(deck: tuple[int, ...]) -> tuple[int, ...]:
    pos = [0] * len(deck)
    for i, c in enumerate(deck):
        pos[c - 1] = i + 1
    return tuple(pos)


def _min_shuffle_raw(deck: tuple[int, ...]) -> int:
    pos = _inverse_deck(deck)
    m = len(deck)
    while m > 1 and pos[m - 2] < pos[m - 1]:
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
