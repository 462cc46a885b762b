"""Counting and enumerating the set partitions behind shuffle products.

Performing top-to-random shuffles of sizes ``a1, ..., ak`` in order touches
some initial run of cards ``1..j``.  Which shuffle slot touched which card
is recorded by a partition of ``[a1 + ... + ak]``: slot ``d`` of round
``i`` is the element ``d + a1 + ... + a_{i-1}``, and it joins the block of
the card that sat at position ``d`` when round ``i`` was applied.  A
single round touches distinct cards, so the elements of one round always
land in distinct blocks; conversely, once a final deck is fixed, every
``j``-block partition with that round-injectivity property is produced by
exactly one shuffle sequence.  ``phi`` and ``phi_inverse`` realize the two
directions of that correspondence, and ``iter_segmented_partitions``
enumerates the partitions, anchor tuple by anchor tuple (the counts of
fresh cards per round).

``q_cardinality`` counts them without enumeration.  ``_q_row`` carries,
round by round, the weight of the partial partitions by the number of
blocks opened so far: a round of ``ac`` slots that opens ``l`` new blocks
chooses its fresh slots in ``comb(ac, l)`` ways and seats the other
``ac - l`` slots in distinct opened blocks in ``perm(opened, ac - l)``
ways.  One pass over the rounds gives every count ``q_j`` at once, in
``O(k * j_max * max(a))`` arithmetic operations, where the anchor tuples
alone number ``C(k-1, j-1)`` for single-card rounds.  ``stirling2`` and
``bell`` keep their own recurrence, so they stay an independent check.

``phi_inverse`` unwinds one round per pass over the deck: the deck a round
found is the cards its slots touched, in slot order, followed by the other
cards in their current order, and the round's shuffle lists each current
card's position in that deck.  The slot tables of a spec (``bounds``, the
round of each slot, the slots of each round) are built once per ``a``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .permutations import Permutation, _integer, _json_list, min_shuffle_size

# A shuffle sequence: one permutation per round.
ShuffleTuple = tuple[Permutation, ...]


@dataclass(frozen=True)
class ShuffleSpec:
    """A deck size ``n`` together with the shuffle sizes applied in order."""

    n: int
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n))
        object.__setattr__(self, "a", tuple(_integer(x) for x in self.a))
        if self.n < 1:
            raise ValueError("deck size must be at least 1")
        if not self.a:
            raise ValueError("at least one shuffle size is required")
        for x in self.a:
            if not 1 <= x <= self.n:
                raise ValueError(f"shuffle size {x} outside 1..{self.n}")

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def total(self) -> int:
        return sum(self.a)

    @property
    def j_min(self) -> int:
        """At least this many cards are touched."""
        return max(self.a)

    @property
    def j_max(self) -> int:
        """At most this many cards are touched."""
        return min(self.total, self.n)

    def bounds(self) -> tuple[int, ...]:
        """Cumulative slot counts: round ``i`` owns elements
        ``bounds[i-1]+1 .. bounds[i]``."""
        return _round_tables(self.a).bounds


class _RoundTables(NamedTuple):
    bounds: tuple[int, ...]
    round_of: tuple[int, ...]  # 1-based round of each slot element; index 0 unused
    slots: tuple[range, ...]  # the slot elements of each round


@lru_cache(maxsize=1024)
def _round_tables(a: tuple[int, ...]) -> _RoundTables:
    """The slot tables of a spec, built once per ``a``."""
    bounds = tuple(itertools.accumulate(a, initial=0))
    round_of = (0,) + tuple(i for i, x in enumerate(a, start=1) for _ in range(x))
    slots = tuple(range(lo + 1, hi + 1) for lo, hi in zip(bounds, bounds[1:]))
    return _RoundTables(bounds, round_of, slots)


def falling_factorial(m: int, l: int) -> int:
    """Injections of an ``l``-set into an ``m``-set: ``m!/(m-l)!``, 0 if ``l > m``."""
    if m < 0 or l < 0:
        raise ValueError("arguments must be nonnegative")
    return math.perm(m, l)


def stirling2(k: int, j: int) -> int:
    """Partitions of a ``k``-set into exactly ``j`` nonempty blocks.

    Computed by the classical recurrence S(k,j) = j*S(k-1,j) + S(k-1,j-1),
    deliberately independent of the anchor-sum formula it is tested against.
    """
    if k < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    return _stirling_row(k, j)[j] if j <= k else 0


def _stirling_row(k: int, top: int) -> list[int]:
    """``[S(k, 0), ..., S(k, top)]``, built row by row from S(0, 0) = 1."""
    row = [1] + [0] * top
    for m in range(1, k + 1):
        for j in range(min(m, top), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row


def bell(k: int) -> int:
    """Partitions of a ``k``-set into any number of blocks, ``k >= 1``."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return sum(_stirling_row(k, k))


def anchor_tuples(spec: ShuffleSpec, j: int) -> Iterator[tuple[int, ...]]:
    """All ways ``(l2, ..., lk)`` to distribute the ``j - a1`` fresh cards
    over rounds ``2..k`` with ``0 <= lc <= ac``, lexicographically."""
    yield from _anchor_tuples(spec.a, j)


def _anchor_tuples(a: tuple[int, ...], j: int) -> Iterator[tuple[int, ...]]:
    rest = a[1:]
    need = j - a[0]
    if need < 0:
        return
    suffix = [0] * (len(rest) + 1)
    for i in range(len(rest) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + rest[i]

    def rec(i: int, need: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == len(rest):
            if need == 0:
                yield tuple(acc)
            return
        lo = max(0, need - suffix[i + 1])
        hi = min(rest[i], need)
        for l in range(lo, hi + 1):
            acc.append(l)
            yield from rec(i + 1, need - l, acc)
            acc.pop()

    yield from rec(0, need, [])


def q_cardinality(spec: ShuffleSpec, j: int) -> int:
    """Number of ``j``-block round-partitions for this shuffle sequence;
    0 outside the reachable range ``[max(a), min(sum(a), n)]``."""
    if j < spec.j_min or j > spec.j_max:
        return 0
    return _q_count(spec.a, j)


def _q_count(a: tuple[int, ...], j: int) -> int:
    """Round-partition count at ``j`` blocks, with no deck-size truncation."""
    return _q_row(a, j)[j] if j >= 0 else 0


def _q_row(a: tuple[int, ...], top: int) -> list[int]:
    """``[q_0, ..., q_top]``: round-partition counts by number of blocks.

    ``row[o]`` weighs the partial partitions of the rounds so far that
    opened ``o`` blocks.  Blocks never close, so states above ``top`` are
    dropped.
    """
    row = [0] * (top + 1)
    if a[0] > top:
        return row
    row[a[0]] = 1
    for ac in a[1:]:
        fresh = [math.comb(ac, l) for l in range(ac + 1)]
        nxt = [0] * (top + 1)
        for opened, weight in enumerate(row):
            if weight:
                for l in range(max(0, ac - opened), min(ac, top - opened) + 1):
                    nxt[opened + l] += weight * fresh[l] * math.perm(opened, ac - l)
        row = nxt
    return row


@dataclass(frozen=True)
class SegmentedPartition:
    """A partition of ``1..m`` into nonempty blocks, stored in increasing
    order of block minima."""

    parts: tuple[frozenset[int], ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = self.parts
        # Only frozensets of plain ints skip the conversion: ``True == 1``
        # would pass every check below.
        if (
            type(parts) is not tuple
            or any(type(p) is not frozenset for p in parts)
            or not {int}.issuperset(map(type, itertools.chain.from_iterable(parts)))
        ):
            parts = tuple(frozenset(_integer(e) for e in part) for part in parts)
        if not parts or not all(parts):
            raise ValueError("blocks must be nonempty")
        parts = tuple(sorted(parts, key=min))
        object.__setattr__(self, "parts", parts)
        union = frozenset().union(*parts)
        size = sum(map(len, parts))
        if len(union) != size:
            raise ValueError("blocks must be disjoint")
        # ``size`` distinct integers between 1 and ``size`` are all of 1..size.
        if min(union) != 1 or max(union) != size:
            raise ValueError("blocks must cover an initial integer range")
        object.__setattr__(self, "size", size)

    @property
    def j(self) -> int:
        return len(self.parts)

    def block_of(self, element: int) -> int:
        """1-based index of the block containing ``element``."""
        for i, part in enumerate(self.parts):
            if element in part:
                return i + 1
        raise ValueError(f"element {element} not in partition")

    def as_json(self) -> list[list[int]]:
        return [sorted(part) for part in self.parts]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "SegmentedPartition":
        parts = [[_integer(e) for e in _json_list(part)] for part in _json_list(data)]
        if any(len(set(part)) != len(part) for part in parts):
            raise ValueError("an element is repeated inside a block")
        return cls(tuple(map(frozenset, parts)))


def respects_rounds(alpha: SegmentedPartition, spec: ShuffleSpec) -> bool:
    """True iff the slots of every round lie in pairwise distinct blocks.

    Together with having the right size, this characterizes the partitions
    reachable from shuffle sequences of the given sizes.
    """
    if alpha.size != spec.total:
        return False
    round_of = _round_tables(spec.a).round_of
    for part in alpha.parts:
        if len({round_of[e] for e in part}) != len(part):
            return False
    return True


def anchor_signature(alpha: SegmentedPartition, spec: ShuffleSpec) -> tuple[int, ...]:
    """How many blocks each of rounds ``2..k`` opened (their minima counts)."""
    round_of = _round_tables(spec.a).round_of
    counts = [0] * spec.k
    for part in alpha.parts:
        counts[round_of[min(part)] - 1] += 1
    return tuple(counts[1:])


def iter_segmented_partitions(
    spec: ShuffleSpec, j: int
) -> Iterator[SegmentedPartition]:
    """Yield every reachable ``j``-block partition in a fixed order:
    anchor tuples lexicographically, then the anchor slots per round, then
    the placements of the remaining slots into already-opened blocks.

    No deck-size truncation is applied here; callers pass ``j <= n``.
    """
    a = spec.a
    segments = _round_tables(a).slots[1:]
    for ls in _anchor_tuples(a, j):
        anchor_choices = [
            itertools.combinations(seg, lc) for seg, lc in zip(segments, ls)
        ]
        for anchors in itertools.product(*anchor_choices):
            rests = [
                [e for e in seg if e not in set(chosen)]
                for seg, chosen in zip(segments, anchors)
            ]
            opened_before = []
            opened = a[0]
            for lc in ls:
                opened_before.append(opened)
                opened += lc
            placement_iters = [
                itertools.permutations(range(avail), len(rest))
                for avail, rest in zip(opened_before, rests)
            ]
            for placements in itertools.product(*placement_iters):
                blocks: list[set[int]] = [{e} for e in range(1, a[0] + 1)]
                for chosen, rest, placement in zip(anchors, rests, placements):
                    for e in chosen:
                        blocks.append({e})
                    for e, b in zip(rest, placement):
                        blocks[b].add(e)
                yield SegmentedPartition(tuple(frozenset(b) for b in blocks))


def enumerate_segmented_partitions(
    spec: ShuffleSpec, j: int
) -> list[SegmentedPartition]:
    """List form of ``iter_segmented_partitions``."""
    return list(iter_segmented_partitions(spec, j))


def phi(sigmas: Sequence[Permutation], spec: ShuffleSpec) -> SegmentedPartition:
    """The partition recording which shuffle slot touched which card.

    Simulates the rounds on the sorted deck; the number of blocks is the
    number of cards touched, computed here rather than supplied.
    """
    if len(sigmas) != spec.k:
        raise ValueError(f"expected {spec.k} shuffles, got {len(sigmas)}")
    n = spec.n
    deck = range(1, n + 1)
    touched: list[int] = []  # the card each slot touched, slot by slot
    for sigma, ai in zip(sigmas, spec.a):
        if sigma.n != n:
            raise ValueError(f"deck size {sigma.n} does not match spec size {n}")
        if min_shuffle_size(sigma) > ai:
            raise ValueError(
                f"{sigma.deck!r} cannot result from shuffling {ai} cards"
            )
        touched += deck[:ai]
        deck = [deck[c - 1] for c in sigma.deck]
    blocks: list[list[int]] = [[] for _ in range(n)]
    for element, card in enumerate(touched, start=1):
        blocks[card - 1].append(element)
    j = sum(1 for b in blocks if b)
    if not all(blocks[:j]):
        raise ValueError("touched cards do not form an initial run")
    return SegmentedPartition(tuple(frozenset(b) for b in blocks[:j]))


def phi_inverse(
    alpha: SegmentedPartition, t: Permutation, spec: ShuffleSpec
) -> ShuffleTuple:
    """The unique shuffle sequence with round-partition ``alpha`` whose
    left-to-right composite is ``t``.

    Unwinds the rounds from the last, one pass each.  Round ``i`` took its
    slots' cards (block ``b`` is card ``b``) off the top of the deck it
    found, in slot order, and left the other cards in their order, so that
    deck is those cards followed by the rest of the current deck; ``sigma_i``
    lists each current card's position in it.  The unwound deck must end
    sorted.
    """
    j = alpha.j
    n = spec.n
    if t.n != n:
        raise ValueError(f"deck size {t.n} does not match spec size {n}")
    if alpha.size != spec.total:
        raise ValueError(
            f"partition covers {alpha.size} slots, spec has {spec.total}"
        )
    if not (max(1, min_shuffle_size(t)) <= j <= n):
        raise ValueError(
            f"deck {t.deck!r} cannot result from shuffling {j} cards"
        )
    if not respects_rounds(alpha, spec):
        raise ValueError("some round has two slots in the same block")

    card_of = [0] * spec.total
    for b, part in enumerate(alpha.parts, start=1):
        for e in part:
            card_of[e - 1] = b

    bounds = spec.bounds()
    deck = list(t.deck)
    sigmas: list[Permutation] = [None] * spec.k  # type: ignore[list-item]
    for i in range(spec.k - 1, -1, -1):
        top = card_of[bounds[i] : bounds[i + 1]]
        touched = set(top)
        before = top + [c for c in deck if c not in touched]
        position = [0] * (n + 1)
        for p, c in enumerate(before, start=1):
            position[c] = p
        sigmas[i] = Permutation(tuple([position[c] for c in deck]))
        deck = before
    if deck != list(range(1, n + 1)):
        raise ValueError("partition does not rebuild the sorted deck")
    return tuple(sigmas)
