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

A ``SegmentedPartition`` is stored as one tuple of block labels:
``labels[e-1]`` is the block of slot ``e``, blocks numbered in order of
their minima.  ``phi`` writes that tuple directly (block ``b`` is card
``b``), and every other reader slices it at ``ShuffleSpec.bounds()``.
``phi_inverse`` unwinds one round per pass over the deck: the deck a round
found is the cards its slots touched, in slot order, followed by the other
cards in their current order, and the round's shuffle lists each current
card's position in that deck.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .errors import _check_cap
from .permutations import (
    Permutation,
    _expect,
    _integer,
    _integers,
    _json_list,
    is_term_of,
    min_shuffle_size,
)

# A shuffle sequence: one permutation per round.
ShuffleTuple = tuple[Permutation, ...]


@dataclass(frozen=True)
class ShuffleSpec:
    """A deck size ``n`` together with the shuffle sizes applied in order."""

    n: int
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n))
        object.__setattr__(self, "a", _integers(self.a))
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
        return tuple(itertools.accumulate(self.a, initial=0))


def falling_factorial(m: int, l: int) -> int:
    """Injections of an ``l``-set into an ``m``-set: ``m!/(m-l)!``, 0 if ``l > m``."""
    m, l = _integer(m), _integer(l)
    if m < 0 or l < 0:
        raise ValueError("arguments must be nonnegative")
    return math.perm(m, l)


# Most cells the Stirling recurrence may fill: ``bell(2000)`` fills 2000**2
# of them in about 2 s, and the time grows faster than the cell count,
# because the numbers grow too.
STIRLING_CELL_CAP = 4 * 10**6


def stirling2(k: int, j: int) -> int:
    """Partitions of a ``k``-set into exactly ``j`` nonempty blocks.

    Computed by the classical recurrence S(k,j) = j*S(k-1,j) + S(k-1,j-1),
    deliberately independent of the anchor-sum formula it is tested against.
    Refused with ``CapExceeded`` when its ``k * j`` cells exceed
    ``STIRLING_CELL_CAP``.
    """
    k, j = _integer(k), _integer(j)
    if k < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if j == 0 or j > k:
        return int(k == j)
    _check_cap(k * j, STIRLING_CELL_CAP, "Stirling recurrence cells")
    return _stirling_row(k, j)[j]


def _stirling_row(k: int, top: int) -> list[int]:
    """``[S(k, 0), ..., S(k, top)]``, built row by row from S(0, 0) = 1."""
    row = [1] + [0] * top
    for m in range(1, k + 1):
        for j in range(min(m, top), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row


def bell(k: int) -> int:
    """Partitions of a ``k``-set into any number of blocks, ``k >= 1``;
    refused with ``CapExceeded`` when ``k * k`` exceeds ``STIRLING_CELL_CAP``."""
    k = _integer(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_cap(k * k, STIRLING_CELL_CAP, "Stirling recurrence cells")
    return sum(_stirling_row(k, k))


def anchor_tuples(spec: ShuffleSpec, j: int) -> Iterator[tuple[int, ...]]:
    """All ways ``(l2, ..., lk)`` to distribute the ``j - a1`` fresh cards
    over rounds ``2..k`` with ``0 <= lc <= ac``, lexicographically."""

    def rec(sizes: tuple[int, ...], need: int) -> Iterator[tuple[int, ...]]:
        if not sizes:
            if need == 0:
                yield ()
            return
        for l in range(max(0, need - sum(sizes[1:])), min(sizes[0], need) + 1):
            for tail in rec(sizes[1:], need - l):
                yield (l, *tail)

    a = _expect(ShuffleSpec, spec).a
    return rec(a[1:], _integer(j) - a[0])


def q_cardinality(spec: ShuffleSpec, j: int) -> int:
    """Number of ``j``-block round-partitions for this shuffle sequence;
    0 outside the reachable range ``[max(a), min(sum(a), n)]``."""
    _expect(ShuffleSpec, spec)
    j = _integer(j)
    if j < spec.j_min or j > spec.j_max:
        return 0
    return _q_row(spec.a, j)[j]


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


@dataclass(frozen=True, init=False)
class SegmentedPartition:
    """A partition of ``1..m`` into nonempty blocks, stored as block labels:
    ``labels[e-1]`` is the block of element ``e``, and blocks are numbered
    1, 2, ... in increasing order of their minima."""

    labels: tuple[int, ...]

    def __init__(self, parts: Iterable[Iterable[int]]) -> None:
        parts = [_integers(part) for part in _expect(Iterable, parts)]
        if not parts or not all(parts):
            raise ValueError("blocks must be nonempty")
        size = sum(map(len, parts))
        labels = [0] * size
        for b, part in enumerate(sorted(parts, key=min), start=1):
            for e in part:
                if not 1 <= e <= size:
                    raise ValueError(f"element {e} outside 1..{size}")
                if labels[e - 1]:
                    raise ValueError(f"element {e} is repeated")
                labels[e - 1] = b
        object.__setattr__(self, "labels", tuple(labels))

    @classmethod
    def _from_labels(cls, labels: tuple[int, ...]) -> "SegmentedPartition":
        """The partition with these labels, which must be canonical: the
        labels in order of first occurrence are exactly ``1..j``."""
        firsts = list(dict.fromkeys(labels))
        if not labels or firsts != list(range(1, len(firsts) + 1)):
            raise ValueError(f"block labels {labels!r} are not canonical")
        alpha = object.__new__(cls)
        object.__setattr__(alpha, "labels", labels)
        return alpha

    @property
    def j(self) -> int:
        return max(self.labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def parts(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.as_json()))

    def block_of(self, element: int) -> int:
        """1-based index of the block containing ``element``."""
        e = _integer(element)
        if not 1 <= e <= self.size:
            raise ValueError(f"element {element} not in partition")
        return self.labels[e - 1]

    def as_json(self) -> list[list[int]]:
        blocks: list[list[int]] = [[] for _ in range(self.j)]
        for e, b in enumerate(self.labels, start=1):
            blocks[b - 1].append(e)
        return blocks

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "SegmentedPartition":
        return cls([_json_list(part) for part in _json_list(data)])


def _round_slices(
    alpha: SegmentedPartition, spec: ShuffleSpec
) -> list[tuple[int, ...]]:
    """The labels of each round's slots, after checking the class and size."""
    if _expect(SegmentedPartition, alpha).size != spec.total:
        raise ValueError(
            f"partition covers {alpha.size} slots, spec has {spec.total}"
        )
    bounds = spec.bounds()
    return [alpha.labels[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def respects_rounds(alpha: SegmentedPartition, spec: ShuffleSpec) -> bool:
    """True iff the slots of every round lie in pairwise distinct blocks.

    Together with having the right size, this characterizes the partitions
    reachable from shuffle sequences of the given sizes.
    """
    size = _expect(SegmentedPartition, alpha).size
    return size == _expect(ShuffleSpec, spec).total and all(
        len(set(top)) == len(top) for top in _round_slices(alpha, spec)
    )


def anchor_signature(alpha: SegmentedPartition, spec: ShuffleSpec) -> tuple[int, ...]:
    """How many blocks each of rounds ``2..k`` opened (their minima counts).

    Labels are numbered by minima, so the blocks opened by the end of a
    round are the largest label seen so far.
    """
    tops = _round_slices(alpha, _expect(ShuffleSpec, spec))
    opened = list(itertools.accumulate(map(max, tops), max))
    return tuple(b - a for a, b in zip(opened, opened[1:]))


def iter_segmented_partitions(
    spec: ShuffleSpec, j: int
) -> Iterator[SegmentedPartition]:
    """Yield every reachable ``j``-block partition in a fixed order:
    anchor tuples lexicographically, then the anchor slots per round, then
    the seatings of the remaining slots in already-opened blocks.

    No deck-size truncation is applied here; callers pass ``j <= n``.
    """
    a = _expect(ShuffleSpec, spec).a
    bounds = spec.bounds()
    rounds = [range(lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]  # 0-based
    for ls in anchor_tuples(spec, j):
        opened = itertools.accumulate(ls, initial=a[0])
        seats = [
            itertools.permutations(range(1, o + 1), ac - lc)
            for o, ac, lc in zip(opened, a[1:], ls)
        ]
        seatings = [sum(seating, ()) for seating in itertools.product(*seats)]
        choices = [itertools.combinations(r, lc) for r, lc in zip(rounds, ls)]
        for anchors in itertools.product(*choices):
            labels = [*range(1, a[0] + 1), *[0] * (bounds[-1] - a[0])]
            for b, e in enumerate(itertools.chain(*anchors), start=a[0] + 1):
                labels[e] = b
            rest = [e for e in range(a[0], bounds[-1]) if not labels[e]]
            for seating in seatings:
                for e, b in zip(rest, seating):
                    labels[e] = b
                yield SegmentedPartition._from_labels(tuple(labels))


def enumerate_segmented_partitions(
    spec: ShuffleSpec, j: int
) -> list[SegmentedPartition]:
    """List form of ``iter_segmented_partitions``."""
    return list(iter_segmented_partitions(spec, j))


def phi(sigmas: Sequence[Permutation], spec: ShuffleSpec) -> SegmentedPartition:
    """The partition recording which shuffle slot touched which card.

    Simulates the rounds on the sorted deck; slot ``e``'s label is the card
    it touched, and the number of blocks is the number of cards touched.
    """
    if len(_expect(Sequence, sigmas)) != _expect(ShuffleSpec, spec).k:
        raise ValueError(f"expected {spec.k} shuffles, got {len(sigmas)}")
    n = spec.n
    deck = range(1, n + 1)
    touched: list[int] = []  # the card each slot touched, slot by slot
    for sigma, ai in zip(sigmas, spec.a):
        # ``min_shuffle_size`` refuses anything but a ``Permutation``; with
        # ``1 <= ai <= n`` its bound alone decides ``is_term_of(sigma, ai)``.
        shuffled = min_shuffle_size(sigma)
        if sigma.n != n:
            raise ValueError(f"deck size {sigma.n} does not match spec size {n}")
        if shuffled > ai:
            raise ValueError(
                f"{sigma.deck!r} cannot result from shuffling {ai} cards"
            )
        touched += deck[:ai]
        deck = [deck[c - 1] for c in sigma.deck]
    return SegmentedPartition._from_labels(tuple(touched))


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
    n = _expect(ShuffleSpec, spec).n
    if _expect(Permutation, t).n != n:
        raise ValueError(f"deck size {t.n} does not match spec size {n}")
    tops = _round_slices(alpha, spec)
    if not is_term_of(t, alpha.j):
        raise ValueError(
            f"deck {t.deck!r} cannot result from shuffling {alpha.j} cards"
        )
    deck = list(t.deck)
    sigmas: list[Permutation] = [None] * spec.k  # type: ignore[list-item]
    for i in range(spec.k - 1, -1, -1):
        touched = set(tops[i])
        if len(touched) != len(tops[i]):
            raise ValueError("some round has two slots in the same block")
        before = [*tops[i], *(c for c in deck if c not in touched)]
        position = [0] * (n + 1)
        for p, c in enumerate(before, start=1):
            position[c] = p
        # ``before`` is a permutation of 1..n (the round's labels are distinct
        # cards of 1..alpha.j, and alpha.j <= n), so this deck is one too.
        sigmas[i] = Permutation._trusted(tuple([position[c] for c in deck]))
        deck = before
    if deck != list(range(1, n + 1)):
        raise ValueError("partition does not rebuild the sorted deck")
    return tuple(sigmas)
