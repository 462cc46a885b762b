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

``q_cardinality`` counts them without enumeration.  ``_q_row`` gives
every nonzero count ``q_j`` at once, keyed by the ``j`` reached, by one
of two paths, where the anchor tuples alone number ``C(k-1, j-1)`` for
single-card rounds.  ``_row_by_rounds`` carries, round by round, a
mapping from each number of blocks the rounds so far can have opened to
the weight of the partial partitions that opened that many: a round of
``ac`` slots that opens ``l`` new blocks chooses its fresh slots in
``comb(ac, l)`` ways and seats the other ``ac - l`` slots in distinct
opened blocks in ``perm(opened, ac - l)`` ways, in about ``k * W * max(a)``
products for a row of width ``W = j_max - max(a) + 1``.
``_row_by_differences`` reads ``q_j`` as the ``j``-th Newton coefficient
of ``prod_i P(x, a_i)``, which equals ``sum_j q_j P(x, j)`` at every deck
size ``x``, in ``W(W-1)/2`` subtractions whatever ``k`` is.  ``_q_row``
prices the rounds by each round's cell bits, the figure its bit budget
sums, times the states it runs, and takes the triangle when that price
exceeds the triangle's cells and its numbers fit the bit cap.
``stirling2`` and ``bell`` keep their own
recurrence, so they stay an independent check.

A ``SegmentedPartition`` is stored as one tuple of block labels:
``labels[e-1]`` is the block of slot ``e``, blocks numbered in order of
their minima.  ``phi`` writes that tuple directly (block ``b`` is card
``b``), and every other reader slices it at ``ShuffleSpec.bounds()``.
``phi_inverse`` unwinds the rounds from the last: the deck a round found is
the cards its slots touched, in slot order, followed by the other cards in
their current order, and the round's shuffle lists each current card's
position in that deck.  One loop does it at every size, on ``bytes`` while
cards fit in a byte (``n <= 255``, as in the fold) and on tuples past that.

Every cap of the package is here too, with ``CapExceeded`` and the one
check that raises it, ``_check_cap``, and so is every number the bit cap
bounds: the other modules build them through ``falling_factorial``,
``_power`` and ``total_outcomes``, which check before they build.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .permutations import (
    Permutation,
    _at_least,
    _compose_decks,
    _expect,
    _in_range,
    _int_str,
    _integer,
    _integers,
    _inverse_deck,
    _json_list,
    _shown,
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
        n = _at_least(self.n, 1, "deck size must be at least 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", _integers(self.a))
        if not self.a:
            raise ValueError("at least one shuffle size is required")
        for x in self.a:
            if not 1 <= x <= self.n:
                raise ValueError(f"shuffle size {_shown(x)} outside 1..{_shown(self.n)}")

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


DEFAULT_TUPLE_CAP = 10**7


class CapExceeded(RuntimeError):
    """Building or counting something would take more units than allowed.

    ``unit`` names what ``required`` and ``cap`` count: terms, compositions,
    tuples, factors, partitions, words, table cells, Stirling recurrence
    cells or bits.  Raised up front, before any work is done; results are
    never silently truncated.
    """

    def __init__(self, required: int, cap: int, unit: str):
        message = f"{_int_str(required)} {unit} needed, above the cap of {_int_str(cap)}"
        super().__init__(message)
        self.required, self.cap, self.unit = required, cap, unit


def _check_cap(required: int, cap: int, unit: str) -> None:
    """Refuse up front, never truncate, when ``required`` exceeds ``cap``."""
    cap = _at_least(cap, 0, "cap must be nonnegative")
    if required > cap:
        raise CapExceeded(required, cap, unit)


def falling_factorial(m: int, l: int) -> int:
    """Injections of an ``l``-set into an ``m``-set: ``m!/(m-l)!``, 0 if ``l > m``."""
    m = _at_least(m, 0, "arguments must be nonnegative")
    l = _at_least(l, 0, "arguments must be nonnegative")
    if l <= m:
        _check_perm(m, l)
    return math.perm(m, l)


# Most bits ``_check_perm`` lets a count build: ``P(10**5, 10**5)``, about
# 1.5·10**6 bits, takes 0.3 s, and ``P(10**6, 10**6)``, about 1.8·10**7
# bits, takes 13 s.
PERM_BIT_CAP = 10**7


def _check_perm(m: int, l: int) -> None:
    """Refuse up front, with ``CapExceeded`` in bits, to build a product of
    ``l`` factors of at most ``m``, such as ``P(m, l)`` or ``m**l``, when its
    bound of ``l * m.bit_length()`` bits exceeds ``PERM_BIT_CAP``.  Factors
    of at most 1 multiply to at most 1, so they pass at any ``l``."""
    if m > 1:
        _check_cap(l * m.bit_length(), PERM_BIT_CAP, "bits")


def _power(m: int, e: int) -> int:
    """``m**e``, refused first by ``_check_perm`` like ``P(m, e)``."""
    _check_perm(m, e)
    return m**e


def total_outcomes(spec: ShuffleSpec) -> int:
    """Number of equally likely outcome tuples, which is also the number of
    term tuples ``brute_force_product`` counts: prod of P(n, a_i), with
    each distinct size's factor raised to the number of rounds of that size."""
    n = _expect(ShuffleSpec, spec).n
    _check_perm(n, spec.total)
    return math.prod(math.perm(n, s) ** m for s, m in Counter(spec.a).items())


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
    k = _at_least(k, 0, "arguments must be nonnegative")
    j = _at_least(j, 0, "arguments must be nonnegative")
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
    k = _at_least(k, 1, "k must be at least 1")
    _check_cap(k * k, STIRLING_CELL_CAP, "Stirling recurrence cells")
    return sum(_stirling_row(k, k))


def anchor_tuples(spec: ShuffleSpec, j: int) -> Iterator[tuple[int, ...]]:
    """All ways ``(l2, ..., lk)`` to distribute the ``j - a1`` fresh cards
    over rounds ``2..k`` with ``0 <= lc <= ac``, lexicographically.

    The walk holds one tuple and the room ``room[m] = sum(sizes[m:])`` of
    the rounds from ``m`` on, at any number of rounds, with no recursion.
    In each tuple the rounds after ``i`` take the least they can of the
    ``left`` cards; the next tuple moves one of those cards to the last
    round ``i`` with room for one more.
    """
    a = _expect(ShuffleSpec, spec).a
    sizes, need = a[1:], _integer(j) - a[0]
    room = [*itertools.accumulate(reversed(sizes), initial=0)][::-1]

    def walk() -> Iterator[tuple[int, ...]]:
        if not 0 <= need <= room[0]:
            return
        ls, i, left = [0] * len(sizes), -1, need
        while True:
            for m in range(i + 1, len(ls)):
                ls[m] = max(0, left - room[m + 1])
                left -= ls[m]
            yield tuple(ls)
            for i in range(len(ls) - 1, -1, -1):
                if left and ls[i] < sizes[i]:
                    break
                left += ls[i]
            else:
                return
            ls[i] += 1
            left -= 1

    return walk()


def q_cardinality(spec: ShuffleSpec, j: int) -> int:
    """Number of ``j``-block round-partitions for this shuffle sequence;
    0 outside the reachable range ``[max(a), min(sum(a), n)]``."""
    _expect(ShuffleSpec, spec)
    j = _integer(j)
    if j > spec.n:
        return 0
    return _q_row(spec.a, j).get(j, 0)


def _q_row(a: tuple[int, ...], top: int) -> dict[int, int]:
    """``{j: q_j}``, round-partition counts by number of blocks ``j <= top``,
    for the ``j`` the rounds reach, which are exactly
    ``max(a)..min(sum(a), top)``: keys increasing, every count positive.

    Two paths give the same row: ``_row_by_rounds`` carries a weight per
    number of blocks opened, round by round, and ``_row_by_differences``
    reads the row off a forward-difference triangle of width ``W = top -
    max(a) + 1``, once ``top`` is cut to ``sum(a)``.  One pass over the
    rounds, before either path runs, gives each round one figure, its cell
    bits.  Before round ``i`` the rounds so far have opened at most
    ``most`` blocks, their sum capped at ``top``, and a cell's ``comb`` and
    ``perm`` each have at most ``min(a_i, most)`` factors of at most
    ``max(a_i, most)``, which bounds their bits (0 if that is at most 1).

    The bit budget, the one refusal, sums the cell bits, since a count
    multiplies one cell of each round.  The rounds path's price weighs
    each by the states its round runs, ``least..most``, where ``least`` is
    the largest size so far.  The triangle runs when that price exceeds
    its ``W(W+1)/2`` cells (``W`` values and ``W(W-1)/2`` differences) and
    its numbers, at most ``top**sum(a)``, fit in ``PERM_BIT_CAP`` bits;
    otherwise the rounds run.  ``python tests/row_sweep.py`` times both
    paths on the rows the rule was measured on and names the faster.
    """
    total = sum(a)
    top = min(top, total)
    bits = price = least = 0
    most = min(0, top)
    # Conditional expressions, not ``min`` and ``max``: this pass runs once
    # a round, and the builtin calls made it three times slower.
    for ac in a:
        small, big = (most, ac) if ac > most else (ac, most)
        cell = small * big.bit_length() if big > 1 else 0
        bits += cell
        price += (most - least + 1) * cell
        least = ac if ac > least else least
        most = most + ac if most + ac < top else top
    _check_cap(bits, PERM_BIT_CAP, "bits")
    width = top - max(a) + 1
    if price > width * (width + 1) // 2 and total * top.bit_length() <= PERM_BIT_CAP:
        return _row_by_differences(a, top)
    return _row_by_rounds(a, top)


def _row_by_rounds(a: tuple[int, ...], top: int) -> dict[int, int]:
    """``_q_row`` round by round: ``row[o]`` weighs the partial partitions
    of the rounds so far that opened ``o`` blocks, none before the first
    round.  A round of ``ac`` slots that opens ``l`` new blocks chooses its
    fresh slots in ``comb(ac, l)`` ways and seats the other ``ac - l``
    slots in distinct opened blocks in ``perm(o, ac - l)`` ways.  Blocks
    never close, so states above ``top`` are dropped."""
    row = {0: 1}
    for ac in a:
        nxt: dict[int, int] = {}
        for opened, weight in row.items():
            for l in range(max(0, ac - opened), min(ac, top - opened) + 1):
                w = weight * math.comb(ac, l) * math.perm(opened, ac - l)
                nxt[opened + l] = nxt.get(opened + l, 0) + w
        row = nxt
    return row


def _row_by_differences(a: tuple[int, ...], top: int) -> dict[int, int]:
    """``_q_row`` by Newton's forward differences, for ``top <= sum(a)``.

    Every outcome tuple lands in one term, so ``f(x) = prod_i P(x, a_i)``
    equals ``sum_j q_j P(x, j)`` at every deck size ``x``: ``q_j`` is the
    ``j``-th Newton coefficient of ``f``.  Every term has ``j >= m =
    max(a)``, and ``P(x, j) = P(x, m) P(x - m, j - m)``, so ``g(y) =
    f(m + y) / P(m + y, m)``, which is ``f`` with one round of size ``m``
    left out, has ``q_{m+t} = Δ^t g(0) / t!``.  The values ``g(0..W-1)``,
    each distinct size's ``perm`` raised to its count, go through one
    triangle of ``W(W-1)/2`` subtractions, ``W = top - m + 1``; block
    counts below ``m`` never enter it.  The Newton coefficients of ``g``
    are counts, so every difference in the triangle is too, and none
    exceeds ``g(W-1) <= top**sum(a)``.
    """
    m, counts = max(a), Counter(a)
    counts[m] -= 1  # ``g`` leaves out one round of size ``m``
    xs = range(m, top + 1)
    g = [1] * len(xs)
    for s, c in counts.items():
        if c:
            powers = map(pow, map(math.perm, xs, itertools.repeat(s)), itertools.repeat(c))
            g = list(map(operator.mul, g, powers))
    for t in range(1, len(g)):
        for i in range(len(g) - 1, t - 1, -1):
            g[i] -= g[i - 1]
    factorials = itertools.accumulate(range(1, len(g)), operator.mul, initial=1)
    return dict(zip(xs, map(operator.floordiv, g, factorials)))


@dataclass(frozen=True, init=False)
class SegmentedPartition:
    """A partition of ``1..m`` into nonempty blocks, stored as block labels:
    ``labels[e-1]`` is the block of element ``e``, and blocks are numbered
    1, 2, ... in increasing order of their minima."""

    labels: tuple[int, ...]

    def __init__(self, parts: Iterable[Iterable[int]]) -> None:
        # A block is a set, so its elements may come in any order; a mapping
        # is refused, since reading it would keep its keys and drop its values.
        blocks = []
        for p in _expect(Iterable, parts):
            if isinstance(_expect(Iterable, p), Mapping):
                raise ValueError(f"expected a block of elements, got {_shown(p)}")
            blocks.append(tuple(map(_integer, p)))
        if not blocks or not all(blocks):
            raise ValueError("blocks must be nonempty")
        size = sum(map(len, blocks))
        labels = [0] * size
        for b, block in enumerate(sorted(blocks, key=min), start=1):
            for e in block:
                if labels[_in_range(e, 1, size, "element") - 1]:
                    raise ValueError(f"element {e} is repeated")
                labels[e - 1] = b
        object.__setattr__(self, "labels", tuple(labels))

    @classmethod
    def _from_labels(cls, labels: tuple[int, ...]) -> "SegmentedPartition":
        """The partition with these labels, unchecked: only for labels that
        are canonical by construction (``1..j`` in order of first occurrence),
        as in ``phi``, where untouched cards stay in order, and
        ``iter_segmented_partitions``, which opens labels in slot order."""
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
            raise ValueError(f"element {_shown(element)} not in partition")
        return self.labels[e - 1]

    def as_json(self) -> list[list[int]]:
        blocks: list[list[int]] = [[] for _ in range(self.j)]
        for e, b in enumerate(self.labels, start=1):
            blocks[b - 1].append(e)
        return blocks

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "SegmentedPartition":
        return cls([_json_list(part) for part in _json_list(data)])


def _check_covers(alpha: SegmentedPartition, spec: ShuffleSpec) -> None:
    """Refuses ``alpha`` unless it is a partition of the spec's slots."""
    if _expect(SegmentedPartition, alpha).size != spec.total:
        raise ValueError(
            f"partition covers {alpha.size} slots, spec has {spec.total}"
        )


def _round_slices(
    alpha: SegmentedPartition, spec: ShuffleSpec
) -> list[tuple[int, ...]]:
    """The labels of each round's slots, after checking the class and size."""
    _check_covers(alpha, spec)
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
    """Yield every ``j``-block round-partition of the rounds ``a`` in a fixed
    order: anchor tuples lexicographically, then the anchor slots per round,
    then the seatings of the remaining slots in already-opened blocks.

    The stream holds one partition at a time.  Besides it, it holds the
    current anchor tuple and each round's own seatings, so its memory grows
    with their sum over the rounds, never with their product.  ``j`` is not
    bounded by the deck size: for ``n < j <= sum(a)`` the partitions are
    ones no ``n``-card deck reaches, which ``q_cardinality`` counts as 0
    and ``phi_inverse`` refuses.
    """
    a = _expect(ShuffleSpec, spec).a
    bounds = spec.bounds()
    rounds = [range(lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]  # 0-based
    for ls in anchor_tuples(spec, j):
        opened = itertools.accumulate(ls, initial=a[0])
        seats = [
            tuple(itertools.permutations(range(1, o + 1), ac - lc))
            for o, ac, lc in zip(opened, a[1:], ls) if ac > lc
        ]
        choices = [itertools.combinations(r, lc) for r, lc in zip(rounds, ls)]
        for anchors in itertools.product(*choices):
            labels = [*range(1, a[0] + 1), *[0] * (bounds[-1] - a[0])]
            for b, e in enumerate(itertools.chain(*anchors), start=a[0] + 1):
                labels[e] = b
            rest = [e for e in range(a[0], bounds[-1]) if not labels[e]]
            for seating in itertools.product(*seats):
                for e, b in zip(rest, itertools.chain(*seating)):
                    labels[e] = b
                yield SegmentedPartition._from_labels(tuple(labels))


def enumerate_segmented_partitions(
    spec: ShuffleSpec, j: int
) -> list[SegmentedPartition]:
    """List form of ``iter_segmented_partitions``; refused with
    ``CapExceeded`` above ``DEFAULT_TUPLE_CAP`` partitions."""
    a, j = _expect(ShuffleSpec, spec).a, _integer(j)
    _check_cap(_q_row(a, j).get(j, 0), DEFAULT_TUPLE_CAP, "partitions")
    return list(iter_segmented_partitions(spec, j))


def phi(sigmas: Sequence[Permutation], spec: ShuffleSpec) -> SegmentedPartition:
    """The partition recording which shuffle slot touched which card.

    Simulates the rounds on the sorted deck; slot ``e``'s label is the card
    it touched, and the number of blocks is the number of cards touched.
    """
    if not isinstance(sigmas, (tuple, list)):  # skips the slow abstract check
        _expect(Sequence, sigmas)
    if len(sigmas) != _expect(ShuffleSpec, spec).k:
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
                f"{_shown(sigma.deck)} cannot result from shuffling {ai} cards"
            )
        touched += deck[:ai]
        deck = [deck[c - 1] for c in sigma.deck]
    return SegmentedPartition._from_labels(tuple(touched))


def phi_inverse(
    alpha: SegmentedPartition, t: Permutation, spec: ShuffleSpec
) -> ShuffleTuple:
    """The unique shuffle sequence with round-partition ``alpha`` whose
    left-to-right composite is ``t``.

    Unwinds the rounds from the last.  Round ``i`` took its slots' cards
    (block ``b`` is card ``b``) off the top of the deck it found, in slot
    order, and left the other cards in their order, so that deck is those
    cards followed by the rest of the current deck; ``sigma_i`` lists each
    current card's position in it.  One loop does every round, and the
    byte boundary picks the encoding of its steps ``strip``, ``positions``
    and ``seat``: ``bytes.translate`` and ``bytes.maketrans`` while cards
    fit in a byte, one pass over a tuple past that.  A repeated label makes
    the found deck longer than ``n`` in both.  The checks on ``t`` and on
    each round keep the unopened cards in order, so the deck ends sorted.
    """
    n = _expect(ShuffleSpec, spec).n
    if _expect(Permutation, t).n != n:
        raise ValueError(f"deck size {t.n} does not match spec size {n}")
    _check_covers(alpha, spec)
    if not is_term_of(t, alpha.j):
        raise ValueError(
            f"deck {_shown(t.deck)} cannot result from shuffling {alpha.j} cards"
        )
    if n <= 255:
        labels, deck, ident = bytes(alpha.labels), bytes(t.deck), bytes(range(1, n + 1))
        strip = seat = bytes.translate
        positions = bytes.maketrans
    else:
        labels, deck, ident = alpha.labels, t.deck, None
        strip = lambda d, _, top: tuple(itertools.filterfalse(set(top).__contains__, d))
        positions = lambda before, _: _inverse_deck(before)
        seat = lambda d, table: _compose_decks(table, d)
    # ``before`` is a permutation of 1..n (the round's labels are distinct
    # cards of 1..alpha.j, and alpha.j <= n), so each round's deck is one too.
    bounds = spec.bounds()
    sigmas: list[Permutation] = [None] * spec.k  # type: ignore[list-item]
    for i in range(spec.k - 1, -1, -1):
        top = labels[bounds[i] : bounds[i + 1]]
        before = top + strip(deck, None, top)
        if len(before) != n:  # a repeated label seats its card twice
            raise ValueError("some round has two slots in the same block")
        sigmas[i] = Permutation._trusted(tuple(seat(deck, positions(before, ident))))
        deck = before
    return tuple(sigmas)
