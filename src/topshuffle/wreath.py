"""Decks whose cards carry group-element faces, and their shuffle algebra.

A card here is a pair (face, label): shuffling may both move a card and
turn it to show a different face, with faces multiplying along the way.
``hat_top_to_random`` sums over all reinsertions of the top cards with
every face spun independently; its products expand exactly like the plain
case, scaled by a power of the group order, because a fixed final face
factors into touch-count many group elements in equally many ways
regardless of the face (``factorization_count``).

Groups are supplied as validated multiplication tables with element 0 the
identity, so arbitrary finite groups (including nonabelian ones) work.

``GAlgebraElement`` keeps only what is faced about it: its raw tally is
keyed by (cards by position, faces by position), the two columns of
``GPermutation.deck``, and its body is ``algebra._Element``.  Products
follow the wreath rule ``(σ, f)(τ, g) = (στ, f^τ·g)``.  The oracle
``g_brute_force_product`` and ``g_multiply`` run in the one fold
``algebra._fold``, which shares no code with ``expansion*`` or
``g_expansion*`` or with ``g_compose``; its symbol is a card with its face
(``_g_symbols``).  The oracle folds over faced single-card insertions
(``_hat_insertions``): ``hat_top_to_random(a, n)`` is ``Y_a ⋯ Y_1``, where
``Y_m`` moves the card at position ``m`` to a position ``p >= m`` and spins
that card only.  The group is the faced decks of one card, so
``factorization_counts_by_enumeration`` is that oracle at ``n = 1``, where
a term's table is its face's Cayley row.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, partial
from operator import itemgetter
from struct import iter_unpack

from .algebra import (
    AlgebraElement,
    _Element,
    _fold,
    _insertion_decks,
    _shuffle_sums,
    _substitution,
    expansion,
)
from .coefficients import DEFAULT_TUPLE_CAP, ShuffleSpec, _check_cap, _power, total_outcomes
from .permutations import (
    Permutation,
    _at_least,
    _expect,
    _in_range,
    _integer,
    _integers,
    _json_list,
    _json_object,
    _ordered,
    _shown,
    identity,
    min_shuffle_size,
)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``cayley[a][b]`` is the product ``a * b``; element 0 is the identity in
    every instance and serialization.  Closure, associativity, the identity
    row/column, and inverses are all checked on construction, in
    ``O(order**2 * log2(order))`` time (``_check_associative``).  The inverse
    of ``a`` is read from its row, as the position of 0: an associative
    table with an identity in which every element has a right inverse is a
    group, so each right inverse is two-sided.
    """

    cayley: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]

    def __init__(self, cayley: Sequence[Sequence[int]]):
        table = tuple(map(_integers, _ordered(cayley)))
        m = len(table)
        if m == 0:
            raise ValueError("group must have at least one element")
        for row in table:
            if len(row) != m:
                raise ValueError("multiplication table must be square")
            if min(row) < 0 or max(row) >= m:
                for x in row:  # the first bad cell names itself
                    _in_range(x, 0, m - 1, "table entry")
        for i in range(m):
            if table[0][i] != i or table[i][0] != i:
                raise ValueError("element 0 must act as the identity")
        generators = _generators(table)
        if generators is not None:
            _check_associative(table, generators)
        for a, row in enumerate(table):
            if 0 not in row:
                raise ValueError(f"element {a} has no two-sided inverse")
        if generators is None:
            # The identity and right inverses hold, so only associativity can fail.
            raise ValueError("multiplication table is not associative")
        object.__setattr__(self, "cayley", table)
        object.__setattr__(self, "inverse", tuple(row.index(0) for row in table))

    @property
    def order(self) -> int:
        return len(self.cayley)

    def mul(self, a: int, b: int) -> int:
        return self.cayley[self._element(a)][self._element(b)]

    def inv(self, a: int) -> int:
        return self.inverse[self._element(a)]

    def _element(self, a) -> int:
        """``a`` as an element index; anything outside ``0..order-1`` raises."""
        return _in_range(a, 0, self.order - 1, "element")

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroup":
        """Integers mod ``m`` under addition; refused with ``CapExceeded``
        before building when the ``m * m`` table cells exceed
        ``DEFAULT_TUPLE_CAP``."""
        m = _at_least(m, 1, "order must be at least 1")
        _check_cap(m * m, DEFAULT_TUPLE_CAP, "table cells")
        # A group by construction, so the table checks are skipped.  The rows
        # are rotations of one tuple and share its int objects.
        elements = tuple(range(m))
        group = object.__new__(cls)
        rows = tuple(elements[i:] + elements[:i] for i in range(m))
        object.__setattr__(group, "cayley", rows)
        object.__setattr__(group, "inverse", (0,) + elements[:0:-1])
        return group

    @classmethod
    def symmetric_3(cls) -> "FiniteGroup":
        """The nonabelian order-6 group of permutations of three letters,
        multiplied left to right; element 0 is the identity."""
        elems = sorted(itertools.permutations(range(3)))
        index = {e: i for i, e in enumerate(elems)}
        table = tuple(
            tuple(index[tuple(q[p[x]] for x in range(3))] for q in elems)
            for p in elems
        )
        return cls(table)

    def as_json(self) -> dict:
        return {"order": self.order, "cayley": [list(row) for row in self.cayley]}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        (cayley,) = _json_object(data, "cayley")
        group = cls([tuple(_json_list(row)) for row in _json_list(cayley)])
        if "order" in data and _integer(data["order"]) != group.order:
            raise ValueError("declared order does not match table size")
        return group


def _generators(table: tuple[tuple[int, ...], ...]) -> list[int] | None:
    """Generators of the table's elements, or None if it cannot be a group.

    Each pick is the least element not yet reached from 0 by right
    multiplication by earlier picks, so every element is a product of picks.
    In a group each pick at least doubles the subgroup reached, so a table
    that needs more than ``log2(order)`` picks is not a group.
    """
    m = len(table)
    reached, generators = {0}, []
    for g in range(1, m):
        if g in reached:
            continue
        if 2 ** (len(generators) + 1) > m:
            return None
        generators.append(g)
        queue = list(reached)
        for x in queue:
            row = table[x]
            for h in generators:
                y = row[h]
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
    return generators


def _check_associative(table: tuple[tuple[int, ...], ...], generators: list[int]) -> None:
    """Light's test: if ``(x*g)*y == x*(g*y)`` for every ``x``, ``y`` and every
    ``g`` of a generating set, the elements ``g`` passing form a closed set
    holding the generators, so the whole table is associative."""
    for g in generators:
        times_g_row = itemgetter(*table[g])
        for row in table:
            if times_g_row(row) != table[row[g]]:
                raise ValueError("multiplication table is not associative")


@dataclass(frozen=True)
class GPermutation:
    """A deck of faced cards: ``deck[i] = (face, card)`` says ``card`` sits
    at position ``i + 1`` showing ``face`` (an index into a group)."""

    deck: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        deck = tuple(map(_integers, _ordered(self.deck)))
        object.__setattr__(self, "deck", deck)
        if any(len(card) != 2 for card in deck):
            raise ValueError("each card is a (face, card) pair")
        n = len(deck)
        if n == 0:
            raise ValueError("empty deck")
        if sorted(c for _, c in deck) != list(range(1, n + 1)):
            raise ValueError("card labels must form a permutation of 1..n")
        if any(f < 0 for f, _ in deck):
            raise ValueError("faces are nonnegative group-element indices")

    @property
    def n(self) -> int:
        return len(self.deck)

    def __abs__(self) -> Permutation:
        """The underlying deck with every face erased."""
        return Permutation(tuple(c for _, c in self.deck))

    def position_of(self, card: int) -> int:
        return abs(self).position_of(card)

    def face_of(self, card: int) -> int:
        return self.deck[self.position_of(card) - 1][0]

    @classmethod
    def plain(cls, p: Permutation) -> "GPermutation":
        """The deck ``p`` with every card showing the identity face."""
        return cls(tuple((0, c) for c in _expect(Permutation, p).deck))

    @classmethod
    def identity(cls, n: int) -> "GPermutation":
        return cls.plain(identity(n))

    def as_json(self) -> list[dict]:
        return [{"face": f, "card": c} for f, c in self.deck]

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "GPermutation":
        return cls(tuple(_json_object(b, "face", "card") for b in _json_list(data)))


def _check_faces(gp: GPermutation, group: FiniteGroup) -> None:
    order = _expect(FiniteGroup, group).order
    if any(f >= order for f, _ in _expect(GPermutation, gp).deck):
        raise ValueError(f"face index out of range for a group of order {order}")


def g_compose(s: GPermutation, t: GPermutation, group: FiniteGroup) -> GPermutation:
    """Left-to-right product: position ``j`` holds the card that ``s`` holds
    at the position named by ``t``'s card at ``j``, its face times ``t``'s
    face at ``j``."""
    _check_faces(s, group)
    _check_faces(t, group)
    if s.n != t.n:
        raise ValueError(f"deck sizes differ: {s.n} != {t.n}")
    picked = [(s.deck[c - 1], f) for f, c in t.deck]
    return GPermutation(tuple((group.cayley[sf][f], sc) for (sf, sc), f in picked))


def _g_symbols(n: int, cayley: tuple) -> tuple:
    """``algebra._deck_symbols`` for faced decks.  Card ``c`` showing ``φ``
    is the symbol ``(c-1)·order + φ``, which the term ``(τ, g)`` sends to
    ``(τ_c, g_c·φ)``: the wreath rule ``(τ, g)(σ, f) = (τσ, g^σ·f)`` read at
    one position.  So a table is one block per card, its face's Cayley row
    shifted to the card's symbols.  Keys and tables are bytes while the
    symbols and the cards fit in a byte."""
    order = len(cayley)
    narrow = n * order <= 256 and n < 256
    form, pad = (bytes, lambda t: bytes(t).ljust(256)) if narrow else (tuple, tuple)
    cards, faces = map(pad, zip(*[(s // order + 1, s % order) for s in range(n * order)]))

    @cache
    def block(c, f):
        return tuple(map(((c - 1) * order).__add__, cayley[f]))

    def table(r):
        return pad(itertools.chain.from_iterable(map(block, *r)))

    def raw(tally):
        if narrow:
            keys = b"".join(tally)
            raws = zip(*[iter_unpack(f"{n}B", keys.translate(t)) for t in (cards, faces)])
        else:
            raws = [(get(cards), get(faces)) for get in map(_substitution, tally)]
        return dict(zip(raws, tally.values()))

    return (lambda r: form([(c - 1) * order + f for c, f in zip(*r)])), table, raw


class GAlgebraElement(_Element):
    """A finite sum of faced decks with nonnegative integer coefficients."""

    __slots__ = ()
    _DECK = GPermutation
    _MISMATCH = "elements live in different algebras"

    def __init__(self, n: int, group: FiniteGroup, terms: Mapping[GPermutation, int]):
        self._store((n, _expect(FiniteGroup, group)), terms)

    @staticmethod
    def _encode(gp: GPermutation) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The raw form of ``gp``: (cards by position, faces by position), the
        two columns of ``GPermutation.deck``.  Raw keys sort in canonical order."""
        faces, cards = zip(*gp.deck)
        return cards, faces

    @staticmethod
    def _decode(raw: tuple[tuple[int, ...], tuple[int, ...]]) -> GPermutation:
        cards, faces = raw
        return GPermutation(tuple(zip(faces, cards)))

    def _check(self, gp: GPermutation) -> None:
        super()._check(gp)
        _check_faces(gp, self.group)

    @property
    def group(self) -> FiniteGroup:
        return self._space[1]

    def _json_header(self) -> dict:
        return {"n": self.n, "group": self.group.as_json()}

    @staticmethod
    def _space_from_json(data: dict) -> tuple[int, FiniteGroup]:
        n, group = _json_object(data, "n", "group")
        return _integer(n), FiniteGroup.from_json(group)


def _hat_decks_raw(a: int, decks: list, order: int) -> Iterator:
    """Raw terms of ``hat_top_to_random(a, n)`` from its decks ``decks``,
    ``_top_to_random_decks(a, n)``, which ``algebra._shuffle_sums`` slices
    from the largest size's: each deck with every face at the positions of
    cards ``1..a`` and the identity face elsewhere; decks that touch the
    same positions share one face list."""
    # Shared: a spin product per deck ran oracle-faced 10 % slower (perfbench, 2 vCPUs).
    by_position: dict = {}
    for deck in decks:
        key = tuple([c <= a for c in deck])
        if key not in by_position:
            spins = [range(order) if touched else (0,) for touched in key]
            by_position[key] = list(itertools.product(*spins))
        yield from zip(itertools.repeat(deck), by_position[key])


def _hat_insertions(m: int, n: int, order: int) -> list:
    """Raw terms of the faced insertion ``Y_m``: each of ``_insertion_decks``
    with every face on the card it moves, which lands at ``p``, and the
    identity face on every other card."""
    zeros = (0,) * n
    return [
        (deck, zeros[: p - 1] + (f,) + zeros[p:])
        for p, deck in enumerate(_insertion_decks(m, n), m)
        for f in range(order)
    ]


def hat_top_to_random(a: int, n: int, group: FiniteGroup) -> GAlgebraElement:
    """The one-shuffle faced expansion: every deck reachable by reinserting
    cards ``1..a`` with each of their faces spun independently, untouched
    cards showing the identity face.  Its ``order**a * P(n, a)`` terms have
    coefficient 1; refused above ``DEFAULT_TUPLE_CAP`` of them."""
    return g_expansion_element(ShuffleSpec(n, (a,)), group, DEFAULT_TUPLE_CAP)


def g_multiply(
    x: GAlgebraElement, y: GAlgebraElement, cap: int = DEFAULT_TUPLE_CAP
) -> GAlgebraElement:
    """Convolution product in the faced-deck algebra.  Refuses up front when
    the ``len(x) * len(y)`` compositions exceed ``cap``."""
    GAlgebraElement._require(x, y)
    _check_cap(len(x) * len(y), cap, "compositions")
    factors = [(e._raw.keys(), e._raw.values()) for e in (x, y)]
    tally = _fold(_g_symbols(x.n, x.group.cayley), factors)
    return GAlgebraElement._of_tally(x._space, tally)


def factorization_count(l: int, g: int, group: FiniteGroup) -> int:
    """Number of ``l``-tuples of group elements whose product is ``g``:
    ``order**(l-1)``, the same for every ``g``; refused with ``CapExceeded``
    in bits (``_power``) before a power too large is built."""
    l = _at_least(l, 1, "tuple length must be at least 1")
    _expect(FiniteGroup, group)._element(g)
    return _power(group.order, l - 1)


def factorization_counts_by_enumeration(
    l: int, group: FiniteGroup, cap: int = DEFAULT_TUPLE_CAP
) -> tuple[int, ...]:
    """Per-element tuple counts obtained by walking all ``order**l`` tuples;
    the independent check of ``factorization_count``, as the product of
    ``l`` one-card faced shuffle sums (the group is the one-card decks).
    Refused in bits before the tuple count ``order**l`` is built, then on
    that count, then on the ``l`` factors, which outnumber the tuples only
    in the trivial group."""
    l = _at_least(l, 1, "tuple length must be at least 1")
    _check_cap(_power(_expect(FiniteGroup, group).order, l), cap, "tuples")
    _check_cap(l, cap, "factors")
    product = g_brute_force_product(ShuffleSpec(1, (1,) * l), group, cap)
    one_card = (GPermutation(((g, 1),)) for g in range(group.order))
    return tuple(map(product.coefficient, one_card))


def g_total_outcomes(spec: ShuffleSpec, group: FiniteGroup) -> int:
    """Faced outcome tuples, also the term tuples ``g_brute_force_product``
    counts: ``order**sum(a)`` times the plain count.  Each is refused in
    bits before it is built, the plain count first."""
    order = _expect(FiniteGroup, group).order
    return total_outcomes(spec) * _power(order, spec.total)


def g_brute_force_product(
    spec: ShuffleSpec, group: FiniteGroup, cap: int = DEFAULT_TUPLE_CAP
) -> GAlgebraElement:
    """Exact product of the spec's faced shuffle sums by exhaustive count of
    all term tuples, through the fold over distinct states in ``_fold``,
    one faced single-card insertion at a time."""
    _check_cap(g_total_outcomes(spec, group), cap, "tuples")
    n, order = spec.n, group.order
    factors = [
        (_hat_insertions(m, n, order), None) for ai in spec.a for m in range(ai, 0, -1)
    ]
    tally = _fold(_g_symbols(n, group.cayley), factors)
    return GAlgebraElement._of_tally((spec.n, group), tally)


def g_expansion(spec: ShuffleSpec, group: FiniteGroup) -> dict[int, int]:
    """Coefficients ``{c: count}`` with the product of the spec's faced
    shuffle sums equal to ``sum_c count * hat_top_to_random(c, n)``: the
    plain count at ``c`` times ``order**(sum(a) - c)``.  The largest power,
    at ``c = max(a)``, is refused in bits before the row is computed."""
    order = _expect(FiniteGroup, group).order
    power = _power(order, _expect(ShuffleSpec, spec).total - spec.j_min) * order
    # The row's keys run up from ``max(a)`` by one, each power the last over ``order``.
    return {c: q * (power := power // order) for c, q in expansion(spec).items()}


def g_expansion_element(
    spec: ShuffleSpec, group: FiniteGroup, cap: int = DEFAULT_TUPLE_CAP
) -> GAlgebraElement:
    """The faced expansion materialized as one element, for comparison
    against ``g_brute_force_product``.  Refuses up front when the faced
    shuffle sums it adds up have more than ``cap`` terms in total."""
    _expect(ShuffleSpec, spec)
    terms = partial(_hat_decks_raw, order=_expect(FiniteGroup, group).order)
    row = partial(g_expansion, group=group)
    tally = _shuffle_sums(spec, row, terms, cap, group.order)
    return GAlgebraElement._of_tally((spec.n, group), tally)


def is_hat_term(target: GPermutation, c: int, group: FiniteGroup) -> bool:
    """Is ``target`` in the support of ``hat_top_to_random(c, n, group)``?

    Needs the underlying deck to be reachable by a ``c``-card shuffle and
    every card beyond ``c`` to show the identity face.
    """
    return max(1, _hat_floor(target, group)) <= _integer(c) <= target.n


def _hat_floor(target: GPermutation, group: FiniteGroup) -> int:
    """``is_hat_term(target, c, group)`` holds exactly for
    ``max(1, _hat_floor(target, group)) <= c <= n``.  The floor is the
    larger of the underlying deck's minimum shuffle size and the highest
    card showing a non-identity face."""
    _check_faces(target, group)
    faced = (card for f, card in target.deck if f)
    return max(min_shuffle_size(abs(target)), max(faced, default=0))


def bar_element(
    p: Permutation, group: FiniteGroup, cap: int = DEFAULT_TUPLE_CAP
) -> GAlgebraElement:
    """Sum of all ``order**n`` ways to put a face on every card of ``p``."""
    return bar_lift(AlgebraElement(_expect(Permutation, p).n, {p: 1}), group, cap)


def bar_lift(x, group: FiniteGroup, cap: int = DEFAULT_TUPLE_CAP) -> GAlgebraElement:
    """Face-spin every term of a plain element, keeping its coefficients.
    Refuses up front when ``order**n`` is too large to build (in bits), or
    when the ``len(x) * order**n`` terms exceed ``cap``."""
    if not isinstance(x, AlgebraElement):
        raise ValueError(f"{_shown(x)} is not an AlgebraElement")
    order = _expect(FiniteGroup, group).order
    # An empty element has no terms at any size, so its power is never built.
    _check_cap(len(x) and len(x) * _power(order, x.n), cap, "terms")
    spins = partial(itertools.product, range(group.order), repeat=x.n)
    terms = {(d, f): c for d, c in x._raw.items() for f in spins()}
    return GAlgebraElement._of_tally((x.n, group), terms)


def bar_lift_expansion(
    base_coefficients: Mapping, k: int, n: int, group: FiniteGroup
) -> dict:
    """Lift any nonnegative k-fold expansion to fully-faced decks: every
    coefficient picks up the factor ``(order**(k-1))**n``, since each of
    the ``n`` final faces factors into ``k`` touches in ``order**(k-1)``
    ways.  Refused in bits (``_power``) before the factor is built."""
    k = _at_least(k, 1, "number of factors must be at least 1")
    n = _at_least(n, 1, "deck size must be at least 1")
    items = _expect(Mapping, base_coefficients).items()
    base = {r: _at_least(c, 0, "base coefficients must be nonnegative") for r, c in items}
    factor = _power(_expect(FiniteGroup, group).order, (k - 1) * n)
    return {r: c * factor for r, c in base.items()}
