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

``GAlgebraElement`` keeps only what is faced about it; its body is
``algebra._Element``, shared with the plain ``AlgebraElement``.  The
oracles ``g_brute_force_product`` and ``factorization_counts_by_enumeration``
run the one tuple walker, ``algebra._walk_tuples``, which shares no code
with ``expansion``, ``expansion_element`` or ``g_expansion*``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .algebra import (
    DEFAULT_TUPLE_CAP,
    AlgebraElement,
    _Element,
    _check_term_count,
    _walk_tuples,
    expansion,
    predicted_tuple_count,
)
from .coefficients import ShuffleSpec
from .errors import CapExceeded
from .permutations import (
    Permutation,
    _deck_from_targets,
    _integer,
    _inverse_deck,
    _min_shuffle_raw,
)

DEFAULT_FACTORIZATION_CAP = 10**6


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``cayley[a][b]`` is the product ``a * b``; element 0 is the identity in
    every instance and serialization.  Closure, associativity, the identity
    row/column, and two-sided inverses are all checked on construction.
    """

    __slots__ = ("cayley", "inverse")

    def __init__(self, cayley: Sequence[Sequence[int]]):
        table = tuple(tuple(_integer(x) for x in row) for row in cayley)
        m = len(table)
        if m == 0:
            raise ValueError("group must have at least one element")
        for row in table:
            if len(row) != m:
                raise ValueError("multiplication table must be square")
            for x in row:
                if not 0 <= x < m:
                    raise ValueError(f"table entry {x} outside 0..{m - 1}")
        for i in range(m):
            if table[0][i] != i or table[i][0] != i:
                raise ValueError("element 0 must act as the identity")
        for a in range(m):
            row_a = table[a]
            for b in range(m):
                ab = row_a[b]
                row_b = table[b]
                tab_ab = table[ab]
                for c in range(m):
                    if tab_ab[c] != row_a[row_b[c]]:
                        raise ValueError("multiplication table is not associative")
        inv = []
        for a in range(m):
            for b in range(m):
                if table[a][b] == 0 and table[b][a] == 0:
                    inv.append(b)
                    break
            else:
                raise ValueError(f"element {a} has no two-sided inverse")
        self.cayley = table
        self.inverse = tuple(inv)

    @property
    def order(self) -> int:
        return len(self.cayley)

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.cayley == other.cayley

    def __hash__(self) -> int:
        return hash(self.cayley)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroup":
        """Integers mod ``m`` under addition."""
        if m < 1:
            raise ValueError("order must be at least 1")
        return cls(tuple(tuple((i + j) % m for j in range(m)) for i in range(m)))

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
        group = cls(data["cayley"])
        if "order" in data and _integer(data["order"]) != group.order:
            raise ValueError("declared order does not match table size")
        return group


@dataclass(frozen=True)
class GPermutation:
    """A deck of faced cards: ``deck[i] = (face, card)`` says ``card`` sits
    at position ``i + 1`` showing ``face`` (an index into a group)."""

    deck: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        deck = self.deck
        if type(deck) is not tuple or not all(
            type(card) is tuple
            and len(card) == 2
            and type(card[0]) is int
            and type(card[1]) is int
            for card in deck
        ):
            deck = tuple((_integer(f), _integer(c)) for f, c in deck)
            object.__setattr__(self, "deck", deck)
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
        for i, (_, c) in enumerate(self.deck):
            if c == card:
                return i + 1
        raise ValueError(f"no card {card}")

    def face_of(self, card: int) -> int:
        for f, c in self.deck:
            if c == card:
                return f
        raise ValueError(f"no card {card}")

    @classmethod
    def plain(cls, p: Permutation) -> "GPermutation":
        """The deck ``p`` with every card showing the identity face."""
        return cls(tuple((0, c) for c in p.deck))

    @classmethod
    def identity(cls, n: int) -> "GPermutation":
        if n < 1:
            raise ValueError("deck size must be at least 1")
        return cls(tuple((0, c) for c in range(1, n + 1)))

    def as_json(self) -> list[dict]:
        return [{"face": f, "card": c} for f, c in self.deck]

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "GPermutation":
        return cls(tuple((b["face"], b["card"]) for b in data))


def _check_faces(gp: GPermutation, group: FiniteGroup) -> None:
    if any(f >= group.order for f, _ in gp.deck):
        raise ValueError(f"face index out of range for a group of order {group.order}")


# Raw form used in enumerations: (positions by card, faces by card), 0-based
# card indices.  Composition is cheap in this form.

def _to_raw(gp: GPermutation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = gp.n
    pos = [0] * n
    face = [0] * n
    for i, (f, c) in enumerate(gp.deck):
        pos[c - 1] = i + 1
        face[c - 1] = f
    return tuple(pos), tuple(face)


def _from_raw(raw: tuple[tuple[int, ...], tuple[int, ...]]) -> GPermutation:
    pos, face = raw
    deck: list[tuple[int, int]] = [(0, 0)] * len(pos)
    for c0, p in enumerate(pos):
        deck[p - 1] = (face[c0], c0 + 1)
    return GPermutation(tuple(deck))


def _g_compose_raw(s, t, cayley):
    (spos, sface), (tpos, tface) = s, t
    pos = tuple([tpos[p - 1] for p in spos])
    return pos, tuple([cayley[f][tface[p - 1]] for f, p in zip(sface, spos)])


def g_compose(s: GPermutation, t: GPermutation, group: FiniteGroup) -> GPermutation:
    """Left-to-right product: card ``m`` chains through both position maps,
    and its face is ``s``'s face times the face ``t`` gives the card index
    ``s`` sent ``m`` to."""
    if s.n != t.n:
        raise ValueError(f"deck sizes differ: {s.n} != {t.n}")
    _check_faces(s, group)
    _check_faces(t, group)
    return _from_raw(_g_compose_raw(_to_raw(s), _to_raw(t), group.cayley))


class GAlgebraElement(_Element):
    """A finite sum of faced decks with nonnegative integer coefficients."""

    __slots__ = ("group",)
    _DECK = GPermutation
    _MISMATCH = "elements live in different algebras"

    def __init__(self, n: int, group: FiniteGroup, terms: Mapping[GPermutation, int]):
        self.group = group
        self._store((n, group), terms, lambda gp: _check_faces(gp, group))

    @staticmethod
    def _sort_key(gp: GPermutation) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical order: by underlying deck, then by faces along positions."""
        return tuple(c for _, c in gp.deck), tuple(f for f, _ in gp.deck)

    def _json_header(self) -> dict:
        return {"n": self.n, "group": self.group.as_json()}

    @staticmethod
    def _space_from_json(data: dict) -> tuple[int, FiniteGroup]:
        group = FiniteGroup.from_json(data["group"])
        return _integer(data["n"]), group

    def __repr__(self) -> str:
        return (
            f"GAlgebraElement(n={self.n}, order={self.group.order}, "
            f"terms={len(self._terms)}, mass={self.mass})"
        )


def _hat_decks_raw(a: int, n: int, order: int) -> Iterator[tuple]:
    """Raw terms of ``hat_top_to_random``: positions lexicographic, then
    faces lexicographic."""
    identity_faces = (0,) * (n - a)
    for targets in itertools.permutations(range(1, n + 1), a):
        pos = _inverse_deck(_deck_from_targets(targets, n))
        for faces in itertools.product(range(order), repeat=a):
            yield pos, faces + identity_faces


def hat_top_to_random(a: int, n: int, group: FiniteGroup) -> GAlgebraElement:
    """Sum of every deck reachable by reinserting cards ``1..a`` with each
    of their faces spun independently; untouched cards keep the identity
    face.  Has ``order**a * P(n, a)`` terms, all with coefficient 1;
    refused with ``CapExceeded`` above ``DEFAULT_TUPLE_CAP`` of them."""
    if not 1 <= a <= n:
        raise ValueError(f"shuffle size {a} outside 1..{n}")
    _check_term_count(n, (a,), DEFAULT_TUPLE_CAP, group.order)
    return GAlgebraElement(
        n, group, {_from_raw(r): 1 for r in _hat_decks_raw(a, n, group.order)}
    )


def g_multiply(x: GAlgebraElement, y: GAlgebraElement) -> GAlgebraElement:
    """Convolution product in the faced-deck algebra."""
    x._require_same(y)
    cayley = x.group.cayley
    xs = [(_to_raw(gp), c) for gp, c in x.terms.items()]
    ys = [(_to_raw(gp), c) for gp, c in y.terms.items()]
    out: dict[tuple, int] = {}
    for rp, cp in xs:
        for rq, cq in ys:
            r = _g_compose_raw(rp, rq, cayley)
            out[r] = out.get(r, 0) + cp * cq
    return GAlgebraElement(x.n, x.group, {_from_raw(r): c for r, c in out.items()})


def factorization_count(l: int, g: int, group: FiniteGroup) -> int:
    """Number of ``l``-tuples of group elements whose product is ``g``:
    ``order**(l-1)``, the same for every ``g``."""
    if l < 1:
        raise ValueError("tuple length must be at least 1")
    if not 0 <= g < group.order:
        raise ValueError(f"element {g} outside 0..{group.order - 1}")
    return group.order ** (l - 1)


def factorization_counts_by_enumeration(
    l: int, group: FiniteGroup, cap: int = DEFAULT_FACTORIZATION_CAP
) -> tuple[int, ...]:
    """Per-element tuple counts obtained by walking all ``order**l`` tuples;
    the independent check of ``factorization_count``."""
    if l < 1:
        raise ValueError("tuple length must be at least 1")
    required = group.order**l
    if required > cap:
        raise CapExceeded(required, cap)
    cayley = group.cayley
    tally = _walk_tuples(
        0, [range(group.order)] * l, lambda acc, f: [cayley[acc][x] for x in f]
    )
    return tuple(tally[g] for g in range(group.order))


def predicted_g_tuple_count(spec: ShuffleSpec, group: FiniteGroup) -> int:
    """Faced term tuples a brute-force walk visits, which is also the number
    of faced outcome tuples: ``order**sum(a)`` times the plain count."""
    return group.order**spec.total * predicted_tuple_count(spec)


def g_brute_force_product(
    spec: ShuffleSpec, group: FiniteGroup, cap: int = DEFAULT_TUPLE_CAP
) -> GAlgebraElement:
    """Exact product of the spec's faced shuffle sums by exhaustive walk of
    all term tuples, composing left to right along shared prefixes."""
    required = predicted_g_tuple_count(spec, group)
    if required > cap:
        raise CapExceeded(required, cap)
    n = spec.n
    cayley = group.cayley
    factors = [list(_hat_decks_raw(ai, n, group.order)) for ai in spec.a]
    tally = _walk_tuples(
        (tuple(range(1, n + 1)), (0,) * n),
        factors,
        lambda cur, factor: [_g_compose_raw(cur, t, cayley) for t in factor],
    )
    return GAlgebraElement(n, group, {_from_raw(r): c for r, c in tally.items()})


def g_expansion(spec: ShuffleSpec, group: FiniteGroup) -> dict[int, int]:
    """Coefficients ``{c: count}`` with the product of the spec's faced
    shuffle sums equal to ``sum_c count * hat_top_to_random(c, n)``: the
    plain count at ``c`` times ``order**(sum(a) - c)``."""
    return {
        c: q * group.order ** (spec.total - c) for c, q in expansion(spec).items()
    }


def g_expansion_element(
    spec: ShuffleSpec, group: FiniteGroup, cap: int = DEFAULT_TUPLE_CAP
) -> GAlgebraElement:
    """The faced expansion materialized as one element, for comparison
    against ``g_brute_force_product``.  Refuses up front when the faced
    shuffle sums it adds up have more than ``cap`` terms in total."""
    counts = g_expansion(spec, group)
    _check_term_count(spec.n, counts, cap, group.order)
    terms: Counter = Counter()
    for c, coeff in counts.items():
        for raw in _hat_decks_raw(c, spec.n, group.order):
            terms[raw] += coeff
    return GAlgebraElement(spec.n, group, {_from_raw(r): c for r, c in terms.items()})


def is_hat_term(target: GPermutation, c: int, group: FiniteGroup) -> bool:
    """Is ``target`` in the support of ``hat_top_to_random(c, n, group)``?

    Needs the underlying deck to be reachable by a ``c``-card shuffle and
    every card beyond ``c`` to show the identity face.
    """
    return max(1, _hat_floor(target, group)) <= c <= target.n


def _hat_floor(target: GPermutation, group: FiniteGroup) -> int:
    """``is_hat_term(target, c, group)`` holds exactly for
    ``max(1, _hat_floor(target, group)) <= c <= n``.  The floor is the
    larger of the underlying deck's minimum shuffle size and the highest
    card showing a non-identity face."""
    _check_faces(target, group)
    deck = target.deck
    return max(
        _min_shuffle_raw(tuple(card for _, card in deck)),
        max((card for f, card in deck if f), default=0),
    )


def bar_element(p: Permutation, group: FiniteGroup) -> GAlgebraElement:
    """Sum of all ``order**n`` ways to put a face on every card of ``p``."""
    return bar_lift(AlgebraElement(p.n, {p: 1}), group)


def bar_lift(x, group: FiniteGroup) -> GAlgebraElement:
    """Face-spin every term of a plain element, keeping its coefficients."""
    terms: dict[GPermutation, int] = {}
    for p, c in x.terms.items():
        for faces in itertools.product(range(group.order), repeat=p.n):
            terms[GPermutation(tuple(zip(faces, p.deck)))] = c
    return GAlgebraElement(x.n, group, terms)


def bar_lift_expansion(
    base_coefficients: Mapping, k: int, n: int, group: FiniteGroup
) -> dict:
    """Lift any nonnegative k-fold expansion to fully-faced decks: every
    coefficient picks up the factor ``(order**(k-1))**n``, since each of
    the ``n`` final faces factors into ``k`` touches in ``order**(k-1)``
    ways."""
    if k < 1:
        raise ValueError("number of factors must be at least 1")
    if n < 1:
        raise ValueError("deck size must be at least 1")
    if any(c < 0 for c in base_coefficients.values()):
        raise ValueError("base coefficients must be nonnegative")
    factor = (group.order ** (k - 1)) ** n
    return {r: c * factor for r, c in base_coefficients.items()}
