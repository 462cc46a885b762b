"""Integer-coefficient sums of decks and their exact products.

``top_to_random(a, n)`` is the formal sum of every deck reachable by
removing cards ``1..a`` and reinserting them, each with coefficient 1.
Products of such sums collapse back to a combination of single
top-to-random sums; ``expansion`` reads those coefficients off one
round-partition count row (``coefficients._q_row``), while
``brute_force_product`` provides the independent check by counting every
tuple of factor terms by its composite, in a fold over single-card
insertions from the last to the first: ``top_to_random(a, n)`` is
``Y_a ⋯ Y_1`` in performance order (``_insertion_decks``), and each
distinct deck reached so far, with its number of tuple suffixes, has every
term of the next insertion composed on its left.

This module also holds what the plain and faced (``wreath``) algebras
share: the element body ``_Element``, the body ``_shuffle_sums`` behind
every builder of shuffle sums, and the fold ``_fold``, the one
convolution kernel behind both oracles and both ``multiply`` and
``wreath.g_multiply``.  There a state is its symbols, as bytes while they
fit in one, and a term is the table of symbols it substitutes for them
(``_substitution``).  The fold shares no code with ``expansion``,
``expansion_element`` or ``wreath.g_expansion*``, and the oracles' terms
do not come from the shuffle sums those add up (``_top_to_random_decks``),
so the oracle stays an independent check of the closed form.

An element stores only its raw tally, deck tuple to count, and decodes it
through the checked constructors each time its terms are read.  ``==``,
``len`` and products work on the tallies, so the CLI's ``verify`` builds
deck objects only on a mismatch.

All coefficients are exact arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import repeat
from operator import add, attrgetter, itemgetter, mul
from types import MappingProxyType

from .coefficients import ShuffleSpec, _q_row
from .errors import _check_cap
from .permutations import (
    Permutation,
    _expect,
    _int_str,
    _integer,
    _json_integer,
    _json_list,
    _json_object,
)

# Ordered letters, pairwise distinct; the operand type of shuffle_product.
Word = tuple[int, ...]

DEFAULT_TUPLE_CAP = 10**7


def shuffle_product(u: Sequence[int], v: Sequence[int]) -> list[Word]:
    """All interleavings of ``u`` and ``v`` preserving each word's internal
    order; there are C(|u|+|v|, |u|) of them, pairwise distinct."""
    u, v = tuple(_expect(Iterable, u)), tuple(_expect(Iterable, v))
    if len(set(u)) != len(u) or len(set(v)) != len(v) or set(u) & set(v):
        raise ValueError("shuffle operands must have pairwise distinct letters")
    total = len(u) + len(v)
    out = []
    for upos in itertools.combinations(range(total), len(u)):
        uset = set(upos)
        ui, vi = iter(u), iter(v)
        out.append(tuple(next(ui) if i in uset else next(vi) for i in range(total)))
    return out


class _Element:
    """Body shared by ``AlgebraElement`` and ``wreath.GAlgebraElement``.

    An element stores only its raw tally: raw deck to nonzero count, where
    ``_encode`` turns a deck into its raw form and ``_decode`` turns it back
    through the checked deck constructor.  Raw decks sort in their decks'
    canonical order.  A subclass supplies its constructor, ``_DECK`` (the
    deck class), ``_encode``, ``_decode`` and ``__repr__``; an algebra with
    more than a deck size also overrides ``_check``, ``_MISMATCH`` and the
    JSON header methods.
    """

    __slots__ = ("n", "_space", "_raw")
    _MISMATCH = "deck sizes differ: {0.n} != {1.n}"

    def _store(self, space: tuple, terms: Mapping) -> None:
        """``space``: the constructor's arguments before ``terms``, n first."""
        n = _integer(space[0])
        space = (n, *space[1:])
        if n < 1:
            raise ValueError("deck size must be at least 1")
        self.n, self._space, self._raw = n, space, {}
        for p, c in _expect(Mapping, terms).items():
            c = _integer(c)
            if c < 0:
                raise ValueError("coefficients must be nonnegative")
            if c:
                self._check(p)
                self._raw[self._encode(p)] = c

    @classmethod
    def _of_tally(cls, space: tuple, tally: Mapping):
        """The element over ``space`` of a raw tally that the package built:
        keys in the form ``_decode`` reads, no zero counts."""
        self = object.__new__(cls)
        self.n, self._space, self._raw = space[0], space, tally
        return self

    def _check(self, p) -> None:
        if not isinstance(p, self._DECK) or p.n != self.n:
            raise ValueError(f"{p!r} is not a {self._DECK.__name__} of size {self.n}")

    def _decoded(self, items) -> dict:
        """The terms of raw ``items``, decoded and checked anew on every read."""
        terms = {}
        for r, c in items:
            p = self._decode(r)
            self._check(p)
            terms[p] = c
        return terms

    @classmethod
    def _require(cls, x, y) -> None:
        """Refuse operands that are not both elements of ``cls`` over one space."""
        for e in (x, y):
            if type(e) is not cls:
                raise ValueError(f"expected {cls.__name__}, got {e!r}")
        if x._space != y._space:
            raise ValueError(cls._MISMATCH.format(x, y))

    @property
    def terms(self) -> Mapping:
        return MappingProxyType(self._decoded(self._raw.items()))

    def coefficient(self, p) -> int:
        if not isinstance(p, self._DECK):
            return 0
        return self._raw.get(self._encode(p), 0)

    @property
    def mass(self) -> int:
        """Sum of all coefficients (the number of contributing tuples)."""
        return sum(self._raw.values())

    def sorted_terms(self) -> list:
        return list(self._decoded(sorted(self._raw.items())).items())

    def scale(self, c: int):
        c = _integer(c)
        if c < 0:
            raise ValueError("coefficients must be nonnegative")
        return self._of_tally(self._space, {r: c * v for r, v in self._raw.items() if c})

    def __add__(self, other):
        self._require(self, other)
        out = Counter(self._raw)
        out.update(other._raw)
        return self._of_tally(self._space, out)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # One encoding, one-to-one, and no zero counts: the tallies are equal
        # exactly when the terms are.  ``dict.__eq__`` runs in C, where
        # ``Counter.__eq__`` loops over the keys in Python.
        return self._space == other._space and dict.__eq__(self._raw, other._raw)

    def __len__(self) -> int:
        return len(self._raw)

    def as_json(self) -> dict:
        terms = [
            {"deck": p.as_json(), "coeff": _int_str(c)} for p, c in self.sorted_terms()
        ]
        return {**self._json_header(), "terms": terms}

    def _json_header(self) -> dict:
        return {"n": self.n}

    @staticmethod
    def _space_from_json(data: dict) -> tuple:
        return (_integer(*_json_object(data, "n")),)

    @classmethod
    def from_json(cls, data: dict):
        space = cls._space_from_json(data)
        terms = {}
        for t in _json_list(*_json_object(data, "terms")):
            deck, coeff = _json_object(t, "deck", "coeff")
            p = cls._DECK.from_json(deck)
            if p in terms:
                raise ValueError(f"deck {p.as_json()} listed twice")
            terms[p] = _json_integer(coeff)
        return cls(*space, terms)


class AlgebraElement(_Element):
    """A finite sum of decks with nonnegative integer coefficients.

    Zero coefficients are never stored; equality is exact map equality.
    Treat instances as immutable values.
    """

    __slots__ = ()
    _DECK = Permutation
    _encode = attrgetter("deck")
    _decode = Permutation

    def __init__(self, n: int, terms: Mapping[Permutation, int]):
        self._store((n,), terms)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, terms={len(self)}, mass={self.mass})"


def _top_to_random_decks(a: int, n: int) -> list[tuple[int, ...]]:
    """Raw decks of ``top_to_random(a, n)``, ordered lexicographically by the
    positions chosen for cards ``1..a``: card 1 goes to each position in
    turn, and cards ``2..a`` follow the order of the ``(a-1, n-1)`` list."""
    if a == 0:
        return [tuple(range(1, n + 1))]
    rest = [tuple([c + 1 for c in d]) for d in _top_to_random_decks(a - 1, n - 1)]
    return [d[:i] + (1,) + d[i:] for i in range(n) for d in rest]


def _insertion_decks(m: int, n: int) -> list[tuple[int, ...]]:
    """Raw decks of the single-card insertion ``Y_m``: the card at position
    ``m`` moves to each position ``p >= m`` in turn, and the cards it passes
    move up one."""
    deck = tuple(range(1, n + 1))
    return [deck[: m - 1] + deck[m:p] + (m,) + deck[p:] for p in range(m, n + 1)]


def _shuffle_sums(n: int, counts: Mapping[int, int], decks, cap: int, order: int = 1):
    """Raw tally of ``sum_j counts[j] * (size-j shuffle sum)``, where
    ``decks(j, n)`` lists the ``P(n, j) * order**j`` raw terms of the size-j
    sum.  Refuses up front when they number more than ``cap`` in total."""
    _check_cap(sum(math.perm(n, j) * order**j for j in counts), cap, "terms")
    tally: dict = {}
    get = tally.get
    for j, c in counts.items():
        for d in decks(j, n):
            tally[d] = get(d, 0) + c
    return tally


def top_to_random(a: int, n: int) -> AlgebraElement:
    """Sum of all P(n, a) decks reachable by reinserting cards ``1..a``: the
    one-shuffle expansion, refused above ``DEFAULT_TUPLE_CAP`` terms."""
    return expansion_element(ShuffleSpec(n, (a,)), DEFAULT_TUPLE_CAP)


def multiply(
    x: AlgebraElement, y: AlgebraElement, cap: int = DEFAULT_TUPLE_CAP
) -> AlgebraElement:
    """Convolution product: coefficient of ``r`` is the sum of
    ``x[p] * y[q]`` over all ``p, q`` with ``compose(p, q) == r``.  Refuses
    up front when the ``len(x) * len(y)`` compositions exceed ``cap``."""
    AlgebraElement._require(x, y)
    _check_cap(len(x) * len(y), cap, "compositions")
    factors = [(e._raw.keys(), e._raw.values()) for e in (x, y)]
    return AlgebraElement._of_tally(x._space, _fold(_deck_symbols(x.n), factors))


def total_outcomes(spec: ShuffleSpec) -> int:
    """Number of equally likely outcome tuples, which is also the number of
    term tuples ``brute_force_product`` counts: prod of P(n, a_i)."""
    n = _expect(ShuffleSpec, spec).n
    return math.prod(math.perm(n, ai) for ai in spec.a)


def _substitution(key) -> Callable:
    """``term·state`` as a function of the term's table: the table's entries
    at the state ``key``'s symbols, in ``key``'s form, by one C call."""
    if type(key) is bytes:
        return key.translate
    if len(key) == 1:
        return itemgetter(slice(key[0], key[0] + 1))
    return itemgetter(*key)


def _deck_symbols(n: int) -> tuple:
    """(key, table, raw) for the fold over plain decks of size ``n``: a raw
    deck's key and table, and the raw tally of a tally of keys.  A symbol is
    a card, and the table of ``τ`` holds ``τ_c`` at ``c``: bytes padded to
    256 while cards fit in a byte, else tuples, with raw decks as keys."""
    if n > 255:
        return (lambda d: d), (lambda d: (0, *d)), (lambda tally: tally)
    raw = lambda tally: dict(zip(map(tuple, tally), tally.values()))
    return bytes, (lambda d: bytes((0, *d)).ljust(256)), raw


def _fold(symbols: tuple, factors: list) -> Mapping:
    """Raw tally of the product of ``factors``, each ``(raw terms, counts)``,
    ``counts`` None when all are 1, over the ``symbols`` of ``_deck_symbols``
    or ``wreath._g_symbols``.  The last factor's terms start the tally; each
    term of the factor before composes on the left of each distinct state,
    and the composite gains the state's count times the term's, so every
    tuple of terms is tallied by its composite.  A factor costs its terms
    times the distinct states ``S'`` held when the fold reaches it, at most
    ``S'·(n-m+1)·order`` for an insertion ``Y_m``.  Each row of composites
    is one C pass: one term's table translating every state while the
    states are bytes and outnumber the terms, as in the oracles, else one
    state's getter (``_substitution``) over every table."""
    key, table, raw = symbols
    *rest, (terms, counts) = factors
    tally = dict(zip(map(key, terms), counts or repeat(1)))
    for terms, counts in reversed(rest):
        states, tables = list(tally), list(map(table, terms))
        weights = list(tally.values()) if max(tally.values(), default=1) > 1 else None
        if len(tables) < len(states) and type(states[0]) is bytes:
            rows = (map(bytes.translate, states, repeat(t)) for t in tables)
            inner, outer = weights, counts
        else:
            rows = (map(_substitution(s), tables) for s in states)
            inner, outer = counts, weights
        nxt: Counter = Counter()
        get = nxt.get
        for row, c in zip(rows, outer or repeat(1)):
            row = list(row)
            if inner is None:
                if c == 1:
                    nxt.update(row)
                    continue
                w = repeat(c)
            else:
                w = inner if c == 1 else map(mul, inner, repeat(c))
            # One row's composites are distinct: each is read before written.
            dict.update(nxt, zip(row, map(add, map(get, row, repeat(0)), w)))
        tally = nxt
    return raw(tally)


def brute_force_product(
    spec: ShuffleSpec, cap: int = DEFAULT_TUPLE_CAP
) -> AlgebraElement:
    """Exact product of the spec's shuffle sums by exhaustive tuple count.

    Counts every tuple of factor terms once, through the fold over distinct
    decks in ``_fold``, one single-card insertion at a time.  Refuses up
    front (never truncates) when the tuple count exceeds ``cap``.
    """
    _check_cap(total_outcomes(spec), cap, "tuples")
    n = spec.n
    factors = [(_insertion_decks(m, n), None) for ai in spec.a for m in range(ai, 0, -1)]
    return AlgebraElement._of_tally((n,), _fold(_deck_symbols(n), factors))


def expansion(spec: ShuffleSpec) -> dict[int, int]:
    """Coefficients ``{j: count}`` with the product of the spec's shuffle
    sums equal to ``sum_j count * top_to_random(j, n)``; keys are exactly
    the ``j`` in ``[max(a), min(sum(a), n)]`` with a nonzero count."""
    row = _q_row(_expect(ShuffleSpec, spec).a, spec.j_max)
    return {j: c for j in range(spec.j_min, spec.j_max + 1) if (c := row[j])}


def expansion_element(
    spec: ShuffleSpec, cap: int = DEFAULT_TUPLE_CAP
) -> AlgebraElement:
    """The expansion materialized as a single element, for comparison
    against ``brute_force_product``.  Refuses up front when the shuffle
    sums it adds up have more than ``cap`` terms in total."""
    n = _expect(ShuffleSpec, spec).n
    tally = _shuffle_sums(n, expansion(spec), _top_to_random_decks, cap)
    return AlgebraElement._of_tally((n,), tally)
