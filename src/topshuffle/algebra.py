"""Integer-coefficient sums of decks and their exact products.

``top_to_random(a, n)`` is the formal sum of every deck reachable by
removing cards ``1..a`` and reinserting them, each with coefficient 1.
Products of such sums collapse back to a combination of single
top-to-random sums; ``expansion`` reads those coefficients off one
round-partition count row (``coefficients._q_row``), while
``brute_force_product`` provides the independent check by walking every
tuple of factor terms, composing each tuple left to right, and tallying
the outcomes.

This module also holds what the plain and faced (``wreath``) algebras
share: the element body ``_Element`` and the tuple walker
``_walk_tuples`` behind both ``brute_force_product`` and
``wreath.g_brute_force_product``.  The walker shares no code with
``expansion``, ``expansion_element`` or ``wreath.g_expansion*``, so the
oracle stays an independent check of the closed form.

All coefficients are exact arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .coefficients import ShuffleSpec, _q_row
from .errors import CapExceeded
from .permutations import Permutation, _compose_decks, _deck_from_targets, _integer

# Ordered letters, pairwise distinct; the operand type of shuffle_product.
Word = tuple[int, ...]

DEFAULT_TUPLE_CAP = 10**7

# Stop memoizing last-factor rows once the cache holds this many states.
_ROW_CACHE_LIMIT = 2_000_000


def shuffle_product(u: Sequence[int], v: Sequence[int]) -> list[Word]:
    """All interleavings of ``u`` and ``v`` preserving each word's internal
    order; there are C(|u|+|v|, |u|) of them, pairwise distinct."""
    u, v = tuple(u), tuple(v)
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

    A subclass supplies its constructor, ``_DECK`` (the deck class),
    ``_sort_key`` and ``__repr__``; an algebra with more than a deck size
    also overrides ``_MISMATCH`` and the JSON header methods.
    """

    __slots__ = ("n", "_space", "_terms")
    _MISMATCH = "deck sizes differ: {0.n} != {1.n}"

    def _store(self, space: tuple, terms: Mapping, check=None) -> None:
        """``space``: the constructor's arguments before ``terms``, n first."""
        n = space[0]
        if n < 1:
            raise ValueError("deck size must be at least 1")
        pruned = {}
        for p, c in terms.items():
            if c < 0:
                raise ValueError("coefficients must be nonnegative")
            if c == 0:
                continue
            if p.n != n:
                raise ValueError(f"term of size {p.n} in an element of size {n}")
            if check is not None:
                check(p)
            pruned[p] = c
        self.n = n
        self._space = space
        self._terms = pruned

    def _require_same(self, other) -> None:
        if self._space != other._space:
            raise ValueError(self._MISMATCH.format(self, other))

    @property
    def terms(self) -> Mapping:
        return MappingProxyType(self._terms)

    def coefficient(self, p) -> int:
        return self._terms.get(p, 0)

    @property
    def mass(self) -> int:
        """Sum of all coefficients (the number of contributing tuples)."""
        return sum(self._terms.values())

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda item: self._sort_key(item[0]))

    def scale(self, c: int):
        if c < 0:
            raise ValueError("coefficients must be nonnegative")
        return type(self)(*self._space, {p: c * v for p, v in self._terms.items()})

    def __add__(self, other):
        self._require_same(other)
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, 0) + c
        return type(self)(*self._space, out)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._space == other._space and self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def as_json(self) -> dict:
        terms = [{"deck": p.as_json(), "coeff": str(c)} for p, c in self.sorted_terms()]
        return {**self._json_header(), "terms": terms}

    def _json_header(self) -> dict:
        return {"n": self.n}

    @staticmethod
    def _space_from_json(data: dict) -> tuple:
        return (_integer(data["n"]),)

    @classmethod
    def from_json(cls, data: dict):
        space = cls._space_from_json(data)
        terms = {}
        for t in data["terms"]:
            p = cls._DECK.from_json(t["deck"])
            if p in terms:
                raise ValueError(f"deck {p.as_json()} listed twice")
            terms[p] = int(t["coeff"])
        return cls(*space, terms)


class AlgebraElement(_Element):
    """A finite sum of decks with nonnegative integer coefficients.

    Zero coefficients are never stored; equality is exact map equality.
    Treat instances as immutable values.
    """

    __slots__ = ()
    _DECK = Permutation

    def __init__(self, n: int, terms: Mapping[Permutation, int]):
        self._store((n,), terms)

    @staticmethod
    def _sort_key(p: Permutation) -> tuple[int, ...]:
        return p.deck

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, terms={len(self._terms)}, mass={self.mass})"


def _top_to_random_decks(a: int, n: int) -> Iterator[tuple[int, ...]]:
    """Raw decks of ``top_to_random(a, n)``, ordered lexicographically by the
    positions chosen for cards ``1..a``."""
    for targets in itertools.permutations(range(1, n + 1), a):
        yield _deck_from_targets(targets, n)


def _check_term_count(n: int, sizes, cap: int, order: int = 1) -> None:
    """Refuse up front to materialize the ``P(n, j) * order**j`` terms of
    every shuffle sum of size ``j`` in ``sizes`` when they exceed ``cap``."""
    required = sum(math.perm(n, j) * order**j for j in sizes)
    if required > cap:
        raise CapExceeded(required, cap)


def top_to_random(a: int, n: int) -> AlgebraElement:
    """Sum of all P(n, a) decks reachable by reinserting cards ``1..a``;
    refused with ``CapExceeded`` above ``DEFAULT_TUPLE_CAP`` terms."""
    if not 1 <= a <= n:
        raise ValueError(f"shuffle size {a} outside 1..{n}")
    _check_term_count(n, (a,), DEFAULT_TUPLE_CAP)
    return AlgebraElement(n, {Permutation(d): 1 for d in _top_to_random_decks(a, n)})


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Convolution product: coefficient of ``r`` is the sum of
    ``x[p] * y[q]`` over all ``p, q`` with ``compose(p, q) == r``."""
    x._require_same(y)
    out: dict[tuple[int, ...], int] = {}
    for p, cp in x.terms.items():
        for q, cq in y.terms.items():
            d = _compose_decks(p.deck, q.deck)
            out[d] = out.get(d, 0) + cp * cq
    return AlgebraElement(x.n, {Permutation(d): c for d, c in out.items()})


def predicted_tuple_count(spec: ShuffleSpec) -> int:
    """Number of term tuples a brute-force walk of the product visits, which
    is also the number of equally likely outcome tuples: prod of P(n, a_i)."""
    return math.prod(math.perm(spec.n, ai) for ai in spec.a)


def _walk_tuples(start, factors: list[list], compose_row) -> Counter:
    """Tally the left-to-right composite of every tuple of factor terms.

    ``compose_row(cur, factor)`` lists ``cur`` composed with each term of
    ``factor``.  Shared prefixes are composed once; the last factor's row is
    cached per state up to ``_ROW_CACHE_LIMIT`` states, one object per state.
    """
    last = factors[-1]
    k = len(factors)
    tally: Counter = Counter()
    row_cache: dict = {}
    seen: dict = {}
    cache_budget = _ROW_CACHE_LIMIT // max(1, len(last))

    def walk(depth: int, cur) -> None:
        if depth == k - 1:
            row = row_cache.get(cur)
            if row is None:
                row = compose_row(cur, last)
                if len(row_cache) < cache_budget:
                    row = [seen.setdefault(s, s) for s in row]
                    row_cache[cur] = row
            tally.update(row)
            return
        for nxt in compose_row(cur, factors[depth]):
            walk(depth + 1, nxt)

    walk(0, start)
    return tally


def _compose_row(cur: tuple[int, ...], factor: list) -> list[tuple[int, ...]]:
    return [tuple([cur[c - 1] for c in d]) for d in factor]


def brute_force_product(
    spec: ShuffleSpec, cap: int = DEFAULT_TUPLE_CAP
) -> AlgebraElement:
    """Exact product of the spec's shuffle sums by exhaustive tuple walk.

    Visits every tuple of factor terms once, composing left to right along
    shared prefixes.  Refuses up front (never truncates) when the tuple
    count exceeds ``cap``.
    """
    required = predicted_tuple_count(spec)
    if required > cap:
        raise CapExceeded(required, cap)
    n = spec.n
    factors = [list(_top_to_random_decks(ai, n)) for ai in spec.a]
    tally = _walk_tuples(tuple(range(1, n + 1)), factors, _compose_row)
    return AlgebraElement(n, {Permutation(d): c for d, c in tally.items()})


def expansion(spec: ShuffleSpec) -> dict[int, int]:
    """Coefficients ``{j: count}`` with the product of the spec's shuffle
    sums equal to ``sum_j count * top_to_random(j, n)``; keys are exactly
    the ``j`` in ``[max(a), min(sum(a), n)]`` with a nonzero count."""
    row = _q_row(spec.a, spec.j_max)
    return {j: c for j in range(spec.j_min, spec.j_max + 1) if (c := row[j])}


def expansion_element(
    spec: ShuffleSpec, cap: int = DEFAULT_TUPLE_CAP
) -> AlgebraElement:
    """The expansion materialized as a single element, for comparison
    against ``brute_force_product``.  Refuses up front when the shuffle
    sums it adds up have more than ``cap`` terms in total."""
    counts = expansion(spec)
    _check_term_count(spec.n, counts, cap)
    terms: Counter = Counter()
    for j, c in counts.items():
        for d in _top_to_random_decks(j, spec.n):
            terms[d] += c
    return AlgebraElement(spec.n, {Permutation(d): c for d, c in terms.items()})
