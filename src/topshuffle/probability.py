"""Exact counting and probability of reaching a target deck.

A target is reachable through a given shuffle sequence once for every
round-partition whose block count is at least the target's minimum shuffle
size, so the count is a tail sum of one round-partition count row
(``coefficients._q_row``), starting at that size, and the probability is
that count over the total number of outcome tuples.  A faced target's tail
starts at ``wreath._hat_floor`` instead, which also waits for the highest
card showing a non-identity face, and each term is scaled by the faces the
touched cards may spin through.  All probabilities are exact rationals;
any decimal rendering is display-only.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import total_outcomes
from .coefficients import ShuffleSpec, _q_row
from .permutations import (
    Permutation,
    _expect,
    _int_str,
    _json_integer,
    _json_object,
    min_shuffle_size,
)
from .wreath import FiniteGroup, GPermutation, _hat_floor, g_total_outcomes


def _tail_ways(spec: ShuffleSpec, n: int, floor: int, order: int = 1) -> int:
    if n != _expect(ShuffleSpec, spec).n:
        raise ValueError(f"deck size {n} does not match spec size {spec.n}")
    lo = max(spec.j_min, floor)
    row = _q_row(spec.a, spec.j_max)[lo:]
    return sum(q * order ** (spec.total - c) for c, q in enumerate(row, lo))


def ways_to_reach(target: Permutation, spec: ShuffleSpec) -> int:
    """Number of outcome tuples of the shuffle sequence producing ``target``."""
    return _tail_ways(spec, _expect(Permutation, target).n, min_shuffle_size(target))


def probability_of(target: Permutation, spec: ShuffleSpec) -> Fraction:
    """Exact probability of ending at ``target``, reduced."""
    return Fraction(ways_to_reach(target, spec), total_outcomes(spec))


def g_ways_to_reach(
    target: GPermutation, spec: ShuffleSpec, group: FiniteGroup
) -> int:
    """Number of faced outcome tuples producing ``target``.

    Sums, over each block count ``c`` whose faced shuffle sum contains the
    target as a term (every ``c`` from ``_hat_floor`` on), the plain
    partition count times ``order**(sum(a)-c)``.  Targets showing a
    non-identity face on a never-touched card simply count 0.
    """
    n = _expect(GPermutation, target).n
    return _tail_ways(spec, n, _hat_floor(target, group), group.order)


def g_probability_of(
    target: GPermutation, spec: ShuffleSpec, group: FiniteGroup
) -> Fraction:
    """Exact probability of ending at the faced deck ``target``, reduced."""
    return Fraction(g_ways_to_reach(target, spec, group), g_total_outcomes(spec, group))


def rational_as_json(x: Fraction) -> dict:
    return {"num": _int_str(x.numerator), "den": _int_str(x.denominator)}


def rational_from_json(data: dict) -> Fraction:
    num, den = map(_json_integer, _json_object(data, "num", "den"))
    if den <= 0:
        raise ValueError("denominator must be positive")
    return Fraction(num, den)
