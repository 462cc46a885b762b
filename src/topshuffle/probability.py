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

from .algebra import predicted_tuple_count
from .coefficients import ShuffleSpec, _q_row
from .permutations import Permutation, min_shuffle_size
from .wreath import FiniteGroup, GPermutation, _hat_floor, predicted_g_tuple_count


# Outcome tuples are the tuples the oracle walk visits; one count serves both.
total_outcomes = predicted_tuple_count
g_total_outcomes = predicted_g_tuple_count


def ways_to_reach(target: Permutation, spec: ShuffleSpec) -> int:
    """Number of outcome tuples of the shuffle sequence producing ``target``."""
    if target.n != spec.n:
        raise ValueError(f"deck size {target.n} does not match spec size {spec.n}")
    lo = max(spec.j_min, min_shuffle_size(target))
    return sum(_q_row(spec.a, spec.j_max)[lo:])


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
    if target.n != spec.n:
        raise ValueError(f"deck size {target.n} does not match spec size {spec.n}")
    lo = max(spec.j_min, _hat_floor(target, group))
    row = _q_row(spec.a, spec.j_max)
    return sum(
        row[c] * group.order ** (spec.total - c) for c in range(lo, spec.j_max + 1)
    )


def g_probability_of(
    target: GPermutation, spec: ShuffleSpec, group: FiniteGroup
) -> Fraction:
    """Exact probability of ending at the faced deck ``target``, reduced."""
    return Fraction(g_ways_to_reach(target, spec, group), g_total_outcomes(spec, group))


def rational_as_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def rational_from_json(data: dict) -> Fraction:
    num = int(data["num"])
    den = int(data["den"])
    if den <= 0:
        raise ValueError("denominator must be positive")
    return Fraction(num, den)
