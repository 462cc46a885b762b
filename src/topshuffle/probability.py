"""Exact counting and probability of reaching a target deck.

The product of a spec's shuffle sums is ``sum_j count_j * top_to_random(j,
n)`` (``algebra.expansion``), and a target is a term of the size-``j`` sum
for every ``j`` from its minimum shuffle size on, with coefficient 1.  So
the number of outcome tuples that reach it is the tail of the expansion
from that size, and the probability is that count over the total number of
outcome tuples.  A faced target reads the tail of ``wreath.g_expansion``
from ``wreath._hat_floor``, which also waits for the highest card showing
a non-identity face.  All probabilities are exact rationals; any decimal
rendering is display-only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .algebra import expansion
from .coefficients import ShuffleSpec, total_outcomes
from .permutations import (
    Permutation,
    _at_least,
    _expect,
    _int_str,
    _json_integer,
    _json_object,
    min_shuffle_size,
)
from .wreath import FiniteGroup, GPermutation, _hat_floor, g_expansion, g_total_outcomes


def _tail(floor: int, target, spec: ShuffleSpec, row) -> int:
    """The sum of the expansion ``row(spec)`` from the target's ``floor`` on.
    Its arguments are read in refusal order, target class, spec class, size,
    and only then is the row computed."""
    if target.n != _expect(ShuffleSpec, spec).n:
        raise ValueError(f"deck size {target.n} does not match spec size {spec.n}")
    return sum(q for c, q in row(spec).items() if c >= floor)


def ways_to_reach(target: Permutation, spec: ShuffleSpec) -> int:
    """Number of outcome tuples of the shuffle sequence producing ``target``."""
    return _tail(min_shuffle_size(target), target, spec, expansion)


def probability_of(target: Permutation, spec: ShuffleSpec) -> Fraction:
    """Exact probability of ending at ``target``, reduced."""
    return Fraction(ways_to_reach(target, spec), total_outcomes(spec))


def g_ways_to_reach(
    target: GPermutation, spec: ShuffleSpec, group: FiniteGroup
) -> int:
    """Number of faced outcome tuples producing ``target``: the faced
    expansion's counts at every ``c`` whose faced shuffle sum contains the
    target as a term, which is every ``c`` from ``_hat_floor`` on.  Targets
    showing a non-identity face on a never-touched card simply count 0.
    """
    floor = _hat_floor(_expect(GPermutation, target), group)
    return _tail(floor, target, spec, partial(g_expansion, group=group))


def g_probability_of(
    target: GPermutation, spec: ShuffleSpec, group: FiniteGroup
) -> Fraction:
    """Exact probability of ending at the faced deck ``target``, reduced."""
    return Fraction(g_ways_to_reach(target, spec, group), g_total_outcomes(spec, group))


def rational_as_json(x: Fraction) -> dict:
    return {"num": _int_str(x.numerator), "den": _int_str(x.denominator)}


def rational_from_json(data: dict) -> Fraction:
    num, den = map(_json_integer, _json_object(data, "num", "den"))
    return Fraction(num, _at_least(den, 1, "denominator must be positive"))
