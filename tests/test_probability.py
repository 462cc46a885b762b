"""Counting target decks and exact probabilities."""

import itertools
from fractions import Fraction

import pytest

from topshuffle import (
    FiniteGroup,
    GPermutation,
    Permutation,
    ShuffleSpec,
    all_permutations,
    bell,
    brute_force_product,
    g_brute_force_product,
    g_probability_of,
    g_total_outcomes,
    g_ways_to_reach,
    identity,
    min_shuffle_size,
    probability_of,
    total_outcomes,
    ways_to_reach,
)
from topshuffle.probability import rational_as_json, rational_from_json

Z1 = FiniteGroup.cyclic(1)
Z2 = FiniteGroup.cyclic(2)


def test_identity_target_counts_bell():
    for n in (4, 5):
        for k in range(1, n + 1):
            spec = ShuffleSpec(n, (1,) * k)
            assert ways_to_reach(identity(n), spec) == bell(k)


def test_unreachable_target_counts_zero():
    # Needs four cards shuffled but the rounds touch at most three.
    spec = ShuffleSpec(5, (2, 1))
    target = Permutation((5, 4, 3, 2, 1))
    assert min_shuffle_size(target) == 4
    assert ways_to_reach(target, spec) == 0


def test_ways_against_brute_force_tally():
    spec = ShuffleSpec(5, (2, 1))
    target = Permutation((2, 1, 3, 4, 5))
    # Frozen from tallying all P(5,2)*P(5,1) = 100 outcome tuples.
    assert total_outcomes(spec) == 100
    assert ways_to_reach(target, spec) == 3
    assert brute_force_product(spec).coefficient(target) == 3


def test_ways_size_mismatch():
    with pytest.raises(ValueError):
        ways_to_reach(identity(4), ShuffleSpec(5, (2, 1)))


def test_ways_matches_every_brute_coefficient():
    # Exhaustive: every target of every spec with up to three rounds on
    # decks of up to four cards (at most 1e5 tuples each).
    specs = [
        ShuffleSpec(n, a)
        for n in (2, 3, 4)
        for k in (1, 2, 3)
        for a in itertools.product(range(1, n + 1), repeat=k)
    ]
    for spec in specs:
        element = brute_force_product(spec, cap=10**5)
        for target in all_permutations(spec.n):
            assert ways_to_reach(target, spec) == element.coefficient(target)


def test_reachability_boundary():
    for spec in (ShuffleSpec(4, (2, 1)), ShuffleSpec(5, (1, 1))):
        for target in all_permutations(spec.n):
            reachable = min_shuffle_size(target) <= spec.j_max
            assert (ways_to_reach(target, spec) > 0) == reachable


def test_probabilities_sum_to_one():
    spec = ShuffleSpec(4, (2, 1))
    assert sum(probability_of(p, spec) for p in all_permutations(4)) == 1


def test_full_shuffle_is_uniform():
    spec = ShuffleSpec(3, (3,))
    for p in all_permutations(3):
        assert probability_of(p, spec) == Fraction(1, 6)


def test_equal_probability_for_equal_min_shuffle_size():
    spec = ShuffleSpec(4, (1, 1, 1))
    by_size = {}
    for p in all_permutations(4):
        by_size.setdefault(min_shuffle_size(p), set()).add(probability_of(p, spec))
    for size, probs in by_size.items():
        assert len(probs) == 1, f"sizes {size} got {probs}"


# Faced decks ------------------------------------------------------------------

def test_trivial_group_reduces_to_plain():
    spec = ShuffleSpec(3, (2, 1))
    for p in all_permutations(3):
        target = GPermutation.plain(p)
        assert g_ways_to_reach(target, spec, Z1) == ways_to_reach(p, spec)
        assert g_probability_of(target, spec, Z1) == probability_of(p, spec)


def test_identity_target_two_singles_z2():
    spec = ShuffleSpec(2, (1, 1))
    target = GPermutation.identity(2)
    assert g_ways_to_reach(target, spec, Z2) == 3
    # Cross-check against the tally of all 16 outcome tuples.
    assert g_brute_force_product(spec, Z2).coefficient(target) == 3


def test_g_denominator():
    spec = ShuffleSpec(3, (2, 1))
    assert g_total_outcomes(spec, Z2) == 2**3 * 6 * 3


def test_g_ways_matches_every_brute_coefficient():
    spec = ShuffleSpec(2, (1, 1))
    element = g_brute_force_product(spec, Z2)
    for deck in itertools.permutations((1, 2)):
        for faces in itertools.product(range(2), repeat=2):
            target = GPermutation(tuple(zip(faces, deck)))
            assert g_ways_to_reach(target, spec, Z2) == element.coefficient(target)


def test_g_probabilities_sum_to_one():
    spec = ShuffleSpec(2, (1, 1))
    total = Fraction(0)
    for deck in itertools.permutations((1, 2)):
        for faces in itertools.product(range(2), repeat=2):
            total += g_probability_of(GPermutation(tuple(zip(faces, deck))), spec, Z2)
    assert total == 1


def test_flip_in_place_probability():
    spec = ShuffleSpec(2, (1,))
    target = GPermutation(((1, 1), (0, 2)))
    assert g_probability_of(target, spec, Z2) == Fraction(1, 4)


def test_face_on_untouched_card_counts_zero():
    spec = ShuffleSpec(3, (1,))
    target = GPermutation(((0, 1), (0, 2), (1, 3)))  # card 3 never touched
    assert g_ways_to_reach(target, spec, Z2) == 0


def test_rational_json():
    x = Fraction(3, 100)
    assert rational_as_json(x) == {"num": "3", "den": "100"}
    assert rational_from_json(rational_as_json(x)) == x
    with pytest.raises(ValueError):
        rational_from_json({"num": "1", "den": "0"})


def test_rational_as_json_reads_an_int():
    # Junk, ``True`` among it, is probed in ``test_refusals.py``.
    assert rational_as_json(3) == {"num": "3", "den": "1"}
