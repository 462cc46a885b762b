"""The shuffle-tuple / round-partition correspondence beyond the exhaustive
acceptance sizes: a property against a reference unwind, seeded checks
against it on each side of the byte boundary, and every refusal ``phi`` and
``phi_inverse`` make."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topshuffle import (
    Permutation,
    SegmentedPartition,
    ShuffleSpec,
    phi,
    phi_inverse,
)
from topshuffle.permutations import _compose_decks, _deck_from_targets, _inverse_deck


def reference_unwind(alpha, t, spec):
    """Raw decks of ``phi_inverse(alpha, t, spec)``, rebuilt the way the
    package first did it: per round, the current positions of the round's
    cards are the targets of a shuffle, whose inverse is undone."""
    n = spec.n
    card_of = [0] * (spec.total + 1)
    for b, part in enumerate(alpha.parts, start=1):
        for e in part:
            card_of[e] = b
    bounds = [0, *itertools.accumulate(spec.a)]
    deck = t.deck
    sdecks = [None] * spec.k
    for i in range(spec.k, 0, -1):
        pos = [0] * (n + 1)
        for idx, c in enumerate(deck):
            pos[c] = idx + 1
        targets = [pos[card_of[e]] for e in range(bounds[i - 1] + 1, bounds[i] + 1)]
        sdeck = _deck_from_targets(targets, n)
        sdecks[i - 1] = sdeck
        deck = _compose_decks(deck, _inverse_deck(sdeck))
    assert deck == tuple(range(1, n + 1))
    return tuple(sdecks)


def composite(decks, n):
    out = tuple(range(1, n + 1))
    for d in decks:
        out = _compose_decks(out, d)
    return out


@st.composite
def shuffle_deck(draw, c, n):
    """A deck reachable by reinserting cards ``1..c``."""
    positions = draw(st.permutations(range(1, n + 1)))
    return _deck_from_targets(positions[:c], n)


@st.composite
def bijection_cases(draw):
    n = draw(st.integers(1, 8))
    a = tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=4)))
    sigmas = tuple(Permutation(draw(shuffle_deck(ai, n))) for ai in a)
    spec = ShuffleSpec(n, a)
    alpha = phi(sigmas, spec)
    t = Permutation(draw(shuffle_deck(alpha.j, n)))
    return spec, sigmas, alpha, t


@settings(max_examples=300, deadline=None)
@given(case=bijection_cases())
def test_inverse_matches_reference_unwind(case):
    spec, sigmas, alpha, t = case
    n = spec.n
    product = Permutation(composite([s.deck for s in sigmas], n))
    assert phi_inverse(alpha, product, spec) == sigmas
    got = phi_inverse(alpha, t, spec)
    assert tuple(s.deck for s in got) == reference_unwind(alpha, t, spec)
    assert composite([s.deck for s in got], n) == t.deck
    assert phi(got, spec) == alpha


@settings(max_examples=300, deadline=None)
@given(case=bijection_cases())
def test_unwound_shuffles_pass_the_public_checks(case):
    spec, sigmas, alpha, t = case
    product = Permutation(composite([s.deck for s in sigmas], spec.n))
    for target in (product, t):
        for s in phi_inverse(alpha, target, spec):
            assert Permutation(s.deck) == s


# ``phi_inverse`` unwinds bytes decks while cards fit in a byte and list decks
# past that; each side of the boundary is checked against the reference.


def seeded_cases(seed, n, count, k_max=4):
    """``count`` seeded ``(spec, sigmas, t)`` at ``n`` cards, ``t`` any deck
    the tuple's round-partition can reach."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, k_max)
        a = tuple(rng.randint(1, rng.choice((4, n))) for _ in range(k))
        sigmas = tuple(
            Permutation(_deck_from_targets(rng.sample(range(1, n + 1), ai), n))
            for ai in a
        )
        spec = ShuffleSpec(n, a)
        j = phi(sigmas, spec).j
        t = Permutation(_deck_from_targets(rng.sample(range(1, n + 1), j), n))
        yield spec, sigmas, t


@pytest.mark.parametrize("n", [255, 256])
def test_inverse_on_each_side_of_the_byte_boundary(n):
    for spec, sigmas, t in seeded_cases(n, n, 40):
        alpha = phi(sigmas, spec)
        product = Permutation(composite([s.deck for s in sigmas], n))
        assert phi_inverse(alpha, product, spec) == sigmas
        got = phi_inverse(alpha, t, spec)
        assert tuple(s.deck for s in got) == reference_unwind(alpha, t, spec)
    alpha = SegmentedPartition.from_json([[1], [2, 3]])
    with pytest.raises(ValueError) as refused:
        phi_inverse(alpha, Permutation(range(1, n + 1)), ShuffleSpec(n, (1, 2)))
    assert str(refused.value) == "some round has two slots in the same block"


@pytest.mark.parametrize("n", [254, 255, 256, 300])
def test_inverse_matches_reference_unwind_on_wide_decks(n):
    # The hypothesis property above draws n <= 8, which never leaves bytes.
    for spec, sigmas, t in seeded_cases(1000 + n, n, 25):
        alpha = phi(sigmas, spec)
        got = phi_inverse(alpha, t, spec)
        assert tuple(s.deck for s in got) == reference_unwind(alpha, t, spec)
        assert composite([s.deck for s in got], n) == t.deck
        assert phi(got, spec) == alpha


# Every refusal -------------------------------------------------------------

SPEC = ShuffleSpec(3, (1, 2))
ALPHA = SegmentedPartition.from_json([[1], [2], [3]])
ONE = Permutation((2, 1, 3))  # a one-card shuffle
TWO = Permutation((3, 1, 2))  # needs two cards


@pytest.mark.parametrize(
    "sigmas, message",
    [
        ((ONE,), "expected 2 shuffles, got 1"),
        ((ONE, TWO, ONE), "expected 2 shuffles, got 3"),
        ((ONE, Permutation((2, 1))), "deck size 2 does not match spec size 3"),
        ((TWO, ONE), r"\(3, 1, 2\) cannot result from shuffling 1 cards"),
    ],
)
def test_phi_refusals(sigmas, message):
    with pytest.raises(ValueError, match=message):
        phi(sigmas, SPEC)


@pytest.mark.parametrize(
    "spec, alpha, t, message",
    [
        (SPEC, ALPHA, Permutation((2, 1)), "deck size 2 does not match spec size 3"),
        (
            SPEC,
            SegmentedPartition.from_json([[1], [2]]),
            TWO,
            "partition covers 2 slots, spec has 3",
        ),
        (
            ShuffleSpec(3, (1, 1)),
            SegmentedPartition.from_json([[1, 2]]),
            TWO,
            r"deck \(3, 1, 2\) cannot result from shuffling 1 cards",
        ),
        (
            ShuffleSpec(2, (1, 1, 1)),
            SegmentedPartition.from_json([[1], [2], [3]]),
            Permutation((1, 2)),
            r"deck \(1, 2\) cannot result from shuffling 3 cards",
        ),
        (
            SPEC,
            SegmentedPartition.from_json([[1], [2, 3]]),
            TWO,
            "some round has two slots in the same block",
        ),
    ],
)
def test_phi_inverse_refusals(spec, alpha, t, message):
    with pytest.raises(ValueError, match=message):
        phi_inverse(alpha, t, spec)
