"""The oracle against the closed form past the classical range ``k <= n``:
up to 30 shuffles of up to 6 plain cards, and up to 12 faced shuffles of
up to 4 cards.

Cases are chosen by ``W = sum_i S_(i-1) * T_i``, where ``T_i`` is the
number of terms of factor ``i`` and ``S_(i-1)`` the support of the prefix
product's top shuffle sum, ``P(n, c) * order**c`` with ``c`` the cards the
prefix can touch.  That was the fold's work when it ran first to last; it
now runs last to first, composing each factor on the left of the suffix
product's distinct decks, so its work is the same sum over suffix
supports, and the selection is kept as it was.  Their tuple counts reach
10**23, so every oracle call passes the exact tuple count as its cap.  Past
the first few factors every state stands for many tuples, so these cases
run the fold's path for counts above 1 at depths the small-``k`` suites
never reach.
"""

import math
import random

import pytest

from topshuffle import (
    FiniteGroup,
    ShuffleSpec,
    brute_force_product,
    expansion_element,
    g_brute_force_product,
    g_expansion_element,
    g_total_outcomes,
    total_outcomes,
)

WORK_LIMIT = 2 * 10**5
GROUPS = {
    "Z2": FiniteGroup.cyclic(2),
    "Z3": FiniteGroup.cyclic(3),
    "S3": FiniteGroup.symmetric_3(),
}


def support(n, cards, order):
    """Decks a top-``cards`` shuffle sum reaches, faces included."""
    c = min(n, cards)
    return math.perm(n, c) * order**c


def fold_work(n, a, order=1):
    """``W``: the distinct decks before each factor times its terms."""
    return sum(
        support(n, sum(a[:i]), order) * support(n, ai, order) for i, ai in enumerate(a)
    )


def longest_prefix(n, sizes, order, k_max):
    """The longest prefix of ``sizes``, at most ``k_max`` long, within the
    work limit."""
    k = 1
    k_max = min(k_max, len(sizes))
    while k < k_max and fold_work(n, sizes[: k + 1], order) <= WORK_LIMIT:
        k += 1
    return tuple(sizes[:k])


def size_sequences(n, k_max, seed):
    """Single-card, mixed and descending size sequences of length ``k_max``."""
    rng = random.Random(seed)
    mixed = [rng.randint(1, n) for _ in range(k_max)]
    yield [1] * k_max
    yield mixed
    yield [min(ai, 2) for ai in mixed]
    yield sorted(mixed, reverse=True)
    yield list(range(n, 0, -1)) + [1] * k_max


def cases(ns, k_max, order):
    found = set()
    for n in ns:
        for sizes in size_sequences(n, k_max, seed=n * order):
            a = longest_prefix(n, sizes, order, k_max)
            if len(a) > n:
                found.add((n, a))
    return sorted(found)


PLAIN_CASES = cases(range(1, 7), 30, 1)
FACED_CASES = [
    (name, n, a)
    for name, group in GROUPS.items()
    for n, a in cases(range(1, 5), 12, group.order)
]


def test_cases_reach_past_the_deck_size():
    assert len(PLAIN_CASES) >= 20 and len(FACED_CASES) >= 15
    assert max(len(a) for _, a in PLAIN_CASES) == 30
    tuples = [total_outcomes(ShuffleSpec(n, a)) for n, a in PLAIN_CASES]
    assert max(tuples) > 10**23
    assert {name for name, _, _ in FACED_CASES} == set(GROUPS)
    assert any(len(set(a)) > 1 for _, a in PLAIN_CASES)
    assert any(a[0] > a[-1] for _, a in PLAIN_CASES)


@pytest.mark.parametrize("n, a", PLAIN_CASES)
def test_plain_oracle_equals_the_expansion_past_k_equals_n(n, a):
    spec = ShuffleSpec(n, a)
    tuples = total_outcomes(spec)
    oracle = brute_force_product(spec, cap=tuples)
    assert oracle.mass == tuples
    assert len(oracle) == support(n, spec.total, 1)
    assert oracle == expansion_element(spec)


@pytest.mark.parametrize("name, n, a", FACED_CASES)
def test_faced_oracle_equals_the_expansion_past_k_equals_n(name, n, a):
    group = GROUPS[name]
    spec = ShuffleSpec(n, a)
    tuples = g_total_outcomes(spec, group)
    oracle = g_brute_force_product(spec, group, cap=tuples)
    assert oracle.mass == tuples
    assert len(oracle) == support(n, spec.total, group.order)
    assert oracle == g_expansion_element(spec, group)
