"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact integer or rational arithmetic with zero
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import pytest

from topshuffle import (
    FiniteGroup,
    GPermutation,
    Permutation,
    ShuffleSpec,
    all_permutations,
    bar_lift,
    bar_lift_expansion,
    bell,
    brute_force_product,
    enumerate_segmented_partitions,
    expansion,
    expansion_element,
    factorization_count,
    factorization_counts_by_enumeration,
    g_brute_force_product,
    g_expansion,
    g_expansion_element,
    g_multiply,
    g_probability_of,
    g_total_outcomes,
    g_ways_to_reach,
    identity,
    min_shuffle_size,
    phi,
    phi_inverse,
    probability_of,
    q_cardinality,
    stirling2,
    top_to_random,
    total_outcomes,
    ways_to_reach,
)
from topshuffle.algebra import _top_to_random_decks
from topshuffle.coefficients import _q_row
from topshuffle.permutations import _compose_decks

TUPLE_LIMIT = 10**6


def compositions(total, max_part):
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, max_part) + 1):
        for rest in compositions(total - first, max_part):
            yield (first,) + rest


def test_criterion_1_oracle_equivalence():
    """Expansion reconstructs the exhaustive product for every spec with
    n in 2..5, up to four factors of size up to 3, at most 1e6 tuples."""
    checked = 0
    for n in (2, 3, 4, 5):
        sizes = range(1, min(3, n) + 1)
        for k in (1, 2, 3, 4):
            for a in itertools.product(sizes, repeat=k):
                spec = ShuffleSpec(n, a)
                if total_outcomes(spec) > TUPLE_LIMIT:
                    continue
                assert expansion_element(spec) == brute_force_product(
                    spec, cap=TUPLE_LIMIT
                ), f"mismatch at {spec}"
                checked += 1
    print(f"ACCEPTANCE 1 oracle equivalence: PASS ({checked} specs)")


def test_criterion_2_stirling_and_bell():
    """All-singles coefficients are Stirling set numbers (k <= 12), and
    their sum is the Bell number."""
    for k in range(1, 13):
        spec = ShuffleSpec(k, (1,) * k)  # n = k: no deck truncation
        for j in range(0, k + 1):
            assert q_cardinality(spec, j) == stirling2(k, j), (k, j)
        assert sum(q_cardinality(spec, j) for j in range(1, k + 1)) == bell(k)
    print("ACCEPTANCE 2 Stirling/Bell specialization: PASS (k <= 12)")


def test_criterion_3_two_factor_closed_form():
    """The anchor-sum count agrees with the two-factor closed form
    a2!/((j-a1)!(a2+a1-j)!) * a1!/(j-a2)! for all sizes up to 5."""
    checked = 0
    for a1 in range(1, 6):
        for a2 in range(1, 6):
            for j in range(max(a1, a2), a1 + a2 + 1):
                closed = (
                    math.factorial(a2)
                    // (math.factorial(j - a1) * math.factorial(a2 + a1 - j))
                    * math.factorial(a1)
                    // math.factorial(j - a2)
                )
                assert _q_row((a1, a2), j)[j] == closed, (a1, a2, j)
                checked += 1
    print(f"ACCEPTANCE 3 two-factor closed form: PASS ({checked} triples)")


def _bijection_suite_for(spec):
    """Exhaustively walk the spec's shuffle tuples and check both
    correspondence directions plus the fiber counts."""
    n = spec.n
    factors = [
        [Permutation(d) for d in _top_to_random_decks(ai, n)] for ai in spec.a
    ]
    q_lists = {
        j: enumerate_segmented_partitions(spec, j)
        for j in range(spec.j_min, spec.j_max + 1)
    }
    q_sets = {j: set(alphas) for j, alphas in q_lists.items()}
    perm_cache: dict = {}

    def cached_perm(deck):
        p = perm_cache.get(deck)
        if p is None:
            p = Permutation(deck)
            perm_cache[deck] = p
        return p

    fibers = defaultdict(set)
    fiber_counts = defaultdict(int)
    k = spec.k
    sigmas: list = [None] * k

    def walk(depth, deck):
        if depth == k:
            t = cached_perm(deck)
            tup = tuple(sigmas)
            alpha = phi(tup, spec)
            assert phi_inverse(alpha, t, spec) == tup, (spec, tup)
            key = (alpha.j, t)
            fibers[key].add(alpha)
            fiber_counts[key] += 1
            return
        for s in factors[depth]:
            sigmas[depth] = s
            walk(depth + 1, _compose_decks(deck, s.deck))

    walk(0, tuple(range(1, n + 1)))

    # Fibers: every block count j and every term t of the j-card shuffle sum
    # appears, with exactly |Q_j| tuples, no two sharing a partition, and
    # every enumerated partition realized.
    expected_keys = {
        (j, cached_perm(d))
        for j in q_lists
        for d in _top_to_random_decks(j, n)
    }
    assert set(fibers) == expected_keys, spec
    for (j, t), alphas in fibers.items():
        assert fiber_counts[(j, t)] == len(q_lists[j]), (spec, j, t)
        assert len(alphas) == len(q_lists[j]), (spec, j, t)
        assert alphas == q_sets[j], (spec, j, t)

    # Reverse direction: rebuilding from each (partition, final deck) pair
    # lands back on the same partition and composes to the final deck.
    # Exhaustive over final decks for n <= 4; on five cards every partition
    # is still checked, against representative final decks per block count
    # (the walk above already computed the remaining pairs: it ran
    # phi_inverse on every (partition, deck) combination and matched).
    for j, alphas in q_lists.items():
        decks = list(_top_to_random_decks(j, n))
        if n > 4:
            decks = sorted({decks[0], decks[len(decks) // 2], decks[-1]})
        for d in decks:
            t = cached_perm(d)
            for alpha in alphas:
                tup = phi_inverse(alpha, t, spec)
                prod = tuple(range(1, n + 1))
                for s in tup:
                    prod = _compose_decks(prod, s.deck)
                assert prod == t.deck, (spec, j, alpha)
                assert phi(tup, spec) == alpha, (spec, j, alpha)


@pytest.mark.slow
def test_criterion_4_bijection_suite():
    """Both correspondence directions are identities, and every fiber over a
    final deck has exactly the enumerated partition count, for all specs
    with slot total <= 7 on decks of size <= 5."""
    specs = 0
    for n in (1, 2, 3, 4, 5):
        for total in range(1, 8):
            for a in compositions(total, n):
                _bijection_suite_for(ShuffleSpec(n, a))
                specs += 1
    print(f"ACCEPTANCE 4 bijection suite: PASS ({specs} specs)")


def test_criterion_5_wreath_suite():
    """Scaled expansion matches the faced-deck brute force for cyclic and
    nonabelian groups; factorization counts verified by enumeration; the
    fully-faced lift checked by one brute-force product."""
    groups = {
        "Z2": FiniteGroup.cyclic(2),
        "Z3": FiniteGroup.cyclic(3),
        "S3": FiniteGroup.symmetric_3(),
    }

    checked = 0
    for group in groups.values():
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                for a in itertools.product(range(1, n + 1), repeat=k):
                    spec = ShuffleSpec(n, a)
                    if g_total_outcomes(spec, group) > TUPLE_LIMIT:
                        continue
                    assert g_brute_force_product(
                        spec, group, cap=TUPLE_LIMIT
                    ) == g_expansion_element(spec, group), (spec, group)
                    checked += 1

    lengths = 0
    for group in groups.values():
        l = 1
        while group.order**l <= TUPLE_LIMIT:
            counts = factorization_counts_by_enumeration(l, group, cap=TUPLE_LIMIT)
            assert counts == tuple(
                factorization_count(l, g, group) for g in range(group.order)
            ), (group, l)
            lengths += 1
            l += 1

    # Fully-faced lift at n=2, k=2 over the order-2 group: 64 term pairs.
    z2 = groups["Z2"]
    bar_b1 = bar_lift(top_to_random(1, 2), z2)
    bar_b2 = bar_lift(top_to_random(2, 2), z2)
    product = g_multiply(bar_b1, bar_b1)
    lifted = bar_lift_expansion({1: 1, 2: 1}, k=2, n=2, group=z2)
    assert lifted == {1: 4, 2: 4}
    assert product == bar_b1.scale(lifted[1]) + bar_b2.scale(lifted[2])

    print(
        f"ACCEPTANCE 5 wreath suite: PASS ({checked} specs, "
        f"{lengths} factorization lengths, lift verified)"
    )


def test_criterion_6_probability_suite():
    """Distributions sum to exactly 1, and decks with equal minimum shuffle
    size are equally likely."""
    plain_specs = [
        ShuffleSpec(3, (3,)),
        ShuffleSpec(3, (1, 2)),
        ShuffleSpec(4, (2, 1)),
        ShuffleSpec(4, (1, 1, 1)),
        ShuffleSpec(5, (2, 3)),
        ShuffleSpec(5, (1, 1, 1, 1)),
    ]
    for spec in plain_specs:
        total = sum(probability_of(p, spec) for p in all_permutations(spec.n))
        assert total == Fraction(1), spec

    g_specs = [
        (ShuffleSpec(2, (1,)), FiniteGroup.cyclic(2)),
        (ShuffleSpec(2, (1, 1)), FiniteGroup.cyclic(2)),
        (ShuffleSpec(3, (2, 1)), FiniteGroup.cyclic(3)),
        (ShuffleSpec(3, (1, 1)), FiniteGroup.symmetric_3()),
    ]
    for spec, group in g_specs:
        total = Fraction(0)
        count = 0
        for p in all_permutations(spec.n):
            for faces in itertools.product(range(group.order), repeat=spec.n):
                target = GPermutation(tuple(zip(faces, p.deck)))
                total += g_probability_of(target, spec, group)
                count += 1
        assert count == group.order**spec.n * math.factorial(spec.n)
        assert total == Fraction(1), (spec, group.order)

    spec = ShuffleSpec(4, (1, 1, 1))
    by_size = defaultdict(set)
    for p in all_permutations(4):
        by_size[min_shuffle_size(p)].add(probability_of(p, spec))
    assert all(len(probs) == 1 for probs in by_size.values())

    print(
        f"ACCEPTANCE 6 probability suite: PASS "
        f"({len(plain_specs)} plain + {len(g_specs)} faced distributions)"
    )


def test_criterion_7_term_count_identities():
    """The product of the factor sizes equals both the enumerated tuple
    count and the coefficient-weighted term count, plain and faced."""
    plain_specs = [
        ShuffleSpec(n, a)
        for n in (2, 3, 4)
        for k in (1, 2, 3)
        for a in itertools.product(range(1, min(3, n) + 1), repeat=k)
    ]
    for spec in plain_specs:
        if total_outcomes(spec) > 10**5:
            continue
        predicted = math.prod(math.perm(spec.n, ai) for ai in spec.a)
        assert predicted == total_outcomes(spec)
        assert predicted == brute_force_product(spec).mass  # enumerated count
        assert predicted == sum(
            c * math.perm(spec.n, j) for j, c in expansion(spec).items()
        )

    g_cases = [
        (ShuffleSpec(2, (1, 1)), FiniteGroup.cyclic(2)),
        (ShuffleSpec(3, (2, 1)), FiniteGroup.cyclic(2)),
        (ShuffleSpec(3, (1, 1)), FiniteGroup.cyclic(3)),
        (ShuffleSpec(2, (2, 1)), FiniteGroup.symmetric_3()),
    ]
    for spec, group in g_cases:
        predicted = math.prod(
            group.order**ai * math.perm(spec.n, ai) for ai in spec.a
        )
        assert predicted == g_total_outcomes(spec, group)
        assert predicted == g_brute_force_product(spec, group).mass
        assert predicted == sum(
            coeff * group.order**c * math.perm(spec.n, c)
            for c, coeff in g_expansion(spec, group).items()
        )

    print(
        f"ACCEPTANCE 7 term-count identities: PASS "
        f"({len(plain_specs)} plain specs, {len(g_cases)} faced cases)"
    )
