"""Partition counts, enumeration, and the shuffle-sequence correspondence."""

import itertools
import math
import time

import bijection_suite
import pytest
from bijection_suite import check_bijection, compositions
from bounded_child import bounded

from topshuffle import (
    CapExceeded,
    Permutation,
    SegmentedPartition,
    ShuffleSpec,
    anchor_signature,
    anchor_tuples,
    bell,
    enumerate_segmented_partitions,
    falling_factorial,
    phi,
    phi_inverse,
    q_cardinality,
    respects_rounds,
    stirling2,
)
from topshuffle import coefficients
from topshuffle.algebra import _top_to_random_decks
from topshuffle.coefficients import STIRLING_CELL_CAP


# Independent oracles -------------------------------------------------------

def oracle_set_partitions(elements, blocks):
    """All partitions of `elements` into exactly `blocks` nonempty parts,
    by direct recursive placement."""
    elements = list(elements)

    def rec(i, parts):
        if i == len(elements):
            if len(parts) == blocks:
                yield tuple(frozenset(p) for p in parts)
            return
        e = elements[i]
        for p in parts:
            p.add(e)
            yield from rec(i + 1, parts)
            p.remove(e)
        if len(parts) < blocks:
            parts.append({e})
            yield from rec(i + 1, parts)
            parts.pop()

    yield from rec(0, [])


def oracle_reachable_partitions(spec, j):
    """Filter all j-block partitions of the slots by round-injectivity;
    independent of the anchor-driven enumerator."""
    out = []
    for parts in oracle_set_partitions(range(1, spec.total + 1), j):
        alpha = SegmentedPartition(parts)
        if respects_rounds(alpha, spec):
            out.append(alpha)
    return out


# falling_factorial ----------------------------------------------------------

def test_falling_factorial_values():
    assert falling_factorial(4, 2) == 12
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(10**30, 10**31) == 0
    # 1.7·10**6 bits by the bound, inside ``coefficients.PERM_BIT_CAP``.
    assert falling_factorial(10**5, 10**5) == math.factorial(10**5)


def test_falling_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorial(-1, 2)


# stirling2 / bell -----------------------------------------------------------

def test_stirling_example():
    assert stirling2(3, 2) == 3


def test_stirling_boundaries():
    for k in range(1, 8):
        assert stirling2(k, 1) == 1
        assert stirling2(k, k) == 1


def test_stirling_against_partition_enumeration():
    # S(5,3) = 25, frozen from the direct enumeration below.
    assert stirling2(5, 3) == 25
    for k in range(1, 7):
        for j in range(1, k + 1):
            count = sum(1 for _ in oracle_set_partitions(range(k), j))
            assert stirling2(k, j) == count


def test_bell_small():
    assert bell(1) == 1
    assert bell(3) == 5  # frozen from enumerating all partitions of a 3-set


def test_stirling_and_bell_at_large_k_do_not_recurse():
    assert stirling2(1500, 2) == 2**1499 - 1
    assert stirling2(1500, 1499) == math.comb(1500, 2)
    # Bell triangle: each row starts with the last entry of the row above,
    # and row k ends with B(k).
    row = [1]
    for _ in range(1199):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    assert bell(1200) == row[-1]


def test_stirling_and_bell_refuse_past_the_cell_cap_up_front(monkeypatch):
    rows = []

    def fake_row(k, top):
        rows.append((k, top))
        return [0] * (top + 1)

    monkeypatch.setattr(coefficients, "_stirling_row", fake_row)
    start = time.perf_counter()
    refused = [
        (100_000, None),
        (2001, None),
        (100_000, 50_000),
        (STIRLING_CELL_CAP + 1, 1),
    ]
    for k, j in refused:
        with pytest.raises(CapExceeded, match="Stirling recurrence cells"):
            bell(k) if j is None else stirling2(k, j)
    assert time.perf_counter() - start < 1
    assert rows == []
    # At the cap itself, and where no cell is needed, nothing is refused.
    assert bell(2000) == 0 and stirling2(STIRLING_CELL_CAP, 1) == 0
    assert stirling2(10**9, 10**9 + 1) == 0
    assert stirling2(10**12, 0) == 0 and stirling2(0, 0) == 1
    assert rows == [(2000, 2000), (STIRLING_CELL_CAP, 1)]


def test_bell_equals_q_sum_for_all_ones():
    for k in range(1, 7):
        spec = ShuffleSpec(6, (1,) * k)
        assert bell(k) == sum(q_cardinality(spec, j) for j in range(0, k + 1))


# q_cardinality --------------------------------------------------------------

def garsia_two_factor(a1, a2, j):
    """Closed form for two factors, written out with factorials."""
    return (
        math.factorial(a2)
        // (math.factorial(j - a1) * math.factorial(a2 + a1 - j))
        * math.factorial(a1)
        // math.factorial(j - a2)
    )


def test_q_two_factor_closed_form():
    for a1 in range(1, 5):
        for a2 in range(1, 5):
            for j in range(max(a1, a2), a1 + a2 + 1):
                spec = ShuffleSpec(a1 + a2, (a1, a2))
                assert q_cardinality(spec, j) == garsia_two_factor(a1, a2, j)


def test_q_all_ones_example():
    assert q_cardinality(ShuffleSpec(3, (1, 1, 1)), 2) == 3


def test_q_matches_enumeration_lengths():
    for total in range(1, 8):
        for a in compositions(total, total):
            spec = ShuffleSpec(total, a)
            for j in range(0, total + 2):
                assert q_cardinality(spec, j) == len(enumerate_segmented_partitions(spec, j))


def test_q_truncates_outside_deck_range():
    spec = ShuffleSpec(2, (1, 1))
    assert q_cardinality(spec, 1) == 1
    assert q_cardinality(spec, 2) == 1
    assert q_cardinality(spec, 3) == 0
    spec1 = ShuffleSpec(1, (1, 1))
    assert q_cardinality(spec1, 1) == 1
    assert q_cardinality(spec1, 2) == 0


def test_q_single_factor_convention():
    spec = ShuffleSpec(5, (3,))
    assert q_cardinality(spec, 3) == 1
    assert q_cardinality(spec, 2) == 0
    assert q_cardinality(spec, 4) == 0


def test_q_support_is_exactly_the_reachable_range():
    for total in range(2, 8):
        for a in compositions(total, total):
            spec = ShuffleSpec(total, a)
            for j in range(0, total + 2):
                expected = max(a) <= j <= total
                assert (q_cardinality(spec, j) > 0) == expected
                assert (len(enumerate_segmented_partitions(spec, j)) > 0) == expected


# enumerate_segmented_partitions ---------------------------------------------

def as_sets(alphas):
    return [alpha.as_json() for alpha in alphas]


def test_enumerate_two_singles():
    spec = ShuffleSpec(2, (1, 1))
    assert as_sets(enumerate_segmented_partitions(spec, 2)) == [[[1], [2]]]
    assert as_sets(enumerate_segmented_partitions(spec, 1)) == [[[1, 2]]]


def test_enumerate_three_singles_two_blocks():
    spec = ShuffleSpec(3, (1, 1, 1))
    got = {tuple(map(tuple, a)) for a in as_sets(enumerate_segmented_partitions(spec, 2))}
    assert got == {((1,), (2, 3)), ((1, 2), (3,)), ((1, 3), (2,))}


def test_enumerate_two_twos_three_blocks():
    # Both independent formulas give 4 here: the two-factor closed form
    # C(2,1)*P(2,1) and the filtered partition enumeration below.
    spec = ShuffleSpec(4, (2, 2))
    alphas = enumerate_segmented_partitions(spec, 3)
    assert len(alphas) == 4
    assert garsia_two_factor(2, 2, 3) == 4


def test_enumeration_matches_round_injectivity_filter():
    for total in range(2, 7):
        for a in compositions(total, total):
            spec = ShuffleSpec(total, a)
            for j in range(max(a), total + 1):
                got = enumerate_segmented_partitions(spec, j)
                assert len(set(got)) == len(got), "duplicates emitted"
                assert set(got) == set(oracle_reachable_partitions(spec, j))


def test_enumeration_order_is_deterministic():
    spec = ShuffleSpec(4, (2, 2))
    first = [a.as_json() for a in enumerate_segmented_partitions(spec, 3)]
    second = [a.as_json() for a in enumerate_segmented_partitions(spec, 3)]
    assert first == second


def test_anchor_decomposition_counts():
    # Grouping enumerated partitions by which rounds opened their blocks
    # reproduces the per-anchor-tuple products in the counting formula.
    for total in range(2, 7):
        for a in compositions(total, total):
            if len(a) < 2:
                continue
            spec = ShuffleSpec(total, a)
            for j in range(max(a), total + 1):
                by_signature = {}
                for alpha in enumerate_segmented_partitions(spec, j):
                    sig = anchor_signature(alpha, spec)
                    by_signature[sig] = by_signature.get(sig, 0) + 1
                for ls in anchor_tuples(spec, j):
                    opened = a[0]
                    prod = 1
                    for ac, lc in zip(a[1:], ls):
                        prod *= math.comb(ac, lc) * math.perm(opened, ac - lc)
                        opened += lc
                    assert by_signature.get(ls, 0) == prod


def test_anchor_tuples_are_the_bounded_compositions_in_order():
    for n, a in [(1, (1,)), (3, (2,)), (3, (1, 2, 3)), (4, (3, 1, 4, 2)), (2, (1,) * 6)]:
        spec = ShuffleSpec(n, a)
        for j in range(-1, sum(a) + 2):
            boxes = itertools.product(*(range(ac + 1) for ac in a[1:]))
            expected = [ls for ls in boxes if sum(ls) == j - a[0]]
            assert list(anchor_tuples(spec, j)) == expected, (a, j)


def test_anchor_walk_and_enumeration_reach_1200_rounds():
    spec = ShuffleSpec(2, (1,) * 1200)
    walk = list(anchor_tuples(spec, 2))
    # One round of 2..1200 opens the second block; the last round first.
    assert walk == [(0,) * (1198 - i) + (1,) + (0,) * i for i in range(1199)]
    assert list(anchor_tuples(spec, 1)) == [(0,) * 1199]
    assert [p.as_json() for p in enumerate_segmented_partitions(spec, 1)] == [
        [list(range(1, 1201))]
    ]
    first = next(coefficients.iter_segmented_partitions(spec, 2))
    assert first.labels == (1,) * 1199 + (2,)


def test_partition_stream_holds_one_partition_at_a_time():
    # Rounds 2..12 seat 5**11 ways for the first anchor tuple alone, so a
    # stream that tabulated the seatings first could not start under the
    # limit; the child limits its own address space and CPU time only.
    child = bounded(
        "spec = ShuffleSpec(52, (5,) + (1,) * 12)\n"
        "print(next(iter_segmented_partitions(spec, 6)).labels)\n",
        cpu_s=20,
    )
    assert child.returncode == 0, child.stderr[-500:]
    assert child.stdout == f"{(1, 2, 3, 4, 5) + (1,) * 11 + (6,)}\n"


# phi / phi_inverse -----------------------------------------------------------

def test_phi_single_factor_gives_singletons():
    spec = ShuffleSpec(4, (3,))
    for d in _top_to_random_decks(3, 4):
        alpha = phi((Permutation(d),), spec)
        assert alpha.as_json() == [[1], [2], [3]]


def test_phi_two_singles_trace():
    spec = ShuffleSpec(3, (1, 1))
    b1 = [Permutation(d) for d in _top_to_random_decks(1, 3)]
    for s2 in b1:
        # first shuffle moves card 1 away from the top: second touches card 2
        alpha = phi((Permutation((2, 1, 3)), s2), spec)
        assert alpha.as_json() == [[1], [2]]
        # first shuffle keeps card 1 on top: second touches card 1 again
        alpha = phi((Permutation((1, 2, 3)), s2), spec)
        assert alpha.as_json() == [[1, 2]]


def test_phi_rejects_non_term():
    spec = ShuffleSpec(3, (1, 1))
    bad = Permutation((3, 2, 1))  # needs two cards shuffled
    with pytest.raises(ValueError):
        phi((bad, Permutation((1, 2, 3))), spec)


def test_phi_inverse_single_factor_is_identity_map():
    spec = ShuffleSpec(4, (2,))
    alpha = SegmentedPartition((frozenset({1}), frozenset({2})))
    for d in _top_to_random_decks(2, 4):
        t = Permutation(d)
        assert phi_inverse(alpha, t, spec) == (t,)


@pytest.mark.parametrize("n,a", [(3, (1, 1, 1)), (4, (2, 1)), (4, (2, 2))])
def test_phi_bijection_on_small_specs(n, a):
    check_bijection(ShuffleSpec(n, a))


def _first_answer_wrong(real, wrong):
    """``real``, except that its first call answers ``wrong(answer)``."""
    calls = itertools.count()
    return lambda *args: wrong(real(*args)) if next(calls) == 0 else real(*args)


SMALL = ShuffleSpec(4, (2, 1))
SWAP = Permutation((2, 1, 3, 4))


def _other_partition(alpha):
    """A partition of ``SMALL`` into ``alpha.j`` blocks other than ``alpha``."""
    return next(b for b in enumerate_segmented_partitions(SMALL, alpha.j) if b != alpha)


# Each fault: the name it replaces in ``bijection_suite``, and the wrong
# answer that name gives on its first call.
FAULTS = {
    "phi_inverse-wrong-tuple": ("phi_inverse", lambda tup: tuple(s * SWAP for s in tup)),
    "phi-mislabels-a-tuple": ("phi", _other_partition),
    "enumeration-repeats-a-partition": ("enumerate_segmented_partitions", lambda q: q + q[:1]),
    "enumeration-drops-a-partition": ("enumerate_segmented_partitions", lambda q: q[1:]),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_check_bijection_catches_each_planted_fault(monkeypatch, fault):
    name, wrong = FAULTS[fault]
    real = getattr(bijection_suite, name)
    monkeypatch.setattr(bijection_suite, name, _first_answer_wrong(real, wrong))
    with pytest.raises(AssertionError):
        check_bijection(SMALL)


def test_phi_inverse_rejects_bad_inputs():
    spec = ShuffleSpec(3, (1, 1))
    alpha = SegmentedPartition((frozenset({1}), frozenset({2})))
    with pytest.raises(ValueError):  # t needs more touched cards than blocks
        phi_inverse(SegmentedPartition((frozenset({1, 2}),)), Permutation((3, 2, 1)), spec)
    with pytest.raises(ValueError):  # partition size does not match slots
        phi_inverse(SegmentedPartition((frozenset({1}),)), Permutation((1, 2, 3)), spec)
    spec22 = ShuffleSpec(4, (2, 2))
    both_in_one = SegmentedPartition(
        (frozenset({1, 2}), frozenset({3}), frozenset({4}))
    )
    with pytest.raises(ValueError):  # round one occupies a single block twice
        phi_inverse(both_in_one, Permutation((1, 2, 3, 4)), spec22)


# SegmentedPartition type ------------------------------------------------------

def test_partition_normalizes_block_order():
    alpha = SegmentedPartition((frozenset({2, 3}), frozenset({1})))
    assert alpha.as_json() == [[1], [2, 3]]


def test_partition_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SegmentedPartition((frozenset({1}), frozenset({1, 2})))
    with pytest.raises(ValueError):
        SegmentedPartition((frozenset({1}), frozenset({3})))
    with pytest.raises(ValueError):
        SegmentedPartition((frozenset(), frozenset({1})))


def test_partition_refuses_non_integer_elements():
    with pytest.raises(ValueError):
        SegmentedPartition(([1.7, 2], [3]))
    with pytest.raises(ValueError):
        SegmentedPartition.from_json([[True, 2], [3]])
    with pytest.raises(ValueError):  # True == 1 would cover 1..3
        SegmentedPartition((frozenset({True, 2}), frozenset({3})))
    with pytest.raises(ValueError):
        SegmentedPartition((frozenset({1}), frozenset({2.5})))
    kept = SegmentedPartition.from_json([[1.0, 2], [3.0]])  # integral: kept
    assert kept == SegmentedPartition.from_json([[1, 2], [3]])
    assert all(type(e) is int for part in kept.parts for e in part)


def test_partition_json_roundtrip():
    alpha = SegmentedPartition((frozenset({1, 3}), frozenset({2})))
    assert SegmentedPartition.from_json(alpha.as_json()) == alpha


def test_spec_validation():
    with pytest.raises(ValueError):
        ShuffleSpec(3, ())
    with pytest.raises(ValueError):
        ShuffleSpec(3, (0,))
    with pytest.raises(ValueError):
        ShuffleSpec(3, (4,))


def test_spec_rejects_truncated_sizes():
    with pytest.raises(ValueError):
        ShuffleSpec(4, (1.7,))
    with pytest.raises(ValueError):
        ShuffleSpec(4, (True,))


def test_spec_rejects_non_integer_deck_size():
    with pytest.raises(ValueError):
        ShuffleSpec(4.5, (1,))
    with pytest.raises(ValueError):
        ShuffleSpec(True, (1,))
    with pytest.raises(ValueError):
        ShuffleSpec("4", (1,))
    assert ShuffleSpec(4.0, (1,)).n == 4  # integral: kept
    assert type(ShuffleSpec(4.0, (1,)).n) is int
