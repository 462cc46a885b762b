"""The block-label form of ``SegmentedPartition`` against its block views,
and the round readers against the block-based definitions they replaced."""

import itertools

import pytest

from topshuffle import (
    SegmentedPartition,
    ShuffleSpec,
    anchor_signature,
    iter_segmented_partitions,
    respects_rounds,
)


def reference_respects_rounds(alpha, spec):
    """Every block meets each round at most once, read through a table of
    the round of each slot."""
    if alpha.size != spec.total:
        return False
    round_of = (0,) + tuple(i for i, x in enumerate(spec.a, start=1) for _ in range(x))
    return all(len({round_of[e] for e in part}) == len(part) for part in alpha.parts)


def reference_anchor_signature(alpha, spec):
    """How many blocks have their minimum in each of rounds ``2..k``."""
    round_of = (0,) + tuple(i for i, x in enumerate(spec.a, start=1) for _ in range(x))
    counts = [0] * spec.k
    for part in alpha.parts:
        counts[round_of[min(part)] - 1] += 1
    return tuple(counts[1:])


def small_specs():
    """Every spec with ``n <= 6``, ``k <= 4`` and slot total ``<= 7``."""
    for n in range(1, 7):
        for k in range(1, 5):
            for a in itertools.product(range(1, n + 1), repeat=k):
                if sum(a) <= 7:
                    yield ShuffleSpec(n, a)


def test_labels_agree_with_blocks_and_round_readers():
    checked = 0
    for spec in small_specs():
        # A partition of the wrong size, to cross the size check too.
        other = ShuffleSpec(spec.n + 1, spec.a + (1,))
        for j in range(spec.j_min, spec.j_max + 1):
            for alpha in iter_segmented_partitions(spec, j):
                checked += 1
                assert alpha.j == j and alpha.size == spec.total
                assert SegmentedPartition(alpha.parts) == alpha
                back = SegmentedPartition.from_json(alpha.as_json())
                assert back == alpha and hash(back) == hash(alpha)
                assert [sorted(p) for p in alpha.parts] == alpha.as_json()
                assert all(
                    alpha.block_of(e) == b
                    for b, part in enumerate(alpha.parts, start=1)
                    for e in part
                )
                assert respects_rounds(alpha, spec) is True
                assert reference_respects_rounds(alpha, spec) is True
                assert respects_rounds(alpha, other) is False
                assert anchor_signature(alpha, spec) == reference_anchor_signature(
                    alpha, spec
                )
    assert checked == 28013


def test_round_readers_agree_on_partitions_that_break_rounds():
    spec = ShuffleSpec(4, (2, 2))
    partitions = {
        SegmentedPartition(
            [[e for e, b in enumerate(labels, start=1) if b == l] for l in set(labels)]
        )
        for labels in itertools.product(range(1, 5), repeat=4)
    }
    assert len(partitions) == 15  # every partition of 4 slots
    for alpha in partitions:
        assert respects_rounds(alpha, spec) == reference_respects_rounds(alpha, spec)
        assert anchor_signature(alpha, spec) == reference_anchor_signature(alpha, spec)


def test_from_labels_matches_the_public_constructor():
    alpha = SegmentedPartition._from_labels((1, 2, 1, 3, 2))
    assert alpha == SegmentedPartition(([1, 3], [2, 5], [4]))
    assert alpha.as_json() == [[1, 3], [2, 5], [4]]


@pytest.mark.parametrize(
    "parts, message",
    [
        ([[1, 2], [2, 3]], "repeated"),
        ([[1], [4]], r"outside 1\.\.2"),
        ([[0], [1]], r"outside 1\.\.2"),
        ([[1], []], "nonempty"),
        ([], "nonempty"),
    ],
)
def test_constructor_refusals(parts, message):
    with pytest.raises(ValueError, match=message):
        SegmentedPartition(parts)


def test_anchor_signature_refuses_a_partition_of_the_wrong_size():
    spec = ShuffleSpec(4, (2, 2))
    for parts in ([[1], [2], [3]], [[1], [2], [3], [4], [5]]):
        with pytest.raises(ValueError, match="spec has 4"):
            anchor_signature(SegmentedPartition(parts), spec)
