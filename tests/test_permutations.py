"""Deck composition, minimum shuffle size, and the injection correspondence."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topshuffle import (
    Injection,
    Permutation,
    all_permutations,
    as_injection,
    compose,
    from_injection,
    identity,
    inverse,
    is_term_of,
    min_shuffle_size,
    top_to_random,
)


def oracle_inverse(p: Permutation) -> Permutation:
    """Independent inverse: sort the biword (id over deck) by its bottom row."""
    pairs = sorted(zip(range(1, p.n + 1), p.deck), key=lambda pair: pair[1])
    return Permutation(tuple(top for top, _ in pairs))


def test_identity_small():
    assert identity(3).deck == (1, 2, 3)
    assert identity(1).deck == (1,)


def test_identity_rejects_empty_deck():
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError):
        Permutation(())


def test_identity_law():
    p = Permutation((3, 5, 1, 2, 4))
    assert compose(identity(5), p) == p
    assert compose(p, identity(5)) == p


def test_compose_worked_example():
    s1 = Permutation((2, 1, 3, 4))
    s2 = Permutation((2, 3, 1, 4))
    assert compose(s1, s2).deck == (1, 3, 2, 4)


def test_compose_identity_right():
    p = Permutation((3, 1, 2, 4))
    assert compose(p, identity(4)) == p


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_compose_with_inverse_gives_identity_n4():
    for p in all_permutations(4):
        assert compose(p, oracle_inverse(p)) == identity(4)
        assert inverse(p) == oracle_inverse(p)


def test_associativity_exhaustive_small():
    for n in (2, 3, 4):
        perms = list(all_permutations(n))
        for p, q, r in itertools.product(perms, repeat=3):
            assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(
    st.permutations(list(range(1, 9))),
    st.permutations(list(range(1, 9))),
    st.permutations(list(range(1, 9))),
)
def test_associativity_random_n8(dp, dq, dr):
    p, q, r = Permutation(tuple(dp)), Permutation(tuple(dq)), Permutation(tuple(dr))
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_min_shuffle_size_examples():
    assert min_shuffle_size(Permutation((3, 2, 1, 4, 5))) == 2
    assert min_shuffle_size(identity(6)) == 0
    assert min_shuffle_size(Permutation((4, 3, 2, 1, 5))) == 3


def test_membership_matches_top_to_random_terms():
    # p appears in top_to_random(c, n) iff max(1, min_shuffle_size(p)) <= c <= n,
    # and then with coefficient exactly 1.
    for n in range(1, 6):
        elements = {c: top_to_random(c, n) for c in range(1, n + 1)}
        for p in all_permutations(n):
            for c in range(1, n + 1):
                expected = 1 if is_term_of(p, c) else 0
                assert elements[c].coefficient(p) == expected
                assert is_term_of(p, c) == (max(1, min_shuffle_size(p)) <= c)


def test_as_injection_example():
    inj = as_injection(Permutation((4, 3, 2, 1, 5)))
    assert inj.a == 3
    assert inj.targets == (4, 3, 2)


def test_as_injection_identity():
    inj = as_injection(identity(4))
    assert inj.a == 0
    assert inj.targets == ()


def test_from_injection_example():
    assert from_injection(Injection(3, (4, 3, 2)), 5).deck == (4, 3, 2, 1, 5)


def test_from_injection_empty_gives_identity():
    assert from_injection(Injection(0, ()), 3) == identity(3)


def test_non_minimal_injection_rejected():
    # A single card kept on top needs no shuffle at all.
    with pytest.raises(ValueError):
        Injection(1, (1,))


def test_from_injection_target_out_of_range():
    with pytest.raises(ValueError):
        from_injection(Injection(1, (4,)), 3)


def test_injection_roundtrip_exhaustive():
    for n in (1, 2, 3, 4):
        for p in all_permutations(n):
            assert from_injection(as_injection(p), n) == p


def test_minimal_injections_biject_with_decks():
    # The valid injections for deck size n are exactly the images of
    # as_injection, so there are n! of them and the roundtrip closes.
    for n in (2, 3, 4):
        valid = []
        for a in range(0, n):
            for targets in itertools.permutations(range(1, n + 1), a):
                try:
                    inj = Injection(a, targets)
                except ValueError:
                    continue
                valid.append(inj)
                assert as_injection(from_injection(inj, n)) == inj
        import math

        assert len(valid) == math.factorial(n)


def test_minimality_predicate_matches_rebuilt_deck():
    # Constructor acceptance agrees with the operational meaning: the deck
    # rebuilt from the targets needs exactly a shuffled cards.
    from topshuffle.permutations import _deck_from_targets, _min_shuffle_raw

    for n in (2, 3, 4):
        for a in range(0, n + 1):
            for targets in itertools.permutations(range(1, n + 1), a):
                operational = _min_shuffle_raw(_deck_from_targets(targets, n)) == a
                try:
                    Injection(a, targets)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == operational


@given(st.permutations(list(range(1, 8))))
def test_injection_roundtrip_random_n7(deck):
    p = Permutation(tuple(deck))
    assert from_injection(as_injection(p), 7) == p


def test_json_roundtrip():
    p = Permutation((3, 1, 2))
    assert Permutation.from_json(p.as_json()) == p
    inj = Injection(2, (3, 2))
    assert Injection.from_json(inj.as_json()) == inj
    assert inj.as_json() == {"a": 2, "targets": [3, 2]}


def test_non_integer_cards_are_refused():
    with pytest.raises(ValueError):
        Permutation((1.9, 2.2))
    with pytest.raises(ValueError):
        Permutation.from_json([1.9, 2.2])
    with pytest.raises(ValueError):
        Permutation((True, 2))
    assert Permutation.from_json([2.0, 1.0]).deck == (2, 1)  # integral: kept


def test_non_integer_injections_are_refused():
    with pytest.raises(ValueError):
        Injection(2, (3.7, 2))
    with pytest.raises(ValueError):
        Injection(2, (True, 3))
    with pytest.raises(ValueError):
        Injection(2.9, (3, 2))
    with pytest.raises(ValueError):
        Injection.from_json({"a": 2.9, "targets": [3, 2]})
    with pytest.raises(ValueError):
        Injection.from_json({"a": True, "targets": [2]})
    kept = Injection.from_json({"a": 2.0, "targets": [3.0, 2]})  # integral: kept
    assert kept == Injection(2, (3, 2))
    assert all(type(t) is int for t in kept.targets)


def test_canonical_order_is_deck_lexicographic():
    perms = list(all_permutations(3))
    assert perms == sorted(perms)
    assert [p.deck for p in perms] == sorted(p.deck for p in perms)
