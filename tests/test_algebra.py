"""Shuffle sums, products, the expansion, and the enumeration oracle."""

import itertools
import math

import pytest

from topshuffle import (
    AlgebraElement,
    CapExceeded,
    FiniteGroup,
    Permutation,
    ShuffleSpec,
    algebra,
    bell,
    brute_force_product,
    expansion,
    expansion_element,
    g_brute_force_product,
    g_expansion_element,
    identity,
    multiply,
    shuffle_product,
    top_to_random,
)
from topshuffle.algebra import predicted_tuple_count


def oracle_interleavings(u, v):
    """Brute-force interleavings by recursion on the leading letter."""
    if not u:
        return [tuple(v)]
    if not v:
        return [tuple(u)]
    return [(u[0],) + w for w in oracle_interleavings(u[1:], v)] + [
        (v[0],) + w for w in oracle_interleavings(u, v[1:])
    ]


def oracle_top_to_random(a, n):
    """Build the shuffle sum from its definition: every arrangement of
    cards 1..a shuffled into the word (a+1)...n."""
    rest = tuple(range(a + 1, n + 1))
    terms = {}
    for arrangement in itertools.permutations(range(1, a + 1)):
        words = [arrangement] if not rest else shuffle_product(arrangement, rest)
        for word in words:
            terms[Permutation(word)] = 1
    return AlgebraElement(n, terms)


# shuffle_product -------------------------------------------------------------

def test_shuffle_single_letters():
    assert set(shuffle_product((1,), (2,))) == {(1, 2), (2, 1)}


def test_shuffle_12_34():
    got = shuffle_product((1, 2), (3, 4))
    assert got == [
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (1, 3, 4, 2),
        (3, 1, 2, 4),
        (3, 1, 4, 2),
        (3, 4, 1, 2),
    ]
    assert sorted(got) == sorted(oracle_interleavings((1, 2), (3, 4)))


def test_shuffle_count_is_binomial():
    assert len(shuffle_product((1, 2), (3, 4, 5))) == math.comb(5, 2)


def test_shuffle_rejects_overlap():
    with pytest.raises(ValueError):
        shuffle_product((1, 2), (2, 3))
    with pytest.raises(ValueError):
        shuffle_product((1, 1), (2,))


# top_to_random ---------------------------------------------------------------

def test_top_to_random_one_card_two_deck():
    element = top_to_random(1, 2)
    assert element.coefficient(Permutation((1, 2))) == 1
    assert element.coefficient(Permutation((2, 1))) == 1
    assert len(element) == 2


def test_top_to_random_term_count():
    assert len(top_to_random(2, 4)) == math.perm(4, 2) == 12


def test_top_to_random_full_deck():
    element = top_to_random(3, 3)
    assert len(element) == 6
    assert all(c == 1 for _, c in element.sorted_terms())


def test_top_to_random_matches_shuffle_definition():
    for n in range(1, 5):
        for a in range(1, n + 1):
            assert top_to_random(a, n) == oracle_top_to_random(a, n)


def test_top_to_random_range_errors():
    with pytest.raises(ValueError):
        top_to_random(0, 3)
    with pytest.raises(ValueError):
        top_to_random(4, 3)


# multiply ---------------------------------------------------------------------

def test_multiply_two_singles_is_sum_of_first_two():
    got = multiply(top_to_random(1, 3), top_to_random(1, 3))
    assert got == top_to_random(1, 3) + top_to_random(2, 3)


def test_multiply_identity_element():
    x = top_to_random(2, 3)
    one = AlgebraElement(3, {identity(3): 1})
    assert multiply(x, one) == x
    assert multiply(one, x) == x


def test_multiply_mass():
    got = multiply(top_to_random(2, 4), top_to_random(2, 4))
    assert got.mass == math.perm(4, 2) * math.perm(4, 2) == 144


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        multiply(top_to_random(1, 3), top_to_random(1, 4))


# brute_force_product -----------------------------------------------------------

def test_brute_two_singles():
    got = brute_force_product(ShuffleSpec(3, (1, 1)))
    assert got == top_to_random(1, 3) + top_to_random(2, 3)


def test_brute_single_factor():
    assert brute_force_product(ShuffleSpec(3, (3,))) == top_to_random(3, 3)


def test_brute_matches_garsia_two_factor():
    # Frozen from the two-factor closed form: coefficients {2: 2, 3: 1}
    # for sizes (2, 1) on four cards, cross-checked against all 48 tuples.
    spec = ShuffleSpec(4, (2, 1))
    assert predicted_tuple_count(spec) == 48
    got = brute_force_product(spec)
    expected = top_to_random(2, 4).scale(2) + top_to_random(3, 4)
    assert got == expected
    assert expansion(spec) == {2: 2, 3: 1}


def test_brute_equals_multiply_fold():
    for spec in (
        ShuffleSpec(3, (1, 2)),
        ShuffleSpec(4, (2, 2)),
        ShuffleSpec(4, (1, 3, 1)),
    ):
        folded = top_to_random(spec.a[0], spec.n)
        for ai in spec.a[1:]:
            folded = multiply(folded, top_to_random(ai, spec.n))
        assert brute_force_product(spec) == folded


def test_brute_cap_is_a_hard_error():
    with pytest.raises(CapExceeded) as err:
        brute_force_product(ShuffleSpec(5, (3, 3)), cap=100)
    assert err.value.required == 3600
    assert err.value.cap == 100


def test_materializations_refuse_above_the_cap_up_front():
    with pytest.raises(CapExceeded) as err:
        top_to_random(12, 12)
    assert err.value.required == math.factorial(12)
    assert err.value.cap == algebra.DEFAULT_TUPLE_CAP
    with pytest.raises(CapExceeded) as err:
        expansion_element(ShuffleSpec(11, (11,)))
    assert err.value.required == math.factorial(11)
    with pytest.raises(CapExceeded) as err:
        expansion_element(ShuffleSpec(4, (2, 1)), cap=35)
    assert err.value.required == math.perm(4, 2) + math.perm(4, 3)
    assert len(expansion_element(ShuffleSpec(4, (2, 1)), cap=36)) == 24


# expansion ----------------------------------------------------------------------

def test_expansion_three_singles():
    assert expansion(ShuffleSpec(5, (1, 1, 1))) == {1: 1, 2: 3, 3: 1}
    assert expansion(ShuffleSpec(3, (1, 1, 1))) == {1: 1, 2: 3, 3: 1}


def test_expansion_two_singles():
    assert expansion(ShuffleSpec(2, (1, 1))) == {1: 1, 2: 1}
    assert expansion(ShuffleSpec(1, (1, 1))) == {1: 1}


def test_expansion_single_factor_convention():
    assert expansion(ShuffleSpec(4, (3,))) == {3: 1}


def test_oracle_equivalence_small():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            for a in itertools.product(range(1, min(2, n) + 1), repeat=k):
                spec = ShuffleSpec(n, a)
                assert expansion_element(spec) == brute_force_product(spec)


def test_mass_identity_small():
    for n in (2, 3, 4):
        for a in [(1, 1), (2, 1), (2, 2), (1, 1, 1)]:
            if max(a) > n:
                continue
            spec = ShuffleSpec(n, a)
            lhs = sum(c * math.perm(n, j) for j, c in expansion(spec).items())
            assert lhs == predicted_tuple_count(spec)
            assert brute_force_product(spec).mass == lhs


def test_full_deck_squared():
    for n in (2, 3, 4):
        spec = ShuffleSpec(n, (n, n))
        got = brute_force_product(spec)
        assert got == top_to_random(n, n).scale(math.factorial(n))


def test_identity_deck_count_is_bell():
    for n in (4, 6):
        for k in range(1, n + 1):
            spec = ShuffleSpec(n, (1,) * k)
            assert sum(expansion(spec).values()) == bell(k)


# AlgebraElement behavior ----------------------------------------------------------

def test_element_drops_zeros_and_rejects_negatives():
    p = identity(3)
    assert len(AlgebraElement(3, {p: 0})) == 0
    with pytest.raises(ValueError):
        AlgebraElement(3, {p: -1})
    with pytest.raises(ValueError):
        AlgebraElement(2, {p: 1})


def test_element_equality_is_exact():
    x = top_to_random(1, 3)
    y = AlgebraElement(3, dict(x.terms))
    assert x == y
    assert x != x + y


def test_element_json_roundtrip_sorted():
    x = top_to_random(2, 3)
    data = x.as_json()
    decks = [t["deck"] for t in data["terms"]]
    assert decks == sorted(decks)
    assert all(isinstance(t["coeff"], str) for t in data["terms"])
    assert AlgebraElement.from_json(data) == x


def test_element_from_json_rejects_duplicate_decks():
    data = {
        "n": 2,
        "terms": [{"deck": [1, 2], "coeff": "3"}, {"deck": [1, 2], "coeff": "5"}],
    }
    with pytest.raises(ValueError):
        AlgebraElement.from_json(data)


def test_walk_without_row_cache_matches_expansion(monkeypatch):
    # A zero limit leaves the last-row cache empty, so every row is recomposed.
    monkeypatch.setattr(algebra, "_ROW_CACHE_LIMIT", 0)
    spec = ShuffleSpec(4, (1, 2, 2))
    assert brute_force_product(spec) == expansion_element(spec)
    z2 = FiniteGroup.cyclic(2)
    assert g_brute_force_product(spec, z2) == g_expansion_element(spec, z2)


def test_element_from_json_refuses_non_integer_deck_size():
    data = top_to_random(1, 2).as_json()
    with pytest.raises(ValueError):
        AlgebraElement.from_json({**data, "n": 2.5})
    with pytest.raises(ValueError):
        AlgebraElement.from_json({**data, "n": "2"})
    assert AlgebraElement.from_json({**data, "n": 2.0}) == top_to_random(1, 2)
