"""Faced decks, group tables, and the scaled expansion."""

import dataclasses
import itertools
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topshuffle import (
    CapExceeded,
    FiniteGroup,
    GAlgebraElement,
    GPermutation,
    Permutation,
    ShuffleSpec,
    bar_element,
    bar_lift,
    bar_lift_expansion,
    compose,
    expansion,
    factorization_count,
    factorization_counts_by_enumeration,
    g_brute_force_product,
    g_compose,
    g_expansion,
    g_expansion_element,
    g_multiply,
    g_total_outcomes,
    hat_top_to_random,
    is_hat_term,
    top_to_random,
)
from topshuffle.algebra import DEFAULT_TUPLE_CAP

Z1 = FiniteGroup.cyclic(1)
Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)
S3 = FiniteGroup.symmetric_3()


def all_g_perms(n, group):
    for deck in itertools.permutations(range(1, n + 1)):
        for faces in itertools.product(range(group.order), repeat=n):
            yield GPermutation(tuple(zip(faces, deck)))


# FiniteGroup ------------------------------------------------------------------

def test_cyclic_group_table():
    assert Z3.mul(1, 2) == 0
    assert Z3.inv(1) == 2
    assert Z3.order == 3


def test_symmetric_3_is_a_nonabelian_group_of_order_6():
    assert S3.order == 6
    assert any(S3.mul(a, b) != S3.mul(b, a) for a in range(6) for b in range(6))
    for a in range(6):
        assert S3.mul(a, S3.inv(a)) == 0


def test_group_validation_rejects_bad_tables():
    with pytest.raises(ValueError):  # identity not at index 0
        FiniteGroup([[1, 0], [0, 1]])
    with pytest.raises(ValueError):  # not square
        FiniteGroup([[0, 1]])
    with pytest.raises(ValueError):  # entry out of range
        FiniteGroup([[0, 1], [1, 2]])
    with pytest.raises(ValueError):  # (1*1)*2 = 1 but 1*(1*2) = 2
        FiniteGroup([[0, 1, 2], [1, 2, 2], [2, 2, 1]])


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [1, 2]], "table entry 2 outside 0..1"),
        ([[0, 1, 2], [1, 3, -1], [-2, 0, 1]], "table entry 3 outside 0..2"),
        ([[0, 1, 2], [1, 2, 0], [-2, 0, 1]], "table entry -2 outside 0..2"),
    ],
)
def test_group_validation_names_the_first_bad_entry(table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FiniteGroup(table)


def non_associative_triples(table):
    """Every triple checked directly: cubic, small tables only."""
    m = len(table)
    return [
        (a, b, c)
        for a, b, c in itertools.product(range(m), repeat=3)
        if table[table[a][b]][c] != table[a][table[b][c]]
    ]


def has_inverses(table):
    m = len(table)
    return all(any(table[a][b] == 0 == table[b][a] for b in range(m)) for a in range(m))


def check_against_brute_force(table):
    """Accepted exactly when a group, with each element's two-sided inverse;
    refused as not associative whenever the inverses are there."""
    if not non_associative_triples(table) and has_inverses(table):
        group = FiniteGroup(table)
        assert group.cayley == tuple(map(tuple, table))
        m = len(table)
        assert group.inverse == tuple(
            next(b for b in range(m) if table[a][b] == 0 == table[b][a]) for a in range(m)
        )
        return
    with pytest.raises(ValueError) as refused:
        FiniteGroup(table)
    if has_inverses(table):
        assert "not associative" in str(refused.value)


def test_large_cyclic_group_is_built_fast():
    start = time.perf_counter()
    group = FiniteGroup.cyclic(2000)
    assert time.perf_counter() - start < 1.0
    assert group.order == 2000
    assert group.mul(1999, 3) == 2 and group.inv(7) == 1993 and group.inv(0) == 0


def test_cyclic_group_past_the_cap_is_refused_before_building():
    # The smallest order whose table has more cells than the cap: refused
    # before its rows are built.
    m = math.isqrt(DEFAULT_TUPLE_CAP) + 1
    with pytest.raises(CapExceeded) as refused:
        FiniteGroup.cyclic(m)
    assert refused.value.required == m * m > DEFAULT_TUPLE_CAP
    assert refused.value.cap == DEFAULT_TUPLE_CAP


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12])
def test_cyclic_group_equals_its_checked_table(m):
    group = FiniteGroup.cyclic(m)
    checked = FiniteGroup([[(i + j) % m for j in range(m)] for i in range(m)])
    assert group == checked and group.inverse == checked.inverse


@pytest.mark.parametrize(
    "table, message",
    [
        # Two generators, so the associativity test itself refuses it.
        ([[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 2, 3], [3, 3, 2, 3]], "not associative"),
        # Three generators: more than log2(4), and element 2 has no inverse.
        ([[0, 1, 2, 3], [1, 0, 2, 2], [2, 2, 2, 2], [3, 3, 2, 2]], "no two-sided inverse"),
    ],
)
def test_table_with_one_non_associative_triple_is_refused(table, message):
    assert len(non_associative_triples(table)) == 1
    with pytest.raises(ValueError, match=message):
        FiniteGroup(table)


def test_every_3_by_3_table_is_accepted_exactly_when_it_is_a_group():
    for free in itertools.product(range(3), repeat=4):
        check_against_brute_force([[0, 1, 2], [1, *free[:2]], [2, *free[2:]]])


@given(
    base=st.sampled_from([FiniteGroup.cyclic(m) for m in range(2, 9)] + [S3]),
    edits=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 7)), max_size=3),
)
def test_edited_group_tables_are_accepted_exactly_when_they_are_groups(base, edits):
    """Entries off the identity row and column are overwritten, so element 0
    stays the identity and only associativity and inverses can fail."""
    m = base.order
    table = [list(row) for row in base.cayley]
    for a, b, x in edits:
        table[1 + a % (m - 1)][1 + b % (m - 1)] = x % m
    check_against_brute_force(table)


def test_groups_compare_and_print_by_their_table():
    assert Z2 == FiniteGroup([[0, 1], [1, 0]]) and Z2 != Z3
    assert Z2 != object() and Z2 != Z2.cayley
    assert repr(S3) == "FiniteGroup(order=6)"


def test_group_json_roundtrip():
    data = S3.as_json()
    assert FiniteGroup.from_json(data) == S3
    data["order"] = 5
    with pytest.raises(ValueError):
        FiniteGroup.from_json(data)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_groups_are_frozen_values(m):
    cyclic = FiniteGroup.cyclic(m)
    built = FiniteGroup(cyclic.cayley)
    loaded = FiniteGroup.from_json(built.as_json())
    assert cyclic == built == loaded
    assert hash(cyclic) == hash(built) == hash(loaded)
    for group in (cyclic, built, loaded):
        for field in ("cayley", "inverse"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(group, field, getattr(Z3, field))
        assert group == cyclic


# GPermutation / g_compose -------------------------------------------------------

def test_trivial_group_reduces_to_plain_composition():
    for dp, dq in itertools.product(itertools.permutations((1, 2, 3)), repeat=2):
        s = GPermutation(tuple((0, c) for c in dp))
        t = GPermutation(tuple((0, c) for c in dq))
        got = g_compose(s, t, Z1)
        assert abs(got) == compose(Permutation(dp), Permutation(dq))
        assert all(f == 0 for f, _ in got.deck)


def test_abs_erases_faces():
    gp = GPermutation(((0, 2), (1, 1), (2, 3), (0, 4)))
    assert abs(gp) == Permutation((2, 1, 3, 4))
    assert abs(GPermutation.identity(4)) == Permutation((1, 2, 3, 4))


def test_abs_is_group_order_to_the_n_to_one():
    by_abs = {}
    for gp in all_g_perms(3, Z2):
        by_abs.setdefault(abs(gp), []).append(gp)
    assert all(len(v) == 2**3 for v in by_abs.values())
    assert len(by_abs) == 6


def test_faced_accessors_read_the_deck():
    checked = 0
    for n in range(1, 4):
        for gp in all_g_perms(n, Z2):
            for position, (face, card) in enumerate(gp.deck, start=1):
                assert gp.position_of(card) == position
                assert gp.face_of(card) == face
                checked += 1
    assert checked == sum(math.factorial(n) * 2**n * n for n in range(1, 4))


def test_double_flip_cancels():
    s = GPermutation(((1, 1), (0, 2)))
    assert g_compose(s, s, Z2) == GPermutation.identity(2)


def test_abs_homomorphism_exhaustive_n2():
    perms = list(all_g_perms(2, Z2))
    for s, t in itertools.product(perms, repeat=2):
        assert abs(g_compose(s, t, Z2)) == compose(abs(s), abs(t))


@given(
    st.permutations(list(range(1, 6))),
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
    st.permutations(list(range(1, 6))),
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
)
def test_abs_homomorphism_random_n5_z3(dp, fp, dq, fq):
    s = GPermutation(tuple(zip(fp, dp)))
    t = GPermutation(tuple(zip(fq, dq)))
    assert abs(g_compose(s, t, Z3)) == compose(abs(s), abs(t))


def test_g_compose_rejects_mismatches():
    with pytest.raises(ValueError):
        g_compose(GPermutation.identity(2), GPermutation.identity(3), Z2)
    with pytest.raises(ValueError):  # face outside the group
        g_compose(GPermutation(((5, 1), (0, 2))), GPermutation.identity(2), Z2)


def test_gpermutation_json_roundtrip():
    gp = GPermutation(((1, 2), (0, 1)))
    assert gp.as_json() == [{"face": 1, "card": 2}, {"face": 0, "card": 1}]
    assert GPermutation.from_json(gp.as_json()) == gp


# hat_top_to_random ---------------------------------------------------------------

def test_hat_reduces_to_plain_for_trivial_group():
    plain = top_to_random(2, 3)
    hatted = hat_top_to_random(2, 3, Z1)
    assert {abs(gp): c for gp, c in hatted.terms.items()} == dict(plain.terms)
    assert len(hatted) == len(plain)


def test_hat_term_count():
    assert len(hat_top_to_random(1, 2, Z2)) == 4
    assert hat_top_to_random(1, 2, Z2).mass == 4


def test_hat_faces_confined_to_shuffled_cards():
    for gp in hat_top_to_random(2, 3, Z2).terms:
        assert gp.face_of(3) == 0
        assert is_hat_term(gp, 2, Z2)


# factorization counts --------------------------------------------------------------

def test_factorization_length_one():
    for group in (Z2, Z3, S3):
        for g in range(group.order):
            assert factorization_count(1, g, group) == 1
    assert factorization_counts_by_enumeration(1, S3) == (1,) * 6


def test_factorization_z3_pairs():
    assert factorization_counts_by_enumeration(2, Z3) == (3, 3, 3)
    assert factorization_count(2, 1, Z3) == 3


def test_factorization_s3_triples_equidistributed():
    counts = factorization_counts_by_enumeration(3, S3)
    assert counts == (36,) * 6
    assert factorization_count(3, 0, S3) == 36


def test_factorization_matches_enumeration_small():
    for group in (Z2, Z3, S3):
        for l in (1, 2, 3, 4):
            counts = factorization_counts_by_enumeration(l, group)
            assert counts == tuple(
                factorization_count(l, g, group) for g in range(group.order)
            )


def test_factorization_enumeration_cap():
    with pytest.raises(CapExceeded):
        factorization_counts_by_enumeration(9, S3, cap=10**6)


def test_faced_materializations_refuse_above_the_cap_up_front():
    with pytest.raises(CapExceeded) as err:
        hat_top_to_random(8, 8, Z2)
    assert err.value.required == 40320 * 2**8
    with pytest.raises(CapExceeded) as err:
        g_expansion_element(ShuffleSpec(7, (7,)), Z3)
    assert err.value.required == 5040 * 3**7
    with pytest.raises(CapExceeded) as err:
        g_expansion_element(ShuffleSpec(2, (1, 1)), Z2, cap=11)
    assert err.value.required == 2 * 2 + 2 * 2**2
    assert len(g_expansion_element(ShuffleSpec(2, (1, 1)), Z2, cap=12)) == 8


def test_bar_element_refuses_above_the_cap_up_front():
    p = Permutation((2, 1, 3))
    with pytest.raises(CapExceeded) as err:
        bar_element(p, S3, cap=6**3 - 1)
    assert err.value.required == 6**3
    assert len(bar_element(p, S3, cap=6**3)) == 6**3
    with pytest.raises(CapExceeded) as err:
        bar_element(Permutation(tuple(range(1, 25))), Z2)
    assert err.value.required == 2**24


def test_bar_lift_refuses_above_the_cap_up_front():
    x = top_to_random(2, 3)
    with pytest.raises(CapExceeded) as err:
        bar_lift(x, Z3, cap=6 * 27 - 1)
    assert err.value.required == 6 * 27
    assert len(bar_lift(x, Z3, cap=6 * 27)) == 6 * 27


def test_g_multiply_refuses_above_the_cap_up_front():
    x, y = hat_top_to_random(1, 3, Z2), hat_top_to_random(2, 3, Z2)
    with pytest.raises(CapExceeded) as err:
        g_multiply(x, y, cap=6 * 24 - 1)
    assert err.value.required == 6 * 24
    assert g_multiply(x, y, cap=6 * 24) == g_multiply(x, y)


# g_expansion and the oracle ---------------------------------------------------------

def test_g_expansion_trivial_group_matches_plain():
    for spec in (ShuffleSpec(3, (1, 1)), ShuffleSpec(3, (2, 1))):
        assert g_expansion(spec, Z1) == expansion(spec)


def test_g_expansion_two_singles_z2():
    assert g_expansion(ShuffleSpec(2, (1, 1)), Z2) == {1: 2, 2: 1}


def test_g_expansion_factorizes_over_plain():
    for spec in (ShuffleSpec(3, (1, 1)), ShuffleSpec(3, (2, 1)), ShuffleSpec(2, (1, 1, 2))):
        plain = expansion(spec)
        for group in (Z2, Z3, S3):
            scaled = g_expansion(spec, group)
            assert set(scaled) == set(plain)
            for c, value in scaled.items():
                assert value == plain[c] * group.order ** (spec.total - c)


def test_g_mass_identity():
    spec = ShuffleSpec(3, (1, 1))
    import math

    lhs = sum(
        coeff * Z3.order**c * math.perm(3, c)
        for c, coeff in g_expansion(spec, Z3).items()
    )
    assert lhs == g_total_outcomes(spec, Z3)
    assert g_brute_force_product(spec, Z3).mass == lhs


def test_g_oracle_equivalence_small():
    cases = [
        (ShuffleSpec(2, (1, 1)), Z2),
        (ShuffleSpec(3, (2, 1)), Z2),
        (ShuffleSpec(2, (1, 1)), Z3),
        (ShuffleSpec(2, (2, 1)), S3),
    ]
    for spec, group in cases:
        assert g_brute_force_product(spec, group) == g_expansion_element(spec, group)


def test_g_brute_matches_plain_for_trivial_group():
    from topshuffle import brute_force_product

    spec = ShuffleSpec(3, (2, 1))
    got = g_brute_force_product(spec, Z1)
    plain = brute_force_product(spec)
    assert {abs(gp): c for gp, c in got.terms.items()} == dict(plain.terms)


def test_g_brute_cap():
    with pytest.raises(CapExceeded):
        g_brute_force_product(ShuffleSpec(3, (3, 3)), S3, cap=100)


# bar lift ---------------------------------------------------------------------------

def test_bar_lift_expansion_trivial_group_is_identity():
    base = {1: 3, 2: 7}
    assert bar_lift_expansion(base, 3, 4, Z1) == base


def test_bar_lift_expansion_scaling():
    assert bar_lift_expansion({1: 1, 2: 1}, 2, 2, Z2) == {1: 4, 2: 4}


def test_bar_lift_expansion_rejects_negative():
    with pytest.raises(ValueError):
        bar_lift_expansion({1: -1}, 2, 2, Z2)


def test_bar_product_bruteforce_n2_k2_z2():
    # Multiply two fully-faced single-card shuffle sums (64 term pairs) and
    # compare with the plain coefficients {1: 1, 2: 1} scaled by (2^1)^2.
    bar_b1 = bar_lift(top_to_random(1, 2), Z2)
    bar_b2 = bar_lift(top_to_random(2, 2), Z2)
    assert bar_b1.mass * bar_b1.mass == 64
    product = g_multiply(bar_b1, bar_b1)
    assert product == bar_b1.scale(4) + bar_b2.scale(4)


def test_bar_element_counts():
    sigma = Permutation((2, 1, 3))
    bar = bar_element(sigma, Z2)
    assert len(bar) == 2**3
    assert all(abs(gp) == sigma for gp in bar.terms)


# GAlgebraElement ----------------------------------------------------------------------

def test_g_element_validation():
    gp = GPermutation.identity(2)
    with pytest.raises(ValueError):
        GAlgebraElement(2, Z2, {gp: -1})
    with pytest.raises(ValueError):
        GAlgebraElement(3, Z2, {gp: 1})
    with pytest.raises(ValueError):  # face outside group
        GAlgebraElement(2, Z2, {GPermutation(((3, 1), (0, 2))): 1})


def test_g_element_json_roundtrip():
    element = hat_top_to_random(1, 2, Z2)
    data = element.as_json()
    assert GAlgebraElement.from_json(data) == element
    assert all(isinstance(t["coeff"], str) for t in data["terms"])


def test_g_element_from_json_rejects_duplicate_decks():
    deck = [{"face": 1, "card": 1}, {"face": 0, "card": 2}]
    data = {
        "n": 2,
        "group": Z2.as_json(),
        "terms": [{"deck": deck, "coeff": "3"}, {"deck": deck, "coeff": "5"}],
    }
    with pytest.raises(ValueError):
        GAlgebraElement.from_json(data)


def test_g_multiply_rejects_different_groups():
    x = hat_top_to_random(1, 2, Z2)
    y = hat_top_to_random(1, 2, Z3)
    with pytest.raises(ValueError):
        g_multiply(x, y)


def test_faced_star_refuses_a_plain_or_missing_factor():
    x = hat_top_to_random(1, 2, Z2)
    for other in [top_to_random(1, 2), None]:
        with pytest.raises(ValueError):
            x * other


def test_faced_deck_refuses_non_integer_faces_and_cards():
    with pytest.raises(ValueError):
        GPermutation(((0.9, 1.7), (0, 2)))
    with pytest.raises(ValueError):
        GPermutation(((0, 1), (True, 2)))
    with pytest.raises(ValueError):
        GPermutation.from_json([{"face": 0.9, "card": 1}, {"face": 0, "card": 2}])
    with pytest.raises(ValueError):
        GPermutation.from_json([{"face": 0, "card": 1.7}, {"face": 0, "card": 2}])
    kept = GPermutation.from_json([{"face": 1.0, "card": 2}, {"face": 0, "card": 1.0}])
    assert kept.deck == ((1, 2), (0, 1))  # integral: kept
    assert GPermutation([[1, 2], [0, 1]]).deck == ((1, 2), (0, 1))


def test_group_table_refuses_non_integer_entries():
    with pytest.raises(ValueError):
        FiniteGroup([[0.0, 1.9], [1, 0]])
    with pytest.raises(ValueError):
        FiniteGroup([[0, True], [1, 0]])
    with pytest.raises(ValueError):
        FiniteGroup.from_json({"order": 2.5, "cayley": [[0, 1], [1, 0]]})
    assert FiniteGroup([[0.0, 1.0], [1, 0]]) == Z2  # integral: kept
    assert FiniteGroup.from_json({"order": 2.0, "cayley": [[0, 1], [1, 0]]}) == Z2


def test_g_element_from_json_refuses_non_integer_deck_size():
    data = hat_top_to_random(1, 2, Z2).as_json()
    with pytest.raises(ValueError):
        GAlgebraElement.from_json({**data, "n": 2.5})
    with pytest.raises(ValueError):
        GAlgebraElement.from_json({**data, "n": True})
