"""Bad input is refused at the public boundary with ``ValueError``, and every
cap names the unit it counts."""

import importlib
import inspect
import math
import pkgutil
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

import pytest
from bounded_child import bounded

import topshuffle
from topshuffle import (
    AlgebraElement,
    CapExceeded,
    FiniteGroup,
    GAlgebraElement,
    GPermutation,
    Injection,
    Permutation,
    SegmentedPartition,
    ShuffleSpec,
    all_permutations,
    anchor_signature,
    anchor_tuples,
    as_injection,
    bar_element,
    bar_lift,
    bar_lift_expansion,
    bell,
    brute_force_product,
    cli,
    compose,
    enumerate_segmented_partitions,
    expansion,
    expansion_element,
    factorization_count,
    factorization_counts_by_enumeration,
    falling_factorial,
    from_injection,
    g_brute_force_product,
    g_compose,
    g_expansion,
    g_multiply,
    g_probability_of,
    g_total_outcomes,
    g_ways_to_reach,
    hat_top_to_random,
    identity,
    inverse,
    is_hat_term,
    is_term_of,
    iter_segmented_partitions,
    min_shuffle_size,
    multiply,
    phi,
    phi_inverse,
    probability_of,
    q_cardinality,
    respects_rounds,
    shuffle_product,
    stirling2,
    top_to_random,
    total_outcomes,
    ways_to_reach,
)
from topshuffle.algebra import DEFAULT_TUPLE_CAP
from topshuffle.coefficients import PERM_BIT_CAP, STIRLING_CELL_CAP
from topshuffle.permutations import _expect, _integer, _ordered, _shown
from topshuffle.probability import rational_from_json
from topshuffle.wreath import g_expansion_element

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)
S3 = FiniteGroup.symmetric_3()
SPEC = ShuffleSpec(3, (1, 1))
FACED = GPermutation.identity(3)


# Values are read through the integer check, never coerced ------------------------


def test_element_sizes_are_read_as_integers():
    x = AlgebraElement(2.0, {identity(2): 1})
    assert x.as_json()["n"] == 2 and type(x.as_json()["n"]) is int
    assert x == AlgebraElement(2, {identity(2): 1})
    for bad in [True, 1.5, "2"]:
        with pytest.raises(ValueError, match="not an integer"):
            AlgebraElement(bad, {})
        with pytest.raises(ValueError, match="not an integer"):
            GAlgebraElement(bad, Z2, {})


def test_shuffle_sums_check_their_size_and_deck_size():
    assert top_to_random(2, 2.0) == top_to_random(2, 2)
    assert top_to_random(2.0, 3) == top_to_random(2, 3)
    assert hat_top_to_random(1, 2.0, Z2) == hat_top_to_random(1, 2, Z2)
    for a, n in [(True, 2), (1.5, 3), (2, 2.5), (1, True), (0, 2), (3, 2), (1, 0)]:
        with pytest.raises(ValueError):
            top_to_random(a, n)
        with pytest.raises(ValueError):
            hat_top_to_random(a, n, Z2)


def test_elements_of_the_other_algebra_are_refused():
    plain, faced = top_to_random(1, 2), hat_top_to_random(1, 2, Z2)
    for combine in [
        lambda: multiply(plain, faced),
        lambda: g_multiply(faced, plain),
        lambda: multiply(faced, faced),
        lambda: g_multiply(plain, plain),
        lambda: plain + faced,
        lambda: faced + plain,
    ]:
        with pytest.raises(ValueError, match="expected") as err:
            combine()
        assert "deck sizes differ" not in str(err.value)
    with pytest.raises(ValueError, match="not an AlgebraElement"):
        bar_lift(faced, Z2)
    with pytest.raises(ValueError, match="not an AlgebraElement"):
        bar_lift({identity(2): 1}, Z2)
    with pytest.raises(ValueError, match="^expected a AlgebraElement, got "):
        multiply(top_to_random(1, 2), object())
    with pytest.raises(ValueError, match="^expected a GAlgebraElement, got "):
        g_multiply(faced, object())


def test_q_cardinality_reads_its_block_count_as_an_integer():
    spec = ShuffleSpec(3, (1, 1))
    assert q_cardinality(spec, 2.0) == q_cardinality(spec, 2) == 1
    for bad in [True, 2.5, "2"]:
        with pytest.raises(ValueError, match="not an integer"):
            q_cardinality(spec, bad)


def test_integral_floats_give_the_integer_answer():
    assert identity(2.0) == identity(2)
    assert GPermutation.identity(2.0) == GPermutation.identity(2)
    assert list(all_permutations(3.0)) == list(all_permutations(3))
    assert from_injection(Injection(1, (2,)), 3.0) == from_injection(Injection(1, (2,)), 3)
    assert falling_factorial(4.0, 2.0) == 12
    assert stirling2(4.0, 2.0) == 7
    assert bell(3.0) == 5
    assert list(anchor_tuples(SPEC, 2.0)) == list(anchor_tuples(SPEC, 2))
    assert enumerate_segmented_partitions(SPEC, 2.0) == enumerate_segmented_partitions(
        SPEC, 2
    )
    count = factorization_count(2.0, 1.0, Z3)
    assert count == 3 and type(count) is int
    assert factorization_counts_by_enumeration(2.0, Z2) == (2, 2)
    assert FiniteGroup.cyclic(3.0) == Z3
    assert identity(3).card_at(2.0) == 2 and identity(3).position_of(3.0) == 3
    assert Z3.mul(1.0, 2.0) == 0 and Z3.inv(1.0) == 2


def test_bar_lift_expansion_reads_integers():
    assert bar_lift_expansion({1: 3}, 2.0, 2, Z2) == {1: 3 * 2**2}
    for base, k, n in [({1: 1.5}, 2, 2), ({1: True}, 2, 2), ({1: 1}, True, 2),
                       ({1: 1}, 2, True), ({1: 1}, 2, 2.5)]:
        with pytest.raises(ValueError, match="not an integer"):
            bar_lift_expansion(base, k, n, Z2)


# Every cap names what it counts ------------------------------------------------------


BIG = 10**30  # past ``math.perm``'s index-sized arguments
BIG_BITS = 100 * BIG  # ``BIG * BIG.bit_length()``

CAPS = [
    (lambda: top_to_random(12, 12), "terms", 479001600, DEFAULT_TUPLE_CAP),
    (lambda: expansion_element(ShuffleSpec(4, (2, 1)), cap=35), "terms", 36, 35),
    (lambda: hat_top_to_random(8, 8, Z2), "terms", 40320 * 2**8, DEFAULT_TUPLE_CAP),
    (lambda: g_expansion_element(ShuffleSpec(2, (1, 1)), Z2, cap=11), "terms", 12, 11),
    (lambda: bar_lift(top_to_random(2, 3), Z3, cap=1), "terms", 6 * 27, 1),
    (lambda: multiply(top_to_random(2, 4), top_to_random(3, 4), cap=10),
     "compositions", 288, 10),
    (lambda: g_multiply(*[hat_top_to_random(1, 2, Z2)] * 2, cap=3), "compositions", 16, 3),
    (lambda: brute_force_product(ShuffleSpec(5, (3, 3)), cap=100), "tuples", 3600, 100),
    (lambda: g_brute_force_product(ShuffleSpec(2, (1, 1)), Z2, cap=15), "tuples", 16, 15),
    (lambda: factorization_counts_by_enumeration(9, S3, cap=10**6), "tuples", 6**9,
     10**6),
    # In the trivial group one tuple stands for any number of factors.
    (lambda: factorization_counts_by_enumeration(BIG, FiniteGroup.cyclic(1)), "factors",
     BIG, DEFAULT_TUPLE_CAP),
    (lambda: factorization_counts_by_enumeration(11, FiniteGroup.cyclic(1), cap=10),
     "factors", 11, 10),
    (lambda: FiniteGroup.cyclic(4000), "table cells", 16 * 10**6, DEFAULT_TUPLE_CAP),
    (lambda: shuffle_product(range(13), range(13, 26)), "words", 10400600,
     DEFAULT_TUPLE_CAP),
    (lambda: stirling2(3000, 2000), "Stirling recurrence cells", 6 * 10**6,
     STIRLING_CELL_CAP),
    (lambda: bell(2001), "Stirling recurrence cells", 2001**2, STIRLING_CELL_CAP),
    (lambda: enumerate_segmented_partitions(ShuffleSpec(52, (1,) * 40), 20), "partitions",
     162188909527975750487887236507181, DEFAULT_TUPLE_CAP),
    # A falling factorial ``P(m, l)`` is refused by its ``l * m.bit_length()`` bits.
    (lambda: falling_factorial(BIG, BIG), "bits", BIG_BITS, PERM_BIT_CAP),
    (lambda: falling_factorial(10**6, 10**6), "bits", 20 * 10**6, PERM_BIT_CAP),
    (lambda: total_outcomes(ShuffleSpec(BIG, (BIG,))), "bits", BIG_BITS, PERM_BIT_CAP),
    (lambda: g_total_outcomes(ShuffleSpec(BIG, (BIG,)), Z2), "bits", BIG_BITS,
     PERM_BIT_CAP),
    (lambda: expansion(ShuffleSpec(BIG, (BIG, BIG))), "bits", BIG_BITS, PERM_BIT_CAP),
    (lambda: expansion_element(ShuffleSpec(BIG, (BIG,))), "bits", BIG_BITS, PERM_BIT_CAP),
    (lambda: g_expansion_element(ShuffleSpec(BIG, (BIG,)), Z2), "bits", BIG_BITS,
     PERM_BIT_CAP),
    # A group power ``order**e`` is refused by its ``e * order.bit_length()`` bits.
    (lambda: factorization_count(BIG, 0, Z2), "bits", 2 * (BIG - 1), PERM_BIT_CAP),
    (lambda: factorization_counts_by_enumeration(BIG, Z2), "bits", 2 * BIG,
     PERM_BIT_CAP),
    (lambda: bar_lift_expansion({1: 1}, BIG, 2, Z2), "bits", 4 * (BIG - 1),
     PERM_BIT_CAP),
    (lambda: g_total_outcomes(ShuffleSpec(1, (1,) * 10**6), FiniteGroup.cyclic(1024)),
     "bits", 11 * 10**6, PERM_BIT_CAP),
    # The faced row's largest power, at ``c = max(a)``, is checked before the row.
    (lambda: g_expansion(ShuffleSpec(1, (1,) * 10**6), FiniteGroup.cyclic(1024)),
     "bits", 11 * (10**6 - 1), PERM_BIT_CAP),
    # The coefficient row sums its rounds' bounds: 14 999 rounds of 700 bits.
    (lambda: expansion(ShuffleSpec(100, (100,) * 15000)), "bits", 10499300, PERM_BIT_CAP),
]


@pytest.mark.parametrize("call, unit, required, cap", CAPS)
def test_caps_name_their_unit(call, unit, required, cap):
    with pytest.raises(CapExceeded) as err:
        call()
    assert (err.value.unit, err.value.required, err.value.cap) == (unit, required, cap)
    assert str(err.value) == f"{required} {unit} needed, above the cap of {cap}"


def test_powers_of_the_trivial_group_stay_instant():
    z1 = FiniteGroup.cyclic(1)
    assert factorization_count(BIG, 0, z1) == 1
    assert bar_lift_expansion({1: 3}, BIG, BIG, z1) == {1: 3}


MISMATCH = "ShuffleSpec(10**5, (5 * 10**4, 5 * 10**4))"
WIDE = "ShuffleSpec(10**4, (5000, 5000))"


@pytest.mark.parametrize(
    "call, printed",
    [
        # The deck sizes are compared before the expansion row is computed.
        (f"ways_to_reach(identity(2), {MISMATCH})",
         "ValueError deck size 2 does not match spec size 100000"),
        (f"g_ways_to_reach(GPermutation.identity(2), {MISMATCH}, Z2)",
         "ValueError deck size 2 does not match spec size 100000"),
        # The term cap is checked before the expansion row is computed.
        (f"expansion_element({WIDE})", f"CapExceeded terms {DEFAULT_TUPLE_CAP}"),
        (f"g_expansion_element({WIDE}, Z2)", f"CapExceeded terms {DEFAULT_TUPLE_CAP}"),
        # The faced row's largest power is checked before the row is computed.
        ("g_expansion(ShuffleSpec(1, (1,) * 10**6), FiniteGroup.cyclic(1024))",
         f"CapExceeded bits {PERM_BIT_CAP}"),
        # The power of a face spin is checked in bits before it is built.
        ("bar_element(identity(10**6), FiniteGroup.cyclic(1024))",
         f"CapExceeded bits {PERM_BIT_CAP}"),
        # An empty element has no terms at any deck size.
        ("bar_lift(AlgebraElement(10**30, {}), Z2)",
         f"GAlgebraElement(n={10**30}, order=2, terms=0, mass=0)"),
    ],
)
def test_refusals_come_before_the_work_they_bound(call, printed):
    child = bounded(
        "try:\n"
        f"    print(repr({call}))\n"
        "except CapExceeded as err:\n"
        "    print('CapExceeded', err.unit, err.cap)\n"
        "except ValueError as err:\n"
        "    print('ValueError', err)\n"
    )
    assert child.returncode == 0, child.stderr[-500:]
    assert child.stdout == printed + "\n"


@pytest.mark.parametrize(
    "call, printed",
    [
        # The trivial group's one tuple passes the tuple cap at any length,
        # so its length is capped before a spec of that length is built.
        (f"factorization_counts_by_enumeration({BIG}, FiniteGroup.cyclic(1))",
         f"CapExceeded factors {DEFAULT_TUPLE_CAP}"),
        ("factorization_counts_by_enumeration(10**9, FiniteGroup.cyclic(1))",
         f"CapExceeded factors {DEFAULT_TUPLE_CAP}"),
        ("factorization_counts_by_enumeration(10**4, FiniteGroup.cyclic(1))", "(1,)"),
        # One power per distinct size, not a running product of 3 * 10**5 factors.
        ("total_outcomes(ShuffleSpec(3, (1,) * 3 * 10**5)) == 3 ** (3 * 10**5)", "True"),
        # The coefficient row checks the sum over its rounds before the first.
        ("expansion(ShuffleSpec(100, (100,) * 15000))", f"CapExceeded bits {PERM_BIT_CAP}"),
    ],
)
def test_long_counts_answer_or_refuse_within_a_second(call, printed):
    child = bounded(
        "try:\n"
        f"    print({call})\n"
        "except CapExceeded as err:\n"
        "    print('CapExceeded', err.unit, err.cap)\n",
        cpu_s=1,
    )
    assert child.returncode == 0, child.stderr[-500:]
    assert child.stdout == printed + "\n"


def test_cli_refuses_a_size_mismatch_before_the_expansion():
    argv = ["prob", "--n", "100000", "--a", "50000,50000", "--target", "[2,1]"]
    child = bounded(f"from topshuffle import cli\nraise SystemExit(cli.run({argv!r}))\n")
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == "topshuffle: error: deck size 2 does not match spec size 100000\n"


def test_cli_refuses_a_huge_faced_power_before_the_row():
    # The argv is too long for a command line, so the child builds it.
    child = bounded(
        "from topshuffle import cli\n"
        "a = ','.join(['1'] * 10**6)\n"
        "argv = ['expand', '--n', '1', '--a', a, '--group', 'cyclic:3162']\n"
        "raise SystemExit(cli.run(argv))\n"
    )
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == (
        f"topshuffle: {12 * (10**6 - 1)} bits needed, above the cap of {PERM_BIT_CAP}\n"
    )


@pytest.mark.parametrize(
    "command, rest",
    [("coeff", "['--j', '100']"), ("prob", "['--target', str([*range(1, 101)])]")],
)
def test_cli_refuses_a_long_row_before_its_first_round(command, rest):
    # The argv is too long for a command line, so the child builds it.
    child = bounded(
        "from topshuffle import cli\n"
        "a = ','.join(['100'] * 15000)\n"
        f"argv = ['{command}', '--n', '100', '--a', a, *{rest}]\n"
        "raise SystemExit(cli.run(argv))\n",
        cpu_s=1,
    )
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == f"topshuffle: 10499300 bits needed, above the cap of {PERM_BIT_CAP}\n"


def test_a_huge_count_in_a_refusal_prints_in_seconds():
    # ``CapExceeded`` prints its count in full: here about 2.7 million digits.
    child = bounded(
        "try:\n"
        "    bar_element(identity(900000), FiniteGroup.cyclic(1024))\n"
        "except CapExceeded as err:\n"
        "    print('CapExceeded', err.unit, len(str(err)))\n",
        cpu_s=20,
    )
    assert child.returncode == 0, child.stderr[-500:]
    assert child.stdout == "CapExceeded terms 2709310\n"


def test_cli_reports_the_unit(capsys):
    assert cli.run(["verify", "--n", "5", "--a", "3,3", "--cap", "100"]) == 2
    assert capsys.readouterr().err == (
        "topshuffle: 3600 tuples needed, above the cap of 100\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["expand", "--n", str(BIG), "--a", f"{BIG},{BIG}"],
     ["verify", "--n", str(BIG), "--a", str(BIG)],
     ["verify", "--n", str(BIG), "--a", str(BIG), "--group", "cyclic:2"]],
)
def test_cli_refuses_a_huge_falling_factorial(capsys, argv):
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == (
        f"topshuffle: {BIG_BITS} bits needed, above the cap of {PERM_BIT_CAP}\n"
    )


# Refusals, one parametrized test per module ------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: Injection(-1, ()),
        lambda: Injection(2, (1,)),
        lambda: Injection(1, (0,)),
        lambda: Injection(2, (3, 3)),
        lambda: identity(0),
        lambda: identity(True),
        lambda: identity(2.5),
        lambda: list(all_permutations(2.5)),
        lambda: from_injection(Injection(1, (2,)), 2.5),
        lambda: is_term_of(identity(3), 2.5),
        lambda: is_term_of(identity(3), True),
        lambda: is_term_of(identity(3), "2"),
        lambda: min_shuffle_size(FACED),
        lambda: is_term_of(FACED, 1),
        lambda: as_injection(FACED),
        lambda: compose(FACED, FACED),
        lambda: compose(identity(3), FACED),
        lambda: inverse(FACED),
        lambda: identity(3).card_at(0),
        lambda: identity(3).card_at(-1),
        lambda: identity(3).card_at(4),
        lambda: identity(3).card_at(True),
        lambda: identity(3).card_at(1.5),
        lambda: identity(3).position_of(0),
        lambda: identity(3).position_of(4),
        lambda: identity(3).position_of(True),
    ],
)
def test_permutations_refuse(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: SegmentedPartition(([1, 2], [3])).block_of(0),
        lambda: SegmentedPartition(([1, 2], [3])).block_of(4),
    ],
)
def test_coefficients_refuse(call):
    with pytest.raises(ValueError, match="not in partition"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: falling_factorial(2.5, 1),
        lambda: falling_factorial(True, 1),
        lambda: stirling2(True, 1),
        lambda: stirling2(2.5, 1),
        lambda: bell(2.5),
        lambda: bell(True),
        lambda: list(anchor_tuples(SPEC, True)),
        lambda: list(iter_segmented_partitions(SPEC, True)),
        lambda: phi([1, 2], SPEC),
        lambda: phi((FACED, FACED), SPEC),
        lambda: phi_inverse(phi((identity(3),) * 2, SPEC), FACED, SPEC),
    ],
)
def test_coefficients_refuse_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ways_to_reach(FACED, SPEC),
        lambda: probability_of(FACED, SPEC),
        lambda: g_ways_to_reach(identity(3), SPEC, Z2),
        lambda: g_probability_of(identity(3), SPEC, Z2),
        lambda: ways_to_reach([1, 2], ShuffleSpec(2, (1,))),
        lambda: probability_of([1, 2], ShuffleSpec(2, (1,))),
        lambda: g_ways_to_reach([1, 2], ShuffleSpec(2, (1,)), Z3),
        lambda: g_probability_of([1, 2], ShuffleSpec(2, (1,)), Z3),
    ],
)
def test_probability_refuses(call):
    with pytest.raises(ValueError, match="expected a"):
        call()


TUPLE_SPEC = (2, (1,))
ONE_BLOCK = SegmentedPartition(([1, 2],))


@pytest.mark.parametrize(
    "call",
    [
        lambda: total_outcomes(TUPLE_SPEC),
        lambda: g_total_outcomes(TUPLE_SPEC, Z2),
        lambda: brute_force_product(TUPLE_SPEC),
        lambda: g_brute_force_product(TUPLE_SPEC, Z2),
        lambda: expansion(TUPLE_SPEC),
        lambda: g_expansion(None, Z2),
        lambda: expansion_element(TUPLE_SPEC),
        lambda: g_expansion_element(TUPLE_SPEC, Z2),
        lambda: q_cardinality(TUPLE_SPEC, 1),
        lambda: list(anchor_tuples(TUPLE_SPEC, 1)),
        lambda: list(iter_segmented_partitions(TUPLE_SPEC, 1)),
        lambda: enumerate_segmented_partitions(None, 1),
        lambda: respects_rounds(ONE_BLOCK, TUPLE_SPEC),
        lambda: anchor_signature(ONE_BLOCK, None),
        lambda: phi((identity(2),), TUPLE_SPEC),
        lambda: phi_inverse(ONE_BLOCK, identity(2), TUPLE_SPEC),
        lambda: phi_inverse(ONE_BLOCK, None, SPEC),
        lambda: phi_inverse(ONE_BLOCK, [1, 2, 3], SPEC),
        lambda: ways_to_reach(identity(2), TUPLE_SPEC),
        lambda: probability_of(identity(2), None),
        lambda: g_ways_to_reach(GPermutation.identity(2), TUPLE_SPEC, Z2),
        lambda: g_probability_of(GPermutation.identity(2), None, Z2),
        lambda: bar_element([1, 2], Z2),
        lambda: bar_element(None, Z2),
        lambda: AlgebraElement(2, [1, 2]),
        lambda: AlgebraElement(2, None),
        lambda: GAlgebraElement(2, Z2, [1, 2]),
    ],
)
def test_specs_decks_and_terms_are_read_by_class(call):
    with pytest.raises(ValueError, match="expected a"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: AlgebraElement(0, {}),
        lambda: GAlgebraElement(0, Z2, {}),
        lambda: top_to_random(1, 2).scale(-1),
        lambda: hat_top_to_random(1, 2, Z2).scale(-1),
        lambda: brute_force_product(ShuffleSpec(2, (1,)), cap=2.5),
        lambda: multiply(top_to_random(1, 2), top_to_random(1, 2), cap=True),
        lambda: shuffle_product([[1]], [2]),
        lambda: shuffle_product([1.5], [2]),
    ],
)
def test_algebra_refuses(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: GPermutation(()),
        lambda: GPermutation(((0, 1), (0, 3))),
        lambda: GPermutation(((-1, 1),)),
        lambda: GPermutation.identity(2).position_of(3),
        lambda: GPermutation.identity(2).face_of(3),
        lambda: GPermutation.identity(0),
        lambda: FiniteGroup([]),
        lambda: factorization_count(0, 0, Z2),
        lambda: factorization_count(1, 2, Z2),
        lambda: factorization_count(1, -1, Z2),
        lambda: factorization_counts_by_enumeration(0, Z2),
        lambda: bar_lift_expansion({}, 0, 2, Z2),
        lambda: bar_lift_expansion({}, 1, 0, Z2),
        lambda: GAlgebraElement(2, "Z2", {}),
        lambda: hat_top_to_random(1, 2, "Z2"),
        lambda: g_brute_force_product(ShuffleSpec(2, (1,)), "Z2"),
        lambda: g_expansion(ShuffleSpec(2, (1,)), "Z2"),
        lambda: bar_lift(top_to_random(1, 2), "Z2"),
        lambda: factorization_counts_by_enumeration(2, "Z2"),
        lambda: factorization_count(2.5, 0, Z2),
        lambda: factorization_count(True, 0, Z2),
        lambda: factorization_count(1, True, Z2),
        lambda: factorization_counts_by_enumeration(True, Z2),
        lambda: FiniteGroup.cyclic(True),
        lambda: FiniteGroup.cyclic(2.5),
        lambda: GPermutation.identity(True),
        lambda: GPermutation.identity(2.5),
        lambda: is_hat_term(FACED, True, Z2),
        lambda: is_hat_term(FACED, 2.5, Z2),
        lambda: is_hat_term(identity(3), 1, Z2),
        lambda: g_compose(identity(3), identity(3), Z2),
        lambda: g_compose(FACED, identity(3), Z2),
        lambda: Z3.mul(-1, 1),
        lambda: Z3.mul(1, 3),
        lambda: Z3.mul(True, 1),
        lambda: Z3.inv(-1),
        lambda: Z3.inv(3),
        lambda: Z3.inv(1.5),
        lambda: FACED.position_of(True),
        lambda: FACED.face_of(True),
        lambda: GPermutation.plain([1, 2]),
        (lambda: GPermutation(((0, 1, 2),)), r"each card is a \(face, card\) pair"),
        (lambda: GPermutation(((0,),)), r"each card is a \(face, card\) pair"),
        # The faced accessors refuse a missing card as ``Permutation.position_of`` does.
        (lambda: GPermutation.identity(2).position_of(3), r"^card 3 outside 1\.\.2$"),
        (lambda: GPermutation.identity(2).face_of(3), r"^card 3 outside 1\.\.2$"),
    ],
)
def test_wreath_refuses(call):
    call, message = call if isinstance(call, tuple) else (call, None)
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Permutation({2: "a", 1: "b"}),
        lambda: Permutation({3, 1, 2}),
        lambda: ShuffleSpec(3, {2: 0, 1: 0}),
        lambda: Injection(2, {3: 0, 2: 0}),
        lambda: GPermutation({(0, 2), (0, 1)}),
        lambda: GPermutation(({0: 1, 1: 0}, (0, 2))),
        lambda: FiniteGroup({(0, 1), (1, 0)}),
        lambda: shuffle_product({2, 1}, [3]),
    ],
)
def test_mappings_and_sets_are_refused_where_order_is_data(call):
    with pytest.raises(ValueError, match="expected an ordered sequence"):
        call()


def test_a_mapping_is_not_a_block_but_a_set_is():
    with pytest.raises(ValueError, match="expected a block of elements"):
        SegmentedPartition([{1: "x", 3: "y"}, [2]])
    assert SegmentedPartition([frozenset({1, 3}), (2,)]).as_json() == [[1, 3], [2]]
    assert SegmentedPartition([{1, 3}, [2]]).as_json() == [[1, 3], [2]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: identity(10**30),
        lambda: GPermutation.identity(10**30),
        lambda: from_injection(Injection(1, (2,)), 10**30),
        lambda: next(all_permutations(10**30)),
    ],
)
def test_deck_sizes_past_the_index_range_are_refused(call):
    with pytest.raises(ValueError, match="exceeds the largest index"):
        call()


# Each lower bound refuses the integer one below it with its own message.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AlgebraElement(0, {}), "deck size must be at least 1"),
        (lambda: AlgebraElement(2, {identity(2): -1}),
         "coefficients must be nonnegative"),
        (lambda: top_to_random(1, 2).scale(-1), "coefficients must be nonnegative"),
        (lambda: ShuffleSpec(0, (1,)), "deck size must be at least 1"),
        (lambda: falling_factorial(-1, 0), "arguments must be nonnegative"),
        (lambda: falling_factorial(0, -1), "arguments must be nonnegative"),
        (lambda: stirling2(-1, 0), "arguments must be nonnegative"),
        (lambda: stirling2(0, -1), "arguments must be nonnegative"),
        (lambda: bell(0), "k must be at least 1"),
        (lambda: identity(0), "deck size must be at least 1"),
        (lambda: Injection(-1, ()), "domain size must be nonnegative"),
        (lambda: FiniteGroup.cyclic(0), "order must be at least 1"),
        (lambda: factorization_count(0, 0, Z2), "tuple length must be at least 1"),
        (lambda: factorization_counts_by_enumeration(0, Z2),
         "tuple length must be at least 1"),
        (lambda: bar_lift_expansion({}, 0, 1, Z2),
         "number of factors must be at least 1"),
        (lambda: bar_lift_expansion({}, 1, 0, Z2), "deck size must be at least 1"),
        (lambda: bar_lift_expansion({1: -1}, 1, 1, Z2),
         "base coefficients must be nonnegative"),
        (lambda: rational_from_json({"num": "1", "den": "0"}),
         "denominator must be positive"),
        # Every public callable taking a cap refuses a negative one as input.
        (lambda: multiply(top_to_random(1, 2), top_to_random(1, 2), cap=-1),
         "cap must be nonnegative"),
        (lambda: g_multiply(*[hat_top_to_random(1, 2, Z2)] * 2, cap=-1),
         "cap must be nonnegative"),
        (lambda: brute_force_product(SPEC, cap=-1), "cap must be nonnegative"),
        (lambda: g_brute_force_product(SPEC, Z2, cap=-1), "cap must be nonnegative"),
        (lambda: expansion_element(SPEC, cap=-1), "cap must be nonnegative"),
        (lambda: g_expansion_element(SPEC, Z2, cap=-1), "cap must be nonnegative"),
        (lambda: factorization_counts_by_enumeration(2, Z2, cap=-1),
         "cap must be nonnegative"),
        (lambda: bar_element(identity(3), Z2, cap=-1), "cap must be nonnegative"),
        (lambda: bar_lift(top_to_random(1, 3), Z2, cap=-1), "cap must be nonnegative"),
    ],
)
def test_lower_bounds_refuse_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# Refusals and reprs print integers of any size ---------------------------------------

HUGE = 10**5000  # past ``str``'s default limit of 4300 digits
HUGE_TEXT = "1" + "0" * 5000


def _count(err) -> int:
    """The count a cap refusal's message starts with, read without ``str``'s limit."""
    return int(Decimal(str(err.value).split()[0]))


def test_cap_refusals_print_huge_counts(capsys):
    assert cli.run(["verify", "--n", "52", "--a", ",".join(["52"] * 200)]) == 2
    assert "tuples needed" in capsys.readouterr().err
    with pytest.raises(CapExceeded) as err:
        expansion_element(ShuffleSpec(3000, (3000,)))
    assert err.value.required == _count(err) == math.factorial(3000)
    with pytest.raises(CapExceeded) as err:
        stirling2(HUGE, 1)
    assert err.value.required == _count(err) == HUGE


def test_reprs_print_huge_masses():
    mass = "1" + "0" * 5000
    assert repr(AlgebraElement(2, {identity(2): HUGE})) == (
        f"AlgebraElement(n=2, terms=1, mass={mass})"
    )
    assert repr(GAlgebraElement(2, Z2, {GPermutation.identity(2): HUGE})) == (
        f"GAlgebraElement(n=2, order=2, terms=1, mass={mass})"
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _expect(Permutation, HUGE), f"expected a Permutation, got {HUGE_TEXT}"),
        (lambda: Permutation.from_json(HUGE), f"expected a JSON list, got {HUGE_TEXT}"),
        (lambda: AlgebraElement(2, {HUGE: 1}), f"{HUGE_TEXT} is not a Permutation of size 2"),
        (lambda: bar_lift(HUGE, Z2), f"{HUGE_TEXT} is not an AlgebraElement"),
    ],
    ids=["_expect", "from_json", "AlgebraElement", "bar_lift"],
)
def test_type_refusals_print_huge_integers(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Permutation((HUGE,)), "deck <unprintable tuple> is not a permutation of 1..1"),
        (lambda: ShuffleSpec(3, (HUGE,)), f"shuffle size {HUGE_TEXT} outside 1..3"),
        (
            lambda: SegmentedPartition(([1],)).block_of(HUGE),
            f"element {HUGE_TEXT} not in partition",
        ),
        (lambda: _integer([HUGE]), "<unprintable list> is not an integer"),
    ],
    ids=["Permutation", "ShuffleSpec", "block_of", "_integer"],
)
def test_huge_integers_in_any_refused_value_print(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


LONG = range(10**6)


@pytest.mark.parametrize(
    "call, start",
    [
        (lambda: _expect(Permutation, list(LONG)), "expected a Permutation, got [0, 1, 2, "),
        (lambda: _ordered(set(LONG)), "expected an ordered sequence, got {0, 1, 2, "),
        (lambda: Permutation(tuple(range(2, 10**6 + 2))), "deck (2, 3, 4, "),
        (
            lambda: SegmentedPartition([dict.fromkeys(LONG)]),
            "expected a block of elements, got {0: None, 1: None, ",
        ),
    ],
    ids=["_expect", "_ordered", "Permutation", "SegmentedPartition"],
)
def test_long_refused_values_are_cut(call, start):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).startswith(start)
    assert len(str(err.value)) < 500


def test_shown_never_raises():
    class Broken:
        def __repr__(self):
            raise RuntimeError("no repr")

    assert _shown(Broken()) == "<unprintable Broken>"


def test_range_refusals_print_huge_integers():
    with pytest.raises(ValueError, match="exceeds the largest index"):
        identity(HUGE)
    with pytest.raises(ValueError, match=f"^position 1{'0' * 5000} outside 1\\.\\.3$"):
        identity(3).card_at(HUGE)


# Every public callable refuses junk in any one position ---------------------------

ALPHA = SegmentedPartition(([1, 2],))  # both rounds of SPEC touch card 1

# Valid arguments for every public callable of the package's modules.
VALID = {
    "AlgebraElement": (2, {identity(2): 1}),
    "CapExceeded": (10, 1, "tuples"),
    "FiniteGroup": (((0, 1), (1, 0)),),
    "GAlgebraElement": (2, Z2, {GPermutation.identity(2): 1}),
    "GPermutation": (((1, 2), (0, 1)),),
    "Injection": (1, (2,)),
    "Permutation": ((2, 1, 3),),
    "SegmentedPartition": (([1, 3], [2]),),
    "ShuffleSpec": (3, (1, 1)),
    "all_permutations": (2,),
    "anchor_signature": (ALPHA, SPEC),
    "anchor_tuples": (SPEC, 2),
    "as_injection": (identity(3),),
    "bar_element": (identity(2), Z2),
    "bar_lift": (top_to_random(1, 2), Z2),
    "bar_lift_expansion": ({1: 1}, 2, 2, Z2),
    "bell": (3,),
    "brute_force_product": (SPEC,),
    "compose": (identity(3), identity(3)),
    "enumerate_segmented_partitions": (SPEC, 2),
    "expansion": (SPEC,),
    "expansion_element": (SPEC,),
    "factorization_count": (2, 1, Z2),
    "factorization_counts_by_enumeration": (2, Z2),
    "falling_factorial": (3, 2),
    "from_injection": (Injection(1, (2,)), 3),
    "g_brute_force_product": (SPEC, Z2),
    "g_compose": (FACED, FACED, Z2),
    "g_expansion": (SPEC, Z2),
    "g_expansion_element": (SPEC, Z2),
    "g_multiply": (hat_top_to_random(1, 2, Z2), hat_top_to_random(1, 2, Z2)),
    "g_probability_of": (FACED, SPEC, Z2),
    "g_total_outcomes": (SPEC, Z2),
    "g_ways_to_reach": (FACED, SPEC, Z2),
    "hat_top_to_random": (1, 2, Z2),
    "identity": (3,),
    "inverse": (identity(3),),
    "is_hat_term": (FACED, 1, Z2),
    "is_term_of": (identity(3), 1),
    "iter_segmented_partitions": (SPEC, 2),
    "min_shuffle_size": (identity(3),),
    "multiply": (top_to_random(1, 2), top_to_random(1, 2)),
    "phi": ((identity(3), identity(3)), SPEC),
    "phi_inverse": (ALPHA, identity(3), SPEC),
    "probability_of": (identity(3), SPEC),
    "q_cardinality": (SPEC, 2),
    "rational_as_json": (Fraction(3, 100),),
    "rational_from_json": ({"num": "3", "den": "100"},),
    "respects_rounds": (ALPHA, SPEC),
    "shuffle_product": ((1, 2), (3,)),
    "stirling2": (3, 2),
    "top_to_random": (1, 2),
    "total_outcomes": (SPEC,),
    "ways_to_reach": (identity(3), SPEC),
}

JUNK = [None, "x", [1, 2], (2, (1,)), 1.5, True, object()]

# Every public callable, classes included, of every module but ``cli``, which
# reads argv; each is taken from the module that defines it, so a helper that
# the package does not re-export is probed too.  A name missing from ``VALID``
# fails its probes with ``KeyError``.
PUBLIC = {
    name: value
    for info in pkgutil.iter_modules(topshuffle.__path__)
    if info.name != "cli"
    for module in [importlib.import_module(f"topshuffle.{info.name}")]
    for name, value in vars(module).items()
    if callable(value) and not name.startswith("_")
    and getattr(value, "__module__", None) == module.__name__
}
PROBES = [
    (name, parameter)
    for name, value in PUBLIC.items()
    for parameter in inspect.signature(value).parameters
]


def _call(fn, args, kwargs):
    out = fn(*args, **kwargs)
    if isinstance(out, Iterator):
        next(out, None)


@pytest.mark.parametrize("name, parameter", PROBES)
def test_junk_in_any_position_is_refused_with_value_error(name, parameter):
    fn = PUBLIC[name]
    _call(fn, VALID[name], {})  # the valid arguments are accepted
    for junk in JUNK:
        bound = inspect.signature(fn).bind(*VALID[name])
        bound.arguments[parameter] = junk
        try:
            _call(fn, bound.args, bound.kwargs)
        except (ValueError, CapExceeded):
            pass
        except Exception as e:
            pytest.fail(f"{name}({parameter}={junk!r}) raised {e!r}")
