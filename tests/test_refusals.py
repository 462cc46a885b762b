"""Bad input is refused at the public boundary with ``ValueError``, and every
cap names the unit it counts."""

import inspect
from collections.abc import Iterator

import pytest

import topshuffle
from topshuffle import (
    AlgebraElement,
    CapExceeded,
    FiniteGroup,
    GAlgebraElement,
    GPermutation,
    Injection,
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
    stirling2,
    top_to_random,
    total_outcomes,
    ways_to_reach,
)
from topshuffle.algebra import DEFAULT_TUPLE_CAP
from topshuffle.coefficients import STIRLING_CELL_CAP
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
    (lambda: FiniteGroup.cyclic(4000), "table cells", 16 * 10**6, DEFAULT_TUPLE_CAP),
    (lambda: stirling2(3000, 2000), "Stirling recurrence cells", 6 * 10**6,
     STIRLING_CELL_CAP),
    (lambda: bell(2001), "Stirling recurrence cells", 2001**2, STIRLING_CELL_CAP),
]


@pytest.mark.parametrize("call, unit, required, cap", CAPS)
def test_caps_name_their_unit(call, unit, required, cap):
    with pytest.raises(CapExceeded) as err:
        call()
    assert (err.value.unit, err.value.required, err.value.cap) == (unit, required, cap)
    assert str(err.value) == f"{required} {unit} needed, above the cap of {cap}"


def test_cli_reports_the_unit(capsys):
    assert cli.run(["verify", "--n", "5", "--a", "3,3", "--cap", "100"]) == 2
    assert capsys.readouterr().err == (
        "topshuffle: 3600 tuples needed, above the cap of 100\n"
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
    ],
)
def test_wreath_refuses(call):
    with pytest.raises(ValueError):
        call()


# Every public callable refuses junk in any one position ---------------------------

ALPHA = SegmentedPartition(([1, 2],))  # both rounds of SPEC touch card 1

# Valid arguments for every callable that ``topshuffle/__init__.py`` imports.
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
    "respects_rounds": (ALPHA, SPEC),
    "shuffle_product": ((1, 2), (3,)),
    "stirling2": (3, 2),
    "top_to_random": (1, 2),
    "total_outcomes": (SPEC,),
    "ways_to_reach": (identity(3), SPEC),
}

JUNK = [None, "x", [1, 2], (2, (1,)), 1.5, True, object()]

# Every public callable, classes included; a name missing from ``VALID``
# fails its probes with ``KeyError``.
PROBES = [
    (name, parameter)
    for name, value in vars(topshuffle).items()
    if callable(value) and not name.startswith("_")
    for parameter in inspect.signature(value).parameters
]


def _call(fn, args, kwargs):
    out = fn(*args, **kwargs)
    if isinstance(out, Iterator):
        next(out, None)


@pytest.mark.parametrize("name, parameter", PROBES)
def test_junk_in_any_position_is_refused_with_value_error(name, parameter):
    fn = getattr(topshuffle, name)
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
