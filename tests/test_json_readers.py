"""Every JSON reader refuses a missing key, a wrong shape or a non-integer
number with ``ValueError``; none raises ``KeyError`` or ``TypeError``, and
none truncates.  Element coefficients follow the same integer rule as
rationals; ``tests/test_algebra.py`` checks them."""

import random
import sys
from fractions import Fraction

import pytest
from bounded_child import bounded

from topshuffle import (
    AlgebraElement,
    FiniteGroup,
    GAlgebraElement,
    GPermutation,
    Injection,
    Permutation,
    top_to_random,
)
from topshuffle.permutations import _json_integer
from topshuffle.probability import rational_as_json, rational_from_json

TERMS = top_to_random(1, 2).as_json()["terms"]


@pytest.mark.parametrize(
    "reader, data",
    [
        (AlgebraElement.from_json, {"n": 2}),
        (AlgebraElement.from_json, {"terms": TERMS}),
        (AlgebraElement.from_json, {"n": 2, "terms": [{"deck": [1, 2]}]}),
        (AlgebraElement.from_json, {"n": 2, "terms": [{"coeff": "1"}]}),
        (FiniteGroup.from_json, {}),
        (FiniteGroup.from_json, {"order": 1}),
        (GPermutation.from_json, [{"card": 1}]),
        (GPermutation.from_json, [{"face": 0}]),
        (GPermutation.from_json, [5]),
        (GAlgebraElement.from_json, {"n": 1, "terms": []}),
        (GAlgebraElement.from_json, 5),
        (Injection.from_json, {"a": 2}),
        (Injection.from_json, {"targets": [2]}),
        (Injection.from_json, 5),
        (Injection.from_json, {"a": 1, "targets": 5}),
        (rational_from_json, {}),
        (rational_from_json, {"num": "1"}),
        (rational_from_json, 5),
        (rational_from_json, [1, 2]),
    ],
)
def test_missing_keys_and_wrong_shapes_are_refused(reader, data):
    with pytest.raises(ValueError):
        reader(data)


@pytest.mark.parametrize(
    "num, den",
    [(1.5, 2), (True, 2), (1, 2.5), (1, True), (None, 2), ("1.5", 2), ("x", 2)],
)
def test_rational_refuses_non_integers(num, den):
    with pytest.raises(ValueError):
        rational_from_json({"num": num, "den": den})


def test_rational_reads_decimal_strings_and_integral_numbers():
    assert rational_from_json({"num": "3", "den": "4"}) == Fraction(3, 4)
    assert rational_from_json({"num": 3, "den": 4.0}) == Fraction(3, 4)
    assert rational_from_json({"num": "-6", "den": 4}) == Fraction(-3, 2)
    with pytest.raises(ValueError):
        rational_from_json({"num": 1, "den": "0"})


def test_integers_past_the_str_digit_limit_round_trip():
    big = 52**3000  # 5 149 digits, past Python's default limit of 4 300
    x = Fraction(big - 1, big)
    assert rational_from_json(rational_as_json(x)) == x
    element = AlgebraElement(2, {Permutation((2, 1)): big})
    assert AlgebraElement.from_json(element.as_json()) == element
    digits = "9" * 5000
    assert rational_from_json({"num": f" -{digits} ", "den": 1}) == 1 - 10**5000
    for tail in (".5", "e3", "x", "nan", "__9"):
        with pytest.raises(ValueError):
            rational_from_json({"num": digits + tail, "den": 1})


def test_integers_past_the_str_digit_limit_match_int_at_chunk_edges():
    # Past the limit, ``_json_integer`` reads the digits in chunks of
    # ``limit`` from the right: try lengths on both sides of a chunk edge,
    # and an odd chunk count at the first and second join, with a sign,
    # ``_`` separators, surrounding whitespace, zero chunks and leading
    # zeros.
    limit = sys.get_int_max_str_digits()
    rng = random.Random(0)
    texts = ["1" + "0" * 2 * limit, "0" * limit + "7", "-" + "0" * (limit + 1)]
    for length in (limit - 1, limit, limit + 1, 2 * limit, 2 * limit + 1, 5 * limit + 3):
        digits = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=length - 1))
        grouped = "_".join(digits[i : i + 3] for i in range(0, length, 3))
        texts += [digits, "-" + digits, "+" + digits, f" \n{digits}\t ", f"-{grouped}"]
    got = list(map(_json_integer, texts))
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert got == list(map(int, texts))
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_million_digits_are_read_within_seconds():
    # ``int(Decimal(x))`` takes about 31 s on a million digits, so a read
    # that is not subquadratic runs out of CPU time.  The reference, ``int``
    # with the limit lifted, takes about 5 s of the child's 20.
    child = bounded(
        "import random, sys, time\n"
        "from topshuffle.permutations import _json_integer\n"
        "digits = ''.join(random.Random(0).choices('0123456789', k=10**6))\n"
        "start = time.process_time()\n"
        "value = _json_integer(digits)\n"
        "took = time.process_time() - start\n"
        "sys.set_int_max_str_digits(0)\n"
        "print(value == int(digits), took < 3)\n",
        cpu_s=20,
    )
    assert child.stdout == "True True\n", child.stderr
