"""Products of elements with coefficients other than 1 on both sides.

``multiply`` and ``g_multiply`` fold through the same kernel as the
oracles, so they are checked here against the term-by-term double sum of
the public ``compose``/``g_compose``, which shares nothing with it, and
against the closed form of the concatenated spec.
"""

from collections import Counter

import pytest

from topshuffle import (
    FiniteGroup,
    GAlgebraElement,
    GPermutation,
    ShuffleSpec,
    brute_force_product,
    compose,
    expansion_element,
    g_brute_force_product,
    g_compose,
    g_multiply,
    hat_top_to_random,
    multiply,
    top_to_random,
)
from topshuffle.wreath import g_expansion_element

Z2 = FiniteGroup.cyclic(2)
S3 = FiniteGroup.symmetric_3()


def double_sum(x, y, compose_pair):
    out = Counter()
    for p, cp in x.terms.items():
        for q, cq in y.terms.items():
            out[compose_pair(p, q)] += cp * cq
    return out


def weighted(element):
    assert max(element.terms.values()) > 1
    return element


def oracle(n, a, group=None):
    spec = ShuffleSpec(n, a)
    if group is None:
        return brute_force_product(spec)
    return g_brute_force_product(spec, group)


PLAIN = [
    (oracle(4, (2, 1)), oracle(4, (1, 3))),
    (
        top_to_random(2, 4).scale(3) + top_to_random(1, 4),
        oracle(4, (1, 1, 2)),
    ),
    (oracle(5, (1, 1)), top_to_random(3, 5).scale(2)),
]


@pytest.mark.parametrize("x, y", PLAIN)
def test_multiply_equals_the_double_sum(x, y):
    product = multiply(weighted(x), weighted(y))
    assert product.terms == double_sum(x, y, compose)
    assert x * y == product


FACED = [
    (oracle(2, (1, 1), Z2),) * 2,
    (
        hat_top_to_random(1, 2, S3).scale(2) + hat_top_to_random(2, 2, S3),
        oracle(2, (1, 1), S3),
    ),
    (oracle(3, (2, 1), Z2), hat_top_to_random(3, 3, Z2).scale(5)),
    # Faces of a nonabelian group that are not summed over the whole group,
    # so a product that multiplies faces in the wrong order shows.
    (
        GAlgebraElement(
            2, S3, {GPermutation(((1, 2), (3, 1))): 2, GPermutation(((4, 1), (2, 2))): 3}
        ),
        GAlgebraElement(
            2, S3, {GPermutation(((5, 2), (1, 1))): 3, GPermutation(((2, 1), (0, 2))): 2}
        ),
    ),
]


@pytest.mark.parametrize("x, y", FACED)
def test_g_multiply_equals_the_double_sum(x, y):
    group = x.group
    product = g_multiply(weighted(x), weighted(y))
    assert product.terms == double_sum(x, y, lambda s, t: g_compose(s, t, group))


@pytest.mark.parametrize("x, y", FACED)
def test_faced_elements_multiply_with_star(x, y):
    assert weighted(x) * weighted(y) == g_multiply(x, y)


@pytest.mark.parametrize(
    "n, left, right", [(4, (2, 1), (1, 3)), (5, (1, 2), (2, 2, 1))]
)
def test_products_of_oracles_are_the_concatenated_expansion(n, left, right):
    both = ShuffleSpec(n, left + right)
    assert multiply(oracle(n, left), oracle(n, right)) == expansion_element(both)
    faced = g_multiply(oracle(3, left, S3), oracle(3, (1, 1), S3))
    assert faced == g_expansion_element(ShuffleSpec(3, left + (1, 1)), S3)
