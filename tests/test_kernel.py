"""The count row, on both of its paths, checked against an anchor-tuple sum
and against identities that hold far beyond brute-force reach, and the
oracle's fold, checked against a tuple-by-tuple count."""

import functools
import importlib
import itertools
import math
import pkgutil
import random
import types
from collections import Counter

import pytest
from bounded_child import bounded
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topshuffle
from topshuffle import (
    AlgebraElement,
    FiniteGroup,
    GAlgebraElement,
    GPermutation,
    Permutation,
    ShuffleSpec,
    algebra,
    anchor_tuples,
    brute_force_product,
    coefficients,
    compose,
    expansion,
    factorization_counts_by_enumeration,
    g_brute_force_product,
    g_compose,
    g_total_outcomes,
    g_ways_to_reach,
    hat_top_to_random,
    is_hat_term,
    min_shuffle_size,
    q_cardinality,
    top_to_random,
    total_outcomes,
    ways_to_reach,
    wreath,
)
from topshuffle.coefficients import (
    _q_row,
    _row_by_differences,
    _row_by_rounds,
    _stirling_row,
)
from topshuffle.permutations import _deck_from_targets

S3 = FiniteGroup.symmetric_3()

DECK = 52


def anchor_sum(spec, j):
    """The counting formula term by term: one product per anchor tuple."""
    total = 0
    for ls in anchor_tuples(spec, j):
        opened, prod = spec.a[0], 1
        for ac, lc in zip(spec.a[1:], ls):
            prod *= math.comb(ac, lc) * math.perm(opened, ac - lc)
            opened += lc
        total += prod
    return total


PATHS = ROUNDS, DIFFERENCES = ("_row_by_rounds", "_row_by_differences")


def count_paths(monkeypatch):
    """Wraps both of ``_q_row``'s paths, counting the calls to each."""
    calls = Counter()
    for name in PATHS:
        path = getattr(coefficients, name)
        monkeypatch.setattr(
            coefficients, name, lambda a, top, p=path, n=name: calls.update([n]) or p(a, top)
        )
    return calls


def path_taken(a, top):
    """The path ``_q_row(a, top)`` takes, found without running either."""
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        for name in PATHS:
            patch.setattr(coefficients, name, lambda a, top, n=name: taken.append(n) or {})
        _q_row(a, top)
    (name,) = taken
    return name


def test_row_equals_anchor_sum_exhaustively(monkeypatch):
    calls = count_paths(monkeypatch)
    checked = 0
    for n in range(1, 8):
        for k in range(1, 5):
            for a in itertools.product(range(1, n + 1), repeat=k):
                spec = ShuffleSpec(n, a)
                row = _q_row(a, spec.j_max)
                assert set(row) <= set(range(spec.j_min, spec.j_max + 1))
                assert list(row) == sorted(row)
                for j in range(spec.j_max + 1):
                    assert row.get(j, 0) == anchor_sum(spec, j), (n, a, j)
                    assert q_cardinality(spec, j) == row.get(j, 0)
                    assert _q_row(a, j).get(j, 0) == row.get(j, 0)
                checked += 1
    assert checked == sum(n**k for n in range(1, 8) for k in range(1, 5))
    assert calls[ROUNDS] and calls[DIFFERENCES], calls


def sweep_rows():
    """The rows the choice between the paths was measured on: decks of 8
    to 200 cards, rounds of one card, two cards, one to four cards and half
    the deck, totalling half, once, twice and four times the deck, and the
    rows named below."""
    rng = random.Random(7)
    for n in (8, 16, 32, 52, 100, 200):
        for total in (n // 2, n, 2 * n, 4 * n):
            mixed = []
            while sum(mixed) < total:
                mixed.append(rng.randint(1, 4))
            yield n, (1,) * total
            yield n, (2,) * (total // 2)
            yield n, tuple(mixed)
            yield n, (n // 2,) * (total // (n // 2))
    # Short rows whose first round opens most of the row, and long rows at
    # or below the deck, where an earlier difference form was slower.
    yield 200, (100, 1, 1)
    yield 1000, (1,) * 500
    yield 1000, tuple(rng.randint(1, 4) for _ in range(200))
    # Few rounds of many cards, where the triangle would be wide.
    yield 10**5, (10**5,)
    yield 1000, (500, 500)
    yield 2000, (1000, 1)


def test_both_paths_give_the_same_row_on_the_sweep():
    taken = Counter()
    for n, a in sweep_rows():
        top = min(n, sum(a))
        row = _row_by_rounds(a, top)
        assert _row_by_differences(a, top) == row, (n, len(a), a[:3])
        assert list(row) == list(range(max(a), top + 1))
        taken[path_taken(a, top)] += 1
    assert taken[ROUNDS] >= 10 and taken[DIFFERENCES] >= 10, taken


@pytest.mark.parametrize(
    "n, a, path",
    [
        # Few rounds of many cards: the triangle would be as wide as the
        # deck, while the rounds fill a few cells.
        (10**5, (10**5,), ROUNDS),
        (1000, (500, 500), ROUNDS),
        (2000, (1000, 1), ROUNDS),
        (10**4, (5000, 5000), ROUNDS),
        (10**5, (5 * 10**4, 5 * 10**4), ROUNDS),
        (10**30, (10**30,), ROUNDS),
        (10**30, (1, 10**30), ROUNDS),
        # Long rows, and a short one whose first round opens most of it.
        (52, (1,) * 3000, DIFFERENCES),
        (200, (100, 1, 1), DIFFERENCES),
        (1000, (1,) * 500, DIFFERENCES),
        (8, (1,) * 16, DIFFERENCES),
    ],
)
def test_each_row_takes_its_path(n, a, path):
    assert path_taken(a, n) == path


def test_long_rows_answer_within_two_seconds():
    # Round by round, the first takes seconds and the second, over thirteen
    # targets, about as long; the triangle takes milliseconds for each.
    child = bounded(
        "row = expansion(ShuffleSpec(52, (1,) * 20000))\n"
        "print(list(row) == list(range(1, 53)), row[2] == 2**19999 - 1)\n",
        cpu_s=2,
    )
    assert child.returncode == 0, child.stderr[-500:]
    assert child.stdout == "True True\n"
    child = bounded(
        "import contextlib, io\n"
        "from topshuffle import cli\n"
        "ones = ','.join(['1'] * 3000)\n"
        "codes = []\n"
        "for m in range(1, 53, 4):\n"
        "    deck = [c for c in range(1, 53) if c != m] + [m]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        argv = ['prob', '--n', '52', '--a', ones, '--target', str(deck)]\n"
        "        codes.append(cli.run(argv))\n"
        "print(codes)\n",
        cpu_s=2,
    )
    assert child.returncode == 0, child.stderr[-500:]
    assert child.stdout == f"{[0] * 13}\n"


def test_count_without_truncation_reaches_past_the_deck():
    assert _q_row((2, 2), 4)[4] == 1  # both slots of round 2 open blocks
    assert 5 not in _q_row((2, 2), 5)
    assert _q_row((3, 1), 2) == {}  # round 1 alone opens 3 blocks


def nonzero(row):
    """The nonzero entries of a list indexed by block count."""
    return {j: c for j, c in enumerate(row) if c}


@pytest.mark.parametrize("k", [*range(1, 31), 500])
def test_all_singles_row_is_stirling(k):
    assert _q_row((1,) * k, k) == nonzero(_stirling_row(k, k))


def test_truncated_all_singles_row_is_a_stirling_prefix():
    assert _q_row((1,) * 300, DECK) == nonzero(_stirling_row(300, DECK))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), a=st.lists(st.integers(1, 40), min_size=1, max_size=40))
@example(n=40, a=[1] * 40)  # the difference path
@example(n=40, a=[20, 20])  # the rounds
def test_expansion_keys_increase_and_counts_are_positive(n, a):
    # ``wreath.g_expansion`` divides once per key, so the keys must be
    # every block count from ``j_min`` to ``j_max`` on both paths.
    spec = ShuffleSpec(n, [min(ai, n) for ai in a])
    row = expansion(spec)
    assert list(row) == list(range(spec.j_min, spec.j_max + 1))
    assert all(c > 0 for c in row.values())


def test_closed_form_answers_huge_sizes_at_once():
    # A dense row over every block count up to 10**30 cannot be allocated.
    huge = 10**30
    assert expansion(ShuffleSpec(huge, (huge,))) == {huge: 1}
    assert expansion(ShuffleSpec(huge, (1, huge))) == {huge: huge}
    assert q_cardinality(ShuffleSpec(huge, (1, huge)), huge) == huge


def surjections(k, j):
    """Maps of ``k`` rounds onto ``j`` cards, by inclusion-exclusion."""
    return sum((-1) ** i * math.comb(j, i) * (j - i) ** k for i in range(j + 1))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, DECK), k=st.integers(1, 1000))
@example(n=DECK, k=1000)
def test_all_singles_row_counts_surjections(n, k):
    """``j! * q_j`` for ``k`` single-card rounds counts the maps of the rounds
    onto ``j`` cards: no DP and no recurrence on the right-hand side."""
    spec = ShuffleSpec(n, (1,) * k)
    row = expansion(spec)
    for j in range(1, n + 1):
        assert math.factorial(j) * row.get(j, 0) == surjections(k, j), j
    assert math.factorial(n) * q_cardinality(spec, n) == surjections(k, n)


sizes = st.lists(st.integers(1, DECK), min_size=1, max_size=40).map(tuple)


@settings(max_examples=40, deadline=None)
@given(a=sizes)
def test_mass_identity_at_52_cards(a):
    """sum_j q_j * P(n, j) = prod_i P(n, a_i): every outcome tuple lands
    in exactly one term of the expansion."""
    spec = ShuffleSpec(DECK, a)
    mass = sum(q * math.perm(DECK, j) for j, q in expansion(spec).items())
    assert mass == math.prod(math.perm(DECK, ai) for ai in a)
    assert mass == total_outcomes(spec)


def deck_with_min_shuffle(n, m):
    """Sorted deck with card ``m`` moved to the bottom (identity for 0)."""
    if m == 0:
        return Permutation(tuple(range(1, n + 1)))
    return Permutation(tuple(c for c in range(1, n + 1) if c != m) + (m,))


@settings(max_examples=25, deadline=None)
@given(a=st.lists(st.integers(1, DECK), min_size=1, max_size=12).map(tuple))
def test_ways_over_shuffle_classes_sum_to_outcomes(a):
    """Decks with minimum shuffle size at most ``c`` number ``P(n, c)``,
    and ``ways_to_reach`` depends only on that size, so weighing one
    representative per size by its class size counts every outcome once."""
    spec = ShuffleSpec(DECK, a)
    total = 0
    for m in range(DECK):
        target = deck_with_min_shuffle(DECK, m)
        assert min_shuffle_size(target) == m
        members = math.perm(DECK, m) - (math.perm(DECK, m - 1) if m else 0)
        total += members * ways_to_reach(target, spec)
    assert total == total_outcomes(spec)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_faced_ways_match_term_by_term_sum(data):
    n = data.draw(st.integers(1, 12))
    group = FiniteGroup.cyclic(data.draw(st.integers(1, 4)))
    a = tuple(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6)))
    cards = data.draw(st.permutations(range(1, n + 1)))
    faced = data.draw(st.sets(st.integers(1, n), max_size=3))
    spin = st.integers(min(1, group.order - 1), group.order - 1)
    faces = [data.draw(spin) if c in faced else 0 for c in cards]
    target = GPermutation(tuple(zip(faces, cards)))
    spec = ShuffleSpec(n, a)
    expected = sum(
        q_cardinality(spec, c) * group.order ** (spec.total - c)
        for c in range(spec.j_min, spec.j_max + 1)
        if is_hat_term(target, c, group)
    )
    assert g_ways_to_reach(target, spec, group) == expected


# The oracle must never share a code path with the closed form ---------------

CLOSED_FORM = {
    "_q_row", "_row_by_rounds", "_row_by_differences", "q_cardinality", "expansion"
}


def code_names(code):
    """Names read by ``code`` and its nested code."""
    names = set(code.co_names)
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            names |= code_names(c)
    return names


def reachable_names(fn):
    """Names read by ``fn``'s code and its nested code, followed through
    every package function those names resolve to."""
    names, seen, todo = set(), set(), [fn]
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        for name in code_names(f.__code__):
            names.add(name)
            g = f.__globals__.get(name)
            if isinstance(g, types.FunctionType) and g.__module__.startswith(
                "topshuffle"
            ):
                todo.append(g)
    return names


@pytest.mark.parametrize(
    "oracle",
    [
        algebra._fold,
        algebra.brute_force_product,
        wreath.g_brute_force_product,
        wreath.factorization_counts_by_enumeration,
        algebra._substitution,
        wreath._g_symbols,
        algebra._insertion_decks,
        wreath._hat_insertions,
    ],
)
def test_oracle_never_reaches_the_closed_form(oracle):
    assert not reachable_names(oracle) & CLOSED_FORM


def test_oracles_take_their_terms_from_the_insertions():
    # The shuffle sums that ``expansion_element`` adds up come from these two.
    shuffle_sums = {"_top_to_random_decks", "_hat_decks_raw"}
    assert shuffle_sums <= reachable_names(wreath.g_expansion_element)
    for oracle in (algebra.brute_force_product, wreath.g_brute_force_product):
        assert not reachable_names(oracle) & shuffle_sums


FOLD = {"_fold", "_substitution", "_deck_symbols", "_g_symbols"}


@pytest.mark.parametrize(
    "shuffle_sum",
    [
        top_to_random,
        hat_top_to_random,
        algebra.expansion_element,
        wreath.g_expansion_element,
    ],
)
def test_shuffle_sums_never_reach_the_fold(shuffle_sum):
    # ``tests/test_insertions.py`` checks the insertion products against the
    # shuffle sums, and the oracles check the expansions; either would be
    # circular if the fold built them.
    names = reachable_names(shuffle_sum)
    assert names & {"_top_to_random_decks", "_hat_decks_raw"}
    assert not names & (FOLD | {"_insertion_decks", "_hat_insertions"})


def test_oracle_guard_sees_the_closed_form_where_it_is_used():
    assert "expansion" in reachable_names(algebra.expansion_element)
    assert "_q_row" in reachable_names(wreath.g_expansion_element)


def test_compose_shares_nothing_with_the_fold():
    # The products of weighted elements are checked against double sums of
    # ``compose`` and ``g_compose``, which must not run through the fold.
    assert FOLD <= reachable_names(algebra.multiply) | reachable_names(wreath.g_multiply)
    assert not reachable_names(compose) & FOLD
    assert not reachable_names(g_compose) & FOLD


def package_functions():
    """Every function and method the package's modules define, by qualified
    name, with the names its code and its nested code read."""
    for info in pkgutil.iter_modules(topshuffle.__path__):
        module = importlib.import_module(f"topshuffle.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for f in vars(obj).values() if isinstance(obj, type) else [obj]:
                # Unwrap class and static methods, properties and cached ones.
                for attr in ("__func__", "fget", "func"):
                    f = getattr(f, attr, f)
                if isinstance(f, types.FunctionType):
                    yield f.__qualname__, code_names(f.__code__)


def test_unchecked_constructors_have_only_their_known_callers():
    # Each caller builds valid data by construction: ``phi`` and
    # ``iter_segmented_partitions`` canonical labels, ``phi_inverse`` a
    # permutation.  A new caller needs its own reason, and a place here.
    known = {
        "_from_labels": {"phi", "iter_segmented_partitions"},
        "_trusted": {"phi_inverse"},
    }
    functions = list(package_functions())
    for constructor, callers in known.items():
        assert {f for f, names in functions if constructor in names} == callers


# The raw tallies that ``verify`` compares, decoded here on their own -----------


def small_specs(n_max, k_max):
    return [
        ShuffleSpec(n, a)
        for n in range(1, n_max + 1)
        for k in range(1, k_max + 1)
        for a in itertools.product(range(1, n + 1), repeat=k)
    ]


def faced_deck(raw):
    """A raw faced deck, (cards by position, faces by position), as a deck."""
    cards, faces = raw
    return GPermutation(tuple((f, c) for c, f in zip(cards, faces)))


def canonical(term):
    """A faced term's place in canonical order: by underlying deck, then by
    faces along positions."""
    deck = term[0].deck
    return tuple(c for _, c in deck), tuple(f for f, _ in deck)


def test_plain_raw_tallies_decode_to_their_elements():
    for spec in small_specs(4, 3):
        for public in [brute_force_product, algebra.expansion_element]:
            element = public(spec)
            assert 0 not in element._raw.values()
            decoded = {Permutation(d): c for d, c in element._raw.items()}
            assert decoded == element.terms, (spec, public)
            assert AlgebraElement(spec.n, element.terms) == element


@pytest.mark.parametrize("order", [2, 3, 6])
def test_faced_raw_tallies_decode_to_their_elements(order):
    group = S3 if order == 6 else FiniteGroup.cyclic(order)
    for spec in small_specs(3, 3):
        if g_total_outcomes(spec, group) > 20_000:
            continue
        for public in [g_brute_force_product, wreath.g_expansion_element]:
            element = public(spec, group)
            assert 0 not in element._raw.values()
            decoded = {faced_deck(r): c for r, c in element._raw.items()}
            assert decoded == element.terms, (spec, public)
            assert element.sorted_terms() == sorted(decoded.items(), key=canonical)
            assert GAlgebraElement(spec.n, group, element.terms) == element


def test_elements_of_tallies_compare_without_building_decks(monkeypatch):
    spec, group = ShuffleSpec(4, (2, 1, 3)), FiniteGroup.cyclic(2)
    faced_spec = ShuffleSpec(3, (1, 2))
    # The identity deck is a term of every top-to-random sum, so its
    # coefficient in a product is the sum of the expansion's coefficients.
    plain_id, faced_id = Permutation((1, 2, 3, 4)), GPermutation.identity(3)
    plain_want = sum(expansion(spec).values())
    faced_want = sum(wreath.g_expansion(faced_spec, group).values())

    def no_deck(self):
        raise AssertionError("a deck object was built")

    monkeypatch.setattr(Permutation, "__post_init__", no_deck)
    monkeypatch.setattr(GPermutation, "__post_init__", no_deck)
    oracle, expanded = brute_force_product(spec), algebra.expansion_element(spec)
    assert oracle == expanded and expanded == oracle
    assert len(oracle) == len(expanded) == 24
    assert oracle.mass == expanded.mass == total_outcomes(spec)
    assert oracle.coefficient(plain_id) == expanded.coefficient(plain_id) == plain_want
    g_oracle = g_brute_force_product(faced_spec, group)
    g_expanded = wreath.g_expansion_element(faced_spec, group)
    assert g_oracle == g_expanded and len(g_oracle) == len(g_expanded)
    assert g_oracle.mass == g_total_outcomes(faced_spec, group)
    assert g_oracle.coefficient(faced_id) == faced_want
    assert g_expanded.coefficient(faced_id) == faced_want
    bumped = dict(expanded._raw)
    bumped[next(iter(bumped))] += 1
    wrong = AlgebraElement._of_tally((4,), bumped)
    assert wrong != brute_force_product(spec) and wrong != oracle
    assert AlgebraElement._of_tally((3,), {}) != AlgebraElement._of_tally((4,), {})


def test_elements_of_tallies_build_through_the_checked_constructor():
    bad = AlgebraElement._of_tally((3,), {(1, 1, 2): 1})
    assert len(bad) == 1
    with pytest.raises(ValueError, match="not a permutation"):
        bad.terms
    group = FiniteGroup.cyclic(2)
    faced = GAlgebraElement._of_tally((2, group), {((1, 1), (0, 0)): 1})
    assert faced.group is group
    with pytest.raises(ValueError, match="card labels"):
        faced.terms


# The oracle's deck list and its fold over distinct states ---------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_top_to_random_decks_follow_the_target_order(n):
    for a in range(n + 1):
        decks = algebra._top_to_random_decks(a, n)
        assert decks == [
            _deck_from_targets(t, n)
            for t in itertools.permutations(range(1, n + 1), a)
        ]
        if a:
            # The sums nest, as ``algebra._shuffle_sums`` reads them.
            assert decks[:: n - a + 1] == algebra._top_to_random_decks(a - 1, n)


def tuple_tally(factors, compose):
    """The product term tuple by term tuple: one left-to-right fold each."""
    return Counter(
        functools.reduce(compose, terms) for terms in itertools.product(*factors)
    )


PLAIN_SPECS = [(1, (1,)), (1, (1, 1, 1)), (3, (2,)), (4, (4,)), (3, (1, 2, 2)),
               (4, (2, 1, 3)), (4, (1, 1, 1, 1)), (5, (2, 3))]


@pytest.mark.parametrize("n, a", PLAIN_SPECS)
def test_plain_fold_equals_the_tuple_tally(n, a):
    spec = ShuffleSpec(n, a)
    factors = [list(top_to_random(ai, n).terms) for ai in a]
    tally = brute_force_product(spec).terms
    assert tally == tuple_tally(factors, compose)
    assert sum(tally.values()) == total_outcomes(spec)


def faced_compose(s, t, group):
    """``g_compose`` from its definition on decks: position ``j`` of the
    product holds the card ``s`` had at the position ``t`` puts at ``j``,
    its face times the face ``t`` gives there."""
    return GPermutation(
        tuple((group.mul(s.deck[c - 1][0], g), s.deck[c - 1][1]) for g, c in t.deck)
    )


def test_faced_compose_reference_agrees_with_g_compose():
    for s, t in itertools.product(hat_top_to_random(2, 3, S3).terms, repeat=2):
        assert faced_compose(s, t, S3) == g_compose(s, t, S3)


FACED_SPECS = [(1, (1,), 3), (1, (1, 1), 2), (2, (2,), 6), (3, (1, 2), 2),
               (2, (1, 2, 1), 3), (3, (2, 1), 6), (2, (2, 2), 6)]


@pytest.mark.parametrize("n, a, order", FACED_SPECS)
def test_faced_fold_equals_the_tuple_tally(n, a, order):
    group = S3 if order == 6 else FiniteGroup.cyclic(order)
    spec = ShuffleSpec(n, a)
    factors = [list(hat_top_to_random(ai, n, group).terms) for ai in a]
    tally = g_brute_force_product(spec, group).terms
    assert tally == tuple_tally(factors, lambda s, t: faced_compose(s, t, group))
    assert sum(tally.values()) == g_total_outcomes(spec, group)


# The fold keys states by bytes while their symbols fit in a byte, by tuples
# past that; each oracle is checked on both sides of that boundary.


@pytest.mark.parametrize("n, key_type", [(255, bytes), (256, tuple)])
def test_plain_oracle_on_each_side_of_the_byte_boundary(n, key_type):
    assert type(algebra._deck_symbols(n)[0](tuple(range(1, n + 1)))) is key_type
    spec = ShuffleSpec(n, (1, 1))
    assert brute_force_product(spec) == algebra.expansion_element(spec)


@pytest.mark.parametrize("order, key_type", [(128, bytes), (129, tuple)])
def test_faced_oracle_on_each_side_of_the_byte_boundary(order, key_type):
    group, spec = FiniteGroup.cyclic(order), ShuffleSpec(2, (1, 1))
    assert type(wreath._g_symbols(2, group.cayley)[0](((1, 2), (0, 0)))) is key_type
    assert g_brute_force_product(spec, group) == wreath.g_expansion_element(spec, group)


@pytest.mark.parametrize("order, key_type", [(256, bytes), (257, tuple)])
def test_factorization_oracle_on_each_side_of_the_byte_boundary(order, key_type):
    group = FiniteGroup.cyclic(order)
    assert type(wreath._g_symbols(1, group.cayley)[0](((1,), (0,)))) is key_type
    assert factorization_counts_by_enumeration(2, group) == (order,) * order


@pytest.mark.parametrize("l", [1, 2, 4])
def test_factorization_fold_equals_the_tuple_tally(l):
    tally = tuple_tally([range(S3.order)] * l, S3.mul)
    assert factorization_counts_by_enumeration(l, S3) == tuple(
        tally[g] for g in range(S3.order)
    )
