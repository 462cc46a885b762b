"""The rows that the choice between the coefficient row's two paths was
measured on, and a tool that measures it again.

``python tests/row_sweep.py`` (with the package on ``PYTHONPATH``) times
both paths on every row, best of five, and prints, a row a line, the two
times, the path ``_q_row`` takes and the faster one, then the time of the
paths taken against the time of the faster path on every row.  The rows of
``sweep_rows`` are followed by ``WIDE_ROWS``, which take seconds on the
slower path and so stay out of the test that compares both paths.
"""

import random
import timeit

import pytest

from topshuffle import coefficients

PATHS = ROUNDS, DIFFERENCES = ("_row_by_rounds", "_row_by_differences")


def path_taken(a, top):
    """The path ``_q_row(a, top)`` takes, found without running either."""
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        for name in PATHS:
            patch.setattr(coefficients, name, lambda a, top, n=name: taken.append(n) or {})
        coefficients._q_row(a, top)
    (name,) = taken
    return name


def sweep_rows():
    """Decks of 8 to 200 cards, rounds of one card, two cards, one to four
    cards and half the deck, totalling half, once, twice and four times the
    deck, and the rows named below."""
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
    # Three or more wide rounds, and two wide rounds with a small one after.
    yield 300, (100,) * 3
    yield 500, (100,) * 5
    yield 1000, (500, 500, 1)


# Rows where the slower path takes seconds: 0.7 s and 5 s on the rounds.
WIDE_ROWS = [(1000, (300,) * 3), (1500, (500,) * 3)]


def best_time(path, a, top):
    """Seconds per call of ``path(a, top)``, the best of five timings, each
    repeating the call until it takes a millisecond or more."""
    timer = timeit.Timer(lambda: path(a, top))
    number = 1
    while (first := timer.timeit(number)) < 1e-3:
        number *= 10
    return min([first, *timer.repeat(4, number)]) / number


def shown(a):
    """Round sizes, shortened past three rounds."""
    if len(set(a)) == 1:
        return f"{a[0]}×{len(a)}"
    return ",".join(map(str, a)) if len(a) <= 3 else f"{len(a)} sizes of {min(a)}-{max(a)}"


def main():
    print(f"{'n':>6} {'a':<24} {'rounds s':>10} {'triangle s':>10}  taken      faster")
    for label, rows in (("sweep_rows", sweep_rows()), ("WIDE_ROWS", WIDE_ROWS)):
        taken_s = best_s = 0.0
        for n, a in rows:
            top = min(n, sum(a))
            times = {name: best_time(getattr(coefficients, name), a, top) for name in PATHS}
            taken, faster = path_taken(a, top), min(PATHS, key=times.get)
            taken_s, best_s = taken_s + times[taken], best_s + times[faster]
            print(
                f"{n:>6} {shown(a):<24} {times[ROUNDS]:>10.3g} {times[DIFFERENCES]:>10.3g}"
                f"  {taken.removeprefix('_row_by_'):<10} {faster.removeprefix('_row_by_')}"
            )
        print(f"{label}: taken {taken_s:.4g} s, faster path {best_s:.4g} s")


if __name__ == "__main__":
    main()
