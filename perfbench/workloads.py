"""Seeded job lists, the timed call for each job, and its output check.

A workload is a template of job shapes repeated in rounds.  The seed and
the round number pick what varies inside a shape (the order of the shuffle
sizes, target decks and faces), never the shape itself, so every round of
every seed costs about the same and two seeds can be compared.
Checks use ``reference`` only and run outside the timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass

import reference


@dataclass
class Job:
    kind: str
    describe: list  # JSON-able inputs; hashed into the round digest
    spec: tuple  # (n, shuffle sizes, group order; 1 when plain)
    tuples: int  # shuffle tuples the job covers; 0 when it covers none
    payload: tuple  # what the timed call receives
    expect: dict  # reference data for the check


@dataclass
class Context:
    ts: object  # the topshuffle package
    cli: object  # topshuffle.cli
    s3_file: str  # the S3 multiplication table, written at setup


def cli_run(ctx: Context, job: Job):
    """The timed call of the CLI workloads: ``cli.run`` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctx.cli.run(job.payload[0])
    return rc, out.getvalue(), err.getvalue()


def _sizes(a) -> str:
    return ",".join(map(str, a))


def _arrange(rng, first: int, rest: tuple[int, ...]) -> tuple[int, ...]:
    """Keep the first size and shuffle the rest: the anchor-tuple count of
    every ``j`` depends only on those, so the kernel's work is fixed."""
    return (first,) + tuple(rng.sample(rest, len(rest)))


def _cli_output(rc: int, out: str, err: str):
    if rc != 0:
        raise ValueError(f"exit code {rc}: {err.strip()[:200]}")
    return json.loads(out)


# --- closed-form -----------------------------------------------------------

# (n, first size, other sizes, group order or 1 for plain, coeff point
# queries j, prob targets).  A prob target is (minimum shuffle size,
# highest card showing a non-identity face).  Every spec gets one full row
# and several point reads of the same spec.  The group order is fixed here
# because the tuples a faced spec covers grow as ``order**sum(a)``.
CLOSED_FORM = (
    (52, 1, (1,) * 15, 1, (5, 8, 11), ((2, 0), (8, 0))),
    (52, 1, (1,) * 13, 1, (4, 7, 10), ((3, 0), (7, 0))),
    (52, 1, (1,) * 11, 3, (), ((2, 2), (6, 4))),
    (12, 1, (1,) * 15, 1, (6, 9), ((4, 0),)),
    (52, 2, (1, 1, 2, 2, 3, 3, 1, 2), 1, (6, 10), ((3, 0), (9, 0))),
    (52, 3, (1, 2, 3, 1, 2, 2, 1), 5, (), ((4, 3),)),
    (52, 2, (3, 1, 2, 1, 3, 2, 1, 1, 2, 1), 1, (7, 12), ((5, 0),)),
)


def closed_form_round(rng, ctx: Context, template) -> list[Job]:
    jobs = []
    for n, first, rest, order, js, probs in template:
        a = _arrange(rng, first, rest)
        spec = ["--n", str(n), "--a", _sizes(a)]
        group = ["--group", f"cyclic:{order}"] if order > 1 else []
        row = reference.coefficient_row(n, a)
        tuples = reference.outcomes(n, a, order)
        expect = {"row": row}
        argv = ["expand"] + spec + group
        jobs.append(Job("expand", argv, (n, a, order), tuples, (argv,), expect))
        for j in js:
            argv = ["coeff"] + spec + ["--j", str(j)]
            plain = reference.outcomes(n, a)
            jobs.append(Job("coeff", argv, (n, a, 1), plain, (argv,), dict(expect, j=j)))
        for m, faced_cards in probs:
            deck = reference.random_deck(rng, n, m)
            faces = [0] * (n + 1)
            for card in range(1, faced_cards + 1):
                faces[card] = rng.randrange(order)
            if faced_cards:
                faces[faced_cards] = rng.randrange(1, order)
            if order > 1:
                target = [{"face": faces[c], "card": c} for c in deck]
            else:
                target = list(deck)
            argv = ["prob"] + spec + group + ["--target", json.dumps(target)]
            lo = max(max(a), m, faced_cards)
            jobs.append(Job("prob", argv, (n, a, order), tuples, (argv,), dict(expect, lo=lo)))
    rng.shuffle(jobs)
    return jobs


def closed_form_check(job: Job, output) -> str | None:
    got = _cli_output(*output)
    e = job.expect
    n, a, order = job.spec
    row = e["row"]
    total = sum(a)
    if job.kind == "expand":
        coeffs = {int(j): int(c) for j, c in got.items()}
        if order == 1:
            if not reference.mass_holds(n, a, coeffs):
                return "mass identity fails"
            if set(a) == {1} and n >= len(a):
                stirling = reference.stirling_row(len(a))
                if any(stirling[j] != c for j, c in coeffs.items()):
                    return "all-singles row differs from Stirling numbers"
        want = {j: q * order ** (total - j) for j, q in row.items()}
        return None if coeffs == want else "row differs from the reference row"
    if job.kind == "coeff":
        want = {"j": e["j"], "coefficient": str(row.get(e["j"], 0))}
        return None if got == want else f"coefficient {got} != {want}"
    ways = reference.ways(row, e["lo"], lambda j: order ** (total - j))
    outcomes = reference.outcomes(n, a, order)
    want = {
        "ways": str(ways),
        "outcomes": str(outcomes),
        "probability": reference.probability_json(ways, outcomes),
    }
    return None if got == want else "prob differs from ways/outcomes"


# --- oracle-plain and oracle-faced ----------------------------------------

# (group, n, first size, other sizes); group None is plain.  1e4 to 4e5
# tuples each.  k=2 specs share no prefix; k>=3 specs share prefixes in the
# oracle walk.  Costs come in blocks of similar jobs (4 small, 6 middle,
# 3 upper, 3 top), so that p50 and p90 fall inside a block rather than on
# a gap between two jobs.  The top jobs, which set the peak memory, have
# one arrangement only, so the seed cannot move it.
ORACLE_PLAIN = (
    (None, 5, 1, (1, 2, 2)),
    (None, 5, 2, (2, 3)),
    (None, 5, 1, (3, 3)),
    (None, 5, 1, (2, 2, 2)),
    (None, 5, 3, (3, 3)),
    (None, 6, 2, (2, 3)),
    (None, 6, 1, (2, 2, 2)),
    (None, 6, 1, (3, 3)),
    (None, 6, 3, (4,)),
    (None, 5, 2, (2, 2, 2)),
    (None, 7, 2, (4,)),
    (None, 7, 2, (2, 2)),
    (None, 7, 3, (3,)),
    (None, 7, 3, (4,)),
    (None, 7, 1, (3, 3)),
    (None, 7, 3, (2, 2)),
)

# 5e2 to 1.6e5 tuples each, in the same four blocks.
ORACLE_FACED = (
    ("cyclic:2", 3, 2, (2,)),
    ("cyclic:3", 3, 2, (2,)),
    ("cyclic:2", 4, 2, (2,)),
    ("S3", 3, 1, (2,)),
    ("cyclic:3", 3, 1, (2, 2)),
    ("cyclic:2", 4, 1, (2, 2)),
    ("cyclic:2", 3, 2, (2, 1, 1)),
    ("cyclic:3", 4, 1, (3,)),
    ("S3", 3, 1, (3,)),
    ("cyclic:3", 4, 2, (2,)),
    ("cyclic:3", 4, 1, (1, 2)),
    ("S3", 4, 1, (2,)),
    ("S3", 3, 2, (2,)),
    ("S3", 3, 1, (1, 1, 1)),
    ("cyclic:2", 4, 2, (2, 2)),
    ("cyclic:3", 3, 2, (2, 2)),
)

ORDERS = {None: 1, "cyclic:2": 2, "cyclic:3": 3, "S3": 6}


def oracle_round(rng, ctx: Context, template) -> list[Job]:
    jobs = []
    for group, n, first, rest in template:
        a = _arrange(rng, first, rest)
        order = ORDERS[group]
        argv = ["verify", "--n", str(n), "--a", _sizes(a)]
        describe = list(argv)
        if group:
            # The S3 table's path differs between checkouts; the digest
            # names the group instead.
            argv += ["--group", f"table:{ctx.s3_file}" if group == "S3" else group]
            describe += ["--group", group]
        top = min(sum(a), n)
        expect = {"terms": math.perm(n, top) * order**top}
        tuples = reference.outcomes(n, a, order)
        jobs.append(Job("verify", describe, (n, a, order), tuples, (argv,), expect))
    rng.shuffle(jobs)
    return jobs


def oracle_check(job: Job, output) -> str | None:
    got = _cli_output(*output)
    want = {"match": True, "terms": job.expect["terms"]}
    return None if got == want else f"verify gave {got}, want {want}"


# --- bijection --------------------------------------------------------------

# Specs from the acceptance bijection family (n <= 6, slot total <= 7).
# Walk jobs run phi then phi_inverse on every tuple; partition jobs list
# every round-partition of every block count.  Same four cost blocks as the
# oracle templates, the partition jobs being the small one.
BIJECTION = (
    ("partitions", 6, (1, 1, 1, 1, 1, 1, 1)),
    ("partitions", 6, (1, 1, 1, 2, 2)),
    ("partitions", 6, (1, 2, 2, 2)),
    ("partitions", 5, (1, 1, 1, 1, 3)),
    ("walk", 4, (1, 2, 3)),
    ("walk", 6, (1, 1, 2)),
    ("walk", 4, (1, 1, 1, 1, 1)),
    ("walk", 6, (1, 1, 1, 1)),
    ("walk", 5, (1, 1, 3)),
    ("walk", 4, (2, 2, 2)),
    ("walk", 5, (2, 4)),
    ("walk", 6, (1, 4)),
    ("walk", 5, (1, 2, 2)),
    ("walk", 5, (1, 1, 4)),
    ("walk", 5, (1, 1, 1, 2)),
    ("walk", 5, (3, 3)),
)


def _tuple_pairs(ts, n: int, a: tuple[int, ...]) -> list:
    """Every shuffle tuple of the spec with its left-to-right composite."""
    factors = [
        [(d, ts.Permutation(d)) for d in reference.shuffle_decks(x, n)] for x in a
    ]
    finals: dict = {}
    pairs: list = []

    def walk(depth, deck, sigmas):
        if depth == len(a):
            t = finals.get(deck)
            if t is None:
                t = finals[deck] = ts.Permutation(deck)
            pairs.append((sigmas, t))
            return
        for d, p in factors[depth]:
            walk(depth + 1, reference.compose(deck, d), sigmas + (p,))

    walk(0, tuple(range(1, n + 1)), ())
    return pairs


def bijection_round(rng, ctx: Context, template) -> list[Job]:
    jobs = []
    for kind, n, sizes in template:
        a = tuple(rng.sample(sizes, len(sizes)))
        spec = ctx.ts.ShuffleSpec(n, a)
        expect = {"row": reference.coefficient_row(n, a)}
        if kind == "walk":
            pairs = _tuple_pairs(ctx.ts, n, a)
            job = Job(kind, [kind, n, list(a)], (n, a, 1), len(pairs), (spec, pairs), expect)
        else:
            job = Job(kind, [kind, n, list(a)], (n, a, 1), 0, (spec,), expect)
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def bijection_run(ctx: Context, job: Job):
    ts = ctx.ts
    if job.kind == "walk":
        spec, pairs = job.payload
        out = []
        for sigmas, t in pairs:
            alpha = ts.phi(sigmas, spec)
            out.append((alpha, ts.phi_inverse(alpha, t, spec)))
        return out
    (spec,) = job.payload
    return {
        j: list(ts.iter_segmented_partitions(spec, j)) for j in job.expect["row"]
    }


def bijection_check(job: Job, output) -> str | None:
    n, a, _ = job.spec
    row = job.expect["row"]
    if job.kind == "partitions":
        for j, parts in output.items():
            blocks = [tuple(sorted(map(tuple, map(sorted, p.parts)))) for p in parts]
            if len(parts) != row[j] or len(set(blocks)) != row[j]:
                return f"{len(parts)} partitions with {j} blocks, want {row[j]}"
            for b in blocks:
                if len(b) != j or sorted(e for part in b for e in part) != list(
                    range(1, sum(a) + 1)
                ) or not reference.respects_rounds(b, a):
                    return f"invalid partition {b}"
        return None
    _, pairs = job.payload
    fibers: Counter = Counter()
    alphas: dict = {}
    for (sigmas, t), (alpha, back) in zip(pairs, output):
        if back != sigmas:
            return f"phi_inverse(phi(x)) != x at {[s.deck for s in sigmas]}"
        key = (alpha.j, t.deck)
        fibers[key] += 1
        alphas.setdefault(key, set()).add(alpha.parts)
    if len(output) != len(pairs):
        return "missing outputs"
    decks_per_j = Counter(j for j, _ in fibers)
    for j in row:
        if decks_per_j[j] != math.perm(n, j):
            return f"{decks_per_j[j]} final decks with {j} blocks"
    for key, count in fibers.items():
        if count != row.get(key[0]) or len(alphas[key]) != count:
            return f"fiber {key} has {count} tuples, want {row.get(key[0])}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # (rng, ctx, template) -> list[Job]
    run: object  # (ctx, job) -> output; the timed call
    check: object  # (job, output) -> error message or None
    template: tuple  # job shapes of one measured round
    warmup: tuple  # small shapes run once at setup


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "closed-form",
            closed_form_round,
            cli_run,
            closed_form_check,
            CLOSED_FORM,
            ((8, 1, (1, 1, 1), 1, (2,), ((1, 0),)), (8, 2, (1,), 2, (), ((2, 1),))),
        ),
        Workload(
            "oracle-plain",
            oracle_round,
            cli_run,
            oracle_check,
            ORACLE_PLAIN,
            ((None, 4, 1, (2,)), (None, 4, 1, (1, 2))),
        ),
        Workload(
            "oracle-faced",
            oracle_round,
            cli_run,
            oracle_check,
            ORACLE_FACED,
            (("cyclic:2", 3, 1, (1,)), ("S3", 2, 1, (1,))),
        ),
        Workload(
            "bijection",
            bijection_round,
            bijection_run,
            bijection_check,
            BIJECTION,
            (("walk", 3, (1, 2)), ("partitions", 4, (1, 1, 2))),
        ),
    )
}
