"""Command-line front end with machine-readable output.

Every subcommand prints JSON by default (``--format text`` for tab- and
line-separated text); big numbers are rendered as decimal strings.  Exit
codes: 0 success, 1 invalid arguments or inputs, 2 enumeration cap exceeded,
3 verification mismatch.  ``TOPSHUFFLE_BRUTE_CAP`` sets the default enumeration cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from . import algebra, coefficients, probability, wreath
from .coefficients import CapExceeded, SegmentedPartition, ShuffleSpec
from .permutations import Permutation, _int_str, _json_list, _shown
from .wreath import FiniteGroup, GPermutation

ENV_CAP = "TOPSHUFFLE_BRUTE_CAP"
MAX_DIGITS = 100_000


def _spec(args) -> ShuffleSpec:
    try:
        sizes = tuple(int(x) for x in args.a.split(","))
    except ValueError:
        raise ValueError(f"cannot parse shuffle sizes {_shown(args.a)}")
    return ShuffleSpec(args.n, sizes)


def _group(args) -> FiniteGroup | None:
    if not args.group:
        return None
    kind, _, arg = args.group.partition(":")
    if kind == "cyclic":
        return FiniteGroup.cyclic(int(arg))
    if kind == "table":
        with open(arg, "r", encoding="utf-8") as handle:
            return FiniteGroup.from_json(json.load(handle))
    raise ValueError(f"unknown group spec {_shown(args.group)}; use cyclic:M or table:FILE")


def _cap(args) -> int:
    if args.cap is not None:
        return args.cap
    raw = os.environ.get(ENV_CAP)
    return int(raw) if raw else coefficients.DEFAULT_TUPLE_CAP


def _digits(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_DIGITS} digits, got {value}")
    return value


def _approx(value: Fraction, digits: int) -> str:
    """``value`` rounded half-even to ``digits`` significant digits (at least
    one) from the exact fraction, laid out as the ``g`` format lays out a float:
    fixed point for decimal exponents -4 to ``digits - 1``, else scientific,
    with trailing zeros dropped."""
    precision = max(digits, 1)
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = precision, MIN_EMIN, MAX_EMAX
        rounded = Decimal(value.numerator) / value.denominator
    exp = rounded.adjusted()
    if -4 <= exp < precision:
        text = f"{rounded:f}"
        return text.rstrip("0").rstrip(".") if "." in text else text
    coefficient = "".join(map(str, rounded.as_tuple().digits))
    mantissa = f"{coefficient[0]}.{coefficient[1:]}".rstrip("0").rstrip(".")
    return f"{mantissa}e{exp:+03d}"


def _blocks_text(blocks: list[list[int]]) -> str:
    return " | ".join(",".join(map(str, block)) for block in blocks)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  It is shared:
    callers must not mutate it.  ``parse_args`` returns a fresh namespace on
    each call, and the environment is read when a command runs, not here."""
    parser = argparse.ArgumentParser(prog="topshuffle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--n", type=int, required=True, help="deck size")
    spec.add_argument(
        "--a", type=str, required=True, help="comma-separated shuffle sizes"
    )
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument(
        "--group", type=str, default=None, help="cyclic:M or table:FILE"
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    plain, faced = [spec, fmt], [spec, group, fmt]

    def command(name, handler, parents, **kw):
        p = sub.add_parser(name, parents=parents, **kw)
        p.set_defaults(handler=handler)
        return p

    command("expand", _cmd_expand, faced, help="expansion coefficients")

    cap = "enumeration cap, in term tuples; TOPSHUFFLE_BRUTE_CAP sets the default"
    p = command("brute", _cmd_brute, faced, help="full product element by enumeration")
    p.add_argument("--cap", type=int, default=None, help=cap)

    p = command(
        "verify", _cmd_verify, faced, help="expansion against the enumeration oracle"
    )
    p.add_argument("--cap", type=int, default=None, help=cap)

    p = command("coeff", _cmd_coeff, plain, help="single expansion coefficient")
    p.add_argument("--j", type=int, required=True, help="number of touched cards")

    p = command(
        "partitions", _cmd_partitions, plain, help="stream the j-block round-partitions"
    )
    p.add_argument(
        "--j",
        type=int,
        required=True,
        help="number of blocks, up to sum(a) and not bounded by --n: for j > n "
        "no n-card deck is reached, and coeff reports 0",
    )

    p = command("phi", _cmd_phi, plain, help="round-partition of a shuffle sequence")
    p.add_argument(
        "--decks", type=str, required=True, help="JSON list of decks, one per round"
    )

    p = command(
        "phi-inverse", _cmd_phi_inverse, plain, help="shuffle sequence from a partition"
    )
    p.add_argument("--alpha", type=str, required=True, help="JSON list of blocks")
    p.add_argument("--target", type=str, required=True, help="JSON deck")

    p = command("prob", _cmd_prob, faced, help="ways and probability of a target deck")
    p.add_argument(
        "--target",
        type=str,
        required=True,
        help='JSON deck: [2,1,3] or [{"face":0,"card":2},...] with --group',
    )
    p.add_argument("--digits", type=_digits, help="also print a decimal approximation")

    p = command("stirling", _cmd_stirling, [fmt], help="Stirling set number")
    p.add_argument("--k", type=int, required=True, help="size of the set")
    p.add_argument("--j", type=int, required=True, help="number of blocks")

    p = command("bell", _cmd_bell, [fmt], help="Bell number")
    p.add_argument("--k", type=int, required=True, help="size of the set")

    return parser


# Each command yields (exit code, JSON value, text) records, and ``run`` prints
# each in the chosen format; ``partitions`` yields one record per partition.


def _cmd_expand(args):
    spec, group = _spec(args), _group(args)
    if group is None:
        result = algebra.expansion(spec)
    else:
        result = wreath.g_expansion(spec, group)
    value = {str(j): _int_str(c) for j, c in result.items()}
    yield 0, value, "\n".join(f"{j}\t{c}" for j, c in value.items())


def _element_for(spec: ShuffleSpec, group, cap: int, brute: bool):
    if group is None:
        build = algebra.brute_force_product if brute else algebra.expansion_element
        return build(spec, cap)
    build = wreath.g_brute_force_product if brute else wreath.g_expansion_element
    return build(spec, group, cap)


def _cmd_brute(args):
    spec, cap, group = _spec(args), _cap(args), _group(args)
    value = _element_for(spec, group, cap, brute=True).as_json()
    yield 0, value, "\n".join(f"{t['deck']}\t{t['coeff']}" for t in value["terms"])


def _cmd_verify(args):
    spec, cap, group = _spec(args), _cap(args), _group(args)
    oracle = _element_for(spec, group, cap, brute=True)
    expanded = _element_for(spec, group, cap, brute=False)
    # Elements compare by their raw tallies, so a match is found without
    # building a single deck object.
    if oracle == expanded:
        yield 0, {"match": True, "terms": len(oracle)}, "match"
        return
    raw = min(r for r, _ in oracle._raw.items() ^ expanded._raw.items())
    got, want = _int_str(expanded._raw.get(raw, 0)), _int_str(oracle._raw.get(raw, 0))
    term = oracle._decode(raw)
    value = {
        "match": False,
        "deck": term.as_json(),
        "expansion": got,
        "brute_force": want,
    }
    yield 3, value, f"mismatch at {term.as_json()}: expansion {got}, brute {want}"


def _cmd_coeff(args):
    value = _int_str(coefficients.q_cardinality(_spec(args), args.j))
    yield 0, {"j": args.j, "coefficient": value}, value


def _cmd_partitions(args):
    for alpha in coefficients.iter_segmented_partitions(_spec(args), args.j):
        blocks = alpha.as_json()
        yield 0, blocks, _blocks_text(blocks)


def _cmd_phi(args):
    spec = _spec(args)
    decks = _json_list(json.loads(args.decks))
    sigmas = tuple(Permutation.from_json(d) for d in decks)
    blocks = coefficients.phi(sigmas, spec).as_json()
    yield 0, blocks, _blocks_text(blocks)


def _cmd_phi_inverse(args):
    spec = _spec(args)
    alpha = SegmentedPartition.from_json(json.loads(args.alpha))
    target = Permutation.from_json(json.loads(args.target))
    sigmas = coefficients.phi_inverse(alpha, target, spec)
    text = "\n".join(",".join(str(c) for c in s.deck) for s in sigmas)
    yield 0, [s.as_json() for s in sigmas], text


def _cmd_prob(args):
    spec = _spec(args)
    target_data = json.loads(args.target)
    group = _group(args)
    if group is None:
        target = Permutation.from_json(target_data)
        ways = probability.ways_to_reach(target, spec)
        outcomes = probability.total_outcomes(spec)
    else:
        target = GPermutation.from_json(target_data)
        ways = probability.g_ways_to_reach(target, spec, group)
        outcomes = probability.g_total_outcomes(spec, group)
    prob = Fraction(ways, outcomes)
    rational = probability.rational_as_json(prob)
    value = {
        "ways": _int_str(ways),
        "outcomes": _int_str(outcomes),
        "probability": rational,
    }
    text = (
        f"ways = {value['ways']}\noutcomes = {value['outcomes']}\n"
        f"probability = {rational['num']}/{rational['den']}"
    )
    if args.digits is not None:
        value["approx"] = _approx(prob, args.digits)
        text += f"\napprox = {value['approx']}"
    yield 0, value, text


def _cmd_stirling(args):
    value = _int_str(coefficients.stirling2(args.k, args.j))
    yield 0, {"value": value}, value


def _cmd_bell(args):
    value = _int_str(coefficients.bell(args.k))
    yield 0, {"value": value}, value


def run(argv: Sequence[str]) -> int:
    """Parse and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, but 2 is the cap's code: usage errors exit 1.
        return 1 if exc.code else 0
    code = 0
    try:
        for code, value, text in args.handler(args):
            print(text if args.format == "text" else json.dumps(value))
        return code
    except CapExceeded as exc:
        print(f"topshuffle: {exc}", file=sys.stderr)
        return 2
    # No function of the package calls itself, so a ``RecursionError`` comes
    # from decoding input, such as JSON nested too deep.
    except (ValueError, OSError, RecursionError) as exc:
        print(f"topshuffle: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
