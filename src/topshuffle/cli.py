"""Command-line front end with machine-readable output.

Every subcommand prints JSON by default (``--format text`` for aligned
text); big numbers are rendered as decimal strings.  Exit codes: 0 success,
1 invalid arguments or inputs, 2 enumeration cap exceeded, 3 verification
mismatch.  ``TOPSHUFFLE_BRUTE_CAP`` sets the default enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import algebra, coefficients, probability, wreath
from .coefficients import SegmentedPartition, ShuffleSpec
from .errors import CapExceeded
from .permutations import Permutation, _json_list
from .wreath import FiniteGroup, GPermutation

ENV_CAP = "TOPSHUFFLE_BRUTE_CAP"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for resource
    caps, so usage errors exit 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse shuffle sizes {text!r}")


def _parse_group(text: str) -> FiniteGroup:
    kind, _, arg = text.partition(":")
    if kind == "cyclic":
        return FiniteGroup.cyclic(int(arg))
    if kind == "table":
        with open(arg, "r", encoding="utf-8") as handle:
            return FiniteGroup.from_json(json.load(handle))
    raise ValueError(f"unknown group spec {text!r}; use cyclic:M or table:FILE")


def _default_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    return int(raw) if raw else algebra.DEFAULT_TUPLE_CAP


def _print_json(data) -> None:
    print(json.dumps(data))


def _add_spec_args(sub: argparse.ArgumentParser, group: bool = True) -> None:
    sub.add_argument("--n", type=int, required=True, help="deck size")
    sub.add_argument(
        "--a", type=str, required=True, help="comma-separated shuffle sizes"
    )
    if group:
        sub.add_argument(
            "--group", type=str, default=None, help="cyclic:M or table:FILE"
        )
    sub.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topshuffle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("expand", help="expansion coefficients")
    _add_spec_args(p)

    p = sub.add_parser(
        "brute", help="full product element by enumeration"
    )
    _add_spec_args(p)
    p.add_argument("--cap", type=int, default=None, help="tuple enumeration cap")

    p = sub.add_parser(
        "verify", help="expansion against the enumeration oracle"
    )
    _add_spec_args(p)
    p.add_argument("--cap", type=int, default=None)

    p = sub.add_parser("coeff", help="single expansion coefficient")
    _add_spec_args(p, group=False)
    p.add_argument("--j", type=int, required=True, help="number of touched cards")

    p = sub.add_parser(
        "partitions", help="stream the j-block round-partitions"
    )
    _add_spec_args(p, group=False)
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser(
        "phi", help="round-partition of a shuffle sequence"
    )
    _add_spec_args(p, group=False)
    p.add_argument(
        "--decks", type=str, required=True, help="JSON list of decks, one per round"
    )

    p = sub.add_parser(
        "phi-inverse", help="shuffle sequence from a partition"
    )
    _add_spec_args(p, group=False)
    p.add_argument("--alpha", type=str, required=True, help="JSON list of blocks")
    p.add_argument("--target", type=str, required=True, help="JSON deck")

    p = sub.add_parser(
        "prob", help="ways and probability of a target deck"
    )
    _add_spec_args(p)
    p.add_argument(
        "--target",
        type=str,
        required=True,
        help='JSON deck: [2,1,3] or [{"face":0,"card":2},...] with --group',
    )
    p.add_argument(
        "--digits", type=int, default=None, help="also print a decimal approximation"
    )

    p = sub.add_parser("stirling", help="Stirling set number")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("bell", help="Bell number")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def _cmd_expand(args) -> int:
    spec = ShuffleSpec(args.n, _parse_sizes(args.a))
    if args.group:
        result = wreath.g_expansion(spec, _parse_group(args.group))
    else:
        result = algebra.expansion(spec)
    if args.format == "text":
        for j, c in result.items():
            print(f"{j}\t{c}")
    else:
        _print_json({str(j): str(c) for j, c in result.items()})
    return 0


def _element_for(spec: ShuffleSpec, group, cap: int, brute: bool):
    if group is None:
        return (
            algebra.brute_force_product(spec, cap)
            if brute
            else algebra.expansion_element(spec, cap)
        )
    return (
        wreath.g_brute_force_product(spec, group, cap)
        if brute
        else wreath.g_expansion_element(spec, group, cap)
    )


def _cmd_brute(args) -> int:
    spec = ShuffleSpec(args.n, _parse_sizes(args.a))
    cap = args.cap if args.cap is not None else _default_cap()
    group = _parse_group(args.group) if args.group else None
    element = _element_for(spec, group, cap, brute=True)
    if args.format == "text":
        for term, c in element.sorted_terms():
            print(f"{term.as_json()}\t{c}")
    else:
        _print_json(element.as_json())
    return 0


def _cmd_verify(args) -> int:
    spec = ShuffleSpec(args.n, _parse_sizes(args.a))
    cap = args.cap if args.cap is not None else _default_cap()
    group = _parse_group(args.group) if args.group else None
    oracle = _element_for(spec, group, cap, brute=True)
    expanded = _element_for(spec, group, cap, brute=False)
    if oracle == expanded:
        if args.format == "text":
            print("match")
        else:
            _print_json({"match": True, "terms": len(oracle)})
        return 0
    terms = sorted(set(oracle.terms) | set(expanded.terms), key=oracle._sort_key)
    term = next(t for t in terms if expanded.coefficient(t) != oracle.coefficient(t))
    got, want = expanded.coefficient(term), oracle.coefficient(term)
    if args.format == "text":
        print(f"mismatch at {term.as_json()}: expansion {got}, brute {want}")
    else:
        _print_json(
            {
                "match": False,
                "deck": term.as_json(),
                "expansion": str(got),
                "brute_force": str(want),
            }
        )
    return 3


def _cmd_coeff(args) -> int:
    spec = ShuffleSpec(args.n, _parse_sizes(args.a))
    value = coefficients.q_cardinality(spec, args.j)
    if args.format == "text":
        print(value)
    else:
        _print_json({"j": args.j, "coefficient": str(value)})
    return 0


def _cmd_partitions(args) -> int:
    spec = ShuffleSpec(args.n, _parse_sizes(args.a))
    for alpha in coefficients.iter_segmented_partitions(spec, args.j):
        if args.format == "text":
            print(" | ".join(",".join(str(e) for e in sorted(p)) for p in alpha.parts))
        else:
            print(json.dumps(alpha.as_json()))
    return 0


def _cmd_phi(args) -> int:
    spec = ShuffleSpec(args.n, _parse_sizes(args.a))
    decks = _json_list(json.loads(args.decks))
    sigmas = tuple(Permutation.from_json(d) for d in decks)
    alpha = coefficients.phi(sigmas, spec)
    if args.format == "text":
        print(" | ".join(",".join(str(e) for e in sorted(p)) for p in alpha.parts))
    else:
        _print_json(alpha.as_json())
    return 0


def _cmd_phi_inverse(args) -> int:
    spec = ShuffleSpec(args.n, _parse_sizes(args.a))
    alpha = SegmentedPartition.from_json(json.loads(args.alpha))
    target = Permutation.from_json(json.loads(args.target))
    sigmas = coefficients.phi_inverse(alpha, target, spec)
    if args.format == "text":
        for s in sigmas:
            print(",".join(str(c) for c in s.deck))
    else:
        _print_json([s.as_json() for s in sigmas])
    return 0


def _cmd_prob(args) -> int:
    spec = ShuffleSpec(args.n, _parse_sizes(args.a))
    target_data = json.loads(args.target)
    if args.group:
        group = _parse_group(args.group)
        target = GPermutation.from_json(target_data)
        ways = probability.g_ways_to_reach(target, spec, group)
        outcomes = probability.g_total_outcomes(spec, group)
    else:
        target = Permutation.from_json(target_data)
        ways = probability.ways_to_reach(target, spec)
        outcomes = probability.total_outcomes(spec)
    prob = Fraction(ways, outcomes)
    if args.format == "text":
        print(f"ways = {ways}")
        print(f"outcomes = {outcomes}")
        print(f"probability = {prob.numerator}/{prob.denominator}")
        if args.digits is not None:
            print(f"approx = {float(prob):.{args.digits}g}")
    else:
        data = {
            "ways": str(ways),
            "outcomes": str(outcomes),
            "probability": probability.rational_as_json(prob),
        }
        if args.digits is not None:
            data["approx"] = f"{float(prob):.{args.digits}g}"
        _print_json(data)
    return 0


def _cmd_stirling(args) -> int:
    value = coefficients.stirling2(args.k, args.j)
    print(value if args.format == "text" else json.dumps({"value": str(value)}))
    return 0


def _cmd_bell(args) -> int:
    value = coefficients.bell(args.k)
    print(value if args.format == "text" else json.dumps({"value": str(value)}))
    return 0


_COMMANDS = {
    "expand": _cmd_expand,
    "brute": _cmd_brute,
    "verify": _cmd_verify,
    "coeff": _cmd_coeff,
    "partitions": _cmd_partitions,
    "phi": _cmd_phi,
    "phi-inverse": _cmd_phi_inverse,
    "prob": _cmd_prob,
    "stirling": _cmd_stirling,
    "bell": _cmd_bell,
}


def run(argv: Sequence[str]) -> int:
    """Parse and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CapExceeded as exc:
        print(f"topshuffle: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"topshuffle: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
