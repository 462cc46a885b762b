"""Command-line interface: outputs, round-trips, and exit codes."""

import argparse
import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topshuffle import (
    AlgebraElement,
    FiniteGroup,
    GAlgebraElement,
    SegmentedPartition,
    ShuffleSpec,
    brute_force_product,
    g_brute_force_product,
)
from topshuffle import algebra, cli
from topshuffle.cli import ENV_CAP, MAX_DIGITS, build_parser, run
from topshuffle.permutations import _int_str


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_three_singles(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "5", "--a", "1,1,1")
    assert code == 0
    assert json.loads(out) == {"1": "1", "2": "3", "3": "1"}


def test_expand_with_cyclic_group(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "2", "--a", "1,1", "--group", "cyclic:2")
    assert code == 0
    assert json.loads(out) == {"1": "2", "2": "1"}


def test_cyclic_group_past_the_cap_exits_2(capsys):
    # The smallest refused order, so that a missing check costs tens of MB.
    m = math.isqrt(algebra.DEFAULT_TUPLE_CAP) + 1
    argv = ["expand", "--n", "2", "--a", "1", "--group"]
    code, out, err = run_cli(capsys, *argv, f"cyclic:{m}")
    assert code == 2 and out == "" and "table cells" in err
    assert run_cli(capsys, *argv, "cyclic:2000")[0] == 0


def test_expand_answers_a_huge_single_shuffle(capsys):
    huge = str(10**30)
    code, out, err = run_cli(capsys, "expand", "--n", huge, "--a", huge)
    assert (code, err) == (0, "")
    assert out == f'{{"{huge}": "1"}}\n'


def test_expand_text_format(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "3", "--a", "1,1", "--format", "text")
    assert code == 0
    assert out.splitlines() == ["1\t1", "2\t1"]


def test_expand_with_table_file(tmp_path, capsys):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(FiniteGroup.cyclic(3).as_json()))
    code, out, _ = run_cli(
        capsys, "expand", "--n", "2", "--a", "1,1", "--group", f"table:{path}"
    )
    assert code == 0
    assert json.loads(out) == {"1": "3", "2": "1"}


def test_invalid_table_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "cayley": [[1, 0], [0, 1]]}))
    code, _, err = run_cli(
        capsys, "expand", "--n", "2", "--a", "1", "--group", f"table:{path}"
    )
    assert code == 1
    assert "identity" in err


def test_brute_output_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "brute", "--n", "3", "--a", "1,1")
    assert code == 0
    element = AlgebraElement.from_json(json.loads(out))
    assert element == brute_force_product(ShuffleSpec(3, (1, 1)))


def test_brute_group_output_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "brute", "--n", "2", "--a", "1,1", "--group", "cyclic:2")
    assert code == 0
    element = GAlgebraElement.from_json(json.loads(out))
    assert element == g_brute_force_product(ShuffleSpec(2, (1, 1)), FiniteGroup.cyclic(2))


def test_verify_match_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--a", "2,2")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_group_match_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--a", "2,1", "--group", "cyclic:2")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_coeff(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--n", "4", "--a", "2,2", "--j", "3")
    assert code == 0
    assert json.loads(out) == {"j": 3, "coefficient": "4"}


def test_partitions_streams_json_lines(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "3", "--a", "1,1,1", "--j", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3
    for data in lines:
        SegmentedPartition.from_json(data)  # parses back cleanly


def test_partitions_streams_1200_rounds(capsys):
    sizes = ",".join(["1"] * 1200)
    code, out, err = run_cli(capsys, "partitions", "--n", "2", "--a", sizes, "--j", "1")
    assert (code, err) == (0, "")
    assert [json.loads(line) for line in out.splitlines()] == [[list(range(1, 1201))]]


def test_phi_and_inverse_roundtrip_through_cli(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--n", "3", "--a", "1,1", "--decks", "[[2,1,3],[2,3,1]]"
    )
    assert code == 0
    alpha = json.loads(out)
    assert alpha == [[1], [2]]
    code, out, _ = run_cli(
        capsys,
        "phi-inverse",
        "--n",
        "3",
        "--a",
        "1,1",
        "--alpha",
        json.dumps(alpha),
        "--target",
        "[1,3,2]",
    )
    assert code == 0
    decks = json.loads(out)
    assert len(decks) == 2


def test_prob_plain(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "--n", "5", "--a", "2,1", "--target", "[2,1,3,4,5]"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ways"] == "3"
    assert data["outcomes"] == "100"
    assert data["probability"] == {"num": "3", "den": "100"}


def test_prob_group(capsys):
    target = json.dumps([{"face": 1, "card": 1}, {"face": 0, "card": 2}])
    code, out, _ = run_cli(
        capsys, "prob", "--n", "2", "--a", "1", "--group", "cyclic:2",
        "--target", target, "--digits", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["probability"] == {"num": "1", "den": "4"}
    assert data["approx"] == "0.25"


def test_stirling_and_bell(capsys):
    code, out, _ = run_cli(capsys, "stirling", "--k", "5", "--j", "3")
    assert code == 0
    assert json.loads(out) == {"value": "25"}
    code, out, _ = run_cli(capsys, "bell", "--k", "3")
    assert code == 0
    assert json.loads(out) == {"value": "5"}


def test_large_stirling_and_bell_exit_0(capsys):
    code, out, _ = run_cli(capsys, "stirling", "--k", "1500", "--j", "700")
    assert code == 0
    assert int(json.loads(out)["value"]) > 0
    code, out, _ = run_cli(capsys, "bell", "--k", "1200")
    assert code == 0
    assert int(json.loads(out)["value"]) > 0


def test_stirling_and_bell_past_the_cell_cap_exit_2(capsys):
    code, out, err = run_cli(capsys, "bell", "--k", "100000")
    assert (code, out) == (2, "")
    assert "above the cap of" in err
    assert run_cli(capsys, "stirling", "--k", "100000", "--j", "50000")[0] == 2


def parse_int(text):
    """``int(text)`` past the interpreter's limit on decimal digits."""
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_int_str_is_exact_on_both_sides_of_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for digits in (1, limit - 1, limit, limit + 1, 2 * limit):
        assert _int_str(10**digits - 1) == "9" * digits
        assert _int_str(-(10**digits)) == "-1" + "0" * digits
    widest_str = 2 ** (3 * limit) - 1  # the largest int rendered by ``str``
    assert _int_str(widest_str) == str(widest_str)
    assert parse_int(_int_str(widest_str + 1)) == widest_str + 1


def test_int_str_past_the_digit_limit_matches_str_at_chunk_edges():
    # Past the limit, ``_int_str`` joins ``2**12``-bit chunks: try lengths
    # on both sides of a chunk edge, with odd and even chunk counts.
    limit = sys.get_int_max_str_digits()
    rng = random.Random(0)
    values = []
    for bits in (3 * limit + 1, 4 * 4096 - 1, 4 * 4096, 4 * 4096 + 1, 5 * 4096 + 7, 10**5):
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        values += [x, -x, 1 << (bits - 1), (1 << bits) - 1]
    got = list(map(_int_str, values))
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert got == list(map(str, values))
    finally:
        sys.set_int_max_str_digits(limit)


def test_integers_past_the_str_digit_limit_are_printed(capsys):
    code, out, _ = run_cli(capsys, "stirling", "--k", "15000", "--j", "2")
    assert code == 0
    value = json.loads(out)["value"]
    assert len(value) > sys.get_int_max_str_digits()
    assert parse_int(value) == 2**14999 - 1

    singles = ("--n", "52", "--a", ",".join(["1"] * 3000))
    code, out, _ = run_cli(capsys, "expand", *singles)
    assert code == 0
    mass = sum(parse_int(c) * math.perm(52, int(j)) for j, c in json.loads(out).items())
    assert mass == 52**3000

    target = json.dumps(list(range(1, 53)))
    code, out, _ = run_cli(capsys, "prob", *singles, "--target", target)
    assert code == 0
    data = json.loads(out)
    assert parse_int(data["outcomes"]) == 52**3000
    ways = parse_int(data["ways"])
    num, den = data["probability"]["num"], data["probability"]["den"]
    assert Fraction(parse_int(num), parse_int(den)) == Fraction(ways, 52**3000)
    text = ("--format", "text")
    code, out, _ = run_cli(capsys, "prob", *singles, "--target", target, *text)
    assert code == 0
    assert out.splitlines() == [
        f"ways = {data['ways']}",
        f"outcomes = {data['outcomes']}",
        f"probability = {num}/{den}",
    ]


def test_non_integer_target_exits_1(capsys):
    target = "[1.9, 2.2]"
    assert run_cli(capsys, "prob", "--n", "2", "--a", "1", "--target", target)[0] == 1


def test_non_integer_partition_exits_1(capsys):
    for alpha in ("[[true,2],[3]]", "[[1.5,2],[3]]"):
        code, out, err = run_cli(
            capsys, "phi-inverse", "--n", "3", "--a", "1,2",
            "--alpha", alpha, "--target", "[2,1,3]",
        )
        assert (code, out) == (1, "")
        assert "not an integer" in err


def test_invalid_arguments_exit_1(capsys):
    assert run_cli(capsys, "expand", "--n", "0", "--a", "1")[0] == 1
    assert run_cli(capsys, "expand", "--n", "3", "--a", "x")[0] == 1
    assert run_cli(capsys, "expand", "--n", "3", "--a", "1", "--bogus")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "prob", "--n", "2", "--a", "1", "--target", "not json")[0] == 1


def test_cap_exceeded_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "brute", "--n", "5", "--a", "3,3", "--cap", "10"
    )
    assert code == 2
    assert "cap" in err


def test_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("TOPSHUFFLE_BRUTE_CAP", "10")
    assert run_cli(capsys, "brute", "--n", "5", "--a", "3,3")[0] == 2
    monkeypatch.setenv("TOPSHUFFLE_BRUTE_CAP", "10000")
    assert run_cli(capsys, "brute", "--n", "5", "--a", "3,3")[0] == 0


@pytest.mark.parametrize("command", ["brute", "verify"])
def test_negative_cap_exits_1(capsys, monkeypatch, command):
    argv = [command, "--n", "3", "--a", "1,1"]
    expected = (1, "", "topshuffle: error: cap must be nonnegative\n")
    assert run_cli(capsys, *argv, "--cap", "-5") == expected
    monkeypatch.setenv(ENV_CAP, "-5")
    assert run_cli(capsys, *argv) == expected
    # A cap of 0 is valid, and no tuple fits under it.
    assert run_cli(capsys, *argv, "--cap", "0")[0] == 2


def test_mismatch_exit_code_3(capsys, monkeypatch):
    # Force a wrong expansion to check the mismatch channel end to end.
    from topshuffle import cli as cli_module

    def broken(spec, group, cap, brute):
        if brute:
            return brute_force_product(spec, cap)
        element = brute_force_product(spec, cap)
        return element + AlgebraElement(spec.n, {next(iter(element.terms)): 1})

    monkeypatch.setattr(cli_module, "_element_for", broken)
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--a", "1,1")
    assert code == 3
    data = json.loads(out)
    assert data["match"] is False
    assert data["expansion"] != data["brute_force"]


@pytest.mark.parametrize(
    "group, text",
    [(None, False), ("cyclic:2", False), (None, True), ("cyclic:2", True)],
    ids=["plain", "faced", "plain-text", "faced-text"],
)
def test_tally_mismatch_exit_code_3(capsys, monkeypatch, group, text):
    # One raw entry of the expansion's tally gets 1 more, so the two sides
    # are still compared tally to tally when the mismatch is found.
    element_for = cli._element_for

    def broken(spec, group, cap, brute):
        element = element_for(spec, group, cap, brute)
        if brute:
            return element
        tally = dict(element._raw)
        tally[next(iter(tally))] += 1
        return type(element)._of_tally(element._space, tally)

    monkeypatch.setattr(cli, "_element_for", broken)
    argv = ["verify", "--n", "3", "--a", "1,1"] + (["--group", group] if group else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    data = json.loads(out)
    assert data["match"] is False
    assert data["expansion"] != data["brute_force"]
    if group:
        assert [set(c) for c in data["deck"]] == [{"face", "card"}] * 3
    else:
        assert sorted(data["deck"]) == [1, 2, 3]
    if text:
        # The text line names the same deck and counts as the JSON record.
        code, out, _ = run_cli(capsys, *argv, "--format", "text")
        assert code == 3
        assert out == (
            f"mismatch at {data['deck']}: "
            f"expansion {data['expansion']}, brute {data['brute_force']}\n"
        )


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_every_option_of_every_subcommand_has_help():
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for name, parser in commands.choices.items():
        for action in parser._actions:
            assert action.help, (name, action.option_strings)


# One valid call per subcommand; the test below breaks each one three ways.
VALID_CALLS = {
    "expand": ["--n", "3", "--a", "1"],
    "brute": ["--n", "3", "--a", "1"],
    "verify": ["--n", "3", "--a", "1"],
    "coeff": ["--n", "3", "--a", "1", "--j", "1"],
    "partitions": ["--n", "3", "--a", "1", "--j", "1"],
    "phi": ["--n", "3", "--a", "1", "--decks", "[[1,2,3]]"],
    "phi-inverse": ["--n", "3", "--a", "1", "--alpha", "[[1]]", "--target", "[1,2,3]"],
    "prob": ["--n", "3", "--a", "1", "--target", "[1,2,3]"],
    "stirling": ["--k", "3", "--j", "2"],
    "bell": ["--k", "3"],
}


def test_valid_calls_cover_every_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert out.split("{", 1)[1].split("}", 1)[0].split(",") == list(VALID_CALLS)


@pytest.mark.parametrize("command", VALID_CALLS)
def test_every_subcommand_exits_1_on_usage_errors(capsys, command):
    valid = VALID_CALLS[command]
    code, out, _ = run_cli(capsys, command, *valid)
    assert code == 0 and out
    for argv in (
        valid[2:],  # the first required option left out
        [*valid, "--bogus"],
        [*valid, "--format", "xml"],
    ):
        assert run_cli(capsys, command, *argv)[:2] == (1, ""), argv
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0 and out.startswith(f"usage: topshuffle {command} ")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def captured_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_answers_like_a_fresh_one(monkeypatch):
    faced_target = json.dumps([{"face": 2, "card": 2}, {"face": 0, "card": 1}, {"face": 1, "card": 3}])
    calls = [
        (None, ["expand", "--n", "52", "--a", "3,5,2"]),
        (None, ["prob", "--n", "3", "--a", "2,1", "--group", "cyclic:3",
                "--target", faced_target, "--digits", "5"]),
        (None, ["coeff", "--n", "52", "--a", "4,4,4", "--j", "9"]),
        (None, ["expand", "--n", "3", "--a", "1", "--bogus"]),
        (None, ["--help"]),
        ("10", ["brute", "--n", "5", "--a", "3,3"]),
        (None, ["expand", "--n", "5", "--a", "1,1,1", "--format", "text"]),
        ("10000", ["brute", "--n", "5", "--a", "3,3"]),
        (None, ["coeff", "--n", "7", "--a", "2,3", "--j", "4"]),
    ]
    shared = []
    for cap, argv in calls:
        if cap is None:
            monkeypatch.delenv(ENV_CAP, raising=False)
        else:
            monkeypatch.setenv(ENV_CAP, cap)
        got = captured_run(argv)
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "build_parser", build_parser.__wrapped__)
            assert got == captured_run(argv), argv
        shared.append(got[0])
    assert shared == [0, 0, 0, 1, 0, 2, 0, 0, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--n", "3", "--a", "1", "--target", "5"],
        ["prob", "--n", "2", "--a", "1", "--group", "cyclic:2", "--target", "[1,2]"],
        ["phi", "--n", "3", "--a", "1,1", "--decks", "5"],
        ["phi-inverse", "--n", "3", "--a", "1,1", "--alpha", "5", "--target", "[1,2,3]"],
        ["phi-inverse", "--n", "3", "--a", "1,1", "--alpha", "[5]", "--target", "[1,2,3]"],
        ["phi-inverse", "--n", "3", "--a", "1,1", "--alpha", "[[[1]],[2]]", "--target", "[2,1,3]"],
        ["prob", "--n", "2", "--a", "1", "--target", '{"1": 2}'],
    ],
)
def test_malformed_json_shapes_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("topshuffle: error:")


@pytest.mark.parametrize(
    "table", [5, [], {"cayley": 5}, {"cayley": [1, 2]}, {"cayley": "ab"}]
)
def test_malformed_table_file_exits_1(tmp_path, capsys, table):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    code, _, err = run_cli(
        capsys, "expand", "--n", "2", "--a", "1", "--group", f"table:{path}"
    )
    assert code == 1
    assert err.startswith("topshuffle: error:")


NESTED = "[" * 50000 + "]" * 50000  # past the JSON decoder's nesting depth


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--n", "3", "--a", "1", "--target", NESTED],
        ["phi", "--n", "3", "--a", "1,1", "--decks", NESTED],
        ["phi-inverse", "--n", "3", "--a", "1,1", "--alpha", NESTED, "--target", "[1,2,3]"],
        ["expand", "--n", "2", "--a", "1", "--group", "table:FILE"],
    ],
)
def test_json_nested_too_deep_exits_1(tmp_path, capsys, argv):
    path = tmp_path / "nested.json"
    path.write_text(NESTED)
    argv = [arg.replace("FILE", str(path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("topshuffle: error:") and err.count("\n") == 1


def test_prob_approx_of_a_tiny_probability_is_not_zero(capsys):
    ones = ",".join(["1"] * 400)
    reversed_deck = json.dumps(list(range(200, 0, -1)))
    code, out, _ = run_cli(
        capsys, "prob", "--n", "200", "--a", ones, "--target", reversed_deck,
        "--digits", "5",
    )
    assert code == 0
    data = json.loads(out)
    prob = Fraction(int(data["probability"]["num"]), int(data["probability"]["den"]))
    assert data["approx"] == "2.2849e-389"
    assert abs(Fraction(data["approx"]) - prob) <= Fraction(5, 10**394)


def test_prob_approx_has_as_many_digits_as_asked(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "--n", "3", "--a", "1,1", "--target", "[2,1,3]",
        "--digits", "400",
    )
    assert code == 0
    data = json.loads(out)
    assert data["probability"] == {"num": "2", "den": "9"}
    assert data["approx"] == "0." + "2" * 400


def test_prob_approx_rounds_half_even_from_the_exact_value():
    # 1/8 and 3/8 are exact binary and decimal ties; 3/20 is a tie only in decimal.
    assert [cli._approx(Fraction(1, 8), 2), cli._approx(Fraction(3, 8), 2)] == ["0.12", "0.38"]
    assert cli._approx(Fraction(3, 20), 1) == "0.2"
    assert cli._approx(Fraction(1, 10**5), 3) == "1e-05"
    assert cli._approx(Fraction(99999, 10**5), 3) == "1"
    assert cli._approx(Fraction(0), 0) == "0"


def test_digits_above_the_maximum_refused_at_parse_time(capsys):
    code, out, err = run_cli(
        capsys, "prob", "--n", "3", "--a", "1,2", "--target", "[2,1,3]",
        "--digits", str(MAX_DIGITS + 1),
    )
    assert (code, out) == (1, "")
    assert f"expected at most {MAX_DIGITS} digits" in err


def test_expand_with_a_large_cyclic_group_exits_0(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "2", "--a", "1", "--group", "cyclic:2000")
    assert (code, json.loads(out)) == (0, {"1": "1"})


def test_negative_digits_refused_at_parse_time(capsys):
    code, out, err = run_cli(
        capsys, "prob", "--n", "3", "--a", "1,2", "--target", "[2,1,3]",
        "--digits", "-1",
    )
    assert (code, out) == (1, "")
    assert "argument --digits: expected a nonnegative integer, got -1" in err


def test_table_file_missing_its_table_names_the_key(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, out, err = run_cli(
        capsys, "expand", "--n", "2", "--a", "1", "--group", f"table:{path}"
    )
    assert (code, out) == (1, "")
    assert err.startswith("topshuffle: error: expected a JSON object with cayley")


def test_repeated_element_in_a_block_exits_1(capsys):
    with pytest.raises(ValueError, match="repeated"):
        SegmentedPartition.from_json([[1, 1], [2]])
    with pytest.raises(ValueError, match="repeated"):
        SegmentedPartition.from_json([[1, 1.0], [2]])
    code, out, _ = run_cli(
        capsys, "phi-inverse", "--n", "3", "--a", "1,1",
        "--alpha", "[[1,1],[2]]", "--target", "[2,1,3]",
    )
    assert (code, out) == (1, "")


# Fuzzed arguments: every subcommand answers 0, 1 or 2 and never raises ----------

JSON_TEXT = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["face", "card", "x"]), inner, max_size=3),
    max_leaves=10,
).map(json.dumps) | st.text(max_size=8)
NUMBER = st.integers(-2, 5).map(str) | st.sampled_from(["x", "", "1.5", "7"])
SIZES = st.lists(st.integers(-1, 3), max_size=3).map(
    lambda xs: ",".join(map(str, xs))
) | st.sampled_from(["", "x", "1,,2", "2.0"])
FORMAT = st.sampled_from([[], ["--format", "text"], ["--format", "json"], ["--format", "x"]])


@pytest.fixture(scope="module")
def group_specs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("groups")
    specs = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:0", "cyclic:x", "dihedral:3"]
    tables = {
        "s3": FiniteGroup.symmetric_3().as_json(),
        "bad": {"order": 2, "cayley": [[1, 0], [0, 1]]},
        "shape": {"cayley": [1, [0]]},
        "scalar": 7,
    }
    for name, table in tables.items():
        (folder / f"{name}.json").write_text(json.dumps(table))
        specs.append(f"table:{folder / name}.json")
    return specs + [f"table:{folder / 'missing.json'}"]


@st.composite
def fuzzed_argv(draw, group_specs):
    """Arguments for any subcommand, well-formed or not.  Deck sizes stay at
    most 5 and ``brute``/``verify`` always get a cap of at most 3000 tuples,
    so every call returns quickly."""
    command = draw(st.sampled_from(
        ["expand", "brute", "verify", "coeff", "partitions", "phi",
         "phi-inverse", "prob", "stirling", "bell", "nonsense"]
    ))
    if command == "stirling":
        return [command, "--k", str(draw(st.integers(-2, 60))),
                "--j", str(draw(st.integers(-2, 60)))] + draw(FORMAT)
    if command == "bell":
        return [command, "--k", str(draw(st.integers(-2, 60)))] + draw(FORMAT)
    argv = [command, "--n", draw(NUMBER), "--a", draw(SIZES)] + draw(FORMAT)
    if command in ("expand", "brute", "verify", "prob") and draw(st.booleans()):
        argv += ["--group", draw(st.sampled_from(group_specs))]
    if command in ("brute", "verify"):
        argv += ["--cap", str(draw(st.integers(-1, 3000)))]
    elif command in ("coeff", "partitions"):
        argv += ["--j", draw(NUMBER)]
    elif command == "phi":
        decks = st.lists(st.permutations(range(1, 4)), max_size=3).map(json.dumps)
        argv += ["--decks", draw(decks | JSON_TEXT)]
    elif command == "phi-inverse":
        argv += ["--alpha", draw(JSON_TEXT), "--target", draw(JSON_TEXT)]
    elif command == "prob":
        argv += ["--target", draw(st.permutations(range(1, 4)).map(json.dumps) | JSON_TEXT)]
        if draw(st.booleans()):
            argv += ["--digits", str(draw(st.integers(-2, 20)))]
    return argv


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_exit_0_1_or_2(group_specs, data):
    argv = data.draw(fuzzed_argv(group_specs))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = run(argv)
    assert code in (0, 1, 2), (argv, sink.getvalue())
