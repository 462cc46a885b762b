"""Command-line interface: outputs, round-trips, and exit codes."""

import json

import pytest

from topshuffle import (
    AlgebraElement,
    FiniteGroup,
    GAlgebraElement,
    SegmentedPartition,
    ShuffleSpec,
    brute_force_product,
    g_brute_force_product,
)
from topshuffle.cli import run


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


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
