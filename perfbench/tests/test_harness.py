"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Each workload runs in-process on its small warm-up shapes, so the whole
file takes well under a minute.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name: str, run_job=None) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, template=w.warmup, run=run_job or w.run)


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_has_no_failures(name):
    result = worker.measure(tiny(name), seed=3, seconds=0.1, trace=False, setup_only=False)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= worker.MIN_JOBS
    metrics = run.end_to_end(result, [0.2])
    assert {m["name"] for m in SPEC["end_to_end"]} == set(metrics)
    assert all(v > 0 for v in metrics.values()), metrics


def test_same_seed_gives_same_inputs():
    first, second = (
        worker.measure(tiny("closed-form"), seed=5, seconds=0.1, trace=False, setup_only=False)
        for _ in range(2)
    )
    assert [r["digest"] for r in first["rounds"]] == [r["digest"] for r in second["rounds"]]


def _bump_first_digit(output):
    rc, out, err = output
    i = next(i for i, ch in enumerate(out) if ch.isdigit())
    return rc, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :], err


def _tamper(name):
    """A run that returns a corrupted output; the package is untouched."""
    original = workloads.WORKLOADS[name].run

    def tampered(ctx, job):
        output = original(ctx, job)
        if job.kind == "walk":
            (a0, b0), (a1, b1) = output[0], output[-1]
            return [(a0, b1)] + output[1:-1] + [(a1, b0)]
        if job.kind == "partitions":
            j = min(output)
            return dict(output, **{j: output[j][1:]})
        return _bump_first_digit(output)

    return tampered


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tampered_result_counts_as_failure(name):
    result = worker.measure(
        tiny(name, _tamper(name)), seed=3, seconds=0.1, trace=False, setup_only=False
    )
    assert result["failed"] == result["attempted"] > 0


def test_failure_makes_the_command_exit_nonzero(monkeypatch, capsys):
    def fake_spawn(argv, timeout):
        spawn_ns = time.monotonic_ns()
        w = tiny("oracle-plain", _tamper("oracle-plain"))
        return spawn_ns, worker.measure(w, 3, 0.1, False, "--setup-only" in argv)

    monkeypatch.setattr(run, "spawn", fake_spawn)
    code = run.main(["--workload", "oracle-plain", "--seed", "3", "--seconds", "0.1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == last["attempted"]


CALLED = {
    "closed-form": (
        "coefficients.q_cardinality.calls",
        "coefficients.q_cardinality.distinct_frac",
        "algebra.expansion.calls",
        "wreath.g_expansion.calls",
        "probability.ways_to_reach.us_per_call",
        "probability.g_ways_to_reach.us_per_call",
        "cli.run.self_ms_per_call",
    ),
    "oracle-plain": (
        "algebra.brute_force_product.tuples_per_s",
        "algebra.expansion_element.terms_per_s",
        "algebra.AlgebraElement.eq.self_s",
        "cli.run.calls",
    ),
    "oracle-faced": (
        "wreath.g_brute_force_product.tuples_per_s",
        "wreath.g_expansion_element.terms_per_s",
        "wreath.GAlgebraElement.eq.self_s",
        "wreath.g_expansion.calls",
    ),
    "bijection": (
        "coefficients.phi.us_per_call",
        "coefficients.phi_inverse.us_per_call",
        "coefficients.iter_segmented_partitions.partitions_per_s",
    ),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    result = worker.measure(tiny(name), seed=3, seconds=0.1, trace=True, setup_only=False)
    layers = result["layers"]
    assert result["failed"] == 0, result["failures"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers)
    for metric in CALLED[name] + tuple(k for k in layers if k.endswith("ns_per_op")):
        assert layers[metric] > 0, metric
    assert (BENCH.parent / result["spans_file"]).is_file()


def test_removed_binding_reports_zero_calls(monkeypatch):
    worker.import_package()
    import topshuffle
    import topshuffle.coefficients

    monkeypatch.delattr(topshuffle.coefficients, "phi")
    monkeypatch.delattr(topshuffle, "phi")
    tracer = Tracer()
    tracer.install()
    try:
        topshuffle.q_cardinality(topshuffle.ShuffleSpec(3, (1, 1)), 2)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["coefficients.phi"]["calls"] == 0
    assert summary["coefficients.q_cardinality"]["calls"] == 1
    assert topshuffle.q_cardinality is topshuffle.coefficients.q_cardinality
