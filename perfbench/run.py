"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in its own process (``worker.py``), plus set-up-only
processes so that ``setup_s`` is a median, and prints each metric with its
unit, then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` gives the end-to-end metrics of ``BENCHMARK.json``, ``--trace
1`` its per-layer metrics.  ``--workload all`` runs every workload in turn,
each in its own process.  Exits 1 when a job fails its check or the
workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed-form", "oracle-plain", "oracle-faced", "bijection")
SETUP_SAMPLES = 5  # set-ups per run, the measured run's included
RUN_LIMIT_S = 170


class WorkerFailed(RuntimeError):
    pass


def spawn(argv: list[str], timeout: float) -> tuple[int, dict]:
    """Runs ``worker.py`` to completion; returns its spawn time on the
    monotonic clock and its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("TOPSHUFFLE_BRUTE_CAP", None)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return spawn_ns, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setup: list[float], key: str = "ref_ns") -> dict:
    """Metrics from the times scaled to reference speed, or from the raw
    wall-clock times with ``key="lat_ns"``."""
    rounds = result["rounds"]
    lat = [x for r in rounds for x in r[key]]
    deciles = statistics.quantiles(lat, n=10)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r[key]) for r in rounds) / 1e9,
        "job_p50_ms": statistics.median(lat) / 1e6,
        "job_p90_ms": deciles[8] / 1e6,
        "queries_per_s": statistics.median(
            len(r[key]) / sum(r[key]) * 1e9 for r in rounds
        ),
        "tuples_per_s": statistics.median(
            sum(r["tuples"]) / sum(t for t, n in zip(r[key], r["tuples"]) if n) * 1e9
            for r in rounds
        ),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Returns (attempted, failed, metrics) for one workload."""
    started = time.monotonic()
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    readies = [spawn(argv + ["--setup-only"], timeout=60) for _ in range(SETUP_SAMPLES - 1)]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    readies.append(spawn(argv + ["--trace", str(int(trace))], timeout=remaining))
    result = readies[-1][1]
    setup = [(r["ready_ns"] - spawn_ns) / 1e9 for spawn_ns, r in readies]
    setup_ref = [s * r["speed"] for s, (_, r) in zip(setup, readies)]

    rounds = result["rounds"]
    jobs = sum(len(r["lat_ns"]) for r in rounds)
    print(f"# {name} seed={seed} trace={int(trace)}")
    print(f"rounds: {len(rounds)}  digests: {' '.join(r['digest'] for r in rounds)}")
    print(f"job samples: {jobs}  (about {jobs // 10} beyond p90)")
    for key, value in result["properties"].items():
        print(f"input {key}: {value:.4f}")
    if trace:
        values = result["layers"]
        print(f"spans: {result['spans_file']}")
    else:
        values = end_to_end(result, setup_ref)
        raw = end_to_end(result, setup, key="lat_ns")
        print("wall clock, unscaled: " + "  ".join(
            f"{k}={raw[k]:.6g}" for k in ("setup_s", "wall_s", "job_p50_ms", "job_p90_ms")
        ))
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for key, m in metrics.items():
        print(f"{key:58s} {m['value']:>16.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_frac':58s} {failed / attempted:>16.6g} ratio")
    for message in result["failures"]:
        print(f"FAILED {message}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "topshuffle" / "__init__.py").is_file():
        print("run.py: no topshuffle package under src/", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            attempted += a
            failed += f
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
