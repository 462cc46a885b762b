"""One workload in one single-threaded process.

Sets up (import, group table, round-0 inputs, warm-up), then runs job-list
rounds as a closed loop with one client until ``--seconds`` have passed,
checking every output outside the timed call.  With ``--trace 1`` it then
replays the same rounds with spans installed and times the deck
primitives.  Prints the raw measurements as one JSON line for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The host's CPU speed drifts by up to +-20% over a few seconds (measured
# on a 2-vCPU Xeon VM), more than any bound worth gating on.  Each
# timed interval is therefore scaled by the host's speed around it: the
# mean, over a measurement just before and just after, of CAL_REF_NS over
# the duration of a fixed loop.  The loop mixes integer arithmetic with
# tuple-keyed dict reads and short-lived tuples, because an integer loop
# alone tracked the memory-heavy workloads worse.  CAL_REF_NS is the loop's
# typical duration on that VM under Python 3.11.
CAL_REF_NS = 1_250_000
_CAL_KEYS = [(i, i * 7 % 1000) for i in range(0, 20_000, 8)]
_CAL_TABLE = {(i, i * 7 % 1000): i for i in range(20_000)}


def _calibration_loop() -> int:
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(8_000):
        s += i * i
    table = _CAL_TABLE
    for a, b in _CAL_KEYS:
        s += table[(a, b)]
        s += tuple([a, b, s & 7])[2]
    return time.perf_counter_ns() - t0


def host_speed() -> float:
    """Reference over current duration of the calibration loop, best of
    two.  Every object the loop creates dies at once, so the package's heap
    cannot make it slower through the garbage collector."""
    return CAL_REF_NS / min(_calibration_loop(), _calibration_loop())


# The measuring loop also runs until this many jobs are done, so that at
# least ten job latencies lie beyond the 90th percentile.
MIN_JOBS = 110


def import_package():
    """The package from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import topshuffle
    import topshuffle.cli

    if Path(topshuffle.__file__).resolve().parent != src / "topshuffle":
        raise ImportError(f"topshuffle imported from {topshuffle.__file__}")
    return topshuffle, topshuffle.cli


def write_s3_table() -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / "s3.json"
    tmp = OUT / f"s3.{os.getpid()}.tmp"
    tmp.write_text(json.dumps({"cayley": reference.symmetric_3_table()}))
    os.replace(tmp, path)
    return str(path)


class Session:
    """Rounds of one workload and seed, with their counters."""

    def __init__(self, workload: workloads.Workload, ctx, seed: int):
        self.workload = workload
        self.ctx = ctx
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._next_job = 0

    def jobs(self, r: int, template=None) -> list:
        rng = random.Random(f"{self.workload.name}/{self.seed}/{r}")
        return self.workload.make_round(rng, self.ctx, template or self.workload.template)

    def run(self, jobs, tracer: Tracer | None = None) -> dict:
        """Runs and checks each job; only the call itself is timed.  Returns
        wall-clock latencies and the same scaled to reference speed."""
        lat, ref, tuples = [], [], []
        for job in jobs:
            job_id = self._next_job
            self._next_job += 1
            before = host_speed()
            root = tracer.begin_job(job_id) if tracer else None
            error = None
            t0 = time.perf_counter_ns()
            try:
                output = self.workload.run(self.ctx, job)
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter_ns() - t0
            if tracer:
                tracer.close(root)
            speed = (before + host_speed()) / 2
            if error is None:
                try:
                    error = self.workload.check(job, output)
                except Exception as exc:  # unreadable output fails its check
                    error = f"check: {type(exc).__name__}: {exc}"
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{job.describe}: {error}"[:500])
            lat.append(dt)
            ref.append(dt * speed)
            tuples.append(job.tuples)
        return {"lat_ns": lat, "ref_ns": ref, "tuples": tuples}


def digest(jobs) -> str:
    text = json.dumps([job.describe for job in jobs], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def input_properties(name: str, shapes: list) -> dict:
    """From the (spec, tuples) of every job run.  Closed-form: share of
    queries on a spec already queried earlier in the run.  Others: share of
    covered tuples in specs of three or more shuffles, where the oracle
    walk shares prefixes."""
    if name == "closed-form":
        seen: set = set()
        repeats = 0
        for spec, _ in shapes:
            repeats += spec in seen
            seen.add(spec)
        return {"repeat_spec_share": repeats / len(shapes)}
    total = sum(tuples for _, tuples in shapes)
    k3 = sum(tuples for spec, tuples in shapes if len(spec[1]) >= 3)
    return {"k3_tuple_share": k3 / total}


def _per_op_ns(fn, args: list, reps: int = 5) -> float:
    loops = max(1, 20000 // len(args))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for a in args:
                fn(*a)
        times.append((time.perf_counter_ns() - t0) / (loops * len(args)))
    return statistics.median(times)


def deck_primitives(ts, jobs, seed: int) -> dict:
    """ns per call of the deck primitives, on decks of the sizes and
    shuffle classes the workload's jobs produce."""
    rng = random.Random(f"decks/{seed}")
    by_n: dict[int, list] = {}
    for job in jobs:
        n, a, _ = job.spec
        for _ in range(4):
            by_n.setdefault(n, []).append(
                reference.random_deck(rng, n, rng.randint(0, min(sum(a), n - 1)))
            )
    decks = [d for ds in by_n.values() for d in ds]
    out = {}
    make = getattr(ts, "Permutation", None)
    out["permutations.Permutation.ns_per_op"] = (
        _per_op_ns(make, [(d,) for d in decks]) if make else 0
    )
    perms = {n: [make(d) for d in ds] for n, ds in by_n.items()} if make else {}
    pairs = [(p, ps[i - 1]) for ps in perms.values() for i, p in enumerate(ps)]
    singles = [(p,) for ps in perms.values() for p in ps]
    for name, args in (
        ("compose", pairs),
        ("inverse", singles),
        ("min_shuffle_size", singles),
    ):
        fn = getattr(ts, name, None)
        out[f"permutations.{name}.ns_per_op"] = (
            _per_op_ns(fn, args) if fn and args else 0
        )
    return out


def layer_metrics(summary: dict, rounds: int) -> dict:
    """Per-layer metrics from ``Tracer.summary``; counts and self times per
    round, and 0 for a layer the workload never called."""
    row = summary.__getitem__

    def rate(num, ns):
        return num / ns * 1e9 if ns else 0

    out = {}
    for name in (
        "coefficients.q_cardinality",
        "coefficients.phi",
        "coefficients.phi_inverse",
        "algebra.expansion",
        "wreath.g_expansion",
        "probability.ways_to_reach",
        "probability.g_ways_to_reach",
        "cli.run",
    ):
        out[f"{name}.calls"] = row(name)["calls"] / rounds
    for name in (
        "coefficients.q_cardinality",
        "algebra.expansion",
        "algebra.brute_force_product",
        "algebra.expansion_element",
        "algebra.AlgebraElement.eq",
        "wreath.g_brute_force_product",
        "wreath.g_expansion_element",
        "wreath.GAlgebraElement.eq",
    ):
        out[f"{name}.self_s"] = row(name)["self_ns"] / 1e9 / rounds
    for name in (
        "coefficients.phi",
        "coefficients.phi_inverse",
        "probability.ways_to_reach",
        "probability.g_ways_to_reach",
    ):
        r = row(name)
        out[f"{name}.us_per_call"] = r["total_ns"] / r["calls"] / 1e3 if r["calls"] else 0
    q = row("coefficients.q_cardinality")
    out["coefficients.q_cardinality.distinct_frac"] = (
        q.get("distinct", 0) / q["calls"] if q["calls"] else 0
    )
    p = row("coefficients.iter_segmented_partitions")
    out["coefficients.iter_segmented_partitions.partitions"] = p["count"] / rounds
    out["coefficients.iter_segmented_partitions.partitions_per_s"] = rate(
        p["count"], p["total_ns"]
    )
    for name in ("algebra.brute_force_product", "wreath.g_brute_force_product"):
        out[f"{name}.tuples_per_s"] = rate(row(name)["count"], row(name)["self_ns"])
    for name in ("algebra.expansion_element", "wreath.g_expansion_element"):
        out[f"{name}.terms_per_s"] = rate(row(name)["count"], row(name)["self_ns"])
    c = row("cli.run")
    out["cli.run.self_ms_per_call"] = c["self_ns"] / c["calls"] / 1e6 if c["calls"] else 0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="exit once set up; prints ready_ns"
    )
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    print(json.dumps(result))
    return 0


def measure(workload, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict:
    """Raw measurements of one run; ``run.py`` turns them into metrics."""
    ts, cli = import_package()
    ctx = workloads.Context(ts, cli, write_s3_table())
    session = Session(workload, ctx, seed)
    first = session.jobs(0)
    session.run(session.jobs(0, workload.warmup))
    ready_ns = time.monotonic_ns()
    speed = host_speed()
    if setup_only:
        return {"ready_ns": ready_ns, "speed": speed}

    untraced_s = seconds / 2 if trace else seconds
    deadline = time.monotonic() + untraced_s
    rounds, shapes = [], []
    jobs = first
    while True:
        data = session.run(jobs)
        data["digest"] = digest(jobs)
        rounds.append(data)
        shapes += [(job.spec, job.tuples) for job in jobs]
        if time.monotonic() >= deadline and len(shapes) >= MIN_JOBS:
            break
        jobs = session.jobs(len(rounds))
    result = {
        "ready_ns": ready_ns,
        "speed": speed,
        "rounds": rounds,
        "properties": input_properties(workload.name, shapes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        traced_ns = 0
        try:
            for r in range(len(rounds)):
                tracer.round = r
                traced_ns += sum(session.run(session.jobs(r), tracer)["ref_ns"])
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer.summary(), len(rounds))
        untraced_ns = sum(sum(data["ref_ns"]) for data in rounds)
        layers["trace.overhead_frac"] = traced_ns / untraced_ns - 1
        layers.update(deck_primitives(ts, first, seed))
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload.name}-{seed}.jsonl.gz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result.update(
        attempted=session.attempted, failed=session.failed, failures=session.failures
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
