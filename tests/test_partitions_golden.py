"""Replay of the recorded round-partition enumeration order: for every spec
with ``n <= 5`` and slot total ``<= 7``, and every block count ``j``, the
sha256 of ``json.dumps`` of the ``as_json()`` of each partition, in the
order ``enumerate_segmented_partitions`` lists them, must match
``tests/data/partitions_golden.json``.

The CLI golden replays ``partitions`` only up to ``n = 4``; this file pins
the order (and so every label numbering) of the enumerator further out.
"""

import hashlib
import itertools
import json
from pathlib import Path

from topshuffle import ShuffleSpec, enumerate_segmented_partitions

GOLDEN = Path(__file__).parent / "data" / "partitions_golden.json"


def golden_specs():
    for n in range(1, 6):
        for k in range(1, 8):
            for a in itertools.product(range(1, n + 1), repeat=k):
                if sum(a) <= 7:
                    yield ShuffleSpec(n, a)


def test_enumeration_replays_golden_order():
    records = {
        (r["n"], tuple(r["a"]), r["j"]): r for r in json.loads(GOLDEN.read_text())
    }
    specs = list(golden_specs())
    assert len(specs) == 393
    seen, partitions, failures = 0, 0, []
    for spec in specs:
        for j in range(1, spec.n + 1):
            blocks = [p.as_json() for p in enumerate_segmented_partitions(spec, j)]
            record = records.get((spec.n, spec.a, j))
            if record is None:
                if blocks:
                    failures.append((spec, j, "unrecorded partitions"))
                continue
            seen += 1
            partitions += len(blocks)
            digest = hashlib.sha256(json.dumps(blocks).encode()).hexdigest()
            if (len(blocks), digest) != (record["partitions"], record["sha256"]):
                failures.append((spec, j, len(blocks), blocks[:3]))
    assert not failures, f"{len(failures)} differ; first: {failures[:3]}"
    assert seen == len(records)
    assert partitions == 45597
