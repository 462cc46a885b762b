"""Replay of recorded CLI invocations: every exit code and every byte of
stdout must match ``tests/data/cli_golden.json``.

Each record holds an argv, its exit code and the sha256 of its stdout.  In
an argv, ``{S3}`` stands for a file holding the Cayley table of S3 and
``{MISSING}`` for a path that does not exist; both are made in ``tmp_path``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from topshuffle import FiniteGroup
from topshuffle.cli import ENV_CAP, run

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def test_cli_replays_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CAP, raising=False)
    s3 = tmp_path / "s3.json"
    s3.write_text(json.dumps(FiniteGroup.symmetric_3().as_json()))
    paths = {"{S3}": str(s3), "{MISSING}": str(tmp_path / "missing.json")}
    records = json.loads(GOLDEN.read_text())
    assert len(records) >= 500
    failures = []
    for record in records:
        argv = record["argv"]
        for mark, path in paths.items():
            argv = [arg.replace(mark, path) for arg in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != (record["exit"], record["stdout_sha256"]):
            failures.append((record["argv"], code, out.getvalue()[:200]))
    assert not failures, f"{len(failures)} of {len(records)} differ; first: {failures[:3]}"
