"""A child process that limits its own address space and CPU time, for the
tests that a call refuses, or answers, before it does work it must not do."""

import os
import subprocess
import sys
from pathlib import Path

import topshuffle

SRC = str(Path(topshuffle.__file__).resolve().parents[1])


def bounded(body: str, cpu_s: int = 5) -> subprocess.CompletedProcess:
    """Runs ``body`` in a child that limits its own address space and CPU
    time, to ``cpu_s`` seconds, so a call that would build its answer
    before refusing fails here instead of running on.  ``body`` sees the
    package's public names, ``g_expansion_element`` and ``Z2``."""
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
        f"resource.setrlimit(resource.RLIMIT_CPU, ({cpu_s}, {cpu_s}))\n"
        "from topshuffle import *\n"
        "from topshuffle.wreath import g_expansion_element\n"
        "Z2 = FiniteGroup.cyclic(2)\n" + body
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
