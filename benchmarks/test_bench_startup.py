"""STARTUP: cold ``import repro.cli`` in a fresh interpreter.

Every CLI command, campaign process and service daemon pays this import
before doing any work, so it is gated like any other leg.  The recorded
median is over five fresh ``python -c "import repro.cli"`` processes,
each timed from spawn to exit.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def test_cli_import_cold(benchmark):
    env = dict(os.environ, PYTHONPATH=SRC)

    def import_cli():
        subprocess.run([sys.executable, "-c", "import repro.cli"], env=env,
                       check=True, timeout=120)

    benchmark.extra_info["workload"] = "none"
    benchmark.pedantic(import_cli, rounds=5, iterations=1, warmup_rounds=1)
