"""STARTUP: cold CLI start in a fresh interpreter.

Two legs, each a median over five fresh processes timed from spawn to
exit:

- ``test_cli_import_cold``: ``python -c "import repro.cli"``.  The CLI
  module loads only the workload registry, and each command imports
  what it runs, so this is the floor every command starts from, not
  what each one pays: a flow or a computed sweep point still imports
  the whole flow, numpy with it.
- ``test_cli_workloads_cold``: ``python -m repro workloads``, the
  command perfbench times as its ``setup_s``: interpreter start, the CLI
  shell, argument parsing and one listing, with no simulation code
  loaded.
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


def test_cli_workloads_cold(benchmark):
    env = dict(os.environ, PYTHONPATH=SRC)

    def list_workloads():
        subprocess.run([sys.executable, "-m", "repro", "workloads"], env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)

    benchmark.extra_info["workload"] = "none"
    benchmark.pedantic(list_workloads, rounds=5, iterations=1,
                       warmup_rounds=1)
