"""Puts this directory on ``sys.path`` for the shared test helpers.

The suite has no package ``__init__`` files, so a test module in a
subdirectory (``tests/workloads/test_edgescan.py``) would not see
:mod:`oracles`, which lives here; pytest loads this file before any test
module below it, whole suite or a single file alike.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
