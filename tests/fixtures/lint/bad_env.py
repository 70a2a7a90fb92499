"""RL005 fixture: environment reads outside repro.common.config.

Linted by ``tests/test_lint.py``; never imported.  Line numbers matter —
append only.
"""

import os


def unregistered_knob() -> str:
    return os.environ["REPRO_SECRET_KNOB"]  # line 11: RL005


def non_repro_read() -> str:
    return os.environ.get("HOME", "")  # line 15: RL005


def knob_sniff() -> bool:
    return "REPRO_SERVICE_BATCH" in os.environ  # line 19: RL005
