"""Smoke tests for the scripts under ``scripts/``, which no other test runs.

``scripts/gate_envelope.py`` imports its config builders from
``tests/test_acceptance.py``; ``--help`` loads every import, so a renamed
helper fails here rather than at the next run of the script.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gate_envelope_loads_and_shows_help():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gate_envelope.py"), "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "first_seeds" in proc.stdout
