"""Tests for the scripts under ``scripts/``, which no other test runs.

``scripts/gate_envelope.py`` takes its battery and its gates from
``tests/test_acceptance.py``.  ``--help`` loads every import, and a stubbed
battery checks that the script prints the suite's own gate lines, so a
broken script fails here rather than at the next run of it.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from test_gates import synthetic_battery

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


def test_gate_envelope_prints_the_suites_gate_lines(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends tests/
    spec = importlib.util.spec_from_file_location("gate_envelope", ROOT / "scripts" / "gate_envelope.py")
    envelope = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envelope)
    asked = []
    monkeypatch.setattr(envelope, "run_battery", lambda seeds: asked.append(list(seeds)) or synthetic_battery())

    lines = envelope.block_report(20)

    assert asked == [list(range(20, 30))]
    assert lines[0].startswith("seeds 20-29: battery in ")
    assert lines[1:] == [
        "ACCEPTANCE 05 noisy-scenario-direction: PASS (10/10 seeds with gap >= 2pp, "
        "min +0.100 (20 of 200 rows), median +0.100 (20 of 200 rows), 1s)",
        "ACCEPTANCE 06 normal-scenario-parity: PASS (10/10 seeds within 1pp, max |diff| 0.000 (0 of 200 rows))",
        "ACCEPTANCE 07 weight-suppression: PASS (suppressed 10/10 (worst noisy/clean 0.333), "
        "balanced 10/10 (worst clean max/min 1.000))",
        "ACCEPTANCE 08 loss-signature: PASS (10/10 seeds with larger final fl_loss, min focus - fedavg +0.5000)",
        "ACCEPTANCE 09 multi-tier-weight-ordering: PASS (10/10 seeds, min margin +0.2000)",
    ]
