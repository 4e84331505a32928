"""Output checks: every run's artifacts must read back equal to its RunResult."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import focusfl

# Files whose bytes depend only on the config.  result.json is digested
# without its ``duration_seconds`` field.
DETERMINISTIC_FILES = ("metrics.csv", "credibility.csv", "model.bin", "report_long.csv")
ARTIFACT_FILES = ("metrics.csv", "credibility.csv", "model.bin")


class OutputMismatch(Exception):
    """An artifact or an invariant of a run's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputMismatch(message)


def check_run(result, run_dir: Path) -> None:
    """Re-read one run's artifacts and compare them with ``result``."""
    harness = focusfl.harness
    expected = [(m.round, m.test_accuracy, m.fl_loss) for m in result.metrics]
    _require(len(expected) == result.config.rounds, f"{len(expected)} rounds recorded, {result.config.rounds} configured")
    _require(
        all(math.isfinite(acc) and 0.0 <= acc <= 1.0 and math.isfinite(loss) for _, acc, loss in expected),
        "a round has a non-finite metric or an accuracy outside [0, 1]",
    )
    _require(harness.load_metrics_csv(run_dir / "metrics.csv") == expected, "metrics.csv differs from the RunResult")

    cred_rows = [
        (m.round, k, *(float(getattr(m.cred, f)[j]) for f in ("ls", "ll", "e", "c", "w")))
        for m in result.metrics
        if m.cred is not None
        for j, k in enumerate(m.cred.client_ids)
    ]
    cred_path = run_dir / "credibility.csv"
    if cred_rows:
        _require(harness.load_credibility_csv(cred_path) == cred_rows, "credibility.csv differs from the RunResult")
    else:
        _require(not cred_path.exists(), "credibility.csv written for a run without scoring")

    model = focusfl.load_model(str(run_dir / "model.bin"))
    _require(
        model.arch == result.final_model.arch and np.array_equal(model.values, result.final_model.values),
        "model.bin differs from the final model",
    )
    w = np.asarray(result.final_weights, dtype=np.float64)
    _require(bool(np.all(w >= 0)) and abs(float(w.sum()) - 1.0) <= 1e-9, f"final weights are off the simplex: {w}")
    _require((run_dir / "report_long.csv").is_file(), "focusfl report wrote no report_long.csv")


def run_digest(run_dir: Path) -> str:
    """sha256 over a run's deterministic artifacts."""
    h = hashlib.sha256()
    for name in DETERMINISTIC_FILES:
        path = run_dir / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes())
    summary = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    summary.pop("duration_seconds", None)
    h.update(b"result.json\0" + json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()


def artifact_bytes(run_dir: Path) -> int:
    """Bytes of the files ``write_run_result`` wrote, result.json aside (it holds a wall time)."""
    return sum((run_dir / name).stat().st_size for name in ARTIFACT_FILES if (run_dir / name).exists())
