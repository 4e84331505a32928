"""The FAIL path of acceptance gates 05-09.

The acceptance battery passes every gate, so the suite alone never shows
that a gate can fail.  These tests feed each gate function a synthetic
battery, holding only the result fields the gates read, and no runs.
"""

from types import SimpleNamespace

import pytest

from test_acceptance import BATTERY_GATES, SEEDS


def synthetic_battery():
    """A battery that passes gates 05-09 in every seed by a wide margin."""

    def pair(focus, fedavg):
        return {"focus": SimpleNamespace(**focus), "fedavg": SimpleNamespace(**fedavg)}

    noisy_focus = dict(final_accuracy=0.8, final_weights=(0.1, 0.3, 0.3, 0.3), final_fl_loss=1.0)
    return {
        "noisy": {s: pair(noisy_focus, dict(final_accuracy=0.7, final_fl_loss=0.5)) for s in SEEDS},
        "normal": {s: pair(dict(final_accuracy=0.8), dict(final_accuracy=0.8)) for s in SEEDS},
        "multi_tier": {s: SimpleNamespace(final_weights=(0.4, 0.4, 0.2)) for s in SEEDS},
        "noisy_seconds": 1.0,
    }


def test_synthetic_battery_passes_every_gate():
    battery = synthetic_battery()
    for num, gate in BATTERY_GATES.items():
        ok, detail = gate(battery)
        assert ok is True, (num, detail)


@pytest.mark.parametrize(
    "num, part, side, field, value, tolerated",
    [
        (5, "noisy", "focus", "final_accuracy", 0.715, 1),  # a 1.5-point gap, under 2
        (6, "normal", "focus", "final_accuracy", 0.815, 1),  # 1.5 points apart, over 1
        (7, "noisy", "focus", "final_weights", (0.16, 0.28, 0.28, 0.28), 0),  # noisy at 0.57 of clean
        (7, "noisy", "focus", "final_weights", (0.1, 0.33, 0.3, 0.27), 0),  # clean max/min 1.22
        (8, "noisy", "focus", "final_fl_loss", 0.5, 2),  # focus loss equal to fedavg's
        (9, "multi_tier", None, "final_weights", (0.3, 0.4, 0.3), 0),  # tied with client 0
        (9, "multi_tier", None, "final_weights", (0.4, 0.25, 0.35), 0),  # above client 1
    ],
)
def test_gate_fails_one_seed_past_its_tolerance(num, part, side, field, value, tolerated):
    """Breaking the rule in ``tolerated`` seeds passes; one more seed fails."""
    battery = synthetic_battery()
    for broken, seed in enumerate(SEEDS[: tolerated + 1], 1):
        run = battery[part][seed] if side is None else battery[part][seed][side]
        setattr(run, field, value)
        ok, detail = BATTERY_GATES[num](battery)
        assert ok is (broken <= tolerated), detail


def test_noisy_scenario_direction_fails_on_a_slow_battery():
    battery = synthetic_battery()
    battery["noisy_seconds"] = 300.0
    ok, detail = BATTERY_GATES[5](battery)
    assert ok is False, detail
