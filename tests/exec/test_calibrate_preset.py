"""Calibration presets: explicit file I/O, never read implicitly."""

from __future__ import annotations

import json

import pytest

from repro.cost.device import load_preset
from repro.exec.calibrate import calibrate, save_preset


@pytest.fixture()
def calibration(mlp_graph):
    return calibrate([mlp_graph], repeats=1, grid=[0.5, 1.0, 2.0])


def test_save_preset_round_trips_the_fitted_device(tmp_path, calibration):
    target = tmp_path / "nested" / "device_preset.json"
    assert save_preset(calibration, target) == target
    assert load_preset(target).config == calibration.device_after.config


def test_unknown_keys_are_ignored_for_forward_compat(tmp_path, calibration):
    target = save_preset(calibration, tmp_path / "device_preset.json")
    payload = json.loads(target.read_text())
    payload["device"]["some_future_field"] = 42
    target.write_text(json.dumps(payload))
    assert load_preset(target).config == calibration.device_after.config


def test_preset_file_records_fit_metadata(tmp_path, calibration):
    target = save_preset(calibration, tmp_path / "device_preset.json")
    payload = json.loads(target.read_text())
    assert payload["format"] == "repro-device-preset"
    assert payload["fit"]["num_samples"] == len(calibration.samples)
    assert payload["fit"]["error_after"] <= payload["fit"]["error_before"]
