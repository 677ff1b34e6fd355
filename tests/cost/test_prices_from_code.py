"""Prices come from code: no implicit device, one idealised view derived
from the device, and one flop / byte derivation per node template."""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import repro.cost.op_cost as op_cost
from repro.cost import CostModel, DeviceConfig, E2ESimulator, SimulatedDevice
from repro.experiments.common import build_small_model
from repro.service import OptimisationService

#: The ``DeviceConfig`` fields the idealised view replaces; every other
#: field carries over from the device unchanged.
IDEALISED_FIELDS = {"name", "kernel_launch_ms", "grouped_conv_efficiency",
                    "batch_matmul_efficiency", "small_kernel_efficiency",
                    "small_kernel_flops", "measurement_noise"}


def _prices() -> tuple:
    """Simulated latency, cost-model estimate and a served search's final
    latency of reduced squeezenet, each on a freshly built graph."""
    latency = E2ESimulator().latency_ms(build_small_model("squeezenet"))
    cost = CostModel().estimate(build_small_model("squeezenet"))
    with OptimisationService(num_workers=1) as service:
        served = service.optimise(build_small_model("squeezenet"), "taso",
                                  config={"max_iterations": 2},
                                  use_cache=False)
    return latency, cost, served.search.final_latency_ms


def _write_preset(path, flops_scale: float) -> None:
    config = dataclasses.asdict(DeviceConfig())
    config["flops_per_ms"] *= flops_scale
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"format": "repro-device-preset",
                                "version": 1, "device": config}))


def test_prices_ignore_preset_files_and_the_environment(tmp_path,
                                                        monkeypatch):
    monkeypatch.delenv("REPRO_DEVICE_PRESET", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path / "empty-home"))
    clean = _prices()

    preset = tmp_path / "preset.json"
    _write_preset(preset, flops_scale=3.0)
    home = tmp_path / "home"
    _write_preset(home / ".cache" / "repro" / "device_preset.json", 3.0)
    monkeypatch.setenv("REPRO_DEVICE_PRESET", str(preset))
    monkeypatch.setenv("HOME", str(home))
    assert _prices() == clean


def test_costing_then_simulating_derives_each_template_once(
        monkeypatch, fresh_templates):
    original = op_cost.op_flops
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "op_flops", None) is original):
            monkeypatch.setattr(module, "op_flops", counting)
    graph = build_small_model("squeezenet")
    CostModel().estimate(graph)
    E2ESimulator().latency_ms(graph)
    priced = {id(graph.template_memo(nid)) for nid, node in graph.nodes.items()
              if not op_cost.is_zero_cost(node.op_type)}
    # Reduced squeezenet prices 64 nodes, of fewer templates.
    assert len(calls) == len(priced) < 64
    # A fresh build of a model priced before derives nothing.
    CostModel().estimate(build_small_model("squeezenet"))
    assert len(calls) == len(priced)


def test_idealised_device_matches_the_hand_built_config():
    assert dataclasses.asdict(CostModel()._ideal_device.config) == {
        "name": "sim-gtx1080-idealised",
        "flops_per_ms": 8.9e9,
        "bytes_per_ms": 3.2e8,
        "kernel_launch_ms": 0.003 * 0.65,
        "peak_efficiency": 0.72,
        "grouped_conv_efficiency": 0.72,
        "batch_matmul_efficiency": 0.72,
        "small_kernel_efficiency": 1.0,
        "small_kernel_flops": 0.0,
        "measurement_noise": 0.0,
        "pool_gather_efficiency": 0.10,
    }


@pytest.mark.parametrize("field", sorted(
    f.name for f in dataclasses.fields(DeviceConfig)
    if f.name not in IDEALISED_FIELDS))
def test_fields_the_idealisation_does_not_name_carry_over(field):
    value = getattr(DeviceConfig(), field) * 0.5 + 0.3
    device = SimulatedDevice(DeviceConfig(**{field: value}))
    ideal = CostModel(device)._ideal_device.config
    assert getattr(ideal, field) == value
    assert getattr(ideal, field) != getattr(CostModel()._ideal_device.config,
                                            field)
