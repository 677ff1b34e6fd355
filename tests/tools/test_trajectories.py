"""Tests for ``tools/trajectories.py`` on the two-model smoke workloads."""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "trajectories", REPO_ROOT / "tools" / "trajectories.py")
trajectories = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("trajectories", trajectories)
_SPEC.loader.exec_module(trajectories)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("trajectories") / "smoke.json"
    assert trajectories.main(["--smoke", str(path)]) == 0
    return path


@pytest.fixture
def rows(recorded):
    return json.loads(recorded.read_text())


def test_records_every_non_random_search_row(rows):
    # search_cold: two TASO rows and a Tensat one; rl_train: one X-RLflow
    # row; serve_mixed: a 2 x 2 catalogue whose first two entries are its
    # cold rows; exec_verify: two.
    assert len(rows) == 3 + 1 + 4 + 2
    assert {key.split("/")[0] for key in rows} == set(trajectories.WORKLOADS)
    assert not any("random" in key for key in rows)
    row = rows["search_cold/taso:squeezenet[max_iterations=10]"]
    assert row["applied_rules"] and row["stats"]["iterations"] == 10.0
    assert float.fromhex(row["final_cost_hex"]) > 0.0
    assert sum(row["histogram"].values()) > 10
    assert row["stats"]["candidates_materialised"] \
        < row["stats"]["candidates_evaluated"]
    assert "episodes" not in row


def test_an_xrlflow_row_records_its_training(rows):
    (key,) = [key for key in rows if key.startswith("rl_train/")]
    row = rows[key]
    assert len(row["episodes"]) == row["stats"]["episodes_trained"] == 2.0
    for episode in row["episodes"]:
        float.fromhex(episode["total_reward_hex"])
        assert isinstance(episode["applied_rules"], list)
    assert row["update_stats"] and "policy_loss" in row["update_stats"][0]
    # Wall-clock stats would differ on every run.
    assert "train_time_s" not in row["stats"]


def test_a_changed_reward_or_update_stat_fails(rows):
    (key,) = [key for key in rows if key.startswith("rl_train/")]
    changed = copy.deepcopy(rows)
    episode = changed[key]["episodes"][-1]
    episode["total_reward_hex"] = (
        float.fromhex(episode["total_reward_hex"]) + 1e-12).hex()
    failures, _, _ = trajectories.compare(rows, changed)
    assert failures == [f"{key}: training episodes differ "
                        "(a total reward or the rules applied)"]
    changed = copy.deepcopy(rows)
    changed[key]["update_stats"][0]["grad_norm"] += 1e-12
    failures, _, _ = trajectories.compare(rows, changed)
    assert failures == [f"{key}: PPO update stats differ"]


def test_a_changed_xrlflow_evaluation_fails(rows):
    (key,) = [key for key in rows if key.startswith("rl_train/")]
    for field, change in (("policy_speedup", 1e-12), ("policy_rules", 1.0)):
        changed = copy.deepcopy(rows)
        changed[key]["stats"][field] += change
        failures, _, _ = trajectories.compare(rows, changed)
        assert failures == [f"{key}: evaluation {field} differs"]
    changed = copy.deepcopy(rows)
    changed[key]["applied_rules"] = changed[key]["applied_rules"][::-1] \
        + ["fuse-conv-relu"]
    failures, _, _ = trajectories.compare(rows, changed)
    assert failures == [f"{key}: returned applied_rules differ"]


def test_a_second_recording_compares_clean(recorded, rows, tmp_path, capsys):
    again = tmp_path / "again.json"
    assert trajectories.main(["--smoke", str(again)]) == 0
    assert json.loads(again.read_text()) == rows
    capsys.readouterr()
    assert trajectories.main(["--compare", str(recorded), str(again)]) == 0
    assert capsys.readouterr().out.strip() == (
        "10 rows compared, 0 differ, 0 failures; rows per field: none")


def test_what_is_reported_and_what_fails(rows):
    # Search rows: an X-RLflow row's evaluation fails on any change (below).
    keys = sorted(key for key in rows if "episodes" not in rows[key])
    # The smoke rows apply one rule over and over: make one a sequence.
    rows[keys[0]]["applied_rules"][0] = "fuse-conv-bn"
    changed = copy.deepcopy(rows)
    changed[keys[0]]["applied_rules"].reverse()
    changed[keys[0]]["stats"]["candidates_evaluated"] += 3.0
    changed[keys[0]]["stats"]["only_here"] = 1.0
    changed[keys[1]]["final_latency_ms"] *= 1.0 + 1e-15
    changed[keys[1]]["final_cost_hex"] = (
        float.fromhex(rows[keys[1]]["final_cost_hex"]) * (1 + 1e-15)).hex()
    changed[keys[2]]["applied_rules"].append("fuse-conv-relu")
    failures, notes, tally = trajectories.compare(rows, changed)
    assert failures == []
    notes = {note.split(": ")[0]: note for note in notes}
    assert notes.keys() == set(keys[:3])
    assert "applied_rules (a permutation)" in notes[keys[0]]
    assert "candidates_evaluated" in notes[keys[0]]
    assert "only_here" not in notes[keys[0]]
    assert "final_latency_ms by" in notes[keys[1]]
    assert "final_cost_ms by" in notes[keys[1]]
    assert "applied_rules (NOT a permutation)" in notes[keys[2]]
    assert tally["applied_rules"] == 2 and tally["final_cost_ms"] == 1

    changed[keys[3]]["final_latency_ms"] *= 1.0 + 1e-9
    changed[keys[4]]["histogram"]["Relu"] = -1
    del changed[keys[5]]
    failures, _, _ = trajectories.compare(rows, changed)
    failures = {line.split(": ")[0]: line for line in failures}
    assert failures.keys() == set(keys[3:6])
    assert "final_latency_ms" in failures[keys[3]]
    assert "histogram" in failures[keys[4]]
    assert "only in the first file" in failures[keys[5]]


def test_compare_exits_non_zero_on_a_failure(recorded, rows, tmp_path,
                                             capsys):
    key = sorted(rows)[0]
    rows[key]["histogram"]["Relu"] = -1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(rows))
    assert trajectories.main(["--compare", str(recorded), str(broken)]) == 1
    assert f"FAIL: {key}: final op histogram differs" \
        in capsys.readouterr().out
