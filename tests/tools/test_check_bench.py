"""Tests for the CI benchmark-regression gate (``tools/check_bench.py``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_bench", REPO_ROOT / "tools" / "check_bench.py")
check_bench = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_bench", check_bench)
_SPEC.loader.exec_module(check_bench)


def _doc(smoke: bool = False, digest_share: float = 0.21,
         warm_derived: int = 0, **speedups: float) -> dict:
    """A minimal BENCH_search.json-shaped document."""
    return {
        "benchmark": "search", "schema": 1, "smoke": smoke,
        "results": {
            "measured_end_to_end": {
                "bert": {"speedup": speedups.get("bert", 1.05),
                         "rules_applied": 8},
                "inception_v3": {"speedup": speedups.get("inception", 1.03),
                                 "rules_applied": 9},
            },
            "identity": {
                "bert": {"graphs_hashed": 159.0,
                         "graphs_digested": 159.0 * digest_share,
                         "duplicates": 14.0, "digest_share": digest_share},
                "inception_v3": {"graphs_hashed": 534.0,
                                 "graphs_digested": 76.0, "duplicates": 0.0,
                                 "digest_share": 76.0 / 534.0},
            },
            "derivations": {
                "bert": {"warm_nodes_derived": warm_derived},
                "inception_v3": {"warm_nodes_derived": 0},
            },
        },
    }


class TestFlatten:
    def test_numeric_leaves_only(self):
        leaves = check_bench.flatten_numbers(
            {"a": {"b": 1.5, "name": "x", "flag": True}, "c": 2})
        assert leaves == {"a.b": 1.5, "c": 2.0}

    def test_flatten_strings_collects_string_leaves_only(self):
        leaves = check_bench.flatten_strings(
            {"a": {"status": "passed", "n": 3}, "top": "x"})
        assert leaves == {"a.status": "passed", "top": "x"}

    def test_gated_keys_glob_matching(self):
        leaves = {"measured_end_to_end.bert.speedup": 1.05,
                  "measured_end_to_end.bert.rules_applied": 8.0,
                  "cold_vs_warm.speedup": 0.9}
        floors = check_bench.gated_keys(
            leaves, {"measured_end_to_end.*.speedup": 0.97})
        assert floors == {"measured_end_to_end.bert.speedup": 0.97}


class TestEvaluate:
    GATES = check_bench.GATES["BENCH_search.json"]

    def test_full_mode_passes_within_tolerance(self):
        problems, notes = check_bench.evaluate(
            _doc(bert=1.05, inception=1.03), _doc(bert=0.9, inception=0.8),
            self.GATES, smoke=False, tolerance=0.30)
        assert problems == []
        assert len(notes) == 2

    def test_full_mode_fails_beyond_tolerance(self):
        problems, _ = check_bench.evaluate(
            _doc(bert=1.05), _doc(bert=0.7),
            self.GATES, smoke=False, tolerance=0.30)
        assert len(problems) == 1
        assert "measured_end_to_end.bert.speedup" in problems[0]
        assert "regressed" in problems[0]

    def test_smoke_mode_uses_absolute_floors(self):
        # 0.98x would be a >30% regression vs a 1.5x baseline, but it clears
        # the 0.97x smoke floor — reduced-budget runs are not
        # ratio-comparable.
        problems, _ = check_bench.evaluate(
            _doc(bert=1.5), _doc(smoke=True, bert=0.98),
            self.GATES, smoke=True)
        assert problems == []
        problems, _ = check_bench.evaluate(
            _doc(bert=1.5), _doc(smoke=True, bert=0.9),
            self.GATES, smoke=True)
        assert len(problems) == 1
        assert "smoke floor" in problems[0]

    def test_missing_fresh_key_fails(self):
        fresh = _doc()
        del fresh["results"]["measured_end_to_end"]["inception_v3"]
        problems, _ = check_bench.evaluate(_doc(), fresh, self.GATES,
                                           smoke=False)
        assert any("missing from the fresh results" in p for p in problems)

    def test_new_benchmark_without_baseline_passes(self):
        baseline = _doc()
        del baseline["results"]["measured_end_to_end"]["inception_v3"]
        problems, notes = check_bench.evaluate(baseline, _doc(), self.GATES,
                                               smoke=False)
        assert problems == []
        assert any("no committed baseline" in n for n in notes)

    def test_ungated_keys_are_ignored(self):
        baseline = _doc()
        fresh = _doc()
        fresh["results"]["measured_end_to_end"]["bert"]["rules_applied"] = 1.0
        problems, _ = check_bench.evaluate(baseline, fresh, self.GATES,
                                           smoke=False)
        assert problems == []


class TestFloorOnlyRatios:
    """Search seconds over hit seconds: a faster search must not read as a
    regression of the cache, in either mode."""

    GATES = check_bench.GATES["BENCH_service.json"]
    FLOOR_ONLY = check_bench.FLOOR_ONLY["BENCH_service.json"]

    @staticmethod
    def _doc(cold_vs_warm: float, shared: float, dedup: float = 2.0) -> dict:
        return {"benchmark": "service", "schema": 1, "smoke": False,
                "results": {
                    "cold_vs_warm": {"speedup": cold_vs_warm},
                    "warm_shared_cache": {"speedup": shared},
                    "dedup_under_contention": {"speedup": dedup}}}

    def _evaluate(self, fresh: dict, smoke: bool = False):
        return check_bench.evaluate(
            self._doc(1230.0, 64.0), fresh, self.GATES, smoke=smoke,
            floor_only=self.FLOOR_ONLY)

    def test_faster_search_is_not_a_regression_in_full_mode(self):
        # 40 % less search time: both ratios drop > 30 % against the
        # committed values and stay far above their floors (10x, 1x).
        problems, notes = self._evaluate(self._doc(738.0, 38.0))
        assert problems == []
        assert any("cold_vs_warm.speedup" in n and "floor 10.000x" in n
                   for n in notes)

    def test_floors_still_hold_in_both_modes(self):
        for smoke in (False, True):
            problems, _ = self._evaluate(self._doc(9.0, 0.9), smoke=smoke)
            assert len(problems) == 2
            assert all("floor" in p for p in problems)

    def test_every_other_key_keeps_its_baseline_ratio(self):
        problems, _ = self._evaluate(self._doc(1230.0, 64.0, dedup=1.2))
        assert len(problems) == 1
        assert "dedup_under_contention.speedup" in problems[0]
        assert "regressed" in problems[0]

    def test_only_gated_keys_are_named(self):
        for name, paths in check_bench.FLOOR_ONLY.items():
            assert set(paths) <= set(check_bench.GATES[name])


class TestCeilings:
    """Lower-is-better keys of the service bench's ``hit_path`` and
    ``eviction`` sections."""

    CEILINGS = check_bench.CEILINGS["BENCH_service.json"]

    @staticmethod
    def _doc(per_node: float = 2.2, ratio: float = 3.5,
             recompute_ratio: float = 0.59) -> dict:
        return {"benchmark": "service", "schema": 1, "smoke": True,
                "results": {"hit_path": {"samples": 30, "bert": {
                    "fingerprint_us_per_node": per_node,
                    "disk_over_memory": ratio, "disk_hit_ms": 0.8}},
                    "eviction": {"lru_recompute_s": 8.0,
                                 "cache_recompute_s": 8.0 * recompute_ratio,
                                 "recompute_ratio": recompute_ratio}}}

    def _evaluate(self, fresh: dict, smoke: bool):
        return check_bench.evaluate(self._doc(), fresh, {}, smoke=smoke,
                                    ceilings=self.CEILINGS)

    def test_under_the_ceilings_passes_in_both_modes(self):
        for smoke in (True, False):
            problems, notes = self._evaluate(self._doc(), smoke)
            assert problems == []
            assert sum("<= ceiling" in note for note in notes) == 3

    def test_an_lru_disk_order_fails_the_eviction_ceiling(self):
        # Evicting by recency alone re-searches what LRU did: 1.0; 0.8
        # passed the ceiling before both tiers evicted by GreedyDual.
        for recompute_ratio in (1.0, 0.8):
            for smoke in (True, False):
                problems, _ = self._evaluate(
                    self._doc(recompute_ratio=recompute_ratio), smoke)
                assert len(problems) == 1
                assert "eviction.recompute_ratio" in problems[0]
                assert "above the ceiling 0.75" in problems[0]

    def test_a_bench_without_the_eviction_section_fails(self):
        fresh = self._doc()
        del fresh["results"]["eviction"]
        problems, _ = self._evaluate(fresh, smoke=False)
        assert problems == ["eviction.recompute_ratio: no matching key in "
                            "the fresh results (benchmark did not run?)"]

    def test_the_fingerprint_is_read_with_the_build(self):
        """The fingerprint's line tells a reader comparing it with an older
        recording that the payload moved into the build."""
        note = check_bench.KEY_NOTES["hit_path.*.fingerprint_us_per_node"]
        assert "build_us_per_node" in note
        for per_node, smoke in ((2.2, True), (2.2, False), (3.5, True)):
            problems, notes = self._evaluate(self._doc(per_node=per_node),
                                             smoke)
            lines = [line for line in problems + notes
                     if line.startswith("hit_path.bert.fingerprint")]
            assert len(lines) == 1 and lines[0].endswith(note)
            assert not any(note in line for line in problems + notes
                           if line not in lines)

    def test_above_a_ceiling_fails_in_both_modes(self):
        for smoke in (True, False):
            # A hash that looks each payload up again (2.8-6.0 us a node on
            # a 2-vCPU host) must trip it.
            problems, _ = self._evaluate(self._doc(per_node=3.5), smoke)
            assert len(problems) == 1
            assert "hit_path.bert.fingerprint_us_per_node" in problems[0]
            assert "above the ceiling 3" in problems[0]
            problems, _ = self._evaluate(self._doc(ratio=9.0), smoke)
            assert len(problems) == 1 and "disk_over_memory" in problems[0]

    def test_a_section_that_did_not_run_fails(self):
        fresh = self._doc()
        del fresh["results"]["hit_path"]
        problems, _ = self._evaluate(fresh, smoke=True)
        assert len(problems) == 2
        assert all("no matching key" in p for p in problems)


class TestSearchIdentityCeiling:
    """Structural hashes per identity a TASO search takes: a count, gated in
    both modes, that reads 1.0 if the search hashes every kept graph."""

    CEILINGS = check_bench.CEILINGS["BENCH_search.json"]
    POSITIVE = check_bench.REQUIRED_POSITIVE["BENCH_search.json"]

    def _evaluate(self, fresh: dict, smoke: bool):
        return check_bench.evaluate(_doc(), fresh, {}, smoke=smoke,
                                    required_positive=self.POSITIVE,
                                    ceilings=self.CEILINGS)

    def test_the_recorded_shares_pass_in_both_modes(self):
        for smoke in (True, False):
            problems, notes = self._evaluate(_doc(smoke=smoke), smoke)
            assert problems == []
            assert sum("<= ceiling 0.3" in note for note in notes) == 2

    def test_hashing_every_kept_graph_fails_in_both_modes(self):
        for smoke in (True, False):
            problems, _ = self._evaluate(_doc(digest_share=1.0), smoke)
            assert len(problems) == 1
            assert "identity.bert.digest_share" in problems[0]
            assert "above the ceiling 0.3" in problems[0]

    def test_a_bench_that_recorded_no_identities_fails(self):
        fresh = _doc()
        del fresh["results"]["identity"]
        problems, _ = self._evaluate(fresh, smoke=True)
        assert len(problems) == 2
        assert all("no matching key" in p for p in problems)

    def test_the_committed_recording_is_under_the_ceiling(self):
        recorded = json.loads((REPO_ROOT / "BENCH_search.json").read_text())
        shares = check_bench.gated_keys(
            check_bench.flatten_numbers(recorded["results"]), self.CEILINGS)
        assert len([key for key in shares if key.startswith("identity.")]) \
            == 2


class TestSearchDerivationCeiling:
    """Node costs and kernel times a search of a fresh build of a searched
    model derives: a count, gated at 0 in both modes."""

    CEILINGS = check_bench.CEILINGS["BENCH_search.json"]

    def _evaluate(self, fresh: dict, smoke: bool):
        return check_bench.evaluate(_doc(), fresh, {}, smoke=smoke,
                                    ceilings=self.CEILINGS)

    def test_nothing_derived_passes_in_both_modes(self):
        for smoke in (True, False):
            problems, notes = self._evaluate(_doc(smoke=smoke), smoke)
            assert problems == []
            assert sum("warm_nodes_derived: 0.000 <= ceiling 0" in note
                       for note in notes) == 2

    def test_one_derivation_fails_in_both_modes(self):
        # Kept per node, a fresh bert build re-derived 309 at 8 iterations.
        for smoke in (True, False):
            problems, _ = self._evaluate(_doc(warm_derived=1), smoke)
            assert len(problems) == 1
            assert "derivations.bert.warm_nodes_derived" in problems[0]
            assert "above the ceiling 0" in problems[0]

    def test_a_bench_that_recorded_no_derivations_fails(self):
        fresh = _doc()
        del fresh["results"]["derivations"]
        problems, _ = self._evaluate(fresh, smoke=True)
        assert len(problems) == 1
        assert "no matching key" in problems[0]

    def test_the_committed_recording_derived_nothing(self):
        recorded = json.loads((REPO_ROOT / "BENCH_search.json").read_text())
        leaves = check_bench.flatten_numbers(recorded["results"])
        assert [leaves[key] for key in check_bench.gated_keys(
            leaves, self.CEILINGS) if key.startswith("derivations.")] \
            == [0.0, 0.0]


class TestSearchWitnesses:
    """The BENCH_search witnesses ride through check_file-level gates."""

    POSITIVE = check_bench.REQUIRED_POSITIVE["BENCH_search.json"]

    def _evaluate(self, fresh: dict):
        return check_bench.evaluate(_doc(), fresh, {}, smoke=True,
                                    required_positive=self.POSITIVE)

    def test_witnessed_doc_passes(self):
        problems, _ = self._evaluate(_doc())
        assert problems == []

    def test_search_without_rewrites_fails(self):
        fresh = _doc()
        fresh["results"]["measured_end_to_end"]["bert"]["rules_applied"] = 0
        problems, _ = self._evaluate(fresh)
        assert any("rules_applied" in p for p in problems)


class TestCli:
    def _write(self, path: Path, doc: dict) -> Path:
        path.write_text(json.dumps(doc))
        return path

    def test_clean_gate_exits_zero(self, tmp_path, capsys):
        (tmp_path / "b").mkdir()
        baseline = self._write(tmp_path / "b" / "BENCH_search.json", _doc())
        fresh = self._write(tmp_path / "BENCH_search.json",
                            _doc(smoke=True, bert=1.0, inception=0.99))
        return_code = check_bench.main(["--baseline", str(baseline),
                                        "--fresh", str(fresh)])
        out = capsys.readouterr().out
        assert return_code == 0
        assert "smoke gate" in out  # auto-detected from the fresh flag
        assert "benchmark gates clean" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "b").mkdir()
        baseline = self._write(tmp_path / "b" / "BENCH_search.json", _doc())
        fresh = self._write(tmp_path / "BENCH_search.json",
                            _doc(bert=0.5))
        return_code = check_bench.main(["--baseline", str(baseline),
                                        "--fresh", str(fresh), "--full"])
        out = capsys.readouterr().out
        assert return_code == 1
        assert "FAIL" in out

    def test_real_committed_files_pass_their_own_gate(self, capsys):
        """The repo's committed numbers must clear their own full gate."""
        for name in ("BENCH_search.json", "BENCH_service.json",
                     "BENCH_exec.json"):
            path = REPO_ROOT / name
            return_code = check_bench.main(["--baseline", str(path),
                                           "--fresh", str(path), "--full"])
            assert return_code == 0, capsys.readouterr().out

    def test_committed_recordings_say_which_host_made_them(self):
        for name in check_bench.GATES:
            host = json.loads((REPO_ROOT / name).read_text()).get("host")
            assert host and host["cores"] >= 1 and host["python"], name

    def test_host_blocks_are_printed_and_a_core_mismatch_noted(self, tmp_path,
                                                               capsys):
        (tmp_path / "b").mkdir()
        host = {"cores": 2, "python": "3.11.7", "platform": "Linux"}
        baseline = self._write(tmp_path / "b" / "BENCH_search.json",
                               {**_doc(), "host": host})
        fresh = self._write(tmp_path / "BENCH_search.json",
                            {**_doc(), "host": {**host, "cores": 8}})
        assert check_bench.main(["--baseline", str(baseline),
                                 "--fresh", str(fresh)]) == 0
        out = capsys.readouterr().out
        assert "host baseline: cores=2, platform=Linux, python=3.11.7" in out
        assert "host fresh:    cores=8" in out
        assert "core counts differ (2 vs 8)" in out
        # Same host: no note; a recording without the block says so.
        assert check_bench.main(["--baseline", str(baseline),
                                 "--fresh", str(baseline)]) == 0
        assert "differ" not in capsys.readouterr().out
        assert check_bench.host_lines(_doc(), _doc()) == [
            "host baseline: not recorded", "host fresh:    not recorded"]

    def test_unknown_file_is_rejected(self, tmp_path):
        path = self._write(tmp_path / "BENCH_unknown.json", _doc())
        with pytest.raises(SystemExit, match="no gates"):
            check_bench.main(["--baseline", str(path), "--fresh", str(path)])


def _exec_doc(smoke: bool = True, *, pass_rate: float = 1.0,
              improvement: float = 2.0, status: str = "passed",
              rules: float = 15.0, equivalence: bool = True) -> dict:
    """A minimal BENCH_exec.json-shaped document."""
    results = {
        "models": {"bert": {"execute_ms": 18.0, "sim_ms": 0.3,
                            "ratio": 60.0, "nodes": 105.0}},
        "calibration": {"samples": 120.0, "error_before": 4.0,
                        "error_after": 1.3, "improvement": improvement},
        "op_class_ratio": {"MatMul": 0.7},
    }
    if equivalence:
        results["equivalence"] = {
            "rules_checked": rules, "optimiser_checks": 9.0,
            "total_checks": 24.0, "pass_rate": pass_rate,
            "status": status, "rtol": 1e-5, "atol": 1e-6}
    return {"benchmark": "exec", "schema": 1, "smoke": smoke,
            "results": results}


class TestExecWitnesses:
    """BENCH_exec.json gates: the differential sweep must run and pass."""

    EXEC_GATES = check_bench.GATES["BENCH_exec.json"]
    POSITIVE = check_bench.REQUIRED_POSITIVE["BENCH_exec.json"]
    LITERAL = check_bench.REQUIRED_LITERAL["BENCH_exec.json"]

    def _evaluate(self, fresh: dict, smoke: bool = True):
        return check_bench.evaluate(
            _exec_doc(), fresh, self.EXEC_GATES, smoke=smoke,
            required_positive=self.POSITIVE, required_literal=self.LITERAL)

    def test_witnessed_run_passes_both_modes(self):
        for smoke in (True, False):
            problems, notes = self._evaluate(_exec_doc(smoke=smoke),
                                             smoke=smoke)
            assert problems == []
            assert any("gate executed" in n for n in notes)

    def test_skipped_equivalence_sweep_fails(self):
        problems, _ = self._evaluate(_exec_doc(equivalence=False))
        assert any("equivalence gate skipped" in p for p in problems)
        # pass_rate is also gated, so its absence fails separately.
        assert any("equivalence.pass_rate" in p for p in problems)

    def test_zero_witness_fails_in_full_mode_too(self):
        problems, _ = self._evaluate(_exec_doc(smoke=False, rules=0.0),
                                     smoke=False)
        assert any("rules_checked" in p and "never executed" in p
                   for p in problems)

    def test_partial_pass_rate_fails(self):
        problems, _ = self._evaluate(_exec_doc(pass_rate=0.96))
        assert any("equivalence.pass_rate" in p and "smoke floor" in p
                   for p in problems)

    def test_failed_status_literal_fails(self):
        problems, _ = self._evaluate(_exec_doc(status="failed"))
        assert any("!= expected 'passed'" in p for p in problems)

    def test_calibration_must_not_worsen_fit(self):
        problems, _ = self._evaluate(_exec_doc(improvement=0.8))
        assert any("calibration.improvement" in p for p in problems)


class TestContentionDedupWitness:
    """BENCH_service.json: the contended batch's one search was recorded."""

    POSITIVE = check_bench.REQUIRED_POSITIVE["BENCH_service.json"]

    @staticmethod
    def _doc(searches: float) -> dict:
        return {"benchmark": "service", "schema": 1, "smoke": True,
                "results": {"dedup_under_contention": {
                    "submissions": 8, "searches_with_dedup": searches,
                    "speedup": 3.0}}}

    def _evaluate(self, fresh: dict):
        return check_bench.evaluate(self._doc(1), fresh, {}, smoke=True,
                                    required_positive=self.POSITIVE)

    def test_one_search_passes(self):
        problems, notes = self._evaluate(self._doc(1))
        assert problems == []
        assert any("dedup_under_contention.searches_with_dedup" in n
                   and "gate executed" in n for n in notes)

    def test_no_search_fails(self):
        problems, _ = self._evaluate(self._doc(0))
        assert any("searches_with_dedup" in p for p in problems)

    def test_a_row_without_the_witness_fails(self):
        fresh = self._doc(1)
        del fresh["results"]["dedup_under_contention"]["searches_with_dedup"]
        problems, _ = self._evaluate(fresh)
        assert any("searches_with_dedup" in p for p in problems)

    def test_the_committed_recording_searched_once(self):
        doc = json.loads((REPO_ROOT / "BENCH_service.json").read_text())
        assert doc["results"]["dedup_under_contention"][
            "searches_with_dedup"] == 1
        assert "worker_backends" not in doc["results"]
        assert "cross_process_dedup" not in doc["results"]
