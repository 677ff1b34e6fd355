"""CI workflow hygiene: the config in ``.github/workflows/ci.yml`` must
stay consistent with the repository it gates.

Plain-text assertions (no YAML dependency in the container): the
workflow is small and the properties checked here are structural —
ignore-lists that reference real files, cache keys that depend on the
requirements stanza, and the importer job wiring."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CI = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()

_SPEC = importlib.util.spec_from_file_location(
    "_harness", REPO_ROOT / "benchmarks" / "_harness.py")
HARNESS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(HARNESS)


def test_tier1_ignore_list_references_existing_files():
    """Every --ignore'd path must exist — a renamed benchmark would turn
    the ignore into a no-op and silently double-run the file in tier1."""
    ignored = re.findall(r"--ignore=(\S+)", CI)
    assert ignored, "tier1 ignore list disappeared"
    for path in ignored:
        assert (REPO_ROOT / path).is_file(), f"stale ignore: {path}"


def test_tier1_matrix_keeps_the_interpreter_whose_sum_differs():
    """Builtin ``sum`` compensates since 3.12: ``tests/cost/
    test_exact_total.py`` only has teeth against a float-summing cost total
    on a leg where ``sum`` and a ``+=`` loop disagree."""
    matrix = re.search(r"python: \[(.*)\]", CI)
    assert matrix and '"3.12"' in matrix.group(1).split(", ")


def test_tier1_ignores_exactly_the_bench_files_the_bench_job_runs():
    """The ignore list and the bench job must cover the same files: a
    benchmark ignored in tier1 but not run by bench would never run."""
    ignored = {Path(p).name for p in re.findall(r"--ignore=(\S+)", CI)}
    bench_runs = set(re.findall(r"pytest (benchmarks/\S+\.py)", CI))
    assert ignored == {Path(p).name for p in bench_runs}


def test_bench_job_gates_fresh_output_against_the_committed_files():
    """Bench runs write under the harness's git-ignored output directory;
    the tracked ``BENCH_*.json`` are the baselines, so nothing is snapshot
    to ``/tmp`` first and no run can dirty the checkout."""
    baselines = re.findall(r"--baseline (\S+)", CI)
    fresh = re.findall(r"--fresh (\S+)", CI)
    assert baselines and sorted(baselines) == sorted(
        path.name for path in REPO_ROOT.glob("BENCH_*.json"))
    assert fresh == [f"{HARNESS.OUTPUT_DIR.name}/{name}" for name in baselines]
    assert "Snapshot committed baselines" not in CI


def test_harness_output_directory_is_git_ignored():
    assert HARNESS.OUTPUT_DIR.parent == REPO_ROOT
    ignored = (REPO_ROOT / ".gitignore").read_text().splitlines()
    assert f"{HARNESS.OUTPUT_DIR.name}/" in ignored


def test_a_recording_keeps_only_what_its_own_run_measured(
        tmp_path, monkeypatch):
    """A section an earlier run left in ``BENCH_<name>.json`` does not
    survive the first ``record`` of a new run; this run's sections
    accumulate."""
    monkeypatch.setattr(HARNESS, "OUTPUT_DIR", tmp_path)
    stale = {"benchmark": "probe", "schema": 1, "smoke": False,
             "host": {}, "results": {"deleted_bench": {"value": 9.0}}}
    (tmp_path / "BENCH_probe.json").write_text(json.dumps(stale))
    HARNESS.record("probe", "first", {"value": 1.0}, smoke=True)
    HARNESS.record("probe", "second", {"value": 2.0}, smoke=True)
    data = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert data["results"] == {"first": {"value": 1.0},
                               "second": {"value": 2.0}}
    assert data["smoke"] is True


def test_every_recording_says_whether_blas_was_pinned(tmp_path, monkeypatch):
    """The host block names each BLAS thread-count variable, ``""`` when
    the run left it unset."""
    monkeypatch.setattr(HARNESS, "OUTPUT_DIR", tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    HARNESS.record("probe", "section", {"value": 1.0}, smoke=True)
    host = json.loads((tmp_path / "BENCH_probe.json").read_text())["host"]
    assert {name: host[name] for name in HARNESS.BLAS_THREAD_VARIABLES} == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "",
        "MKL_NUM_THREADS": "4"}
    assert host["cores"] >= 1 and host["python"] and host["platform"]


def test_bench_job_pins_blas_to_one_thread():
    """``benchmarks/test_exec_bench.py`` times GEMMs: on two OpenBLAS
    threads they wait for the second one whenever the other vCPU is busy."""
    job = re.search(r"\n  bench:\n(.*?)\n  \w+:\n", CI, re.S)
    assert job, "bench job disappeared"
    env = re.search(r"\n    env:\n((?:      .*\n?)+)", job.group(1))
    assert env, "bench job has no job-level env"
    assert re.search(r'^      OPENBLAS_NUM_THREADS: "1"$', env.group(1), re.M)
    assert re.search(r'^      OMP_NUM_THREADS: "1"$', env.group(1), re.M)



def test_trajectories_job_compares_base_and_change_on_pull_requests():
    """A perf change must keep every trajectory: the job records the pull
    request's base (a worktree of the full history) and the change with
    BLAS pinned on both sides, and fails on what ``--compare`` fails on."""
    job = re.search(r"\n  trajectories:\n(.*?)(?=\n  \w+:\n|\Z)", CI, re.S)
    assert job, "trajectories job disappeared"
    body = job.group(1)
    assert "if: github.event_name == 'pull_request'" in body
    assert re.search(r"^          fetch-depth: 0$", body, re.M)
    env = re.search(r"\n    env:\n((?:      .*\n?)+)", body)
    assert env, "trajectories job has no job-level env"
    assert re.search(r'^      OPENBLAS_NUM_THREADS: "1"$', env.group(1), re.M)
    assert re.search(r'^      OMP_NUM_THREADS: "1"$', env.group(1), re.M)
    base = re.search(r'git worktree add (\S+) '
                     r'"\$\{\{ github\.event\.pull_request\.base\.sha \}\}"',
                     body)
    assert base, "the base commit is not checked out"
    steps = re.findall(r"run: (python tools/trajectories\.py .*)", body)
    assert steps == [
        f"python tools/trajectories.py --root {base.group(1)} base.json",
        "python tools/trajectories.py head.json",
        "python tools/trajectories.py --compare base.json head.json"]

def test_pip_cache_key_tracks_the_requirements_file():
    """Cache keys must depend on the explicit requirements stanza, not on
    ci.yml itself — editing an unrelated step should not cold-start pip."""
    assert (REPO_ROOT / ".github" / "requirements-ci.txt").is_file()
    deps = re.findall(r"cache-dependency-path:\s*(\S+)", CI)
    assert deps, "pip cache configuration disappeared"
    assert all(d == ".github/requirements-ci.txt" for d in deps)


def test_install_steps_use_the_requirements_file():
    """The requirements stanza only keys the cache correctly if installs
    actually read it."""
    assert "pip install -r .github/requirements-ci.txt" in CI


def test_requirements_file_has_no_unvetted_dependencies():
    """The container bakes in numpy/pytest; anything beyond the vetted
    set needs an explicit decision (and an offline-install story)."""
    allowed = {"numpy", "pytest", "pytest-benchmark", "ruff"}
    lines = (REPO_ROOT / ".github" / "requirements-ci.txt").read_text()
    for line in lines.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        name = re.split(r"[<>=~!\[]", line)[0].strip()
        assert name in allowed, f"unvetted CI dependency: {name}"


def test_importer_job_exists_and_gates_coverage():
    assert "importer:" in CI
    assert "tools/check_import_coverage.py" in CI
    assert "GITHUB_STEP_SUMMARY" in CI
    assert "IMPORT_CONFORMANCE=1" in CI


def test_xbench_job_runs_the_declared_benchmark_and_its_tests():
    assert "xbench:" in CI
    assert "python3 -m xbench --smoke" in CI
    assert "pytest xbench/tests" in CI


def test_docs_job_refuses_numbered_roadmap_pointers():
    assert re.search(r"check_docs\.py --roadmap-pointers\s*$", CI,
                     re.MULTILINE), "roadmap-pointer step disappeared"


def test_docs_job_gates_docstrings_of_service_cost_and_search():
    gate = re.search(r"check_docs\.py --docstrings(.*)", CI)
    assert gate, "docstring-coverage step disappeared"
    assert set(gate.group(1).split()) >= {
        "src/repro/service", "src/repro/cost", "src/repro/search"}


def test_docs_job_gates_docstrings_of_rl():
    gate = re.search(r"check_docs\.py --docstrings(.*)", CI)
    assert gate and "src/repro/rl" in gate.group(1).split()


def test_docs_job_gates_docstrings_of_nn():
    gate = re.search(r"check_docs\.py --docstrings(.*)", CI)
    assert gate and "src/repro/nn" in gate.group(1).split()


def test_docs_job_gates_docstrings_of_core():
    gate = re.search(r"check_docs\.py --docstrings(.*)", CI)
    assert gate and "src/repro/core" in gate.group(1).split()


def test_docs_job_gates_docstrings_of_the_rule_base_and_match_engine():
    gate = re.search(r"check_docs\.py --docstrings(.*)", CI)
    assert gate and {"src/repro/rules/base.py",
                     "src/repro/rules/incremental.py"} \
        <= set(gate.group(1).split())


def test_docs_job_gates_docstrings_of_the_graph_ir():
    gate = re.search(r"check_docs\.py --docstrings(.*)", CI)
    assert gate and "src/repro/ir/graph.py" in gate.group(1).split()


def test_docs_job_gates_only_paths_that_exist():
    """The gate reports a missing path too; this names the stale entry."""
    gate = re.search(r"check_docs\.py --docstrings(.*)", CI)
    assert gate
    for path in gate.group(1).split():
        assert (REPO_ROOT / path).exists(), f"stale docstring path: {path}"


def test_concurrency_cancels_superseded_runs():
    assert "cancel-in-progress: true" in CI
