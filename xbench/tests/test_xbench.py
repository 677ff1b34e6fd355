"""Tests of the benchmark itself (run: ``PYTHONPATH=src python -m pytest
xbench/tests``; the smoke runs need ``src/repro`` beside ``xbench/``)."""

from __future__ import annotations

import json
import math
import re
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from xbench.runner import declared, one_run
from xbench.compare import compare, judge
from xbench.trace import Patch, Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- tracer arithmetic ----------------------------------------------------
class Ticker:
    """A clock that advances one second per reading: exact arithmetic."""

    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self) -> float:
        with self.lock:
            self.now += 1.0
            return self.now


@pytest.fixture
def synthetic():
    """A throw-away module with every kind of callable the table patches."""
    module = types.ModuleType("xbench_synthetic")
    other = types.ModuleType("xbench_synthetic.other")

    def leaf():
        return "leaf"

    def outer():
        return module.leaf() + module.leaf()

    def recurse(depth):
        return 1 if depth == 0 else 1 + module.recurse(depth - 1)

    def boom():
        module.leaf()
        raise ValueError("boom")

    class Thing:
        def method(self):
            return module.leaf()

        @staticmethod
        def static(x):
            return x + 1

        @classmethod
        def make(cls):
            return cls()

    module.leaf, module.outer, module.recurse = leaf, outer, recurse
    module.boom, module.Thing = boom, Thing
    other.leaf = leaf  # ``from xbench_synthetic import leaf``
    sys.modules[module.__name__] = module
    sys.modules[other.__name__] = other
    yield module, other
    del sys.modules[module.__name__], sys.modules[other.__name__]


def synthetic_tracer(*qualnames: str) -> Tracer:
    patches = [Patch("syn." + q.split(".")[-1], "xbench_synthetic", q)
               for q in qualnames]
    return Tracer(patches, namespaces=("xbench_synthetic",), clock=Ticker())


def self_total(tracer: Tracer) -> float:
    return sum(row["self_s"] for row in tracer.table().values())


def test_nested_self_times_sum_to_root(synthetic):
    module, _ = synthetic
    tracer = synthetic_tracer("leaf", "outer")
    with tracer:
        with tracer.span("harness.root"):
            assert module.outer() == "leafleaf"
    table = tracer.table()
    spans = tracer.snapshot()["spans"]
    root = next(s for s in spans if s[3] == "harness.root")
    outer = next(s for s in spans if s[3] == "syn.outer")
    assert table["syn.leaf"]["calls"] == 2
    assert self_total(tracer) == root[5] - root[4]
    assert outer[2] == root[1]
    assert all(s[2] == outer[1] for s in spans if s[3] == "syn.leaf")


def test_recursive_calls_count_once_each(synthetic):
    module, _ = synthetic
    tracer = synthetic_tracer("recurse")
    with tracer:
        with tracer.span("harness.root"):
            assert module.recurse(3) == 4
    spans = tracer.snapshot()["spans"]
    root = next(s for s in spans if s[3] == "harness.root")
    assert tracer.table()["syn.recurse"]["calls"] == 4
    assert self_total(tracer) == root[5] - root[4]


def test_originals_restored_after_exception(synthetic):
    module, other = synthetic
    leaf, boom = module.leaf, module.boom
    tracer = synthetic_tracer("leaf", "boom")
    with pytest.raises(ValueError):
        with tracer:
            assert module.leaf is not leaf and other.leaf is not leaf
            module.boom()
    assert module.leaf is leaf and other.leaf is leaf
    assert module.boom is boom
    # The raising call still closed its span.
    assert tracer.table()["syn.boom"]["calls"] == 1


def test_static_and_class_methods_keep_their_kind(synthetic):
    module, _ = synthetic
    thing = module.Thing
    raw = dict(thing.__dict__)
    tracer = synthetic_tracer("Thing.method", "Thing.static", "Thing.make")
    with tracer:
        assert isinstance(thing.__dict__["static"], staticmethod)
        assert isinstance(thing.__dict__["make"], classmethod)
        assert thing.static(1) == 2 and thing().static(1) == 2
        assert isinstance(thing.make(), thing)
        assert thing().method() == "leaf"
    assert tracer.table()["syn.static"]["calls"] == 2
    for name in ("method", "static", "make"):
        assert thing.__dict__[name] is raw[name]


def test_two_threads_keep_separate_stacks(synthetic):
    module, _ = synthetic
    tracer = synthetic_tracer("leaf")
    barrier = threading.Barrier(2)

    def work():
        barrier.wait()
        with tracer.span("harness.root"):
            for _ in range(50):
                module.leaf()

    with tracer:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    spans = tracer.snapshot()["spans"]
    roots = [s for s in spans if s[3] == "harness.root"]
    assert len(roots) == 2 and roots[0][0] != roots[1][0]
    for tid, span_id, *_ in roots:
        children = [s for s in spans if s[0] == tid and s[2] == span_id]
        assert len(children) == 50
    durations = sum(s[5] - s[4] for s in roots)
    assert self_total(tracer) == durations
    assert tracer.table()["syn.leaf"]["calls"] == 100


# -- the estimator ---------------------------------------------------------
def test_a_slower_host_does_not_move_a_row():
    from xbench.host import HostProbe, steady
    from xbench.worker import row_samples

    unit = HostProbe.REFERENCE_S
    assert steady((0.30, 1.5 * unit)) == pytest.approx(0.20)
    # One row, three passes: at the reference speed, at half and a third.
    noisy = [{"cold": {"row": (0.2 * slow, unit * slow)}}
             for slow in (1.0, 2.0, 3.0)]
    assert row_samples(noisy, "cold")["row"] == pytest.approx([0.2] * 3)
    # A list of samples per row (hits) reads like single ones.
    hits = [{"warm": {"row": [(0.002, 2 * unit), (0.001, unit)]}}]
    assert row_samples(hits, "warm")["row"] == pytest.approx([0.001] * 2)


def test_the_probe_leaves_the_collector_as_it_found_it():
    import gc

    from xbench.host import HostProbe

    probe = HostProbe()
    assert gc.isenabled()
    assert probe() > 0 and gc.isenabled()
    gc.disable()
    try:
        probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(probe.samples) == 2


# -- seeded inputs --------------------------------------------------------
def test_seed_fixes_the_traffic_and_not_the_catalogue():
    from xbench.workloads import TRAFFIC_CYCLE, workload, zipf_sequence

    traffic = workload("serve_mixed").traffic
    again = workload("serve_mixed").traffic
    size = len(traffic.catalogue)
    assert traffic.catalogue == again.catalogue and size == 64
    assert len({(r.model, r.optimiser, r.config)
                for r in traffic.catalogue}) == size
    # Both tiers are smaller than the catalogue: disk eviction is exercised.
    assert traffic.memory_entries < traffic.disk_entries < size
    a = zipf_sequence(3, size)
    assert a == zipf_sequence(3, size) and len(a) == TRAFFIC_CYCLE
    assert a != zipf_sequence(4, size)
    assert sorted(a) == sorted(zipf_sequence(4, size))
    assert a.count(0) > a.count(size - 1) > 0  # rank 1 is the popular one


def test_untimed_checks_cover_every_row_in_three_seeds():
    from xbench.worker import CHECK_ONE_RUN_IN, share_to_check

    rows = list(range(10))
    shares = [share_to_check(rows, seed)
              for seed in range(7, 7 + CHECK_ONE_RUN_IN)]
    assert sorted(sum(shares, [])) == rows
    assert all(shares)


# -- BENCHMARK.json against what a run emits -------------------------------
def test_declared_names_are_well_formed():
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["xbench"]


def test_smoke_runs_emit_exactly_the_declared_metrics():
    spec = declared()
    jobs = [(w["name"], trace) for w in spec["workloads"]
            for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda job: one_run(job[0], seed=0, seconds=0.5, trace=job[1],
                                smoke=True, echo=False)[0], jobs))
    for (name, trace), result in zip(jobs, results):
        assert result is not None, f"{name} crashed"
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        kind = "per_layer" if trace else "end_to_end"
        assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
        for metric in spec[kind]:
            cell = result["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert math.isfinite(cell["value"]), (name, metric["name"])
            if not trace:
                assert cell["value"] > 0, (name, metric["name"])
        if trace:
            values = {k: cell["value"] for k, cell in result["metrics"].items()}
            assert 0 < values["trace_overhead_share"] < 0.25, name
            if name == "serve_mixed":
                assert values["service.disk_evictions"] > 0
    assert not (ROOT / ".xbench_work").exists()


# -- compare ---------------------------------------------------------------
def document(optimise_s, failed=0):
    return {"host": {"nproc": 2}, "seed": 0, "workloads": {"search_cold": {
        "runs": [{"attempted": 100, "failed": failed, "metrics": {
            "optimise_s": {"value": value, "unit": "s"}}}
            for value in optimise_s]}}}


def test_compare_applies_the_metrics_own_bound():
    spec = declared()
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "optimise_s")
    base = [1.00, 1.01, 0.99, 1.00]
    slower = document([v * (1 + bound + 0.01) for v in base])
    within = document([v * (1 + bound - 0.01) for v in base])
    rows, regressed = compare(document(base), slower, spec)
    assert regressed and rows[0]["verdict"] == "worse"
    rows, regressed = compare(document(base), within, spec)
    assert not regressed and rows[0]["verdict"] == "same"
    rows, regressed = compare(document(base), document(base, failed=1), spec)
    assert regressed and rows[-1]["metric"] == "failed_share"


def test_compare_reports_unresolved_when_spreads_overlap():
    noisy_a = [1.0, 1.3, 0.8, 1.1]
    noisy_b = [1.2, 0.9, 1.4, 1.0]
    assert judge(noisy_a, noisy_b, "lower", 0.10)[0] == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert judge(noisy_a, [v * 2 for v in noisy_a], "lower",
                 0.10)[0] == "worse"
    assert judge(noisy_a, [v / 2 for v in noisy_a], "lower",
                 0.10)[0] == "better"
    assert judge([10, 10.1], [12, 12.1], "higher", 0.10)[0] == "better"


# -- failures are counted ----------------------------------------------------
@pytest.fixture
def run(tmp_path):
    from repro.exec import NumpyExecutor

    from xbench.worker import Run, bootstrap
    from xbench.workloads import workload

    bootstrap()
    return Run(workload("exec_verify", smoke=True), seed=0, seconds=0.1,
               trace=False, workdir=tmp_path, executor=NumpyExecutor())


def test_a_pair_that_computes_something_else_is_a_failure(run):
    from repro.ir import GraphBuilder

    def unary(op):
        builder = GraphBuilder("pair")
        getattr(builder, op)(builder.input((2, 8), name="x"))
        return builder.graph

    run.verify("same", unary("relu"), unary("relu"), True)
    assert run.attempted == 1 and not run.failures
    run.verify("differs", unary("relu"), unary("tanh"), True)
    assert run.attempted == 2 and len(run.failures) == 1


def test_a_raising_optimiser_is_a_failure(run):
    from repro.service import OptimisationService, register_optimiser
    from repro.service import registry

    from xbench.workloads import Row

    class Raises:
        def optimise(self, graph, model_name=""):
            raise RuntimeError("no")

    register_optimiser("xbench-raises", Raises)
    try:
        with OptimisationService(num_workers=1) as service:
            row = Row("squeezenet", "xbench-raises")
            _, result = run.request(service, row, row.build())
    finally:
        del registry._REGISTRY["xbench-raises"]
    assert result is None
    assert run.attempted == 1 and len(run.failures) == 1


def test_results_document_round_trips_through_compare(tmp_path):
    spec = declared()
    base = {"host": {"nproc": 2}, "seed": 0, "workloads": {
        w["name"]: {"runs": [{"attempted": 1, "failed": 0, "metrics": {
            m["name"]: {"value": 1.0, "unit": m["unit"]}
            for m in spec["end_to_end"]}}]} for w in spec["workloads"]}}
    path = tmp_path / "results.json"
    path.write_text(json.dumps(base))
    rows, regressed = compare(json.loads(path.read_text()), base, spec)
    assert not regressed
    assert len(rows) == len(spec["workloads"]) * (len(spec["end_to_end"]) + 1)
