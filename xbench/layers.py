"""Per-layer metrics of a traced run, named as ``BENCHMARK.json`` declares.

Layers are the packages under ``src/repro``.  ``<span>_s`` is the span's
self time, ``<span>_calls`` its call count, both from the **quietest** request
pass (smallest request wall) or exec round of a traced run, so a stage table
and the wall-clock beside it describe the same unit of work.  Shares and
counts that a span cannot give come from the system's own public counters
(``SearchResult.stats``, ``service.stats()``, ``ExecutionReport``); those of
the traffic are summed over all its windows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from xbench.stats import quartiles
from xbench.trace import HARNESS, chrome_trace, coverage_share

__all__ = ["per_layer", "write_trace", "SPAN_METRICS"]

#: span -> the metrics it feeds (``_calls`` only where declared).
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "ir.hash": ("_s", "_calls"), "ir.topo": ("_s", "_calls"),
    "ir.copy": ("_s", "_calls"), "ir.serialize": ("_s",),
    "rules.match": ("_s", "_calls"), "rules.materialise": ("_s", "_calls"),
    "cost.estimate": ("_s", "_calls"), "cost.e2e": ("_s", "_calls"),
    "search.self": ("_s",),
    "nn.gnn_forward": ("_s", "_calls"), "nn.backward": ("_s",),
    "nn.optim_step": ("_s",),
    "rl.observe": ("_s",), "rl.embed": ("_s",), "rl.act": ("_s",),
    "rl.step": ("_s",), "rl.update": ("_s",),
    "core.xrlflow_self": ("_s",),
    "service.admit": ("_s",), "service.fingerprint": ("_s",),
    "service.cache_get": ("_s",), "service.cache_put": ("_s",),
    "models.build": ("_s",),
}


def _quietest(units: List[Dict[str, Any]]) -> Dict[str, Any]:
    return min(units, key=lambda u: u["wall"])


def _p95(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def _overhead(run, best_pass: Dict[str, Any],
              best_round: Dict[str, Any]) -> float:
    """What the tracer added to the quietest pass and round: every span they
    recorded times the calibrated cost of one span-recording wrapper, as a
    share of what they took without it.

    The issue's definition, traced wall / untraced wall − 1, read between
    −4 % and +9 % with its sign changing from workload to workload: two
    walls a second apart differ by more on this host than the tracer adds.
    Spans are counted exactly and a wrapper's cost is measured over 100 000
    calls; hooks (a counter, a dict update; a loop over the nodes after each
    ``exec.run``) are left out.
    """
    from xbench.host import steady
    from xbench.worker import pass_samples

    spans = sum(row["calls"] for unit in (best_pass, best_round)
                for row in unit["snapshot"]["table"].values())
    added = spans * run.wrapper_s
    samples = pass_samples(best_pass) + [
        sample for part in ("before", "after", "verify")
        for sample in best_round[part].values()]
    traffic = best_pass["traffic"]
    if traffic is not None:
        samples.append((traffic["wall"], traffic["host"]))
    wall = sum(map(steady, samples))
    return added / (wall - added)


def per_layer(run) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from xbench.worker import service_counters

    best_pass = _quietest(run.passes)
    best_round = _quietest(run.rounds)
    windows = [p["traffic"] for p in run.passes if p["traffic"] is not None]
    table = best_pass["snapshot"]["table"]
    counters = best_pass["snapshot"]["counters"]
    exec_table = best_round["snapshot"]["table"]
    exec_counters = best_round["snapshot"]["counters"]
    # Walls of the traced pass as the clock read them: spans are not scaled.
    cold = {key: wall for key, (wall, _) in best_pass["cold"].items()}

    metrics: Dict[str, float] = {}
    for span, suffixes in SPAN_METRICS.items():
        row = table.get(span, {"self_s": 0.0, "calls": 0})
        if "_s" in suffixes:
            metrics[span + "_s"] = row["self_s"]
        if "_calls" in suffixes:
            metrics[span + "_calls"] = row["calls"]

    metrics["frontend.roundtrip_s"] = run.frontend_s

    # rules
    materialised = table.get("rules.materialise", {}).get("calls", 0)
    metrics["rules.materialise_none_share"] = (
        counters.get("rules.materialise_none", 0.0) / materialised
        if materialised else 0.0)

    # search: the optimisers' own counters, over the searches of the pass
    searched = [(key, r.search) for key, r in best_pass["results"].items()
                if r is not None]
    stats = [s.stats for _, s in searched]
    iterations = sum(s.get("iterations", 0.0) for s in stats)
    candidates = sum(s.get("candidates_evaluated", 0.0) for s in stats)
    fresh = sum(s["graphs_seen"] - 1.0 for s in stats if "graphs_seen" in s)
    candidate_wall = sum(cold[key] for key, s in searched
                         if "candidates_evaluated" in s.stats)
    metrics["search.iterations"] = iterations
    metrics["search.candidates"] = candidates
    metrics["search.candidates_per_s"] = (
        candidates / candidate_wall if candidate_wall else 0.0)
    metrics["search.dup_share"] = (
        (candidates - fresh) / candidates if candidates else 0.0)
    metrics["search.graphs_explored"] = sum(
        s.get("graphs_explored", 0.0) for s in stats)

    # rl
    rl_wall = sum(cold[key] for key, s in searched
                  if s.optimiser == "xrlflow")
    env_steps = counters.get("rl.env_steps", 0.0)
    metrics["rl.updates"] = table.get("rl.update", {}).get("calls", 0)
    metrics["rl.env_steps"] = env_steps
    metrics["rl.env_steps_per_s"] = env_steps / rl_wall if rl_wall else 0.0
    metrics["rl.obs_cache_hit_share"] = best_pass["rl"]["obs_cache_hit_share"]
    metrics["rl.embed_delta_share"] = best_pass["rl"]["embed_delta_share"]

    # exec
    run_wall = exec_table.get("exec.run", {"self_s": 0.0})["self_s"]
    kernel_s = exec_counters.get("exec.kernel_ms", 0.0) / 1e3
    op_classes = {key[1]: ms / 1e3 for key, ms in exec_counters.items()
                  if isinstance(key, tuple) and key[0] == "exec.op_ms"}
    top_op = max(op_classes, key=op_classes.get, default="")
    metrics["exec.run_s"] = run_wall
    metrics["exec.run_calls"] = exec_table.get("exec.run", {}).get("calls", 0)
    metrics["exec.kernel_s"] = kernel_s
    metrics["exec.dispatch_share"] = (
        (run_wall - kernel_s) / run_wall if run_wall else 0.0)
    metrics["exec.top_op_s"] = op_classes.get(top_op, 0.0)
    metrics["exec.verify_s"] = exec_table.get(
        "exec.verify", {"self_s": 0.0})["self_s"]
    metrics["exec.fallback_ops"] = exec_counters.get("exec.fallback_ops", 0.0)

    # service: cold requests of the pass, or every window of the traffic
    cold_wall = sum(cold.values())
    run_s = sum(r.run_time_s for r in best_pass["results"].values()
                if r is not None)
    queue_s = sum(r.queue_time_s for r in best_pass["results"].values()
                  if r is not None)
    hits = [wall for samples in best_pass["warm"].values()
            for wall, _ in samples]
    misses = list(cold.values())
    served = service_counters(best_pass["stats"])
    if windows:
        hits = [wall for w in windows for wall in w["hit_s"]]
        misses = [wall for w in windows for wall in w["miss_s"]]
        cold_wall = sum(misses)
        run_s = sum(w["run_s"] for w in windows)
        queue_s = sum(w["queue_s"] for w in windows)
        served = {name: sum(w["counters"][name] for w in windows)
                  for name in served}
    answered = (served["memory_hits"] + served["persistent_hits"]
                + served["misses"])
    metrics["service.queue_wait_s"] = queue_s
    metrics["service.overhead_share"] = (
        (cold_wall - run_s) / cold_wall if cold_wall else 0.0)
    metrics["service.hit_p95_ms"] = _p95(hits) * 1e3 if hits else 0.0
    metrics["service.miss_ms"] = (
        quartiles(misses)[1] * 1e3 if misses else 0.0)
    metrics["service.mem_hit_share"] = (
        served["memory_hits"] / answered if answered else 0.0)
    metrics["service.disk_hit_share"] = (
        served["persistent_hits"] / answered if answered else 0.0)
    metrics["service.coalesced"] = served["coalesced"]
    metrics["service.disk_evictions"] = served["disk_evictions"]

    # the tracer itself
    roots = sum(row["self_s"] for name, row in table.items()
                if name.startswith(HARNESS))
    # Two clients wait at once: their requests' walls, not the window's.
    traffic = best_pass["traffic"]
    request_wall = best_pass["wall"] + (
        traffic["latency_s"] if traffic is not None else 0.0)
    metrics["trace_overhead_share"] = _overhead(run, best_pass, best_round)
    metrics["trace_coverage_share"] = coverage_share(table, request_wall)

    detail = {
        "table": {**table, **{k: v for k, v in exec_table.items()
                              if k not in table}},
        "exec_top_op": top_op,
        "exec_op_classes_s": op_classes,
        "request_wall_s": request_wall,
        "harness_self_s": roots,
        "passes": len(run.passes), "windows": len(windows),
        "wrapper_cost_us": run.wrapper_s * 1e6,
    }
    return metrics, detail


def write_trace(run, directory: Path) -> None:
    """Chrome-trace JSON of the quietest pass and round."""
    spans = (_quietest(run.passes)["snapshot"]["spans"]
             + _quietest(run.rounds)["snapshot"]["spans"])
    (directory / "trace.json").write_text(json.dumps(chrome_trace(spans)))
