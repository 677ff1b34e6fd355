"""Rule matching must be safe under the service's thread backend.

``restricted_anchor_matching`` used to flip a module global: a search
pre-empted inside it filtered the *other* thread's ``find_matches``
(searches came back untouched, with zero candidates), and two interleaved
exits left a stale filter installed for the rest of the process.
"""

import sys
import threading

from repro.experiments import build_small_model
from repro.rules import default_ruleset
from repro.rules.base import restricted_anchor_matching
from repro.search import TASOOptimizer

JOIN_TIMEOUT_S = 60


def _parked_inside(context_manager):
    """Start a thread and park it inside ``context_manager``; returns
    ``(thread, release)`` once the thread is inside."""
    entered, release = threading.Event(), threading.Event()

    def park():
        with context_manager:
            entered.set()
            release.wait(JOIN_TIMEOUT_S)

    thread = threading.Thread(target=park, daemon=True)
    thread.start()
    assert entered.wait(JOIN_TIMEOUT_S)
    return thread, release


def _finish(thread, release):
    release.set()
    thread.join(JOIN_TIMEOUT_S)
    assert not thread.is_alive()


def test_anchor_filter_is_private_to_the_thread_that_set_it(conv_graph):
    ruleset = default_ruleset()
    expected = [rule.find_matches(conv_graph) for rule in ruleset]
    assert any(expected)
    thread, release = _parked_inside(restricted_anchor_matching(set()))
    try:
        seen = [rule.find_matches(conv_graph) for rule in ruleset]
    finally:
        _finish(thread, release)
    assert seen == expected
    # ...and nothing stays installed after the other thread left.
    assert [rule.find_matches(conv_graph) for rule in ruleset] == expected


def test_concurrent_searches_equal_serial_ones():
    """Three threads, a 0.2 ms switch interval, two models: every search
    must return exactly what it returns alone."""
    graphs = {name: build_small_model(name) for name in ("bert", "squeezenet")}

    def search(name):
        result = TASOOptimizer(max_iterations=8).optimise(graphs[name])
        return (result.final_graph.structural_hash(), result.final_cost_ms,
                tuple(result.applied_rules),
                result.stats["candidates_evaluated"])

    serial = {name: search(name) for name in graphs}
    assert all(outcome[3] > 0 for outcome in serial.values())
    plan = [name for _ in range(3) for name in graphs]
    outcomes = [[] for _ in range(3)]

    def worker(slot):
        for name in plan[slot:] + plan[:slot]:
            outcomes[slot].append((name, search(name)))

    threads = [threading.Thread(target=worker, args=(slot,), daemon=True)
               for slot in range(len(outcomes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(2e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(done) for done in outcomes] == [len(plan)] * len(outcomes)
    divergent = [(name, outcome) for done in outcomes
                 for name, outcome in done if outcome != serial[name]]
    assert divergent == []
