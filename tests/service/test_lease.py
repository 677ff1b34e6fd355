"""Tests for cross-process dedup leases.

The acceptance bar: N simultaneous identical submissions from separate OS
processes run **exactly one** search; killing the lease-holding process
mid-search must not strand the waiters — the kernel drops the dead
holder's lock at once, and one waiter completes the search, still exactly
once overall.
"""

from __future__ import annotations

import errno
import fcntl
import logging
import multiprocessing
import os
import signal
import time
import uuid

import pytest

from repro.ir import GraphBuilder
from repro.search.result import SearchResult
from repro.service import OptimisationService, register_optimiser
from repro.service.lease import (LEASE_SUFFIX, leases_supported, try_acquire,
                                 wait_for_result)
from repro.service.worker import JobRequest

pytestmark = pytest.mark.skipif(not leases_supported(),
                                reason="platform lacks flock leases")


def _tiny_graph(tag: str = "tiny"):
    builder = GraphBuilder(tag)
    x = builder.input((2, 4), name="x")
    return builder.build([builder.relu(x)])


# ---------------------------------------------------------------------------
# module-level bodies for fork()ed children


def _hold_lease_and_hang(cache_dir: str, fingerprint: str,
                         acquired: "multiprocessing.Event") -> None:
    """Child body: win the lease, signal, then hang (simulating a stuck or
    about-to-be-killed searcher)."""
    lease = try_acquire(cache_dir, fingerprint)
    assert lease is not None
    acquired.set()
    time.sleep(300)


class _TouchingOptimizer:
    """Optimiser that records each execution as a unique file in a dir."""

    name = "touch-test"

    def __init__(self, touch_dir: str = "", delay_s: float = 0.5):
        self.touch_dir = touch_dir
        self.delay_s = delay_s

    def optimise(self, graph, model_name: str = "") -> SearchResult:
        path = os.path.join(self.touch_dir, f"exec-{uuid.uuid4().hex}")
        with open(path, "w") as handle:
            handle.write(str(os.getpid()))
        time.sleep(self.delay_s)
        return SearchResult(
            optimiser=self.name, model=model_name or graph.name,
            initial_graph=graph, final_graph=graph,
            initial_latency_ms=1.0, final_latency_ms=0.5,
            initial_cost_ms=1.0, final_cost_ms=0.5,
            optimisation_time_s=self.delay_s)


def _submit_identical(cache_dir: str, touch_dir: str, barrier,
                      results_queue) -> None:
    """Child body: one service process submitting the shared request."""
    register_optimiser("touch-test", _TouchingOptimizer, {},
                       "cross-process dedup probe", replace=True)
    graph = _tiny_graph("shared")
    with OptimisationService(num_workers=2, cache_dir=cache_dir) as service:
        barrier.wait(timeout=30)
        result = service.optimise(
            graph, "touch-test",
            {"touch_dir": touch_dir, "delay_s": 0.5}, timeout=60)
    results_queue.put((os.getpid(), result.graph.structural_hash()))


def _spawn(target, *args) -> multiprocessing.Process:
    # fork (not spawn): children must run functions defined in this test
    # module, which is not importable by name under pytest's rootdir mode.
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=target, args=args)
    proc.start()
    return proc


# ---------------------------------------------------------------------------
class TestLeaseProtocol:
    def test_acquire_is_exclusive_until_released(self, tmp_path):
        lease = try_acquire(tmp_path, "fp1")
        assert lease is not None
        assert try_acquire(tmp_path, "fp1") is None
        lease.release()
        assert not (tmp_path / f"fp1{LEASE_SUFFIX}").exists()
        assert try_acquire(tmp_path, "fp1") is not None

    def test_a_live_holder_keeps_its_lease_however_old_the_mtime(
            self, tmp_path):
        lease = try_acquire(tmp_path, "fp1")
        assert lease is not None
        path = tmp_path / f"fp1{LEASE_SUFFIX}"
        past = time.time() - 86400
        os.utime(path, (past, past))
        assert try_acquire(tmp_path, "fp1") is None
        lease.release()

    def test_release_or_holder_death_frees_it_at_once(self, tmp_path):
        lease = try_acquire(tmp_path, "fp1")
        lease.release()
        again = try_acquire(tmp_path, "fp1")
        assert again is not None
        again.release()

        ctx = multiprocessing.get_context("fork")
        acquired = ctx.Event()
        holder = _spawn(_hold_lease_and_hang, str(tmp_path), "fp1", acquired)
        try:
            assert acquired.wait(timeout=30)
            assert try_acquire(tmp_path, "fp1") is None
            os.kill(holder.pid, signal.SIGKILL)  # dies without releasing
        finally:
            holder.join(timeout=10)
        # The dead holder left its file behind, but not its lock.
        assert (tmp_path / f"fp1{LEASE_SUFFIX}").exists()
        taken = try_acquire(tmp_path, "fp1")
        assert taken is not None
        taken.release()

    def test_a_second_release_of_an_old_handle_frees_nothing(self, tmp_path):
        old = try_acquire(tmp_path, "fp1")
        old.release()
        current = try_acquire(tmp_path, "fp1")
        assert current is not None
        old.release()
        assert (tmp_path / f"fp1{LEASE_SUFFIX}").exists()
        assert try_acquire(tmp_path, "fp1") is None
        current.release()

    def test_a_lock_won_on_a_released_lease_file_is_not_a_lease(
            self, tmp_path, monkeypatch):
        """The holder releases (unlinks, unlocks) between our open and our
        flock: the lock we win is on a file no longer at the path, so two
        acquirers could otherwise both hold "the" lease."""
        holder = try_acquire(tmp_path, "fp1")
        real_flock = fcntl.flock

        def flock_after_release(fd, operation):
            if operation & fcntl.LOCK_NB and holder.fd is not None:
                holder.release()
            return real_flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock_after_release)
        assert try_acquire(tmp_path, "fp1") is None
        assert not (tmp_path / f"fp1{LEASE_SUFFIX}").exists()
        # The next attempt creates and locks a fresh file.
        fresh = try_acquire(tmp_path, "fp1")
        assert fresh is not None
        fresh.release()

    def test_a_refused_lock_searches_without_the_lease(
            self, tmp_path, monkeypatch, caplog):
        """On a filesystem that refuses locks, a novel request is searched
        at once (not parked as a waiter), counted and warned about once."""
        register_optimiser("touch-test", _TouchingOptimizer, {},
                           "refused lock probe", replace=True)
        touch_dir = tmp_path / "touches"
        touch_dir.mkdir()

        def refuse(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(fcntl, "flock", refuse)
        caplog.set_level(logging.WARNING, logger="repro.service.lease")
        service = OptimisationService(num_workers=1,
                                      cache_dir=tmp_path / "cache")
        try:
            results = []
            for delay_s in (0.0, 0.01):
                job_id = service.submit(
                    _tiny_graph(), "touch-test",
                    {"touch_dir": str(touch_dir), "delay_s": delay_s})
                assert "(lease-wait)" not in \
                    service.scheduler.record(job_id).label
                results.append(service.result(job_id, timeout=30))
            dedup = service.stats()["dedup"]
        finally:
            service.close(wait=False)
        assert not any(result.cache_hit for result in results)
        assert len(list(touch_dir.iterdir())) == 2
        assert dedup["lease_errors"] == 2 and dedup["leases_held"] == 0
        (record,) = [r for r in caplog.records
                     if r.name == "repro.service.lease"]
        assert os.strerror(errno.ENOLCK) in record.getMessage()


# ---------------------------------------------------------------------------
class TestLeaseTakeover:
    def test_killed_holder_is_taken_over_exactly_once(self, tmp_path):
        """The headline test: SIGKILL the lease holder mid-search; a
        waiter takes over and completes exactly one search."""
        register_optimiser("touch-test", _TouchingOptimizer, {},
                           "takeover probe", replace=True)
        cache_dir = tmp_path / "cache"
        touch_dir = tmp_path / "touches"
        cache_dir.mkdir()
        touch_dir.mkdir()

        graph = _tiny_graph("victim")
        request = JobRequest(graph=graph, optimiser="touch-test",
                             config={"touch_dir": str(touch_dir),
                                     "delay_s": 0.1})
        fingerprint = request.fingerprint()

        ctx = multiprocessing.get_context("fork")
        acquired = ctx.Event()
        holder = _spawn(_hold_lease_and_hang, str(cache_dir), fingerprint,
                        acquired)
        try:
            assert acquired.wait(timeout=30)
            started = time.monotonic()
            os.kill(holder.pid, signal.SIGKILL)  # dies without releasing
            outcome = wait_for_result(request, fingerprint, str(cache_dir))
            elapsed = time.monotonic() - started
        finally:
            holder.join(timeout=10)
        # The waiter ran the search itself (not served from cache) as soon
        # as the dead process's lock went — and only once.
        assert not outcome.cache_hit
        assert len(list(touch_dir.iterdir())) == 1
        assert elapsed < 2.0
        assert list(cache_dir.glob(f"*{LEASE_SUFFIX}")) == []
        # The takeover published the result, so the next waiter needs no
        # search at all.
        warm = wait_for_result(request, fingerprint, str(cache_dir))
        assert warm.cache_hit
        assert warm.search.stats.get("cross_process_dedup") == 1.0
        assert len(list(touch_dir.iterdir())) == 1

    def test_service_waiter_survives_holder_death(self, tmp_path):
        """End-to-end: the *service* turns a lost lease race into a waiter
        job that takes over when the holder dies."""
        register_optimiser("touch-test", _TouchingOptimizer, {},
                           "takeover probe", replace=True)
        cache_dir = tmp_path / "cache"
        touch_dir = tmp_path / "touches"
        cache_dir.mkdir()
        touch_dir.mkdir()
        graph = _tiny_graph("victim")
        config = {"touch_dir": str(touch_dir), "delay_s": 0.1}
        fingerprint = JobRequest(graph=graph, optimiser="touch-test",
                                 config=config).fingerprint()

        ctx = multiprocessing.get_context("fork")
        acquired = ctx.Event()
        holder = _spawn(_hold_lease_and_hang, str(cache_dir), fingerprint,
                        acquired)
        try:
            assert acquired.wait(timeout=30)
            with OptimisationService(num_workers=2,
                                     cache_dir=cache_dir) as service:
                job_id = service.submit(graph, "touch-test", config)
                record = service.scheduler.record(job_id)
                assert "(lease-wait)" in record.label
                os.kill(holder.pid, signal.SIGKILL)
                result = service.result(job_id, timeout=60)
                assert service.stats()["dedup"]["leases_held"] == 0
        finally:
            holder.join(timeout=10)
        assert not result.cache_hit
        assert len(list(touch_dir.iterdir())) == 1
        assert list(cache_dir.glob(f"*{LEASE_SUFFIX}")) == []
        free = try_acquire(cache_dir, fingerprint)
        assert free is not None
        free.release()


# ---------------------------------------------------------------------------
class TestCrossProcessDedup:
    def test_simultaneous_processes_search_exactly_once(self, tmp_path):
        """Three service processes, one shared directory, one search."""
        cache_dir = tmp_path / "cache"
        touch_dir = tmp_path / "touches"
        cache_dir.mkdir()
        touch_dir.mkdir()
        n = 3
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n)
        results = ctx.Queue()
        procs = [_spawn(_submit_identical, str(cache_dir), str(touch_dir),
                        barrier, results) for _ in range(n)]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0, \
                f"submitter failed (exit {proc.exitcode})"
        outcomes = [results.get(timeout=10) for _ in range(n)]
        # Everyone got the same graph; the search body ran exactly once.
        assert len({graph_hash for _, graph_hash in outcomes}) == 1
        assert len(list(touch_dir.iterdir())) == 1
        # No lease litter: winners and takeover paths both release.
        assert list(cache_dir.glob(f"*{LEASE_SUFFIX}")) == []

    def test_rejected_admission_releases_the_lease(self, tmp_path):
        """A QueueFullError must not wedge the fingerprint cluster-wide."""
        import threading

        from repro.service import QueueFullError

        register_optimiser("touch-test", _TouchingOptimizer, {},
                           "lease leak probe", replace=True)
        touch_dir = tmp_path / "touches"
        touch_dir.mkdir()
        blocker = threading.Event()
        graph_a = _tiny_graph("occupant")
        graph_b = _tiny_graph("rejected")
        config = {"touch_dir": str(touch_dir), "delay_s": 0.0}
        with OptimisationService(num_workers=1, max_pending=1,
                                 cache_dir=tmp_path / "cache") as service:
            # Fill the single admission slot with a job that waits.
            occupant = service.scheduler.submit(blocker.wait, label="hold")
            with pytest.raises(QueueFullError):
                service.submit(graph_b, "touch-test", config)
            # The rejected submission's lease was released, not leaked.
            assert service._leases.held() == {}
            assert list((tmp_path / "cache").glob(f"*{LEASE_SUFFIX}")) == []
            blocker.set()
            service.scheduler.result(occupant, timeout=30)
            # The fingerprint is immediately searchable again.
            retry = service.optimise(graph_b, "touch-test", config,
                                     timeout=30)
        assert not retry.cache_hit
        assert len(list(touch_dir.iterdir())) == 1

    def test_opting_out_runs_private_searches(self, tmp_path):
        register_optimiser("touch-test", _TouchingOptimizer, {},
                           "dedup opt-out probe", replace=True)
        touch_dir = tmp_path / "touches"
        touch_dir.mkdir()
        graph = _tiny_graph()
        config = {"touch_dir": str(touch_dir), "delay_s": 0.0}
        with OptimisationService(num_workers=2, cache_dir=tmp_path / "c",
                                 cross_process_dedup=False) as service:
            assert service.stats()["dedup"]["cross_process"] is False
            service.optimise(graph, "touch-test", config)
        with OptimisationService(num_workers=2, cache_dir=tmp_path / "c2",
                                 cross_process_dedup=False) as service:
            service.optimise(graph, "touch-test", config)
        assert len(list(touch_dir.iterdir())) == 2
