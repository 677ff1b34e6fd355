"""Tests for attached (follower) jobs: one future, many job ids.

:meth:`JobScheduler.attach` is how the service coalesces identical
in-flight requests onto one search; these cases hold on any backend.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import JobScheduler, JobState, UnknownJobError


class TestAttachedJobs:
    def test_follower_shares_outcome_and_state(self):
        with JobScheduler(num_workers=1) as scheduler:
            primary = scheduler.submit(lambda: 42, label="primary")
            follower = scheduler.attach(primary, label="tagalong")
            assert scheduler.result(follower, timeout=10) == 42
            assert scheduler.poll(follower) is JobState.SUCCEEDED
            assert scheduler.record(follower).label == "tagalong"

    def test_followers_do_not_consume_admission_slots(self):
        release = threading.Event()
        with JobScheduler(num_workers=1, max_pending=1) as scheduler:
            primary = scheduler.submit(release.wait)
            # The queue is full, yet followers still attach freely.
            followers = [scheduler.attach(primary) for _ in range(5)]
            release.set()
            assert scheduler.wait_all(timeout=10)
            for job_id in followers:
                assert scheduler.result(job_id) is True

    def test_cancel_on_follower_is_refused(self):
        release = threading.Event()
        with JobScheduler(num_workers=1) as scheduler:
            primary = scheduler.submit(release.wait)
            follower = scheduler.attach(primary)
            assert scheduler.cancel(follower) is False
            release.set()
            assert scheduler.result(primary, timeout=10) is True

    def test_attach_to_unknown_job(self):
        with JobScheduler(num_workers=1) as scheduler:
            with pytest.raises(UnknownJobError):
                scheduler.attach(999)

    def test_follower_keeps_its_result_after_the_primary_is_delivered(self):
        release = threading.Event()
        with JobScheduler(num_workers=1) as scheduler:
            primary = scheduler.submit(lambda: release.wait(10) and 42)
            follower = scheduler.attach(primary)
            release.set()
            assert scheduler.result(primary, timeout=10) == 42
            with pytest.raises(UnknownJobError, match="delivered"):
                scheduler.result(primary)
            assert scheduler.result(follower, timeout=10) == 42

    def test_attach_to_a_delivered_primary_is_refused(self):
        with JobScheduler(num_workers=1) as scheduler:
            primary = scheduler.submit(lambda: 42)
            scheduler.result(primary, timeout=10)
            with pytest.raises(UnknownJobError, match="delivered"):
                scheduler.attach(primary)


def _fail(message: str) -> None:
    raise RuntimeError(message)


class TestAttachedJobsOnTheAsyncBackend:
    """A follower shares a future that resolves in another process."""

    def test_follower_shares_outcome_and_state(self):
        with JobScheduler(num_workers=1, backend="async") as scheduler:
            primary = scheduler.submit(abs, -42, label="primary")
            follower = scheduler.attach(primary, label="tagalong")
            assert scheduler.result(follower, timeout=60) == 42
            assert scheduler.poll(follower) is JobState.SUCCEEDED
            assert scheduler.record(follower).label == "tagalong"

    def test_follower_keeps_its_result_after_the_primary_is_delivered(self):
        with JobScheduler(num_workers=1, backend="async") as scheduler:
            primary = scheduler.submit(abs, -42, label="primary")
            follower = scheduler.attach(primary, label="tagalong")
            assert scheduler.result(primary, timeout=60) == 42
            with pytest.raises(UnknownJobError, match="delivered"):
                scheduler.result(primary)
            assert scheduler.result(follower, timeout=60) == 42

    def test_followers_of_a_failed_job_fail_with_its_error(self):
        with JobScheduler(num_workers=1, backend="async") as scheduler:
            primary = scheduler.submit(_fail, "search exploded")
            followers = [scheduler.attach(primary) for _ in range(3)]
            for job_id in [primary] + followers:
                with pytest.raises(RuntimeError, match="search exploded"):
                    scheduler.result(job_id, timeout=60)
                assert scheduler.poll(job_id) is JobState.FAILED
