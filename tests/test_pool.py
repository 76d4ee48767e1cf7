"""The shared worker pool (repro.pool): outcomes, blame and lane kills.

Every lane test runs two lanes, so each failure mode is checked for
what it does to the *other* lane's job as well as its own.  The
``Pool`` tests pin its dispatch: FIFO order, deadlines, cancellation,
close and the idle heartbeat.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.pool import (
    Crashed,
    Lane,
    Ok,
    Pool,
    PoolClosed,
    Raised,
    RetryPolicy,
    TimedOut,
    call,
)


def work(job):
    """The lanes' job function: ``(kind, argument)``."""
    kind, arg = job
    if kind == "echo":
        return arg
    if kind == "pid":
        return os.getpid()
    if kind == "raise":
        raise KeyError(arg)
    if kind == "sleep":
        time.sleep(arg)
        return "slept"
    if kind == "crash":
        time.sleep(arg)
        os._exit(3)
    raise ValueError(kind)


def pool_work(job, attempt):
    """The pool's job function: ``work`` plus two attempt-aware kinds.

    ``("flaky", n)`` crashes on attempts below ``n`` and returns the
    attempt that survived; ``("touch", path)`` creates ``path``, so a
    test can tell whether a job ever ran.
    """
    kind, arg = job
    if kind == "flaky":
        if attempt < arg:
            os._exit(3)
        return attempt
    if kind == "touch":
        open(arg, "w").close()
        return arg
    return work(job)


@pytest.fixture
def lanes():
    pair = [Lane(work, name=f"test-lane-{i}") for i in range(2)]
    for lane in pair:
        lane.start()
    try:
        yield pair
    finally:
        for lane in pair:
            lane.close()


def run_both(lanes, jobs, timeouts=(None, None)):
    """Run one job per lane at the same time; their outcomes in order."""
    with ThreadPoolExecutor(2) as threads:
        futures = [
            threads.submit(lane.run, job, timeout)
            for lane, job, timeout in zip(lanes, jobs, timeouts)
        ]
        return [future.result(timeout=60) for future in futures]


def test_ok_returns_the_result(lanes):
    assert run_both(lanes, [("echo", 7), ("echo", [1, 2])]) == [
        Ok(7), Ok([1, 2]),
    ]


def test_raised_carries_traceback_and_is_not_transient(lanes):
    pid = lanes[0].pid
    outcome = lanes[0].run(("raise", "boom"))
    assert isinstance(outcome, Raised)
    assert outcome.type == "KeyError"
    assert "boom" in outcome.message
    assert "Traceback" in outcome.traceback
    assert "KeyError" in outcome.traceback
    assert RetryPolicy(retries=3, backoff_s=0.1).delay(outcome, 0) is None
    # The worker survived its job's exception.
    assert lanes[0].run(("pid", None)) == Ok(pid)
    # In-process calls report the same way.
    assert call(work, ("raise", "boom")).type == "KeyError"


def test_crash_is_blamed_on_its_own_job_only(lanes):
    sibling_pid = lanes[1].pid
    crashed, sibling = run_both(lanes, [("crash", 0.1), ("sleep", 0.4)])
    assert isinstance(crashed, Crashed)
    assert sibling == Ok("slept")
    assert not lanes[0].alive()
    assert lanes[1].pid == sibling_pid
    assert RetryPolicy(retries=1, backoff_s=0.5).delay(crashed, 0) == 0.5
    # The crashed lane forks a fresh worker on start.
    assert lanes[0].start()
    assert lanes[0].run(("echo", "again")) == Ok("again")


def test_timeout_kills_only_the_overdue_lane(lanes):
    overdue_pid, sibling_pid = lanes[0].pid, lanes[1].pid
    started = time.monotonic()
    overdue, sibling = run_both(
        lanes, [("sleep", 30.0), ("sleep", 0.8)], timeouts=(0.3, 10.0)
    )
    assert isinstance(overdue, TimedOut)
    assert time.monotonic() - started < 10.0
    # The sibling's job was in flight when the overdue worker died; it
    # finished on its own worker, with no requeue.
    assert sibling == Ok("slept")
    assert lanes[1].pid == sibling_pid
    assert not lanes[0].alive()
    assert overdue_pid not in [
        child.pid for child in multiprocessing.active_children()
    ]


def test_retry_policy_backoff_and_budget():
    policy = RetryPolicy(retries=2, backoff_s=0.25)
    assert policy.delay(Crashed(), 0) == 0.25
    assert policy.delay(Crashed(), 1) == 0.5
    assert policy.delay(Crashed(), 2) is None
    assert policy.delay(TimedOut(), 0) == 0.25
    no_timeouts = RetryPolicy(2, 0.25, retry_timeouts=False)
    assert no_timeouts.delay(TimedOut(), 0) is None
    assert no_timeouts.delay(Crashed(), 0) == 0.25


def test_no_live_children_after_close():
    pair = [Lane(work, name=f"test-lane-{i}") for i in range(2)]
    for lane in pair:
        lane.start()
    pids = {lane.pid for lane in pair}
    assert run_both(pair, [("echo", 1), ("echo", 2)]) == [Ok(1), Ok(2)]
    for lane in pair:
        lane.close()
    assert not [
        child for child in multiprocessing.active_children()
        if child.pid in pids
    ]
    assert not any(lane.alive() for lane in pair)


def test_pool_dispatches_fifo():
    with Pool(pool_work, 1) as pool:
        blocker = pool.submit(("sleep", 0.3))
        order = []
        futures = [pool.submit(("echo", i)) for i in range(5)]
        for future in futures:
            future.add_done_callback(
                lambda done: order.append(done.result().outcome.result)
            )
        assert blocker.result(timeout=30).outcome == Ok("slept")
        settled = [future.result(timeout=30) for future in futures]
    assert [s.outcome for s in settled] == [Ok(i) for i in range(5)]
    assert all(s.attempts == 1 for s in settled)
    assert order == [0, 1, 2, 3, 4]


def test_crash_retry_reaches_the_worker_with_its_attempt():
    retry = RetryPolicy(retries=2, backoff_s=0.0)
    with Pool(pool_work, 1, retry=retry) as pool:
        settled = pool.submit(("flaky", 2)).result(timeout=30)
        assert settled.outcome == Ok(2)
        assert settled.attempts == 3
        assert pool.crashes == pool.respawns == pool.retried == 2


def test_deadline_spent_in_queue_times_out_without_running(tmp_path):
    marker = tmp_path / "ran"
    with Pool(pool_work, 1) as pool:
        blocker = pool.submit(("sleep", 0.5))
        late = pool.submit(
            ("touch", str(marker)), deadline=time.monotonic() + 0.1
        )
        settled = late.result(timeout=30)
        assert settled.outcome == TimedOut()
        assert settled.attempts == 0
        assert blocker.result(timeout=30).outcome == Ok("slept")
    assert not marker.exists()


def test_cancelled_queued_job_never_runs(tmp_path):
    marker = tmp_path / "ran"
    with Pool(pool_work, 1) as pool:
        blocker = pool.submit(("sleep", 0.3))
        queued = pool.submit(("touch", str(marker)))
        assert queued.cancel()
        after = pool.submit(("echo", "after"))
        assert blocker.result(timeout=30).outcome == Ok("slept")
        assert after.result(timeout=30).outcome == Ok("after")
    assert not marker.exists()


def test_close_kills_a_hang_and_fails_running_and_queued_jobs():
    pool = Pool(pool_work, 1)
    running = pool.submit(("sleep", 30.0))
    queued = pool.submit(("echo", 1))
    for _ in range(500):
        if running.running() and pool._lanes[0].busy:
            break
        time.sleep(0.01)
    started = time.monotonic()
    pool.close()
    assert time.monotonic() - started < 2.0
    for future in (running, queued):
        with pytest.raises(PoolClosed):
            future.result(timeout=0)
    assert pool.respawns == 0
    assert pool.pids() == []
    with pytest.raises(PoolClosed):
        pool.submit(("echo", 2))


def test_heartbeat_respawns_an_idle_lane_killed_from_outside():
    with Pool(pool_work, 1, heartbeat_s=0.05) as pool:
        pid = pool.pids()[0]
        os.kill(pid, signal.SIGKILL)
        for _ in range(250):
            if pool.pids() and pool.pids() != [pid]:
                break
            time.sleep(0.02)
        assert len(pool.pids()) == 1 and pool.pids() != [pid]
        assert pool.respawns == 1 and pool.crashes == 1
        assert pool.last_respawn_at is not None
        assert pool.submit(("echo", "back")).result(timeout=30).outcome == (
            Ok("back")
        )


def test_pool_leaves_no_live_children_after_close():
    pool = Pool(pool_work, 2)
    pids = set(pool.pids())
    assert len(pids) == 2
    futures = [pool.submit(("pid", None)) for _ in range(4)]
    assert {f.result(timeout=30).outcome.result for f in futures} <= pids
    pool.close()
    assert not [
        child for child in multiprocessing.active_children()
        if child.pid in pids
    ]


def test_pool_rejects_fewer_than_one_worker():
    with pytest.raises(ValueError, match="at least 1"):
        Pool(pool_work, 0)
