"""The shared worker pool (repro.pool): outcomes, blame and lane kills.

Every test runs two lanes, so each failure mode is checked for what it
does to the *other* lane's job as well as its own.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.pool import (
    Crashed,
    Lane,
    Ok,
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
