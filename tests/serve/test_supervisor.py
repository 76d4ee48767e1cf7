"""Unit tests for the supervised worker pool (repro.serve.supervisor).

These drive the Supervisor directly on a private event loop — no HTTP
— so each failure mode (crash, hang, deterministic error, queue
saturation, mid-batch kill) is pinned at the layer that owns it.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time

import pytest

from repro.graphs import analysis
from repro.graphs.specs import parse_graph
from repro.serve import DistanceServer, DistanceService
from repro.serve.supervisor import (
    ComputeFailed,
    DeadlineExceeded,
    PoolSaturated,
    Supervisor,
    SupervisorError,
)

SPEC = "er:14:p=0.3:seed=3"


def run(coro):
    return asyncio.run(coro)


async def _with_pool(body, **kwargs):
    service = DistanceService()
    kwargs.setdefault("workers", 1)
    pool = Supervisor(service, **kwargs)
    await pool.start()
    try:
        return await body(service, pool)
    finally:
        await pool.close()


def expected_row(spec, source):
    return analysis.bfs_distances(parse_graph(spec), source)


def test_rows_compute_and_merge_into_cache():
    async def body(service, pool):
        family = service.family_for(SPEC)
        await pool.rows(family, [2, 5])
        matrix = service.matrix(family)
        want = expected_row(SPEC, 2)
        assert matrix.distance(2, 7) == want[7]
        assert matrix.has_row(5)
        snap = pool.snapshot()
        assert snap["completed"] == 1
        assert snap["failed"] == 0
        # The batch economics were recorded as one 2-source run.
        assert service.stats.snapshot()["batches"]["max_size"] == 2

    run(_with_pool(body))


def test_full_and_approx_diameter():
    async def body(service, pool):
        family = service.family_for("diameter4:24:seed=1")
        await pool.full(family)
        exact = service.matrix(family).diameter()
        assert exact == 4
        verdict = await pool.approx_diameter(family)
        assert verdict == 4

    run(_with_pool(body))


def test_crash_is_retried_and_succeeds():
    async def body(service, pool):
        family = service.family_for(SPEC)
        await pool.rows(family, [1])
        assert (
            service.matrix(family).distance(1, 4)
            == expected_row(SPEC, 1)[4]
        )
        snap = pool.snapshot()
        assert snap["crashes"] == 1
        assert snap["requeues"] == 1
        assert snap["respawns"] == 1
        assert snap["completed"] == 1
        assert snap["failed"] == 0

    run(_with_pool(
        body,
        retries=1,
        chaos={"mode": "crash", "kinds": ["rows"],
               "jobs": 1, "attempts": 1},
    ))


def test_crash_budget_spent_fails_the_job():
    async def body(service, pool):
        family = service.family_for(SPEC)
        with pytest.raises(ComputeFailed):
            await pool.rows(family, [1])
        snap = pool.snapshot()
        assert snap["failed"] == 1
        assert snap["requeues"] == 1  # retried once, then gave up

    run(_with_pool(
        body,
        retries=1,
        chaos={"mode": "crash", "kinds": ["rows"], "jobs": 2},
    ))


def test_deterministic_error_is_not_retried():
    async def body(service, pool):
        family = service.family_for(SPEC)
        with pytest.raises(ComputeFailed) as excinfo:
            await pool.rows(family, [1])
        assert "chaos" in str(excinfo.value)
        snap = pool.snapshot()
        assert snap["requeues"] == 0
        assert snap["respawns"] == 0
        assert snap["failed"] == 1
        # The worker survived the exception and still answers.
        await pool.rows(family, [2])
        assert snap["crashes"] == 0

    run(_with_pool(
        body,
        retries=3,
        chaos={"mode": "error", "kinds": ["rows"], "jobs": 1},
    ))


def test_hang_hits_deadline_and_respawns_worker():
    async def body(service, pool):
        family = service.family_for(SPEC)
        with pytest.raises(DeadlineExceeded):
            await pool.rows(family, [1])
        snap = pool.snapshot()
        assert snap["deadline_misses"] == 1
        assert snap["respawns"] == 1  # the wedged worker was killed
        assert snap["requeues"] == 0  # deadlines are not retried
        # The respawned worker serves the next job.
        await pool.rows(family, [2])
        assert pool.snapshot()["completed"] == 1

    run(_with_pool(
        body,
        deadline_s=0.3,
        retries=1,
        chaos={"mode": "hang", "seconds": 30.0,
               "kinds": ["rows"], "jobs": 1},
    ))


def test_worker_killed_mid_batch_requeues_exactly_once():
    async def body(service, pool):
        family = service.family_for(SPEC)
        task = asyncio.ensure_future(pool.rows(family, [3, 6]))
        # Wait until the worker is busy carrying the batch, then
        # SIGKILL it from outside — the supervisor must requeue the
        # whole batch exactly once and answer from the retry.
        for _ in range(200):
            await asyncio.sleep(0.01)
            pids = pool.worker_pids()
            if pids and any(lane.busy for lane in pool._pool._lanes):
                break
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        await task
        want = expected_row(SPEC, 3)
        assert service.matrix(family).distance(3, 9) == want[9]
        assert service.matrix(family).has_row(6)
        snap = pool.snapshot()
        assert snap["requeues"] == 1
        assert snap["crashes"] == 1
        assert snap["completed"] == 1

    run(_with_pool(
        body,
        retries=2,
        # First attempt hangs (short of the deadline) so the external
        # SIGKILL reliably lands mid-job; the retry runs clean.
        chaos={"mode": "hang", "seconds": 30.0, "kinds": ["rows"],
               "jobs": 1, "attempts": 1},
        deadline_s=60.0,
    ))


def test_queue_saturation_sheds_at_submit():
    async def body(service, pool):
        family = service.family_for(SPEC)
        first = asyncio.ensure_future(pool.rows(family, [1]))
        await asyncio.sleep(0.05)  # first job occupies the queue slot
        with pytest.raises(PoolSaturated) as excinfo:
            await pool.rows(family, [2])
        assert excinfo.value.retry_after_s > 0
        assert pool.snapshot()["shed"] == 1
        first.cancel()
        await asyncio.gather(first, return_exceptions=True)

    run(_with_pool(
        body,
        queue_depth=1,
        deadline_s=30.0,
        chaos={"mode": "hang", "seconds": 30.0,
               "kinds": ["rows"], "jobs": 1},
    ))


def test_deadline_spent_waiting_in_queue():
    async def body(service, pool):
        family = service.family_for(SPEC)
        blocker = asyncio.ensure_future(pool.rows(family, [1]))
        await asyncio.sleep(0.05)
        with pytest.raises(DeadlineExceeded) as excinfo:
            await pool.submit(
                {"kind": "rows", "family": family.payload(),
                 "sources": [2]},
                deadline_s=0.1,
            )
        assert "waiting in the queue" in str(excinfo.value)
        blocker.cancel()
        await asyncio.gather(blocker, return_exceptions=True)

    run(_with_pool(
        body,
        deadline_s=2.0,
        chaos={"mode": "hang", "seconds": 1.0,
               "kinds": ["rows"], "jobs": 1},
    ))


def test_idle_worker_respawned_by_heartbeat():
    async def body(service, pool):
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGKILL)
        for _ in range(100):
            await asyncio.sleep(0.02)
            if pool.live_workers() == 1 and pool.worker_pids() != [pid]:
                break
        assert pool.live_workers() == 1
        snap = pool.snapshot()
        assert snap["respawns"] == 1
        assert snap["crashes"] == 1
        assert pool.respawn_age_s() is not None
        # The replacement actually works.
        family = service.family_for(SPEC)
        await pool.rows(family, [1])

    run(_with_pool(body, heartbeat_s=0.05))


def test_submit_after_close_raises():
    async def main():
        service = DistanceService()
        pool = Supervisor(service, workers=1)
        await pool.start()
        await pool.close()
        with pytest.raises(SupervisorError):
            await pool.submit({
                "kind": "rows",
                "family": service.family_for(SPEC).payload(),
                "sources": [1],
            })

    run(main())


def test_close_kills_a_hung_job_promptly():
    async def main():
        service = DistanceService()
        pool = Supervisor(
            service, workers=1, deadline_s=60.0,
            chaos={"mode": "hang", "seconds": 30.0,
                   "kinds": ["rows"], "jobs": 1},
        )
        await pool.start()
        job = asyncio.ensure_future(
            pool.rows(service.family_for(SPEC), [1])
        )
        for _ in range(200):
            await asyncio.sleep(0.01)
            if any(lane.busy for lane in pool._pool._lanes):
                break
        started = time.monotonic()
        await pool.close()
        assert time.monotonic() - started < 2.0
        with pytest.raises(SupervisorError):
            await job
        snap = pool.snapshot()
        assert snap["failed"] == 1
        assert snap["respawns"] == 0
        assert snap["requeues"] == 0
        assert snap["alive"] == 0

    run(main())


def test_deadline_message_names_the_jobs_own_budget():
    async def body(service, pool):
        family = service.family_for(SPEC)
        with pytest.raises(DeadlineExceeded) as excinfo:
            await pool.submit(
                {"kind": "rows", "family": family.payload(),
                 "sources": [1]},
                deadline_s=0.25,
            )
        assert "0.25s deadline" in str(excinfo.value)

    run(_with_pool(
        body,
        deadline_s=30.0,
        chaos={"mode": "hang", "seconds": 30.0,
               "kinds": ["rows"], "jobs": 1},
    ))


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_is_rejected(workers):
    with pytest.raises(ValueError, match="at least 1"):
        Supervisor(DistanceService(), workers=workers)
    with pytest.raises(ValueError, match="at least 1"):
        DistanceServer(DistanceService(), workers=workers)


def test_stress_more_workers_than_cores_with_crashes():
    """Concurrent jobs on more lanes than cores: no job lost or doubled."""
    workers = (os.cpu_count() or 1) + 2
    switch = sys.getswitchinterval()

    async def body(service, pool):
        families = [service.family_for(f"cycle:{n}") for n in range(6, 30)]
        await asyncio.wait_for(
            asyncio.gather(*(pool.rows(f, [1]) for f in families)), 60
        )
        for family in families:
            assert service.matrix(family).has_row(1)
        snap = pool.snapshot()
        assert snap["submitted"] == snap["completed"] == len(families)
        assert snap["failed"] == 0
        assert snap["pending"] == 0
        assert snap["crashes"] == snap["requeues"] == 3

    sys.setswitchinterval(1e-5)
    try:
        run(_with_pool(
            body,
            workers=workers,
            retries=1,
            chaos={"mode": "crash", "kinds": ["rows"],
                   "jobs": 3, "attempts": 1},
        ))
    finally:
        sys.setswitchinterval(switch)
