"""The supervised multiprocess compute pool behind ``repro serve``.

The campaign harness survives hostile tasks — timeouts, retries with
backoff, exact crash blame — and this module brings the same pool
(:mod:`repro.pool`) to the serving path: cold
``compute_rows`` / ``compute_full`` work comes off the asyncio event
loop and runs in N supervised worker *processes*, so a crashed or
wedged Algorithm 2 run costs one worker (respawned automatically), not
the server.

Contract per job:

* a **deadline** bounds wall-clock from submission; an overdue worker
  is SIGKILLed and the waiter gets :class:`DeadlineExceeded` (the HTTP
  layer degrades ``/diameter`` to the 2-vs-4 approximation, everything
  else answers ``503``);
* a **crash** (worker SIGKILLed, segfaulted, ``os._exit``) retries the
  job with exponential backoff up to ``retries`` times — the batch a
  killed worker was carrying is re-run, never dropped — then fails it
  with :class:`ComputeFailed`; a deadline miss is not retried, because
  the deadline counts from submission;
* a **deterministic in-task exception** is *not* retried (rerunning
  cannot help) and fails immediately with :class:`ComputeFailed`;
* **admission** is bounded: more than ``queue_depth`` jobs pending
  raises :class:`PoolSaturated` at submit time (the HTTP layer sheds
  with ``429 Retry-After``) so overload never buffers unboundedly.

Workers are :class:`repro.pool.Lane` processes — the pool the campaign
harness runs on — one job per lane at a time, so a crash or a deadline
kill is charged to exactly the job that lane carried.  Each worker
keeps a per-process graph cache so repeated families avoid re-parsing.
A heartbeat task respawns workers that die while *idle* (an external
SIGKILL between jobs), which is what flips ``/readyz`` back to ready
without waiting for traffic.  :meth:`Supervisor.close` kills busy
workers at once and fails their jobs with :class:`SupervisorError`.

Chaos injection — the serving twin of the harness's hostile ``chaos``
protocol — is built in for tests and the ``repro serve-chaos``
harness: a chaos plan makes the first N matching jobs hang, crash or
error *inside the worker* (routed through ``protocols.run("chaos")``
so the failure modes are exactly the campaign harness's).
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Set

from .. import obs, protocols
from ..graphs.specs import parse_graph
from ..pool import Lane, Ok, Raised, RetryPolicy, TimedOut
from .matrix import QueryFamily
from .service import DistanceService, batch_sources, run_family

#: Default worker-process count (``repro serve --workers``).
DEFAULT_WORKERS = 2

#: Default per-job wall-clock budget from submission to result.
DEFAULT_DEADLINE_S = 30.0

#: Crash retries per job (the batch a killed worker carried is re-run
#: this many times before the job fails).
DEFAULT_RETRIES = 1

#: Base backoff before a crashed job's retry (doubles per attempt).
DEFAULT_BACKOFF_S = 0.05

#: Max jobs pending (queued + running) before submission sheds.
DEFAULT_QUEUE_DEPTH = 128

#: How often the heartbeat respawns workers that died while idle.
HEARTBEAT_S = 0.25


class SupervisorError(RuntimeError):
    """Base class of pool-level failures."""


class PoolSaturated(SupervisorError):
    """Admission control: the job queue is full (HTTP 429)."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(SupervisorError):
    """The job missed its wall-clock deadline (degrade or HTTP 503)."""


class ComputeFailed(SupervisorError):
    """The job failed in the worker (after crash retries, if any)."""


# ---------------------------------------------------------------------------
# Worker side (runs in the child process).
# ---------------------------------------------------------------------------


def _apply_inject(inject: Mapping[str, Any], graph) -> None:
    """Run the injected hostility through the ``chaos`` protocol.

    ``hang`` sleeps, ``crash`` kills the worker process outright,
    ``error`` raises — the exact failure modes the campaign harness's
    hostile protocol exercises, now inside a serve worker.
    """
    protocols.run(
        "chaos", graph,
        {"mode": inject.get("mode", "error"),
         "seconds": float(inject.get("seconds", 3600.0))},
    )


#: The worker process's parsed graphs, so repeated families avoid
#: re-parsing.  Filled only inside pool workers.
_WORKER_GRAPHS: Dict[str, Any] = {}


def _execute_job(job: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one compute job in a worker; returns a pickle-pure result."""
    payload = job["family"]
    spec = payload["graph"]
    graph = _WORKER_GRAPHS.get(spec)
    if graph is None:
        graph = _WORKER_GRAPHS[spec] = parse_graph(spec)
    inject = job.get("inject")
    if inject:
        _apply_inject(inject, graph)
    family = QueryFamily.make(
        spec, payload["protocol"], payload["params"],
        seed=payload["seed"], policy=payload["policy"],
        backend=payload.get("backend", "object"),
    )
    kind = job["kind"]
    if kind in ("rows", "full"):
        rows, rounds = run_family(family, graph, job.get("sources"))
        return {"rows": rows, "rounds": rounds}
    if kind == "approx-diameter":
        outcome = protocols.run(
            "two-vs-four", graph, {},
            seed=family.seed, policy=family.policy,
        )
        return {
            "diameter": outcome.summary.diameter,
            "rounds": outcome.metrics.rounds,
        }
    raise ValueError(f"unknown job kind {kind!r}")


class _Job:
    """One queued compute job and its waiter."""

    __slots__ = ("payload", "future", "budget", "deadline")

    def __init__(self, payload, future, budget: Optional[float]) -> None:
        self.payload = payload
        self.future = future
        #: Seconds from submission to result (``None`` = unbounded).
        self.budget = budget
        self.deadline = (
            time.monotonic() + budget if budget is not None else None
        )


_CLOSE = object()


class ChaosPlan:
    """Deterministic hostility applied to submitted jobs (tests only).

    ``spec`` keys: ``mode`` (``hang`` | ``crash`` | ``error``),
    ``seconds`` (hang duration), ``kinds`` (job kinds to target,
    default all), ``jobs`` (how many matching jobs to poison, default
    unbounded), ``attempts`` (poison only attempts below this per job,
    default all — ``1`` makes the first attempt fail and the crash
    retry succeed).
    """

    def __init__(self, spec: Mapping[str, Any]) -> None:
        self.mode = spec.get("mode", "error")
        self.seconds = float(spec.get("seconds", 3600.0))
        self.kinds = set(spec.get("kinds") or ())
        self.jobs_budget = spec.get("jobs")
        self.attempts = spec.get("attempts")
        self.poisoned = 0

    def stamp(self, payload: Dict[str, Any]) -> None:
        """Attach an ``inject`` block to ``payload`` if the plan says so."""
        if self.kinds and payload["kind"] not in self.kinds:
            return
        if self.jobs_budget is not None and self.poisoned >= self.jobs_budget:
            return
        self.poisoned += 1
        inject = {"mode": self.mode, "seconds": self.seconds}
        if self.attempts is not None:
            inject["attempts"] = int(self.attempts)
        payload["inject"] = inject


class Supervisor:
    """Supervised worker pool: deadlines, crash retry, respawn.

    Construct, ``await start()``, then call :meth:`rows`,
    :meth:`full` or :meth:`approx_diameter`; ``await drain()`` then
    ``await close()`` on shutdown.  All public methods must be called
    from the owning event loop.
    """

    def __init__(
        self,
        service: DistanceService,
        *,
        workers: int = DEFAULT_WORKERS,
        deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        chaos: Optional[Mapping[str, Any]] = None,
        heartbeat_s: float = HEARTBEAT_S,
    ) -> None:
        if int(workers) < 1:
            raise ValueError(
                f"workers must be at least 1 (got {workers}); every "
                f"cold compute runs in a supervised worker process"
            )
        self.service = service
        self.workers = int(workers)
        self.deadline_s = deadline_s
        self.retries = max(0, int(retries))
        # Deadlines count from submission, so a timed-out job has no
        # budget left to retry with; only crashes are transient here.
        self._retry = RetryPolicy(
            self.retries, max(0.0, backoff_s), retry_timeouts=False
        )
        self.queue_depth = max(1, int(queue_depth))
        self.chaos = ChaosPlan(chaos) if chaos else None
        self.heartbeat_s = heartbeat_s
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._lanes = [
            Lane(_execute_job, name=f"repro-serve-worker-{wid}")
            for wid in range(self.workers)
        ]
        #: Lanes whose dispatch loop holds a job (the heartbeat leaves
        #: their respawns to that loop).
        self._held: Set[Lane] = set()
        self._loops: List[asyncio.Task] = []
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-pool"
        )
        self._pending = 0
        self._started = False
        self._closed = False
        self.last_respawn_at: Optional[float] = None
        # Counters (single-threaded on the loop; read by /stats).
        self.spawned = 0
        self.respawns = 0
        self.crashes = 0
        self.deadline_misses = 0
        self.requeues = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the workers and their dispatch loops."""
        if self._started:
            return
        self._started = True
        for lane in self._lanes:
            lane.start()
            self.spawned += 1
        self._loops = [
            asyncio.ensure_future(self._lane_loop(lane))
            for lane in self._lanes
        ]
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat())

    async def drain(self) -> None:
        """Wait until every accepted job has settled."""
        while self._pending:
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        """Kill every worker and fail the jobs still outstanding.

        Busy workers are killed first, so a hung job cannot stall
        shutdown; their jobs and any still queued fail with
        :class:`SupervisorError`, and nothing is retried or respawned.
        """
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes:
            lane.kill()
        while not self._queue.empty():
            self._finish(self._queue.get_nowait(), error=SupervisorError(
                "supervisor closed before the job ran"
            ))
        for _ in self._loops:
            self._queue.put_nowait(_CLOSE)
        tasks = list(self._loops)
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            tasks.append(self._heartbeat_task)
        await asyncio.gather(*tasks, return_exceptions=True)
        for lane in self._lanes:
            lane.close()
        self._threads.shutdown(wait=False)

    # -- worker management -------------------------------------------------

    def _respawn(self, lane: Lane) -> None:
        if lane.start():
            self.spawned += 1
            self.respawns += 1
            self.last_respawn_at = time.monotonic()

    def respawn_age_s(self) -> Optional[float]:
        """Seconds since the last crash respawn (``None`` if never).

        Readiness uses this to report a *settle window* after a
        respawn: a freshly forked worker hasn't proven itself yet, and
        the brief not-ready blip is how orchestrators (and the chaos
        harness) observe that the pool was disrupted — the respawn
        itself is near-instant.
        """
        if self.last_respawn_at is None:
            return None
        return time.monotonic() - self.last_respawn_at

    async def _heartbeat(self) -> None:
        """Respawn workers that died while idle (external SIGKILL)."""
        while not self._closed:
            await asyncio.sleep(self.heartbeat_s)
            for lane in self._lanes:
                if lane not in self._held and not lane.alive():
                    self.crashes += 1
                    self._respawn(lane)

    def live_workers(self) -> int:
        """Workers whose processes are currently alive."""
        return sum(1 for lane in self._lanes if lane.alive())

    def worker_pids(self) -> List[int]:
        """PIDs of live workers (the chaos harness's kill list)."""
        return [lane.pid for lane in self._lanes if lane.pid]

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        payload: Dict[str, Any],
        *,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Queue one job and await its result dict.

        Raises :class:`PoolSaturated` (queue full),
        :class:`DeadlineExceeded` (wall-clock budget spent) or
        :class:`ComputeFailed` (worker crash budget spent, or a
        deterministic in-job exception).
        """
        if not self._started or self._closed:
            raise SupervisorError("supervisor is not running")
        if self._pending >= self.queue_depth:
            self.shed += 1
            raise PoolSaturated(
                f"compute pool is saturated "
                f"({self._pending} jobs pending, cap {self.queue_depth})",
                retry_after_s=1.0,
            )
        if self.chaos is not None:
            payload = dict(payload)
            self.chaos.stamp(payload)
        budget = self.deadline_s if deadline_s is None else deadline_s
        future = asyncio.get_running_loop().create_future()
        self._pending += 1
        self.submitted += 1
        tracer = obs.active()
        span_id = None
        if tracer is not None:
            span_id = tracer.span_begin(
                "serve_pool_job", round_no=0, kind=payload["kind"],
                graph=payload["family"]["graph"],
            )
        await self._queue.put(_Job(payload, future, budget))
        try:
            # A cancelled waiter cancels the future too, so the job's
            # outcome is dropped instead of left unretrieved.
            result = await future
        finally:
            if tracer is not None:
                tracer.span_end(
                    span_id,
                    round_no=0,
                    rounds=(
                        future.result().get("rounds", 0)
                        if future.done() and not future.cancelled()
                        and future.exception() is None else 0
                    ),
                )
        return result

    # -- the dispatch loops ------------------------------------------------

    def _finish(
        self,
        job: _Job,
        *,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        self._pending -= 1
        if error is not None:
            self.failed += 1
            if not job.future.done():
                job.future.set_exception(error)
        else:
            self.completed += 1
            if not job.future.done():
                job.future.set_result(result)

    async def _lane_loop(self, lane: Lane) -> None:
        while True:
            job = await self._queue.get()
            if job is _CLOSE:
                return
            self._held.add(lane)
            try:
                await self._run_job(lane, job)
            finally:
                self._held.discard(lane)

    async def _run_job(self, lane: Lane, job: _Job) -> None:
        """Run ``job`` on ``lane`` until it settles, retrying crashes."""
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            if self._closed:
                self._finish(job, error=SupervisorError(
                    "supervisor closed before the job finished"
                ))
                return
            timeout = None
            if job.deadline is not None:
                timeout = job.deadline - time.monotonic()
                if timeout <= 0:
                    self.deadline_misses += 1
                    self._finish(job, error=DeadlineExceeded(
                        "job spent its deadline waiting in the queue"
                    ))
                    return
            if not lane.alive():
                # Died idle before the heartbeat noticed: not this
                # job's doing, so it costs the job no attempt.
                self.crashes += 1
                self._respawn(lane)
            outcome = await loop.run_in_executor(
                self._threads, lane.run, _attempt_payload(job, attempt),
                timeout,
            )
            if isinstance(outcome, Ok):
                self._finish(job, result=outcome.result)
                return
            if isinstance(outcome, Raised):
                # Deterministic in-job exception: retrying cannot help.
                self._finish(job, error=ComputeFailed(
                    f"{outcome.type}: {outcome.message}"
                ))
                return
            if self._closed:
                continue  # close() killed the worker; fail the job above
            self._respawn(lane)
            if isinstance(outcome, TimedOut):
                self.deadline_misses += 1
                self._finish(job, error=DeadlineExceeded(
                    f"job exceeded its {job.budget:g}s deadline"
                ))
                return
            self.crashes += 1
            delay = self._retry.delay(outcome, attempt)
            if delay is None:
                self._finish(job, error=ComputeFailed(
                    f"the worker process running this job died "
                    f"({attempt + 1} attempt(s))"
                ))
                return
            self.requeues += 1
            if delay:
                await asyncio.sleep(delay)
            attempt += 1

    # -- typed compute API (results merge into the service) ----------------

    async def rows(self, family: QueryFamily, sources: List[int]) -> None:
        """Batched row computation in the pool; merges into the cache."""
        await self._compute(family, batch_sources(family, sources))

    async def full(self, family: QueryFamily) -> None:
        """Full-matrix computation in the pool; memoizes the result."""
        await self._compute(family, None)

    async def _compute(
        self, family: QueryFamily, sources: Optional[List[int]]
    ) -> None:
        result = await self.submit({
            "kind": "full" if sources is None else "rows",
            "family": family.payload(),
            "sources": sources,
        })
        self.service.merge(family, sources, result["rows"], result["rounds"])

    async def approx_diameter(self, family: QueryFamily) -> int:
        """The 2-vs-4 classification (Algorithm 3) — the degraded path.

        Õ(√n) rounds instead of O(n), so it fits deadlines an exact
        run misses.  The verdict is exact on the paper's promise
        graphs (diameter ∈ {2, 4}); in general ``2`` certifies
        diameter ≤ 2 and ``4`` certifies diameter ≥ 3.
        """
        result = await self.submit({
            "kind": "approx-diameter",
            "family": family.payload(),
        })
        self.service.stats.observe_protocol_run()
        return result["diameter"]

    # -- observability -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-pure counters for the ``/stats`` ``supervisor`` section."""
        return {
            "workers": self.workers,
            "alive": self.live_workers(),
            "pids": self.worker_pids(),
            "pending": self._pending,
            "queue_depth": self.queue_depth,
            "deadline_s": self.deadline_s,
            "retries": self.retries,
            "spawned": self.spawned,
            "respawns": self.respawns,
            "crashes": self.crashes,
            "deadline_misses": self.deadline_misses,
            "requeues": self.requeues,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
        }


def _attempt_payload(job: _Job, attempt: int) -> Dict[str, Any]:
    """The payload one attempt sends; chaos spares attempts past its cap."""
    payload = dict(job.payload)
    payload["attempt"] = attempt
    inject = payload.get("inject")
    if (
        inject is not None
        and inject.get("attempts") is not None
        and attempt >= int(inject["attempts"])
    ):
        del payload["inject"]
    return payload


def retry_after_header(seconds: float) -> str:
    """``Retry-After`` wants integral seconds; round up, floor at 1."""
    return str(max(1, int(math.ceil(seconds))))
