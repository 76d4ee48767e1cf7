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

Jobs run on a :class:`repro.pool.Pool` — the pool the campaign harness
runs on — one job per worker at a time, so a crash or a deadline kill
is charged to exactly the job that worker carried.  Each worker keeps
a per-process graph cache so repeated families avoid re-parsing.  Idle
lanes respawn workers that die between jobs (an external SIGKILL),
which is what flips ``/readyz`` back to ready without waiting for
traffic.  :meth:`Supervisor.close` kills busy workers at once and fails
their jobs with :class:`SupervisorError`.

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
from typing import Any, Dict, List, Mapping, Optional

from .. import obs, protocols
from ..graphs.specs import parse_graph
from ..pool import (
    HEARTBEAT_S, Ok, Pool, PoolClosed, Raised, RetryPolicy, Settled, TimedOut,
)
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


#: The worker process's parsed graphs, so repeated families avoid
#: re-parsing.  Filled only inside pool workers.
_WORKER_GRAPHS: Dict[str, Any] = {}


def _execute_job(job: Mapping[str, Any], attempt: int) -> Dict[str, Any]:
    """Run one compute job in a worker; returns a pickle-pure result.

    A chaos ``inject`` block first runs the ``chaos`` protocol (hang,
    crash or error) on attempts below its ``attempts`` cap.
    """
    payload = job["family"]
    spec = payload["graph"]
    graph = _WORKER_GRAPHS.get(spec)
    if graph is None:
        graph = _WORKER_GRAPHS[spec] = parse_graph(spec)
    inject = job.get("inject")
    if inject and attempt < inject["attempts"]:
        protocols.run("chaos", graph, {
            "mode": inject["mode"], "seconds": inject["seconds"],
        })
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
        attempts = spec.get("attempts")
        self.inject = {
            "mode": spec.get("mode", "error"),
            "seconds": float(spec.get("seconds", 3600.0)),
            "attempts": math.inf if attempts is None else int(attempts),
        }
        self.kinds = set(spec.get("kinds") or ())
        self.jobs_budget = spec.get("jobs")
        self.poisoned = 0

    def stamp(self, payload: Dict[str, Any]) -> None:
        """Attach an ``inject`` block to ``payload`` if the plan says so."""
        if self.kinds and payload["kind"] not in self.kinds:
            return
        if self.jobs_budget is not None and self.poisoned >= self.jobs_budget:
            return
        self.poisoned += 1
        payload["inject"] = self.inject


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
        self._pool: Optional[Pool] = None
        self._pending = 0
        self._closed = False
        # Counters (single-threaded on the loop; read by /stats).  The
        # worker counters live on the pool.
        self.deadline_misses = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the workers."""
        if self._pool is None:
            self._pool = Pool(
                _execute_job, self.workers, retry=self._retry,
                name="repro-serve-worker", heartbeat_s=self.heartbeat_s,
            )

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
        if self._pool is not None:
            self._pool.close()

    # -- worker management -------------------------------------------------

    def respawn_age_s(self) -> Optional[float]:
        """Seconds since the last crash respawn (``None`` if never).

        Readiness uses this to report a *settle window* after a
        respawn: a freshly forked worker hasn't proven itself yet, and
        the brief not-ready blip is how orchestrators (and the chaos
        harness) observe that the pool was disrupted — the respawn
        itself is near-instant.
        """
        last = getattr(self._pool, "last_respawn_at", None)
        return None if last is None else time.monotonic() - last

    def live_workers(self) -> int:
        """Workers whose processes are currently alive."""
        return len(self.worker_pids())

    def worker_pids(self) -> List[int]:
        """PIDs of live workers (the chaos harness's kill list)."""
        return self._pool.pids() if self._pool is not None else []

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
        if self._pool is None or self._closed:
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
        future = self._pool.submit(
            payload,
            deadline=None if budget is None else time.monotonic() + budget,
        )
        # Tallied on the loop, before the waiter resumes — also when a
        # cancelled waiter leaves the job running.
        loop = asyncio.get_running_loop()
        future.add_done_callback(
            lambda done: loop.call_soon_threadsafe(self._tally, done)
        )
        self._pending += 1
        self.submitted += 1
        tracer = obs.active()
        span_id = None
        if tracer is not None:
            span_id = tracer.span_begin(
                "serve_pool_job", round_no=0, kind=payload["kind"],
                graph=payload["family"]["graph"],
            )
        rounds = 0
        try:
            # A cancelled waiter cancels the job too, unless it started.
            settled = await asyncio.wrap_future(future)
            result = _result(settled, budget)
            rounds = result.get("rounds", 0)
            return result
        except PoolClosed as exc:
            raise SupervisorError(
                "supervisor closed before the job finished"
            ) from exc
        finally:
            if tracer is not None:
                tracer.span_end(span_id, round_no=0, rounds=rounds)

    def _tally(self, future) -> None:
        self._pending -= 1
        outcome = None
        if not future.cancelled() and future.exception() is None:
            outcome = future.result().outcome
        if isinstance(outcome, TimedOut):
            self.deadline_misses += 1
        if isinstance(outcome, Ok):
            self.completed += 1
        else:
            self.failed += 1

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
        pool = self._pool
        return {
            "workers": self.workers,
            "alive": self.live_workers(),
            "pids": self.worker_pids(),
            "pending": self._pending,
            "queue_depth": self.queue_depth,
            "deadline_s": self.deadline_s,
            "retries": self.retries,
            "spawned": getattr(pool, "spawned", 0),
            "respawns": getattr(pool, "respawns", 0),
            "crashes": getattr(pool, "crashes", 0),
            "deadline_misses": self.deadline_misses,
            "requeues": getattr(pool, "retried", 0),
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
        }


def _result(settled: Settled, budget: Optional[float]) -> Dict[str, Any]:
    """A settled job's result dict, or the error its outcome maps to."""
    outcome = settled.outcome
    if isinstance(outcome, Ok):
        return outcome.result
    if isinstance(outcome, Raised):
        # Deterministic in-job exception: retrying cannot help.
        raise ComputeFailed(f"{outcome.type}: {outcome.message}")
    if isinstance(outcome, TimedOut):
        if settled.attempts == 0:
            raise DeadlineExceeded(
                "job spent its deadline waiting in the queue"
            )
        raise DeadlineExceeded(f"job exceeded its {budget:g}s deadline")
    raise ComputeFailed(
        f"the worker process running this job died "
        f"({settled.attempts} attempt(s))"
    )


def retry_after_header(seconds: float) -> str:
    """``Retry-After`` wants integral seconds; round up, floor at 1."""
    return str(max(1, int(math.ceil(seconds))))
