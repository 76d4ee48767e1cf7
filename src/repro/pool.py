"""The supervised worker pool shared by campaigns and ``repro serve``.

Both users of worker processes — the campaign harness
(:func:`repro.harness.run_tasks`) and the serve supervisor
(:class:`repro.serve.supervisor.Supervisor`) — submit their jobs to one
:class:`Pool`.  A pool runs ``workers`` :class:`Lane` objects, each
driven by its own thread pulling from one FIFO queue.  A lane is one
forked worker process on a duplex pipe, and it carries exactly one job
at a time.  :meth:`Lane.run` sends a job and blocks until it has one
outcome:

* :class:`Ok` — the job returned ``result``;
* :class:`Raised` — the job raised; the worker survives, and a rerun
  would raise again, so it is never retried;
* :class:`Crashed` — the worker died under the job (segfault,
  ``os._exit``, OOM kill, an external SIGKILL);
* :class:`TimedOut` — the timeout passed first, and the lane killed its
  worker.

Because a lane carries one job, a crash or a timeout is blamed on that
job alone, and killing an overdue worker never disturbs another lane's
job.  A lane whose worker died starts a fresh one on :meth:`Lane.start`.

:class:`RetryPolicy` is the retry rule: crashes are transient, raised
exceptions are final, timeouts are transient only where the caller
says so, and the pause before attempt ``k + 1`` is
``backoff_s * 2**k``.  The pool applies it on the failing job's own
lane, so a backoff never holds up another lane's work.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, List, Optional, Tuple, Union

#: Seconds to wait for a SIGKILLed worker to be reaped.
_REAP_TIMEOUT_S = 5.0

#: How often an idle lane checks that its worker is still alive.
HEARTBEAT_S = 0.25


@dataclass(frozen=True)
class Ok:
    """The job returned ``result``."""

    result: Any


@dataclass(frozen=True)
class Raised:
    """The job raised an exception of class ``type``."""

    type: str
    message: str
    traceback: str


@dataclass(frozen=True)
class Crashed:
    """The worker process died while it carried the job."""


@dataclass(frozen=True)
class TimedOut:
    """The job overran its timeout; the lane killed its worker."""


Outcome = Union[Ok, Raised, Crashed, TimedOut]


@dataclass(frozen=True)
class Settled:
    """What a :meth:`Pool.submit` future resolves to.

    ``outcome`` is the job's final outcome and ``attempts`` how many
    times it ran; ``0`` means its deadline passed while it was queued.
    ``elapsed_s`` is the wall time of the last attempt.
    """

    outcome: Outcome
    attempts: int
    elapsed_s: float = 0.0


class PoolClosed(RuntimeError):
    """The pool was closed before the job settled."""


def call(work: Callable[[Any], Any], job: Any) -> Union[Ok, Raised]:
    """Run ``work(job)`` in this process; an exception becomes :class:`Raised`.

    Lanes run every job through this function, and callers use it for
    the jobs they run in-process, so both report a failed job the same
    way.
    """
    try:
        return Ok(work(job))
    except Exception as exc:  # noqa: BLE001 — reported as the job's outcome
        return Raised(
            type(exc).__name__, str(exc), traceback.format_exc().strip()
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Which failed attempts run again, and after what pause.

    A job gets at most ``retries`` attempts after its first.  Only
    transient outcomes are retried: :class:`Crashed` always, and
    :class:`TimedOut` when ``retry_timeouts`` is set.
    """

    retries: int = 0
    backoff_s: float = 0.0
    retry_timeouts: bool = True

    def delay(self, outcome: Outcome, attempt: int) -> Optional[float]:
        """Seconds to pause before retrying attempt ``attempt`` (0-based).

        ``None`` means ``outcome`` is final.
        """
        if attempt >= self.retries:
            return None
        if isinstance(outcome, Crashed) or (
            isinstance(outcome, TimedOut) and self.retry_timeouts
        ):
            return self.backoff_s * 2 ** attempt
        return None


def _context():
    """Fork where the platform has it (fast, inherits imports)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _kill(process) -> None:
    try:
        process.kill()
    except (OSError, ValueError):  # already reaped
        pass


def _lane_main(conn, work: Callable[[Any], Any], path) -> None:
    """The worker loop: receive a job, run it, send back its outcome."""
    # Under spawn the child starts from a fresh interpreter; mirror the
    # parent's sys.path so ``work`` and the jobs unpickle.
    for entry in path:
        if entry not in sys.path:
            sys.path.append(entry)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        outcome = call(work, job)
        try:
            conn.send(outcome)
        except OSError:
            return


class Lane:
    """One worker process on a duplex pipe, carrying one job at a time.

    ``work`` must be picklable by reference (a module-level function):
    the worker calls ``work(job)`` for every job it receives.  Call
    :meth:`start` before :meth:`run`, and :meth:`close` when done.
    :meth:`run` blocks (a :class:`Pool` drives each lane from its own
    thread); :meth:`kill` is safe from any thread.
    """

    def __init__(
        self, work: Callable[[Any], Any], *, name: str = "repro-lane"
    ) -> None:
        self.work = work
        self.name = name
        #: True while :meth:`run` carries a job.
        self.busy = False
        self._process = None
        self._conn = None

    def alive(self) -> bool:
        """Whether the lane's worker process is running."""
        process = self._process
        return process is not None and process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        """The live worker's PID, or ``None``."""
        process = self._process
        alive = process is not None and process.is_alive()
        return process.pid if alive else None

    def start(self) -> bool:
        """Fork a worker unless one is alive; ``True`` when it forked."""
        if self.alive():
            return False
        self._reap()
        ctx = _context()
        parent, child = ctx.Pipe()
        process = ctx.Process(
            target=_lane_main, args=(child, self.work, list(sys.path)),
            name=self.name, daemon=True,
        )
        process.start()
        child.close()
        self._process, self._conn = process, parent
        return True

    def run(self, job: Any, timeout: Optional[float] = None) -> Outcome:
        """Send ``job`` to the worker and block until its outcome.

        ``timeout`` (seconds, ``None`` = unbounded) counts from the
        send.  After :class:`Crashed` or :class:`TimedOut` the worker
        is reaped, and the next :meth:`start` forks a fresh one.
        """
        conn = self._conn
        if conn is None:
            raise RuntimeError(f"lane {self.name} has no worker; start it")
        self.busy = True
        try:
            conn.send(job)
            if not conn.poll(timeout):
                self._reap()
                return TimedOut()
            return conn.recv()
        except (EOFError, OSError):
            self._reap()
            return Crashed()
        finally:
            self.busy = False

    def kill(self) -> None:
        """SIGKILL the worker now; a :meth:`run` in progress returns
        :class:`Crashed`."""
        process = self._process
        if process is not None:
            _kill(process)

    def close(self) -> None:
        """Kill the worker and reap it (idempotent)."""
        self._reap()

    def _reap(self) -> None:
        process, conn = self._process, self._conn
        self._process = self._conn = None
        if process is not None:
            _kill(process)
            process.join(_REAP_TIMEOUT_S)
        if conn is not None:
            conn.close()


def _attempt(work: Callable[[Any, int], Any], sent: Tuple[Any, int]) -> Any:
    """A pool lane's worker entry: ``sent`` is ``(job, attempt)``."""
    job, attempt = sent
    return work(job, attempt)


class Pool:
    """Run jobs on ``workers`` lanes, each driven by its own thread.

    The worker calls ``work(job, attempt)`` (``attempt`` counts from 0);
    ``work`` must be a module-level function.  The workers fork here;
    :meth:`close` the pool when done, or use it as a context manager.

    Idle lanes take queued jobs in FIFO order.  A failed attempt that
    ``retry`` calls transient runs again on the same lane after its
    backoff.  A worker that died under a job is replaced at once, and
    an idle lane checks its worker every ``heartbeat_s`` seconds.  The
    counters ``spawned``, ``respawns``, ``crashes`` (worker deaths,
    under a job or idle), ``retried`` (attempts rerun) and
    ``last_respawn_at`` (``time.monotonic()``) are for monitoring.
    """

    def __init__(
        self,
        work: Callable[[Any, int], Any],
        workers: int,
        *,
        retry: RetryPolicy = RetryPolicy(),
        name: str = "repro-pool",
        heartbeat_s: float = HEARTBEAT_S,
    ) -> None:
        if int(workers) < 1:
            raise ValueError(f"workers must be at least 1 (got {workers})")
        self.retry = retry
        self.heartbeat_s = heartbeat_s
        self.spawned = self.respawns = self.crashes = self.retried = 0
        self.last_respawn_at: Optional[float] = None
        #: Queued ``(job, future, timeout, deadline)`` entries.
        self._queue: Deque[tuple] = deque()
        self._cond = threading.Condition()
        self._closed = threading.Event()
        self._lanes = [
            Lane(partial(_attempt, work), name=f"{name}-{i}")
            for i in range(int(workers))
        ]
        for lane in self._lanes:
            lane.start()
        self.spawned = len(self._lanes)
        self._threads = [
            threading.Thread(
                target=self._serve, args=(lane,), name=lane.name, daemon=True
            )
            for lane in self._lanes
        ]
        for thread in self._threads:
            thread.start()

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(
        self,
        job: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Queue ``job``; the future resolves to its :class:`Settled`.

        ``timeout`` (seconds) bounds each attempt from its dispatch.
        ``deadline`` (a ``time.monotonic()`` instant) bounds the whole
        job from submission: a job still queued when it passes settles
        as :class:`TimedOut` with 0 attempts and never runs.  A
        cancelled future that has not started never runs either.
        """
        future: Future = Future()
        with self._cond:
            if self._closed.is_set():
                raise PoolClosed("the pool is closed")
            self._queue.append((job, future, timeout, deadline))
            self._cond.notify()
        return future

    def pids(self) -> List[int]:
        """PIDs of the live workers."""
        return [lane.pid for lane in self._lanes if lane.pid]

    def close(self) -> None:
        """Kill every worker at once and fail the unsettled jobs.

        Queued and running jobs fail with :class:`PoolClosed`; nothing
        is retried or respawned.  Idempotent.
        """
        with self._cond:
            if self._closed.is_set():
                return
            self._closed.set()
            queued = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for thread in self._threads:
            # Kill until the thread exits: its lane may fork again
            # after a kill.
            while thread.is_alive():
                for lane in self._lanes:
                    lane.kill()
                thread.join(0.1)
        for _job, future, _timeout, _deadline in queued:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    PoolClosed("the pool closed before the job ran")
                )
        for lane in self._lanes:
            lane.close()

    # -- lane threads ------------------------------------------------------

    def _serve(self, lane: Lane) -> None:
        while True:
            with self._cond:
                if not self._queue and not self._closed.is_set():
                    self._cond.wait(self.heartbeat_s)
                if self._closed.is_set():
                    return
                entry = self._queue.popleft() if self._queue else None
            if entry is None:
                self._revive(lane)
            elif entry[1].set_running_or_notify_cancel():
                self._run(lane, *entry)

    def _run(
        self,
        lane: Lane,
        job: Any,
        future: Future,
        timeout: Optional[float],
        deadline: Optional[float],
    ) -> None:
        """Run ``job`` on ``lane`` until it settles, retrying per policy."""
        attempt = 0
        while True:
            self._revive(lane)
            if self._closed.is_set():
                future.set_exception(
                    PoolClosed("the pool closed before the job finished")
                )
                return
            limit = timeout
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    future.set_result(Settled(TimedOut(), attempt))
                    return
                limit = left if limit is None else min(limit, left)
            began = time.perf_counter()
            outcome = lane.run((job, attempt), limit)
            elapsed = time.perf_counter() - began
            attempt += 1
            if isinstance(outcome, (Crashed, TimedOut)):
                if self._closed.is_set():
                    continue  # close() killed the worker
                self._respawn(lane, crashed=isinstance(outcome, Crashed))
            delay = self.retry.delay(outcome, attempt - 1)
            if delay is None:
                future.set_result(Settled(outcome, attempt, elapsed))
                return
            with self._cond:
                self.retried += 1
            self._closed.wait(delay)

    def _revive(self, lane: Lane) -> None:
        """Respawn a worker that died while its lane was idle."""
        if not lane.alive() and not self._closed.is_set():
            self._respawn(lane, crashed=True)

    def _respawn(self, lane: Lane, *, crashed: bool) -> None:
        forked = lane.start()
        with self._cond:
            self.crashes += crashed
            if forked:
                self.spawned += 1
                self.respawns += 1
                self.last_respawn_at = time.monotonic()
