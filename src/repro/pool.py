"""The supervised worker pool shared by campaigns and ``repro serve``.

Both users of worker processes — the campaign harness
(:func:`repro.harness.run_tasks`) and the serve supervisor
(:class:`repro.serve.supervisor.Supervisor`) — run their jobs on
:class:`Lane` objects.  A lane is one forked worker process on a duplex
pipe, and it carries exactly one job at a time.  :meth:`Lane.run`
sends a job and blocks until it has one outcome:

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

:class:`RetryPolicy` is the retry rule both callers share: crashes are
transient, raised exceptions are final, timeouts are transient only
where the caller says so, and the pause before attempt ``k + 1`` is
``backoff_s * 2**k``.
"""

from __future__ import annotations

import multiprocessing
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

#: Seconds to wait for a SIGKILLed worker to be reaped.
_REAP_TIMEOUT_S = 5.0


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
    :meth:`run` blocks, so an asynchronous caller runs it in a thread;
    :meth:`kill` is safe from any thread.
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
