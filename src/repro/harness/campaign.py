"""Campaign orchestration: expand → cache-check → shard → record.

The driver turns a sweep spec into tasks, serves whatever it can from
the content-addressed :class:`~repro.harness.cache.RunCache`, shards
the remaining tasks across worker processes, and emits records **in
task order** — the output is deterministic regardless of worker count
or completion interleaving.  Per-task seeding is deterministic too:
the simulator seed is part of the task itself, never derived from
worker identity or scheduling.

Execution is hardened against hostile tasks (docs/harness.md).  Pool
runs use :mod:`repro.pool` lanes, one worker process per lane and one
task per lane at a time, so every failure is blamed on exactly one
task:

* a per-task wall-clock **timeout** kills that task's worker only and
  records a ``Timeout`` error instead of hanging the campaign;
* a worker process dying (segfault, ``os._exit``, OOM-kill) fails the
  task it carried, recorded as ``WorkerCrashed``; its lane forks a
  fresh worker and the other lanes' tasks run on untouched;
* **transient** failures (timeouts, worker death) are retried up to
  ``retries`` times with exponential backoff, which holds only the
  failing task's lane; deterministic in-task exceptions are *not*
  retried — rerunning them cannot help;
* ``max_failures`` / ``fail_fast`` stop starting new tasks once the
  failure budget is spent; tasks already running finish, and tasks
  not yet started get ``Skipped`` records.

Every record carries the task's content ``key`` plus a ``timing`` block
(``elapsed_s``, ``cache_hit``) which is the *only* non-deterministic
part; :func:`repro.harness.store.strip_timing` removes it for
comparisons.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..pool import Crashed, Ok, Outcome, Pool, Raised, RetryPolicy, call
from .cache import RunCache
from .progress import ProgressReporter
from .runner import execute_task
from .spec import CampaignSpec, Task
from .store import ResultStore

#: Error records keep at most this much traceback text (the tail).
_TRACEBACK_CHARS = 4000


@dataclass
class CampaignSummary:
    """Outcome of one campaign invocation."""

    name: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0
    retried: int = 0
    skipped: int = 0
    elapsed_s: float = 0.0

    @property
    def total(self) -> int:
        """How many tasks the campaign covered."""
        return len(self.records)

    @property
    def hit_rate(self) -> float:
        """Fraction of tasks served from the run cache."""
        return self.cache_hits / self.total if self.total else 0.0

    def describe(self) -> str:
        """One-line human summary (the CLI's closing line)."""
        parts = [
            f"campaign '{self.name}': {self.total} tasks",
            f"{self.cache_hits} from cache ({self.hit_rate:.0%})",
            f"{self.executed} executed",
        ]
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.failures:
            parts.append(f"{self.failures} FAILED")
        if self.skipped:
            parts.append(f"{self.skipped} skipped")
        parts.append(f"{self.elapsed_s:.2f}s")
        return " · ".join(parts)


def _finalize(
    record: Dict[str, Any],
    key: str,
    *,
    elapsed_s: float,
    cache_hit: bool,
) -> Dict[str, Any]:
    """Attach the content key and the (non-deterministic) timing block."""
    out = dict(record)
    out["key"] = key
    out["timing"] = {
        "elapsed_s": round(elapsed_s, 6),
        "cache_hit": cache_hit,
    }
    return out


def _timed(task: Task, attempt: int = 0) -> Tuple[Dict[str, Any], float]:
    """Worker entry point: one task's record and its compute seconds."""
    started = time.perf_counter()
    record = execute_task(task)
    return record, time.perf_counter() - started


def _error(
    outcome: Outcome, attempts: int, timeout_s: Optional[float]
) -> Dict[str, Any]:
    """The error block of a failed task's record.

    In-task exceptions carry their (truncated) traceback, so a failed
    campaign is debuggable from its JSONL store alone; the transient
    kinds carry how many attempts they used.
    """
    if isinstance(outcome, Raised):
        # The tail keeps the innermost frames, the ones that say where
        # the task blew up, while bounding record size.
        text = outcome.traceback
        if len(text) > _TRACEBACK_CHARS:
            text = "... (truncated)\n" + text[-_TRACEBACK_CHARS:]
        return {
            "type": outcome.type,
            "message": outcome.message,
            "traceback": text,
        }
    if isinstance(outcome, Crashed):
        kind = "WorkerCrashed"
        message = "the worker process running this task died unexpectedly"
    else:
        kind = "Timeout"
        message = f"task exceeded the {timeout_s:g}s wall-clock limit"
    return {"type": kind, "message": message, "attempts": attempts}


def run_tasks(
    tasks: Sequence[Task],
    *,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    salt: str = "",
    name: str = "campaign",
    progress: Optional[ProgressReporter] = None,
    store: Optional[ResultStore] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    max_failures: Optional[int] = None,
    fail_fast: bool = False,
) -> CampaignSummary:
    """Execute ``tasks``, reusing cached runs; records come back in order.

    ``cache`` (or ``cache_dir``) enables the content-addressed run
    cache; ``use_cache=False`` forces recomputation while still
    *writing* fresh entries, so a once-suspect cache heals itself.
    ``store`` receives every record (in task order) when given.

    Hardening knobs (see the module docstring): ``timeout_s`` bounds
    each task's wall clock (forces pool execution even with one
    worker, so the overdue worker can be killed); ``retries`` reruns
    transient failures with ``backoff_s * 2**attempt`` pauses;
    ``max_failures`` / ``fail_fast`` cap how many failures the
    campaign tolerates before skipping the rest.
    """
    started = time.perf_counter()
    if cache is None and cache_dir is not None:
        cache = RunCache(cache_dir)
    summary = CampaignSummary(name=name)
    keys = [task.key(salt=salt) for task in tasks]
    slots: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    pending: List[int] = []

    for index, (task, key) in enumerate(zip(tasks, keys)):
        cached = cache.get(key) if (cache and use_cache) else None
        if cached is not None and cached.get("task") == task.payload():
            slots[index] = _finalize(
                cached, key, elapsed_s=0.0, cache_hit=True
            )
            summary.cache_hits += 1
            if progress:
                progress.task_done(cache_hit=True)
        else:
            pending.append(index)

    def settle(
        index: int, attempts: int, outcome: Outcome, elapsed: float
    ) -> None:
        key = keys[index]
        failed = not isinstance(outcome, Ok)
        if failed:
            slots[index] = _finalize(
                {
                    "task": tasks[index].payload(),
                    "error": _error(outcome, attempts, timeout_s),
                },
                key, elapsed_s=elapsed, cache_hit=False,
            )
            summary.failures += 1
        else:
            record, elapsed = outcome.result
            if cache is not None:
                cache.put(key, record)
            slots[index] = _finalize(
                record, key, elapsed_s=elapsed, cache_hit=False
            )
        summary.executed += 1
        if progress:
            progress.task_done(cache_hit=False, failed=failed)

    def skip(index: int) -> None:
        slots[index] = _finalize(
            {
                "task": tasks[index].payload(),
                "error": {
                    "type": "Skipped",
                    "message": "not run: campaign failure limit reached",
                },
            },
            keys[index], elapsed_s=0.0, cache_hit=False,
        )
        summary.skipped += 1
        if progress:
            progress.task_done(cache_hit=False)

    failure_limit = 1 if fail_fast else max_failures

    # The in-process fast path cannot kill overdue tasks, survive a
    # crashing task, or retry a dead worker — any hardening knob (or
    # more than one worker) forces pool execution.
    if pending and (jobs > 1 or timeout_s is not None or retries > 0):
        lock = threading.Lock()
        failed = 0

        def stop_at_limit(future) -> None:
            # Runs on the lane thread that settled ``future`` before that
            # lane takes another task, so no task starts past the limit.
            nonlocal failed
            if future.cancelled() or isinstance(future.result().outcome, Ok):
                return
            with lock:
                failed += 1
                if failed == failure_limit:
                    for other in futures:
                        other.cancel()

        with Pool(
            _timed, min(max(1, jobs), len(pending)),
            retry=RetryPolicy(max(0, retries), max(0.0, backoff_s)),
            name="repro-campaign",
        ) as pool:
            futures = {
                pool.submit(tasks[index], timeout=timeout_s): index
                for index in pending
            }
            if failure_limit is not None:
                for future in futures:
                    future.add_done_callback(stop_at_limit)
            for future in as_completed(futures):
                if future.cancelled():
                    skip(futures[future])
                    continue
                done = future.result()
                summary.retried += done.attempts - 1
                settle(futures[future], done.attempts, done.outcome,
                       done.elapsed_s)
    else:
        for index in pending:
            if failure_limit is not None and summary.failures >= failure_limit:
                skip(index)
                continue
            began = time.perf_counter()
            outcome = call(_timed, tasks[index])
            settle(index, 1, outcome, time.perf_counter() - began)

    summary.records = [slot for slot in slots if slot is not None]
    summary.elapsed_s = time.perf_counter() - started
    if progress:
        progress.close()
    if store is not None:
        store.extend(summary.records)
    return summary


def run_campaign(
    spec: "CampaignSpec | Dict[str, Any]",
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    store_path=None,
    append: bool = False,
    show_progress: bool = False,
    progress_stream=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    max_failures: Optional[int] = None,
    fail_fast: bool = False,
) -> CampaignSummary:
    """Expand a sweep spec and run it end to end.

    When ``store_path`` is given the records land there as JSONL;
    unless ``append`` is set the store is truncated first so repeated
    invocations stay byte-comparable.  The hardening knobs
    (``timeout_s``, ``retries``, ``backoff_s``, ``max_failures``,
    ``fail_fast``) pass straight through to :func:`run_tasks`.
    """
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    tasks = spec.expand()
    store = None
    if store_path is not None:
        store = ResultStore(store_path)
        if not append:
            store.truncate()
    progress = None
    if show_progress:
        progress = ProgressReporter(
            len(tasks), label=spec.name, stream=progress_stream
        )
    return run_tasks(
        tasks,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        salt=spec.salt,
        name=spec.name,
        progress=progress,
        store=store,
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        max_failures=max_failures,
        fail_fast=fail_fast,
    )
