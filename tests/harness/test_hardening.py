"""Hardened campaign execution: per-task timeouts, transient-failure
retries, worker-crash isolation, failure limits, and the ``chaos``
algorithm that makes those paths testable on purpose."""

import time

import pytest

from repro import pool
from repro.harness import CampaignSpec, Task
from repro.harness.campaign import run_campaign, run_tasks


def _chaos(mode, **extra):
    return Task.make("path:4", "chaos", {"mode": mode, **extra})


def _apsp(seed):
    return Task.make("path:6", "apsp", {"seed": seed})


def _error_types(summary):
    return [r.get("error", {}).get("type") for r in summary.records]


class TestChaosAlgorithm:
    def test_ok_mode_produces_a_record(self):
        summary = run_tasks([_chaos("ok")])
        assert summary.failures == 0
        assert summary.records[0]["result"] == {"mode": "ok"}

    def test_error_mode_records_traceback(self):
        summary = run_tasks([_chaos("error")])
        error = summary.records[0]["error"]
        assert error["type"] == "TaskError"
        assert "chaos task failed on purpose" in error["message"]
        assert "Traceback" in error["traceback"]
        assert "TaskError" in error["traceback"]

    def test_unknown_mode_rejected(self):
        summary = run_tasks([_chaos("wat")])
        assert summary.failures == 1
        assert "unknown chaos mode" in summary.records[0]["error"]["message"]


class TestTimeout:
    def test_hanging_task_times_out_and_others_complete(self):
        summary = run_tasks(
            [_chaos("hang", seconds=60), _apsp(0)],
            jobs=2, timeout_s=1.0,
        )
        assert summary.failures == 1
        by_algo = {r["task"]["algorithm"]: r for r in summary.records}
        error = by_algo["chaos"]["error"]
        assert error["type"] == "Timeout"
        assert error["attempts"] == 1
        assert "result" in by_algo["apsp"]
        # The campaign finished instead of hanging for 60s.
        assert summary.elapsed_s < 30

    def test_timeout_forces_pool_even_with_one_job(self):
        summary = run_tasks(
            [_chaos("hang", seconds=60)], jobs=1, timeout_s=1.0
        )
        assert _error_types(summary) == ["Timeout"]

    def test_timeout_is_retried_up_to_budget(self):
        summary = run_tasks(
            [_chaos("hang", seconds=60)],
            jobs=1, timeout_s=0.5, retries=1, backoff_s=0.0,
        )
        assert summary.retried == 1
        error = summary.records[0]["error"]
        assert error["type"] == "Timeout"
        assert error["attempts"] == 2


class TestCrashIsolation:
    def test_worker_death_fails_only_its_task(self):
        summary = run_tasks(
            [_chaos("crash"), _apsp(0), _apsp(1)], jobs=2
        )
        assert summary.failures == 1
        types = _error_types(summary)
        assert types[0] == "WorkerCrashed"
        assert types[1] is None and types[2] is None

    def test_crash_is_retried_up_to_budget(self):
        summary = run_tasks(
            [_chaos("crash")], jobs=2, retries=2, backoff_s=0.0
        )
        assert summary.retried == 2
        error = summary.records[0]["error"]
        assert error["type"] == "WorkerCrashed"
        assert error["attempts"] == 3

    def test_deterministic_errors_are_never_retried(self):
        summary = run_tasks(
            [_chaos("error")], jobs=2, retries=3, backoff_s=0.0
        )
        assert summary.retried == 0
        assert summary.records[0]["error"]["type"] == "TaskError"


class TestBackoffHoldsOneLane:
    def test_quick_tasks_settle_while_a_crash_backs_off(self):
        class Stamps:
            """A progress reporter that records when each task settled."""

            def __init__(self):
                self.ok = []

            def task_done(self, *, cache_hit=False, failed=False):
                if not failed:
                    self.ok.append(time.monotonic())

            def close(self):
                pass

        tasks = [_chaos("crash")] + [
            _chaos("hang", seconds=0.2, seed=i) for i in range(10)
        ]
        stamps = Stamps()
        t0 = time.monotonic()
        summary = run_tasks(
            tasks, jobs=2, retries=1, backoff_s=3.0, progress=stamps
        )
        # The crash's 3 s backoff holds its own lane only: the other
        # lane settles the quick tasks meanwhile.
        assert sum(stamp < t0 + 3.0 for stamp in stamps.ok) >= 8
        assert _error_types(summary) == ["WorkerCrashed"] + [None] * 10
        assert summary.retried == 1


class TestFailureLimits:
    def test_max_failures_skips_the_rest(self):
        tasks = [_chaos("error", seed=i) for i in range(5)]
        summary = run_tasks(tasks, max_failures=2)
        assert summary.failures == 2
        assert summary.skipped == 3
        assert _error_types(summary) == [
            "TaskError", "TaskError", "Skipped", "Skipped", "Skipped",
        ]

    def test_fail_fast_is_max_failures_one(self):
        tasks = [_chaos("error", seed=i) for i in range(3)]
        summary = run_tasks(tasks, fail_fast=True)
        assert summary.failures == 1
        assert summary.skipped == 2

    def test_limits_apply_under_the_pool_too(self):
        tasks = [_chaos("error", seed=i) for i in range(6)]
        summary = run_tasks(tasks, jobs=2, max_failures=2)
        assert summary.failures >= 2
        assert summary.skipped >= 1
        assert len(summary.records) == 6

    def test_describe_reports_the_new_counters(self):
        summary = run_tasks(
            [_chaos("error"), _chaos("error", seed=1)], fail_fast=True
        )
        text = summary.describe()
        assert "1 FAILED" in text
        assert "1 skipped" in text


class TestCachedReplay:
    def test_fully_cached_replay_starts_no_worker(
        self, tmp_path, monkeypatch
    ):
        tasks = [_apsp(seed) for seed in range(3)]
        cache_dir = str(tmp_path / "cache")
        assert run_tasks(tasks, jobs=2, cache_dir=cache_dir).failures == 0

        def no_fork(self):
            raise AssertionError("a cached replay forked a worker")

        monkeypatch.setattr(pool.Lane, "start", no_fork)
        summary = run_tasks(tasks, jobs=2, cache_dir=cache_dir)
        assert summary.cache_hits == len(tasks)
        assert summary.failures == 0


class TestMixedHostileCampaign:
    def test_completes_with_per_task_errors_in_order(self):
        # The acceptance scenario: a hanging task, a crashing worker
        # and a deterministic error alongside healthy tasks.  The
        # campaign must finish, keep task order, and record every
        # outcome.
        tasks = [
            _chaos("hang", seconds=60),
            _chaos("crash"),
            _apsp(0),
            _chaos("error"),
            _apsp(1),
        ]
        summary = run_tasks(
            tasks, jobs=2, timeout_s=1.5, retries=1, backoff_s=0.0
        )
        assert len(summary.records) == len(tasks)
        for task, record in zip(tasks, summary.records):
            assert record["task"] == task.payload()
        types = _error_types(summary)
        assert types[2] is None and types[4] is None
        # Blame is precise: the hang times out, the crash is charged
        # to the task its lane carried, and neither poisons the
        # healthy tasks.
        assert types[0] == "Timeout"
        assert types[1] == "WorkerCrashed"
        assert types[3] == "TaskError"
        assert summary.failures == 3


class TestRunCampaignThreading:
    def test_knobs_flow_through_run_campaign(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "hostile",
            "graphs": ["path:4"],
            "algorithms": ["chaos"],
            "seeds": [0, 1, 2],
            "params": {"mode": "error"},
        })
        out = tmp_path / "hostile.jsonl"
        summary = run_campaign(
            spec, store_path=out, fail_fast=True
        )
        assert summary.failures == 1
        assert summary.skipped == 2
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_faulty_spec_expands_faults_into_every_task(self):
        spec = CampaignSpec.from_dict({
            "name": "faulty",
            "graphs": ["path:8"],
            "algorithms": ["apsp"],
            "seeds": [0],
            "faults": {"drop_rate": 0.5, "seed": 3},
        })
        tasks = spec.expand()
        assert all(
            t.param_dict()["faults"] == {"drop_rate": 0.5, "seed": 3}
            for t in tasks
        )
        summary = run_tasks(tasks)
        assert summary.failures == 0
        result = summary.records[0]["result"]
        # Heavy loss degrades the run instead of crashing the adapter.
        assert result.get("degraded") is True

    def test_noop_faults_do_not_change_cache_keys(self):
        plain = CampaignSpec.from_dict({
            "name": "c", "graphs": ["path:8"], "algorithms": ["apsp"],
        })
        noop = CampaignSpec.from_dict({
            "name": "c", "graphs": ["path:8"], "algorithms": ["apsp"],
            "faults": {"drop_rate": 0.0},
        })
        keys = [t.key() for t in plain.expand()]
        assert keys == [t.key() for t in noop.expand()]

    def test_faults_conflict_rejected(self):
        from repro.harness import SpecError

        with pytest.raises(SpecError, match="not both"):
            CampaignSpec.from_dict({
                "graphs": ["path:4"],
                "faults": {"drop_rate": 0.1},
                "params": {"faults": {"drop_rate": 0.2}},
            })

    def test_bad_faults_rejected(self):
        from repro.harness import SpecError

        with pytest.raises(SpecError, match="bad 'faults'"):
            CampaignSpec.from_dict({
                "graphs": ["path:4"],
                "faults": {"drop_rate": 7},
            })
