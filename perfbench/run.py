"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload vector_n2048 --seed 1 \\
        --seconds 25 --trace 0

Each workload runs in fresh processes started from ``src``.  Set-up is
timed several times, from process start to ready, and reported as the
median; the measured run follows in another fresh process whose
process tree is sampled for peak memory.  ``--trace 1`` runs the
workload once untraced and once traced, and reports the per-layer
metrics of the traced run plus the tracing overhead (traced minus
untraced end-to-end numbers).

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without a ``src/repro`` package under the current
directory the command fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import TreeRss, median

HERE = Path(__file__).resolve().parent

#: End-to-end metrics (name → unit), reported by every workload.
E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heavy_s": "s",
    "light_ms": "ms",
}

#: What the workload-neutral end-to-end names mean on each workload.
MEANING = {
    "vector_n2048": {
        "heavy_s": "median protocols.run('apsp', backend='vector')",
        "light_ms": "median protocols.run('ssp', |S|=32, backend='vector')",
    },
    "campaign_object": {
        "heavy_s": "median cold campaign pass (jobs=2)",
        "light_ms": "mean replay of the campaign from its run cache",
    },
    "serve_mixed": {
        "heavy_s": "cold /distance p50, from due time",
        "light_ms": "warm /distance p50, from due time",
    },
}

#: Per-layer metrics (name → unit), reported by every traced run; a
#: layer a workload does not exercise reads 0.
LAYER = {
    "sim.rounds": "count",
    "sim.messages": "count",
    "sim.bits": "count",
    "failed_share": "ratio",
    "trace.overhead.heavy_s": "s",
    "trace.overhead.light_ms": "ms",
    # vector_n2048
    "graphs.build_s": "s",
    "vector.apsp_s": "s",
    "vector.ssp_s": "s",
    "vector.apsp_engine_s": "s",
    "vector.apsp_result_build_s": "s",
    "vector.apsp_ns_per_message": "ns",
    "vector.ssp_ns_per_message": "ns",
    "protocols.apsp_overhead_s": "s",
    "protocols.result_entries": "count",
    "vector.apsp_alloc_peak_mb": "MB",
    "cli.import_s": "s",
    # campaign_object
    "harness.expand_s": "s",
    "core.apsp_s": "s",
    "core.properties_s": "s",
    "core.ssp_s": "s",
    "congest.us_per_message": "us",
    "harness.task_s_sum": "s",
    "harness.overhead_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.replay_ms_per_record": "ms",
    "harness.cache_hit_ratio": "ratio",
    "harness.cache_records": "count",
    "harness.cache_bytes": "bytes",
    "harness.failures": "count",
    "harness.retries": "count",
    # serve_mixed
    "serve.server.read_request_us": "us",
    "serve.service.lookup_us": "us",
    "serve.server.encode_us": "us",
    "serve.server.handler_p50_ms": "ms",
    "serve.outside_handler_ms": "ms",
    "graphs.parse_fresh_ms": "ms",
    "serve.service.compute_rows_ms": "ms",
    "serve.supervisor.ipc_ms": "ms",
    "serve.batch.window_ms": "ms",
    "serve.cache.store_ms": "ms",
    "serve.cache.hit_rate": "ratio",
    "serve.cache.memory": "count",
    "serve.cache.disk": "count",
    "serve.cache.computed": "count",
    "serve.batch.count": "count",
    "serve.batch.mean_size": "count",
    "serve.supervisor.respawns": "count",
    "serve.supervisor.deadline_misses": "count",
    "serve.supervisor.failed": "count",
    "serve.admission.shed": "count",
    "serve.warm_qps": "1/s",
    "serve.warm_p99_ms": "ms",
    "serve.cold_p90_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    # self time of the spans recorded around each layer's calls
    "self_s.graphs": "s",
    "self_s.core": "s",
    "self_s.vector": "s",
    "self_s.protocols": "s",
    "self_s.harness": "s",
    "self_s.serve.server": "s",
    "self_s.serve.service": "s",
    "self_s.serve.cache": "s",
    "self_s.serve.batch": "s",
    "self_s.serve.supervisor": "s",
}

#: Set-up samples per run: the median absorbs a slow start.
SETUP_SAMPLES = {"vector_n2048": 5, "campaign_object": 5, "serve_mixed": 3}

#: Wall-clock cap per worker process; the whole run must end in 180 s.
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A worker failed; the run prints no result."""


def run_worker(root: Path, workload: str, seed: int, seconds: float,
               tmp: str, *, deadline: float, trace: bool = False,
               setup_only: bool = False, spans: str = None):
    """Run one workload process and measure it from outside.

    Returns ``(setup_s, result, peak_rss_mb)``: set-up from process
    start to the ``READY`` line, the worker's ``RESULT`` payload and the
    peak RSS of the process tree the worker named (both ``None`` with
    ``setup_only``).  Raises :class:`BenchError` if the worker fails.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), workload,
           "--seed", str(seed), "--seconds", str(seconds), "--tmp", tmp]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    setup_s = result = peak_rss_mb = None
    rss = TreeRss()
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(root), start_new_session=True)
    watchdog = threading.Timer(
        max(1.0, deadline - time.monotonic()), _kill_group, [proc])
    watchdog.start()
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY" and setup_s is None:
                setup_s = time.perf_counter() - started
                if not setup_only:
                    rss.start(json.loads(payload)["rss_root"])
            elif tag == "RESULT":
                result = json.loads(payload)
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if rss.root is not None:
            peak_rss_mb = rss.stop()
        _kill_group(proc)
        proc.stdout.close()
    if code != 0 or setup_s is None or (not setup_only and result is None):
        raise BenchError(f"{workload} worker failed (exit code {code})")
    return setup_s, result, peak_rss_mb


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL whatever is left of the worker's session, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def _metrics(values, units):
    unknown = set(values) - set(units)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


def run(root: Path, args) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(scratch))

    def worker(**kwargs):
        run_dir = tempfile.mkdtemp(dir=tmp)
        return run_worker(root, args.workload, args.seed, args.seconds,
                          run_dir, deadline=deadline, **kwargs)

    try:
        if args.trace:
            out = root / ".perfbench_out"
            out.mkdir(exist_ok=True)
            _, base, _ = worker()
            _, traced, _ = worker(
                trace=True,
                spans=str(out / f"spans-{args.workload}-{args.seed}.jsonl"),
            )
            values = {**dict.fromkeys(LAYER, 0.0), **traced["layer"]}
            for name in ("heavy_s", "light_ms"):
                values[f"trace.overhead.{name}"] = (
                    traced["e2e"][name] - base["e2e"][name])
            attempted = base["attempted"] + traced["attempted"]
            failed = base["failed"] + traced["failed"]
            values["failed_share"] = failed / attempted
            metrics = _metrics(values, LAYER)
            info = traced["info"]
        else:
            setups = [worker(setup_only=True)[0]
                      for _ in range(SETUP_SAMPLES[args.workload] - 1)]
            setup_s, result, peak_rss_mb = worker()
            setups.append(setup_s)
            values = dict(result["e2e"])
            values["setup_s"] = median(setups)
            values["peak_rss_mb"] = peak_rss_mb
            attempted, failed = result["attempted"], result["failed"]
            metrics = _metrics(values, E2E)
            info = result["info"]
            for name, meaning in MEANING[args.workload].items():
                print(f"# {name}: {meaning}")
            print(f"# setup_s: median of {len(setups)} set-ups")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, (value, unit, samples) in info.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} "
              f"({samples} samples)")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(MEANING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    try:
        result = run(root, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
