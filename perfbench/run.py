"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload headline-cold --seed 1 --seconds 50 --trace 0

Every operation runs in a fresh worker process (``worker.py``), so import
cost, cold caches and the interpreter's hash seed are part of what is
measured.  Each child gets its own random ``PYTHONHASHSEED`` (unless the
environment sets one), recorded in the result file: the hash seed is not
pinned, so cross-process nondeterminism stays visible.  BLAS runs
single-threaded unless the environment sets its thread variables
(``BLAS_THREADS``).

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced operations and reports the per-layer self
times of the traced ones (see ``tracing.py``) plus the tracing overhead.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}`` with the metrics ``BENCHMARK.json`` declares; a human-readable
table goes to standard error, and the full stamped result, with every layer
metric, lands in ``perfbench/results/``.  The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"
#: Hard cap on one invocation, inside the 180 s a run may take.
RUN_CAP_S = 170.0
SERVE_SESSIONS = 4
SERVE_TRACE_REQUESTS = 600
SERVE_SAMPLE_EVERY = 100
#: Cold start, load-generator start and one probe: taken out of each
#: session's share of the seconds, so a run lasts about its seconds.
SERVE_SESSION_OVERHEAD_S = 2.0
PROBES_PER_OP = 2
#: Single-threaded BLAS unless the environment says otherwise: with two
#: vCPUs shared with other tenants, two OpenBLAS threads made every workload
#: slower and let its times swing with the neighbours' load.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SERVING_LINE = re.compile(r"serving .* on ([0-9.]+):(\d+)")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to the program being wrong)."""


# --------------------------------------------------------------------------- processes
class Session:
    """Shared state of one invocation: arguments, scratch space, the clock."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.started = time.perf_counter()
        self.work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.spans = RESULTS / "spans"
        self.hash_seeds: List[str] = []
        self.children = 0

    def remaining(self) -> float:
        return RUN_CAP_S - (time.perf_counter() - self.started)

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        source = str(ROOT / "src")
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = source + (os.pathsep + inherited if inherited else "")
        env["PYTHONHASHSEED"] = os.environ.get("PYTHONHASHSEED") or str(
            random.SystemRandom().randrange(1, 2**32)
        )
        self.hash_seeds.append(env["PYTHONHASHSEED"])
        for name in BLAS_THREADS:
            env.setdefault(name, "1")
        return env

    def spans_path(self) -> str:
        """A fresh trace file name for the next operation."""
        self.children += 1
        return str(self.spans / f"{self.workload}-seed{self.seed}-{self.children}.jsonl")


class LineReader:
    """Lines of a child's stdout with a deadline (no buffering behind select)."""

    def __init__(self, process: subprocess.Popen) -> None:
        self.process = process
        self.fd = process.stdout.fileno()
        self.buffer = b""

    def readline(self, deadline: float) -> Optional[str]:
        """The next line, or None at end of output."""
        while b"\n" not in self.buffer:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                raise BenchmarkError(f"process {self.process.args[:3]} timed out")
            with selectors.DefaultSelector() as selector:
                selector.register(self.fd, selectors.EVENT_READ)
                if not selector.select(timeout):
                    continue
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                line, self.buffer = self.buffer, b""
                return line.decode() if line else None
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line.decode() + "\n"


def _stop(process: subprocess.Popen, sig: int = signal.SIGKILL) -> None:
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def run_worker(session: Session, job: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
    """Run one worker job; returns ``(set-up seconds, result)``."""
    job = dict(job, seed=session.seed)
    started = time.perf_counter()
    deadline = started + session.remaining()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, env=session.env(), cwd=str(ROOT),
    )
    reader = LineReader(process)
    try:
        setup = None
        result = None
        while (line := reader.readline(deadline)) is not None:
            if line.startswith("PERFBENCH-READY") and setup is None:
                setup = time.perf_counter() - started
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line[len("PERFBENCH-RESULT "):])
        process.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        _stop(process)
    if setup is None or result is None:
        raise BenchmarkError(f"worker job {job['op']!r} ended without a result "
                             f"(exit code {process.returncode})")
    result["python_hash_seed"] = session.hash_seeds[-1]
    return setup, result


def prepare(session: Session, job: Dict[str, Any]) -> Dict[str, Any]:
    """A one-time preparation job; it must succeed for the run to mean anything."""
    _, result = run_worker(session, job)
    if not result["ok"]:
        raise BenchmarkError(f"preparation {job['op']!r} failed: {result['errors']}")
    return result


def probe_worker(session: Session) -> float:
    """Set-up time of a worker that does nothing after its import."""
    setup, result = run_worker(session, {"op": "noop"})
    if not result["ok"]:
        raise BenchmarkError(f"set-up probe failed: {result['errors']}")
    return setup


def operations(
    session: Session,
    step: Callable[[bool], Dict[str, Any]],
    probe: Callable[[], float],
) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Repeat ``step(traced)`` for the run's seconds, at least once.

    A new operation starts while at least half of the last one's duration
    still fits, so a run ends within half an operation of its seconds.
    With tracing on, operations alternate untraced/traced and at least one
    of each runs, so the overhead has a base.  After each untraced run
    operation, ``probe()`` sets up ``PROBES_PER_OP`` more times; the set-up
    samples are the operations' own plus the probes'.
    """
    done: List[Dict[str, Any]] = []
    setups: List[float] = []
    started = time.perf_counter()
    while True:
        traced = session.trace and len(done) % 2 == 1
        op_started = time.perf_counter()
        outcome = step(traced)
        outcome["traced"] = traced
        outcome["wall_s"] = time.perf_counter() - op_started
        done.append(outcome)
        if not session.trace:
            setups.append(outcome["setup_s"])
            setups.extend(probe() for _ in range(PROBES_PER_OP))
        elapsed = time.perf_counter() - started
        kinds = {item["traced"] for item in done}
        if session.trace and len(kinds) < 2:
            continue
        if elapsed + outcome["wall_s"] / 2 > session.seconds:
            return done, setups


# --------------------------------------------------------------------------- workloads
def run_headline(session: Session) -> Dict[str, Any]:
    spec = workloads.headline_spec(session.seed)

    def step(traced: bool) -> Dict[str, Any]:
        setup, result = run_worker(session, {
            "op": "headline", "spec": spec, "trace": traced,
            "spans_path": session.spans_path()})
        return dict(result, setup_s=setup)

    ops, setups = operations(session, step, lambda: probe_worker(session))
    untraced = [op for op in ops if not op["traced"]]
    digests = sorted({op["digest"] for op in ops if op.get("digest")})
    return {
        "ops": ops,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "samples": {
            "setup_s": setups,
            "run_s": [op["run_s"] for op in untraced if "run_s" in op],
            "queries_per_s": [op["queries"] / op["stages"]["evaluate"]
                              for op in untraced if "stages" in op],
            "peak_rss_mb": [op["peak_rss_mb"] for op in untraced],
        },
        "info": {"table_digests": digests, "distinct_digests": len(digests)},
    }


def run_rank(session: Session) -> Dict[str, Any]:
    spec = workloads.rank_warm_spec(session.seed)
    base = session.work / "cache"
    prepared = prepare(session, {"op": "prepare-rank", "spec": spec, "cache_dir": str(base)})

    def fresh_cache() -> Tuple[Path, float]:
        """A private copy of the prepared cache (evaluation writes into it)."""
        copy = session.work / "cache-run"
        shutil.rmtree(copy, ignore_errors=True)
        started = time.perf_counter()
        shutil.copytree(base, copy)
        return copy, time.perf_counter() - started

    def step(traced: bool) -> Dict[str, Any]:
        copy, copy_s = fresh_cache()
        setup, result = run_worker(session, {
            "op": "rank", "spec": spec, "cache_dir": str(copy), "trace": traced,
            "spans_path": session.spans_path()})
        if traced and "layers" in result:
            cache = result.get("cache", {})
            result["layers"]["api.artifacts.hits"] = cache.get("hit", 0)
            result["layers"]["api.artifacts.misses"] = cache.get("miss", 0)
        return dict(result, setup_s=copy_s + setup, copy_s=copy_s)

    def probe() -> float:
        return fresh_cache()[1] + probe_worker(session)

    ops, setups = operations(session, step, probe)
    untraced = [op for op in ops if not op["traced"]]
    return {
        "ops": ops,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "samples": {
            "setup_s": setups,
            "run_s": [op["run_s"] for op in untraced if "run_s" in op],
            "eval_queries_per_s": [op["queries"] / op["run_s"] for op in untraced if "run_s" in op],
            "peak_rss_mb": [op["peak_rss_mb"] for op in untraced],
        },
        "info": {"prepare": prepared},
    }


def _server_stats(port: int) -> Dict[str, Any]:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as connection:
        connection.sendall(b'{"op": "stats"}\n')
        reply = connection.makefile("rb").readline()
    return json.loads(reply)["stats"]


def _peak_rss_of(pid: int) -> Optional[float]:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def start_server(session: Session, command: List[str]) -> Tuple[subprocess.Popen, int, float]:
    """Cold-start a server; returns it with its port and the start-up seconds."""
    work = session.work
    serve_args = ["serve", "--artifact", str(work / "artifact"),
                  "--dataset", str(work / "dataset"), "--port", "0", "--quiet"]
    started = time.perf_counter()
    deadline = started + session.remaining()
    server = subprocess.Popen(command + serve_args, stdout=subprocess.PIPE,
                              env=session.env(), cwd=str(ROOT))
    reader = LineReader(server)
    try:
        while (line := reader.readline(deadline)) is not None:
            match = SERVING_LINE.search(line)
            if match:
                return server, int(match.group(2)), time.perf_counter() - started
    except BaseException:
        _stop(server)
        raise
    _stop(server)
    raise BenchmarkError(f"server exited before listening (code {server.returncode})")


def probe_server(session: Session) -> float:
    """Cold start of a server that is stopped as soon as it listens."""
    server, _, setup = start_server(session, [sys.executable, "-m", "repro.cli"])
    _stop(server, signal.SIGINT)
    return setup


def serve_session(session: Session, traced: bool, seconds: float = 0.0,
                  requests: Optional[int] = None) -> Dict[str, Any]:
    """Cold-start a server, drive it with the load generator, stop it."""
    spans_path = session.spans_path()
    layers_path = session.work / f"layers-{session.children}.json"
    samples_path = session.work / f"samples-{session.children}.json"
    if traced:
        command = [sys.executable, str(HERE / "serve_launcher.py"), str(layers_path), spans_path]
    else:
        command = [sys.executable, "-m", "repro.cli"]
    server, port, setup = start_server(session, command)
    hash_seed = session.hash_seeds[-1]
    try:
        _, load = run_worker(session, {
            "op": "load", "pool": str(session.work / "pool.json"), "host": "127.0.0.1",
            "port": port, "seconds": seconds, "requests": requests,
            "sample_every": SERVE_SAMPLE_EVERY, "samples_path": str(samples_path)})
        served = _server_stats(port)
        rss = _peak_rss_of(server.pid)
    finally:
        _stop(server, signal.SIGINT)
    outcome = {"setup_s": setup, "load": load, "stats": served, "peak_rss_mb": rss,
               "samples_path": str(samples_path), "python_hash_seed": hash_seed,
               "traced": traced, "exit_code": server.returncode}
    if traced:
        if not layers_path.is_file():
            raise BenchmarkError("the traced server wrote no layer table")
        outcome["layers"] = json.loads(layers_path.read_text())
        outcome["layers"].update({
            "serve.cache.hit_ratio": served["cache"]["hit_rate"],
            "serve.rows_per_flush": served["scored_rows"] / max(1, served["flushes"]),
            "serve.scored_rows": served["scored_rows"],
        })
    return outcome


def run_serve(session: Session) -> Dict[str, Any]:
    prepared = prepare(session, {"op": "prepare-serve", "work": str(session.work),
                                 "spec": workloads.serve_spec(session.seed)})
    setups: List[float] = []
    if session.trace:
        plain = serve_session(session, False, requests=SERVE_TRACE_REQUESTS)
        traced = serve_session(session, True, requests=SERVE_TRACE_REQUESTS)
        traced["layers"]["trace.overhead"] = traced["load"]["wall_s"] / plain["load"]["wall_s"]
        sessions = [plain, traced]
    else:
        sessions = []
        for _ in range(SERVE_SESSIONS):
            sessions.append(serve_session(session, False, seconds=max(
                1.0, session.seconds / SERVE_SESSIONS - SERVE_SESSION_OVERHEAD_S)))
            setups.append(sessions[-1]["setup_s"])
            setups.append(probe_server(session))
    _, check = run_worker(session, {"op": "check-serve", "work": str(session.work),
                                    "samples": [s["samples_path"] for s in sessions]})
    plain = [s for s in sessions if not s["traced"]]
    latencies = [value for s in plain for value in s["load"]["latencies"]]
    ops = [dict({k: v for k, v in s.items() if k not in ("load", "samples_path")},
                requests=len(s["load"]["latencies"]), load_wall_s=s["load"]["wall_s"],
                errors=s["load"]["errors"])
           for s in sessions]
    tail_p, tail_value = stats.tail(latencies)
    samples = {
        "setup_s": setups,
        "queries_per_s": [workloads.SERVE_QUERIES_PER_REQUEST * len(s["load"]["latencies"])
                          / s["load"]["wall_s"] for s in plain],
        "served_queries_per_s": [workloads.SERVE_QUERIES_PER_REQUEST * len(latencies)
                                 / sum(s["load"]["wall_s"] for s in plain)],
        "request_p50_ms": [1000.0 * stats.percentile(latencies, 50.0)],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain if s["peak_rss_mb"] is not None],
    }
    if tail_p is not None:
        samples[f"request_p{tail_p:g}_ms"] = [1000.0 * tail_value]
    requests = sum(len(s["load"]["latencies"]) for s in sessions)
    return {
        "ops": ops,
        "attempted": requests,
        "failed": sum(s["load"]["failed"] for s in sessions) + len(check["errors"]),
        "samples": samples,
        "errors": check["errors"][:5],
        "info": {"prepare": prepared, "checked_responses": check.get("checked"),
                 "hit_ratio": [s["stats"]["cache"]["hit_rate"] for s in sessions],
                 "tail_percentile": tail_p, "request_latency_s": latencies},
    }


def write_s(op: Dict[str, Any]) -> float:
    """Seconds a churn operation spent writing: ingest, index bootstrap, delta apply."""
    return op["ingest_s"] + op["bootstrap_s"] + sum(op["apply_s"])


def run_churn(session: Session) -> Dict[str, Any]:
    prepared = prepare(session, {"op": "prepare-churn", "work": str(session.work)})

    def step(traced: bool) -> Dict[str, Any]:
        final = session.work / "final"
        try:
            setup, result = run_worker(session, {
                "op": "churn", "work": str(session.work), "final_dir": str(final),
                "trace": traced, "spans_path": session.spans_path()})
        finally:
            shutil.rmtree(final, ignore_errors=True)
        return dict(result, setup_s=setup)

    ops, setups = operations(session, step, lambda: probe_worker(session))
    untraced = [op for op in ops if not op["traced"]]
    batches = [value for op in untraced for value in op.get("batch_s", ())]
    return {
        "ops": ops,
        "attempted": sum(len(op.get("batch_s", ())) or 1 for op in ops),
        "failed": sum(len(op.get("batch_s", ())) or 1 for op in ops if not op["ok"]),
        "samples": {
            "setup_s": setups,
            "ingest_triples_per_s": [op["ingest_triples"] / op["ingest_s"]
                                     for op in untraced if "ingest_s" in op],
            "delta_batch_ms": [1000.0 * value for value in batches],
            "delta_batches_per_s": [len(batches) / sum(batches)] if batches else [],
            "write_triples_per_s": [(op["ingest_triples"] + op["applied_rows"]) / write_s(op)
                                    for op in untraced if "apply_s" in op],
            "apply_share_of_writes": [sum(op["apply_s"]) / write_s(op)
                                      for op in untraced if "apply_s" in op],
            "apply_share_of_batches": [sum(op["apply_s"]) / sum(op["batch_s"])
                                       for op in untraced if "apply_s" in op],
            "peak_rss_mb": [op["peak_rss_mb"] for op in untraced],
        },
        "info": {"prepare": prepared},
    }


RUNNERS = {
    "headline-cold": run_headline,
    "rank-warm": run_rank,
    "serve-zipf": run_serve,
    "ingest-churn": run_churn,
}

#: Units of the workload-specific metrics in the result file.
UNITS = {"setup_s": "s", "run_s": "s", "queries_per_s": "1/s", "eval_queries_per_s": "1/s",
         "peak_rss_mb": "MB", "ingest_triples_per_s": "1/s", "delta_batches_per_s": "1/s",
         "delta_batch_ms": "ms", "request_p50_ms": "ms", "failed_share": "share",
         "served_queries_per_s": "1/s", "write_triples_per_s": "1/s",
         "apply_share_of_writes": "share", "apply_share_of_batches": "share"}


def end_to_end(workload: str, samples: Dict[str, List[float]]) -> Dict[str, float]:
    """The four declared end-to-end metrics from a workload's samples."""
    latency = {
        "headline-cold": lambda: 1000.0 * statistics.median(samples["run_s"]),
        "rank-warm": lambda: 1000.0 * statistics.median(samples["run_s"]),
        "serve-zipf": lambda: samples["request_p50_ms"][0],
        "ingest-churn": lambda: statistics.median(samples["delta_batch_ms"]),
    }[workload]
    throughput = {
        "headline-cold": "queries_per_s",
        "rank-warm": "eval_queries_per_s",
        "serve-zipf": "served_queries_per_s",
        "ingest-churn": "write_triples_per_s",
    }[workload]
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "latency_ms": latency(),
        "throughput_per_s": statistics.median(samples[throughput]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }


def per_layer(outcome: Dict[str, Any]) -> Dict[str, float]:
    """Mean per-layer table of the traced operations, plus the overhead."""
    traced = [op for op in outcome["ops"] if op.get("traced") and "layers" in op]
    if not traced:
        raise BenchmarkError("no traced operation produced a layer table")
    table = {name: statistics.fmean(op["layers"].get(name) or 0.0 for op in traced)
             for name in layers.PER_LAYER}
    if "trace.overhead" not in traced[0]["layers"]:
        plain = [op["run_s"] for op in outcome["ops"] if not op.get("traced") and "run_s" in op]
        table["trace.overhead"] = (statistics.median(op["layers"]["trace.run_s"] for op in traced)
                                   / statistics.median(plain))
    return table


# --------------------------------------------------------------------------- provenance
def source_digest() -> str:
    """Content digest of the program's sources (the checkout need not be git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    try:
        completed = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                   capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None if completed.returncode == 0 else None


def stamp(session: Session, outcome: Dict[str, Any]) -> Dict[str, Any]:
    child = next((op["stamp"] for op in outcome["ops"] if op.get("stamp")), None)
    if child is None:
        child = outcome["info"].get("prepare", {}).get("stamp", {})
    fingerprint = next((op.get("fingerprint") for op in outcome["ops"] if op.get("fingerprint")),
                       outcome["info"].get("prepare", {}).get("fingerprint"))
    return {
        "workload": session.workload, "seed": session.seed, "seconds": session.seconds,
        "trace": session.trace, "spec_fingerprint": fingerprint, "git_commit": git_commit(),
        "source_digest": source_digest(), "python_hash_seeds": session.hash_seeds,
        "child": child, "argv": sys.argv,
    }


# --------------------------------------------------------------------------- main
def print_table(workload: str, samples: Dict[str, List[float]], failed_share: float) -> None:
    print(f"{workload}: metric, unit, median [q1, q3] (n)", file=sys.stderr)
    for name, values in samples.items():
        if values:
            s = stats.summary(values)
            unit = UNITS.get(name, "ms" if name.endswith("_ms") else "")
            print(f"  {name:24s} {unit:6s} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"(n={s['n']})", file=sys.stderr)
    print(f"  {'failed_share':24s} {'share':6s} {failed_share:.6g}", file=sys.stderr)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    session = Session(args)
    session.work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = RUNNERS[args.workload](session)
        samples = outcome["samples"]
        metrics = (per_layer(outcome) if session.trace
                   else end_to_end(args.workload, samples))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(session.work, ignore_errors=True)
    errors = outcome.get("errors", []) + [e for op in outcome["ops"] for e in op.get("errors", [])]
    failed_share = outcome["failed"] / outcome["attempted"]
    correct = outcome["failed"] == 0 and not errors
    if session.trace:
        declared = {name: layers.PER_LAYER[name][0] for name in layers.DECLARED_PER_LAYER}
    else:
        declared = {name: spec[0] for name, spec in layers.END_TO_END.items()}
    summary = {name: {**stats.summary(values), "unit": UNITS.get(name, "ms")}
               for name, values in samples.items() if values}
    summary["failed_share"] = {"value": failed_share, "unit": "share"}
    RESULTS.mkdir(parents=True, exist_ok=True)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "stamp": stamp(session, outcome), "correct": correct, "errors": errors[:20],
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": metrics, "summary": summary, "samples": samples,
        "info": outcome["info"], "ops": outcome["ops"],
    }, indent=1, default=str) + "\n")
    print_table(args.workload, samples, failed_share)
    for error in errors[:10]:
        print(f"  check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
