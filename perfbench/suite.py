"""Run every workload over several seeds and print every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/suite.py --seeds 1-10 --seconds 50 --trace

For each workload, declared in ``BENCHMARK.json`` or not, this runs ``run.py``
once per seed (tracing off) and, with ``--trace``, once more traced.  It
prints, per workload:

* every end-to-end metric of ``BENCHMARK.json`` with its unit, the median and
  quartiles over the runs, the sample count and the spread (interquartile
  distance over median) next to the metric's bound;
* the workload's own metrics (``run_s``, ``request_p99_ms``, ...) pooled the
  same way, ``failed_share``, and for ``headline-cold`` how many distinct
  metric-table digests the runs produced (information, not a gate);
* with ``--trace``, the per-layer self times, what each should move, their
  sum against the traced run time, and the tracing overhead.

The whole report is also written to ``perfbench/results/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TRAINING_LAYERS = ("kg.sampling.sample_s", "models.forward_s", "autodiff.backward_s",
                   "models.optim.step_s", "models.constraints_s", "rules.amie.mine_s")
RANKING_LAYERS = tuple(name for name in layers.PER_LAYER
                       if name.startswith("eval.score_s.")) + ("eval.rank_s",)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, cwd=str(HERE.parent), timeout=200,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(completed.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: no result (exit {completed.returncode})")
    line = json.loads(lines[-1])
    detail = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json")
                        .read_text())
    return {"line": line, "detail": detail, "exit_code": completed.returncode}


def fmt(summary: Dict[str, float]) -> str:
    return (f"{summary['median']:.6g} [{summary['q1']:.6g}, {summary['q3']:.6g}] "
            f"(n={summary['n']})")


def report_workload(workload: str, runs: List[Dict[str, Any]], traced) -> Dict[str, Any]:
    gated = "" if workload in workloads.WORKLOADS else " (not declared, so not gated)"
    print(f"\n== {workload}{gated}: {len(runs)} runs, {workloads.WHY[workload]}")
    out: Dict[str, Any] = {"end_to_end": {}, "workload_metrics": {}}
    print("  end-to-end (median [q1, q3] over runs; spread / bound)")
    for name, (unit, _, bound, _) in layers.END_TO_END.items():
        values = [run["detail"]["metrics"][name] for run in runs]
        summary = stats.summary(values)
        spread = stats.spread(values) if len(values) > 1 else 0.0
        out["end_to_end"][name] = dict(summary, unit=unit, spread=spread, bound=bound)
        print(f"    {name:22s} {unit:6s} {fmt(summary)}  spread {spread:.3f} / {bound}")
    print("  workload metrics (per-run medians)")
    names = dict.fromkeys(name for run in runs for name in run["detail"]["samples"])
    for name in names:
        values = [run["detail"]["summary"][name]["median"] for run in runs
                  if name in run["detail"]["summary"]]
        unit = runs[0]["detail"]["summary"].get(name, {}).get("unit", "")
        out["workload_metrics"][name] = dict(stats.summary(values), unit=unit)
        print(f"    {name:22s} {unit:6s} {fmt(stats.summary(values))}")
    attempted = sum(run["line"]["attempted"] for run in runs)
    failed = sum(run["line"]["failed"] for run in runs)
    out["failed_share"] = failed / attempted
    out["correct"] = all(run["line"]["correct"] for run in runs)
    print(f"    {'failed_share':22s} {'share':6s} {failed / attempted:.6g} "
          f"({failed} of {attempted}); every check passed: {out['correct']}")
    if workload == "headline-cold":
        digests = sorted({digest for run in runs
                          for digest in run["detail"]["info"]["table_digests"]})
        out["distinct_table_digests"] = len(digests)
        print(f"    distinct metric-table digests over all runs: {len(digests)} (information)")
    if traced is not None:
        out["per_layer"] = report_layers(traced)
    return out


def report_layers(run: Dict[str, Any]) -> Dict[str, Any]:
    table = run["detail"]["metrics"]
    print("  per-layer (traced run; self seconds or counts -> what it should move)")
    for name, (unit, _, moves, where) in layers.PER_LAYER.items():
        if table[name]:
            print(f"    {name:24s} {unit:6s} {table[name]:<12.6g} -> {moves} on {where}")
    layer_sum = sum(table[name] for name in tracing.TIME_METRICS) + table["unattributed_s"]
    total = table["trace.run_s"]
    print(f"    layer self times + unattributed_s = {layer_sum:.6g} s; "
          f"traced run time = {total:.6g} s; tracing overhead = {table['trace.overhead']:.4g}")
    training = sum(table[name] for name in TRAINING_LAYERS)
    ranking = sum(table[name] for name in RANKING_LAYERS)
    if total:
        print(f"    training layers {training / total:.1%} of the traced run, "
              f"ranking layers {ranking / total:.1%}")
    return {"table": table, "layer_sum": layer_sum, "training_share": training / total
            if total else None, "ranking_share": ranking / total if total else None}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    report: Dict[str, Any] = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    correct = True
    for workload in workloads.ALL_WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, False) for seed in seeds]
        traced = run_once(workload, seeds[0], args.seconds, True) if args.trace else None
        report["workloads"][workload] = report_workload(workload, runs, traced)
        report["workloads"][workload]["stamp"] = runs[0]["detail"]["stamp"]
        correct = correct and report["workloads"][workload]["correct"]
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "suite.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
