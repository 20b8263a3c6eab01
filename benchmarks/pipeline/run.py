"""The pipeline benchmark: four workloads, golden-checked rows, a layer ledger.

Run from the repository root::

    python3 benchmarks/pipeline/run.py --workload fig3_spla --seed 0
    python3 benchmarks/pipeline/run.py --seed 0 --trace 1   # layer ledger
    python3 benchmarks/pipeline/run.py --seed 0 --sets 3    # repeatability

Each workload runs in fresh subprocesses (``worker.py``), serially, with
``workers=1`` and ``serve_workers=1``, as a closed loop with one client
and no think time.  An untraced run reports the end-to-end metrics of
``BENCHMARK.json``; set-up time is the median over
:data:`SETUP_LAUNCHES` fresh launches.  A traced run (``--trace 1``)
runs every cycle twice in one process, plainly and under the span
recorder, and reports the per-layer metrics plus the tracing overhead.

Every operation's result rows are checked: equal inputs must give equal
rows (cold and warm alike), each cycle's rows must match the digest in
``golden.json`` when it has one (otherwise the digest is printed), and
every mapped netlist of ``fig3_spla``/``sweep_pdc`` must pass the
equivalence check.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
goes to ``out/BENCH_pipeline.json``.  Exit code 1 means some output
failed its check, 2 that the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN_PATH = HERE / "golden.json"

#: Fresh launches whose median is ``setup_s`` (the measured run is one).
SETUP_LAUNCHES = 5
#: Wall budget of one workload run, subprocesses included.
RUN_BUDGET_S = 170.0
#: The ROADMAP residue check and the tracing-cost ceiling.
MAX_UNTIMED_SHARE = 0.05
MAX_TRACE_OVERHEAD = 0.10

#: Ratios the traced run reports next to each layer's self time.
RATIO_METRICS = (
    "core.matching.hit_ratio", "core.covering.memo_hit_ratio",
    "route.reuse_ratio", "serve.caches.netlist_hit_rate",
    "serve.caches.layout_hit_rate", "serve.caches.matcher_hit_rate",
    "serve.caches.route_pool_hit_rate", "setup.import_s",
    "untimed.share", "trace.overhead")


class HarnessError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


# -- subprocesses ---------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One thread per process: the numbers measure the program, not how
    # BLAS threads share the host's cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(payload: Dict, deadline: float) -> Dict:
    """Run ``worker.py`` once on ``payload``; returns its JSON result."""
    payload = dict(payload, launched=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=str(ROOT), env=_child_env(), text=True)
    try:
        out, _ = proc.communicate(json.dumps(payload),
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError("workload process exceeded the run budget")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


# -- checks and metrics ---------------------------------------------------


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_rows(name: str, result: Dict, golden: Dict) -> Dict:
    """Mark failed operations; returns the tallies and cycle digests.

    An operation fails if it raised, reported ``verdict == "error"`` or
    failed the equivalence check (the worker's ``error``), if another
    operation with the same input key gave different rows, or if its
    cycle's rows differ from the golden digest.
    """
    ops = result["warmup"] + result["ops"]
    rows_by_key: Dict[str, object] = {}
    unstable = set()
    for op in ops:
        if op["error"]:
            continue
        first = rows_by_key.setdefault(op["key"], op["rows"])
        if first != op["rows"]:
            unstable.add(op["key"])
    failed = {i for i, op in enumerate(ops)
              if op["error"] or op["key"] in unstable}
    digests, mismatched = {}, []
    by_cycle: Dict[int, List[int]] = {}
    for i, op in enumerate(ops):
        if op["cycle"] >= 0:
            by_cycle.setdefault(op["cycle"], []).append(i)
    expected = golden.get(name, {})
    for cycle, members in sorted(by_cycle.items()):
        inputs = _sha(sorted(ops[i]["key"] for i in members))
        rows = _sha(sorted([ops[i]["key"], ops[i]["rows"]] for i in members))
        digests[inputs] = rows
        if inputs in expected and expected[inputs] != rows:
            mismatched.append(cycle)
            failed.update(members)
    return {"attempted": len(ops), "failed": len(failed),
            "errors": sorted({ops[i]["error"] for i in failed
                              if ops[i]["error"]}),
            "unstable_keys": sorted(unstable), "golden_mismatch": mismatched,
            "digests": digests,
            "unknown": sorted(k for k in digests if k not in expected)}


def nearest_rank(values: List[float], q: float) -> float:
    """The nearest-rank ``q`` quantile: always one of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: Dict, setup_samples: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Every cycle carries the same work, so throughput is the median over
    cycles of the cycle's K points per second: a burst of load on a
    shared host moves one cycle, not the run.  A request's latency is
    the median over the repetitions of its slot, and the quantiles are
    taken over the slots.
    """
    cycles: Dict[int, List[Dict]] = {}
    slots: Dict[int, List[float]] = {}
    for op in result["ops"]:
        cycles.setdefault(op["cycle"], []).append(op)
        slots.setdefault(op["slot"], []).append(op["t_s"])
    rates = [sum(op["kpoints"] for op in ops) / sum(op["t_s"] for op in ops)
             for ops in cycles.values()]
    latencies = [statistics.median(times) for times in slots.values()]
    return {
        "setup_s": statistics.median(setup_samples),
        "kpoints_per_s": statistics.median(rates),
        "job_p50_s": nearest_rank(latencies, 0.50),
        "job_p75_s": nearest_rank(latencies, 0.75),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(result: Dict) -> Dict[str, float]:
    """Per-layer self time, calls and share, plus ratios and checks.

    ``trace.overhead`` pairs each traced cycle with its plain twin and
    takes the median of their time ratios.
    """
    summary = result["trace"]
    root_s = summary["root_s"]
    metrics: Dict[str, float] = {}
    for layer, entry in summary["layers"].items():
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.share"] = _ratio(entry["self_s"], root_s)
    calls = summary["targets"]
    counters = summary["counters"]

    def hit_ratio(misses: str, lookups: str) -> float:
        # A memo miss is the only caller of ``misses``.
        looked_up = calls.get(lookups, 0)
        return 1.0 - calls.get(misses, 0) / looked_up if looked_up else 0.0

    metrics["core.matching.hit_ratio"] = hit_ratio(
        "repro.core.matching:Matcher.matches_at",
        "repro.core.matching:Matcher.matches_in_tree")
    metrics["core.covering.memo_hit_ratio"] = hit_ratio(
        "repro.core.covering:cover_tree",
        "repro.core.covering:CoverMemo.probe")
    metrics["route.reuse_ratio"] = _ratio(
        counters.get("route.routes_reused", 0), counters.get("route.nets", 0))
    for family, rate in result["cache_hit_rates"].items():
        metrics[f"serve.caches.{family}_hit_rate"] = rate
    metrics["setup.import_s"] = result["import_s"]
    metrics["untimed.share"] = _ratio(summary["root_self_s"], root_s)
    pairs: Dict[int, List[float]] = {}
    for op in result["ops"]:
        pair = pairs.setdefault(op["cycle"] // 2, [0.0, 0.0])
        pair[int(op["traced"])] += op["t_s"]
    metrics["trace.overhead"] = statistics.median(
        traced / plain for plain, traced in pairs.values()) - 1.0
    return metrics


def trace_flags(metrics: Dict[str, float]) -> List[str]:
    """The residue and overhead checks of a traced run (empty = pass)."""
    flags = []
    if metrics["untimed.share"] > MAX_UNTIMED_SHARE:
        flags.append(f"untimed.share {metrics['untimed.share']:.3f} > "
                     f"{MAX_UNTIMED_SHARE}: a layer is not wrapped")
    if metrics["trace.overhead"] > MAX_TRACE_OVERHEAD:
        flags.append(f"trace.overhead {metrics['trace.overhead']:.3f} > "
                     f"{MAX_TRACE_OVERHEAD}")
    return flags


# -- one workload run -----------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: Dict) -> Dict:
    """One run of one workload: launches, checks, metrics."""
    deadline = time.monotonic() + RUN_BUDGET_S
    inputs = make_inputs(name, seed, seconds, trace)
    record: Dict = {"workload": name, "seed": seed, "flags": []}
    if trace:
        OUT.mkdir(exist_ok=True)
        result = launch(dict(inputs, trace_path=str(
            OUT / f"trace_{name}.jsonl")), deadline)
        record["metrics"] = per_layer(result)
        record["flags"] = trace_flags(record["metrics"])
    else:
        setup = [launch(dict(inputs, setup_only=True), deadline)["setup_s"]
                 for _ in range(SETUP_LAUNCHES - 1)]
        result = launch(inputs, deadline)
        setup.append(result["setup_s"])
        record["metrics"] = end_to_end(result, setup)
        record["setup_samples"] = setup
    check = check_rows(name, result, golden)
    record["cycles"] = len({op["cycle"] for op in result["ops"]})
    record["attempted"] = check["attempted"]
    record["failed"] = check["failed"]
    record["fail_frac"] = check["failed"] / check["attempted"]
    record["check"] = check
    return record


# -- reporting ------------------------------------------------------------


def print_record(record: Dict, specs: List[Dict]) -> None:
    """Every metric by name with its unit, then the correctness summary."""
    name = record["workload"]
    for spec in specs:
        value = record["metrics"][spec["name"]]
        bound = f"  (bound {spec['bound']:.0%})" if "bound" in spec else ""
        print(f"{name:<11} {spec['name']:<40} {value:>14.6g} "
              f"{spec['unit']}{bound}")
    print(f"{name:<11} {'fail_frac':<40} {record['fail_frac']:>14.6g} "
          f"ratio  ({record['failed']}/{record['attempted']} failed)")
    check = record["check"]
    for error in check["errors"]:
        print(f"{name:<11} FAILED: {error}")
    for key in check["unstable_keys"]:
        print(f"{name:<11} FAILED: rows differ between runs of {key}")
    for cycle in check["golden_mismatch"]:
        print(f"{name:<11} FAILED: cycle {cycle} rows differ from "
              "golden.json")
    for inputs in check["unknown"]:
        print(f"{name:<11} no golden entry: inputs {inputs[:16]} -> "
              f"rows {check['digests'][inputs]}")
    for flag in record["flags"]:
        print(f"{name:<11} FLAG: {flag}")


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (two or more)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize_sets(records: List[Dict], specs: List[Dict]) -> Dict:
    """Median and spread per metric across sets; flags spread > bound."""
    out = {"median": {}, "spread": {}, "over_bound": []}
    for spec in specs:
        values = [r["metrics"][spec["name"]] for r in records]
        out["median"][spec["name"]] = statistics.median(values)
        out["spread"][spec["name"]] = spread(values)
        if "bound" in spec and out["spread"][spec["name"]] > spec["bound"]:
            out["over_bound"].append(spec["name"])
    return out


def _host() -> Dict:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count()}


# -- entry point ----------------------------------------------------------


def parse_args(argv: Optional[List[str]], bench: Dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="target measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat each workload and report spreads")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's cycle digests as golden")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Run the benchmark; returns the process exit code."""
    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or \
            not bench_path.is_file():
        print(f"error: needs {SRC / 'repro'} and {bench_path}",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    args = parse_args(argv, bench)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    golden = json.loads(GOLDEN_PATH.read_text()) \
        if GOLDEN_PATH.is_file() else {}
    names = [args.workload] if args.workload else list(WORKLOADS)
    report = {"schema_version": 1, "host": _host(), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "generated_unix": time.time(), "workloads": {}}
    try:
        for name in names:
            records = []
            for _ in range(max(1, args.sets)):
                record = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), golden)
                print_record(record, specs)
                records.append(record)
            entry = {"sets": records}
            if len(records) > 1:
                entry.update(summarize_sets(records, specs))
                for spec in specs:
                    flag = ("  SPREAD > BOUND"
                            if spec["name"] in entry["over_bound"] else "")
                    print(f"{name:<11} {spec['name']:<40} median "
                          f"{entry['median'][spec['name']]:.6g} "
                          f"{spec['unit']}  spread "
                          f"{entry['spread'][spec['name']]:.1%}{flag}")
            report["workloads"][name] = entry
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / "BENCH_pipeline.json").write_text(json.dumps(report, indent=2))
    if args.update_golden:
        for name, entry in report["workloads"].items():
            for record in entry["sets"]:
                golden.setdefault(name, {}).update(
                    record["check"]["digests"])
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                               + "\n")
    all_records = [r for e in report["workloads"].values() for r in e["sets"]]
    attempted = sum(r["attempted"] for r in all_records)
    failed = sum(r["failed"] for r in all_records)
    metrics = {}
    for name, entry in report["workloads"].items():
        values = entry.get("median") or entry["sets"][0]["metrics"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for spec in specs:
            metrics[prefix + spec["name"]] = {"value": values[spec["name"]],
                                              "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
