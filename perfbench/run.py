"""The localization chain's benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs repetitions of workload ``W`` (see ``workloads.py``), each in a
fresh interpreter, as many as fit ``S`` seconds; checks the outputs; prints a readable report and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``
(medians over the repetitions).  ``--trace 1`` alternates traced and
untraced repetitions and reports every per-layer metric: the traced
repetitions' per-layer figures, ``other_s`` (the traced campaign_s +
localize_s not covered by a layer's self time) and ``trace.overhead_s``
(traced minus untraced campaign_s + localize_s).  A layer the workload
never calls reports 0.

The first repetition also runs the workload's correctness gate.  Every
repetition must produce the same result bytes; a gate mismatch or a
differing result fails every operation of the affected repetitions, and
the run reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Leave room under the 180 s run limit for the repetition in flight.
START_BUDGET_S = 120.0
REP_TIMEOUT_S = 160.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_rep(workload: str, seed: int, trace: bool, gate: bool) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--gate", str(int(gate)),
    ]
    # Its own process group, so a hung repetition goes down together
    # with the daemon and shard workers it started.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=REP_TIMEOUT_S)
    except BaseException as exc:  # timeout, Ctrl-C, or SIGTERM (below)
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} repetition timed out") from None
        raise
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition exited {process.returncode}")
    return json.loads(lines[-1])


def run_reps(workload: str, seed: int, seconds: int, trace: bool) -> List[Dict[str, Any]]:
    """As many repetitions as fit ``seconds``, rounded to the nearest
    whole one.  The traced run alternates traced and untraced ones and
    needs at least one of each."""
    reps: List[Dict[str, Any]] = []
    started = perf_counter()
    while True:
        elapsed = perf_counter() - started
        if len(reps) >= (2 if trace else 1) and (
            elapsed + elapsed / len(reps) / 2 >= seconds
            or elapsed >= START_BUDGET_S
        ):
            return reps
        traced = trace and len(reps) % 2 == 0
        rep = run_rep(workload, seed, traced, gate=not reps)
        rep["traced"] = traced
        reps.append(rep)


def e2e_metrics(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end figures, each a median over every timed sample of
    every repetition."""
    samples = [sample for rep in reps for sample in rep["samples"]]

    def mid(figure) -> float:
        return median(figure(sample) for sample in samples)

    return {
        "setup_s": mid(lambda s: s["setup_s"]),
        "peak_rss_mb": mid(lambda s: s["peak_rss_mb"]),
        "campaign_s": mid(lambda s: s["campaign_s"]),
        "localize_s": mid(lambda s: s["localize_s"]),
        "stream_meas_per_s": mid(lambda s: s["measurements"] / s["ingest_s"]),
        "verdict_p50_ms": mid(lambda s: s["verdict_p50_ms"]),
        "verdict_p99_ms": mid(lambda s: s["verdict_p99_ms"]),
        "serve_meas_per_s": mid(lambda s: s["measurements"] / s["localize_s"]),
        "serve_drain_s": mid(lambda s: s["drain_s"]),
    }


def layer_metrics(
    reps: List[Dict[str, Any]], per_layer: List[Dict[str, str]], problems: List[str]
) -> Dict[str, float]:
    """The traced repetitions' per-layer figures (medians) and the tracing
    overhead against the untraced ones."""
    traced = [rep["layers"] for rep in reps if rep["traced"]]
    out: Dict[str, float] = {}
    for spec in per_layer:
        name = spec["name"]
        values = [layers.get(name, 0.0) for layers in traced]
        if spec["unit"] == "count" and len(set(values)) > 1:
            problems.append(f"counter {name} differs between repetitions: {values}")
        out[name] = median(values)
    chains = {
        traced: [
            sample["campaign_s"] + sample["localize_s"]
            for rep in reps
            if rep["traced"] is traced
            for sample in rep["samples"]
        ]
        for traced in (True, False)
    }
    if chains[False]:
        out["trace.overhead_s"] = median(chains[True]) - median(chains[False])
    else:
        problems.append("no untraced repetition to measure the overhead against")
    return out


def check(reps: List[Dict[str, Any]], problems: List[str]) -> int:
    """Failed operations, after the gate and the cross-repetition check."""
    gate = reps[0].get("gate")
    if gate is None:
        problems.append("the correctness gate did not run")
    else:
        problems.extend(gate["mismatches"])
    expected = reps[0].get("digest")
    counters = [rep["counters"] for rep in reps if "counters" in rep]
    if any(c != counters[0] for c in counters):
        problems.append("deterministic counters differ between repetitions")
    failed = 0
    for rep in reps:
        if "error" in rep:
            problems.append(f"repetition raised {rep['error']}")
            failed += 1
            continue
        failed += rep["failed"]
        wrong = gate is None or gate["mismatches"] or rep["digest"] != expected
        if rep["digest"] != expected:
            problems.append("repetitions of one seed produced different results")
        if wrong:
            failed += rep["attempted"] - rep["failed"]
    return failed


def report(
    about: Dict[str, str],
    seed: int,
    reps: List[Dict[str, Any]],
    metrics: Dict[str, float],
    units: Dict[str, str],
    problems: List[str],
) -> None:
    """The human-readable part of the output."""
    print(f"{about['name']}: {about['why']}")
    traced = [rep for rep in reps if rep["traced"]]
    print(f"  seed {seed}, {len(reps)} repetitions ({len(traced)} traced)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    for index, rep in enumerate(reps):
        kind = "traced" if rep["traced"] else "untraced"
        for sample in rep.get("samples", []):
            print(f"  repetition {index} ({kind}): {json.dumps(sample)}")
    counters = reps[0].get("counters", {})
    print("  counters: " + ", ".join(f"{k}={v}" for k, v in counters.items()))
    # The measured share of the input with the property the workload
    # targets: solve load for batch-paper, path redundancy for
    # serve-sweep.
    for rep in traced[:1]:
        for name, label in (
            ("core.cdcl_share", "CDCL share of core.solve_s"),
            ("stream.fallback_share", "fallback_solves / snapshots"),
        ):
            if rep["layers"].get(name):
                print(f"  {label}: {rep['layers'][name]:.4f}")
    for problem in problems:
        print(f"  FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the repetition in flight is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    ok = [rep for rep in reps if "error" not in rep]
    if not ok or (args.trace and not any(r["traced"] for r in ok)):
        print("benchmark failed: no repetition completed", file=sys.stderr)
        return 1

    problems: List[str] = []
    failed = check(reps, problems)
    if args.trace:
        wanted = spec["per_layer"]
        metrics = layer_metrics(ok, wanted, problems)
    else:
        wanted = spec["end_to_end"]
        metrics = e2e_metrics(ok)
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}
    about = next(w for w in spec["workloads"] if w["name"] == args.workload)
    report(about, args.seed, reps, metrics, units, problems)
    attempted = sum(rep.get("attempted", 1) for rep in reps)
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
