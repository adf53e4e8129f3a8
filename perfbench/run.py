"""skewform benchmark: three seeded known-answer workloads.

    python3 perfbench/run.py --workload session-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.

1. Set-up time: the median wall time of fresh ``python -m skewform catalog
   list`` processes (interpreter, ``import skewform`` with numpy, argparse).
2. Inputs: generated from ``--seed`` with their known answers (gen.py);
   sympy is imported here, never in the workload process.
3. The workload runs in passes over the inputs until ``--seconds`` have
   gone; each pass is a fresh child process with one client thread
   (child.py) running every op once, in a closed loop.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Lines before it give each metric with its unit and sample count.
``--smoke`` runs every workload once at its smallest size, in both modes,
and checks the correctness gates and the metric names and units against
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(HERE, "out")
# a run gives up, without a result, once this much time has gone
RUN_LIMIT_S = 170
STARTED = time.perf_counter()
SETUP_REPEATS = 9

sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("session-mix", "geometry-dense", "sampled-scan")
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def workload_inputs(name, seed, smoke=False, trace=False):
    """Generated ops for one workload.  The traced run uses a smaller,
    fixed set of ops, so that the call counts of its passes repeat exactly."""
    import gen

    if name == "session-mix":
        if smoke:
            return gen.session_mix(seed, files=3, max_vars=3)
        return gen.session_mix(seed, files=24) if trace else gen.session_mix(seed)
    if name == "geometry-dense":
        if smoke:
            return gen.geometry_dense(seed, rounds=1, det_sizes=(3,), dims=(2,))
        return gen.geometry_dense(seed, rounds=1) if trace else gen.geometry_dense(seed)
    if smoke:
        return gen.sampled_scan(seed, rounds=1, nvars=(1, 2))
    return gen.sampled_scan(seed, rounds=3) if trace else gen.sampled_scan(seed)


def _remaining():
    return max(1.0, RUN_LIMIT_S - (time.perf_counter() - STARTED))


def _child_env():
    # a fixed string hash keeps set iteration inside skewform, and so the
    # work an op does, the same from run to run
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def timed_start(argv, repeats=SETUP_REPEATS):
    """Median wall time of `repeats` fresh interpreter processes.  A timer
    kills a process that outlives the run's limit: a wait with a timeout
    would poll, and round the times up to 50 ms steps."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(_remaining(), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited with {code}")
    return statistics.median(times)


def run_pass(workload, doc, seed, seconds, trace):
    """One pass over the generated rounds in a fresh workload process,
    starting no round after `seconds`."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC, "--seed", str(seed), f"--seconds={seconds}", "--trace", str(trace)]
    if trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        argv += ["--spans", os.path.join(SPAN_DIR, f"spans-{workload}-seed{seed}.tsv")]
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(doc), timeout=_remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {workload} did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process for {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(workload, doc, seed, seconds, trace):
    """Passes, each in a fresh process, until `seconds` have gone, and at
    least two, so that every session report of the first round is made
    twice.  Without `trace` a pass starts no round after the deadline.  With
    `trace` the passes come in pairs over all rounds, one untraced and one
    traced, and the untraced one runs first in every other pair."""
    deadline = time.perf_counter() + seconds
    passes = []
    while len(passes) < 2 or time.perf_counter() < deadline:
        if trace:
            order = (0, 1) if len(passes) % 4 == 0 else (1, 0)
            passes += [dict(run_pass(workload, doc, seed, RUN_LIMIT_S, t), traced=t) for t in order]
        else:
            passes.append(dict(run_pass(workload, doc, seed, deadline - time.perf_counter(), 0), traced=0))
    return passes


def _throughput(passes):
    """(ops, seconds): ops completed and the time of their closed loops."""
    return sum(len(p["latencies"]) for p in passes), math.fsum(p["loop_s"] for p in passes)


def measure(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the result object printed last."""
    repeats = 1 if smoke else SETUP_REPEATS
    if trace:
        setup = {
            "cli.interpreter.total_s": timed_start(["-c", "pass"], repeats),
            "cli.import_skewform.total_s": timed_start(["-c", "import skewform"], repeats),
        }
    setup_s = timed_start(["-m", "skewform", "catalog", "list"], repeats)
    doc = workload_inputs(workload, seed, smoke=smoke, trace=bool(trace))
    passes = run_passes(workload, doc, seed, seconds, trace)

    gate_failures = [msg for p in passes for msg in p["gate_failures"]]
    first = {}
    for p in passes:
        for name, digest in p["fingerprints"].items():
            if first.setdefault(name, digest) != digest:
                gate_failures.append(f"{name}: report JSON bytes differ between passes")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures, known = {}, {}
    for p in passes:
        for k, v in p["failures"].items():
            failures[k] = failures.get(k, 0) + v
        for k, v in p["known"].items():
            known[k] = known.get(k, 0) + v
    correct = not gate_failures
    misses = sum(known.values())
    lines = [f"workload {workload} seed {seed}: {attempted} ops attempted, {failed} failed, "
             f"{misses} known misses (fail_ratio with them {(failed + misses) / attempted:.4f}), correct={correct}"]
    lines += [f"  failed {k}: {v}" for k, v in sorted(failures.items())]
    lines += [f"  known miss {k}: {v}" for k, v in sorted(known.items())]
    lines += [f"  GATE FAILED {msg}" for msg in gate_failures[:20]]
    untraced = [p for p in passes if not p["traced"]]
    latencies = [t for p in untraced for t in p["latencies"]]
    by_label = {}
    for p in untraced:
        for label, t in zip(p["labels"], p["latencies"]):
            by_label.setdefault(label, []).append(t)
    lines += [f"  {label:40s} n={len(ts):5d} median {1000 * statistics.median(ts):9.3f} ms" for label, ts in sorted(by_label.items())]
    if trace:
        traced = [p for p in passes if p["traced"]]
        ops, untraced_s = _throughput(untraced)
        traced_ops, traced_s = _throughput(traced)
        values = {k: statistics.median(p["per_layer"][k] for p in traced) for k in traced[0]["per_layer"]}
        values.update(setup)
        values["cli.catalog_list.total_s"] = setup_s
        values["trace.untraced_ops_per_s"] = ops / untraced_s
        values["trace.traced_ops_per_s"] = traced_ops / traced_s
        values["trace.overhead_ratio"] = traced_s / untraced_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.per_layer_spec()}
        lines.append(f"  {len(traced)} traced and {len(untraced)} untraced passes of {ops // len(untraced)} ops; "
                     f"tracing overhead x{values['trace.overhead_ratio']:.3f}")
    else:
        ops, loop_s = _throughput(passes)
        values = {
            "ops_per_s": ops / loop_s,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * (statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]),
            "setup_s": setup_s,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        samples = {"ops_per_s": ops, "op_p50_ms": ops, "op_p90_ms": ops, "setup_s": repeats, "peak_rss_mb": len(passes)}
        lines.append(f"  {ops} ops in {len(passes)} passes ({', '.join(str(p['rounds']) for p in passes)} rounds), "
                     f"each op timed once per pass")
        for name, m in metrics.items():
            lines.append(f"  {name:12s} {m['value']:12.4f} {m['unit']:4s} (n={samples[name]})")
    for line in lines:
        print(line)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke():
    """Every workload once at its smallest size, in both modes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]} for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise SystemExit("smoke: BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, seed=0, seconds=0, trace=trace, smoke=True)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"smoke: a correctness gate failed or an op failed on {workload}")
            if {k: m["unit"] for k, m in result["metrics"].items()} != declared[trace]:
                raise SystemExit(f"smoke: {workload} trace={trace} metric names or units differ from BENCHMARK.json")
    print("smoke: ok")


def main():
    ap = argparse.ArgumentParser(description="skewform benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quick self-test of every workload")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "skewform", "__init__.py")):
        print(f"error: no skewform package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        smoke()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
