"""Benchmark of mkdv_series: one workload per process, run as a closed loop.

    python3 perfbench/run.py --workload dense-k3 --seed 1 --seconds 25 --trace 0

One process issues one operation at a time, with no pool or extra threads,
until ``--seconds`` have passed, and checks every operation's output
against an independent reference (see ``workloads.py``).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` every
second operation runs with span wrappers installed (see ``tracing.py``)
and it prints the per-layer metrics plus the tracing overhead, which
compares the traced operations with the untraced ones in between.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine fingerprint, seed, per-operation times and errors, spans) goes to
``perfbench/out/``.  ``design.json`` maps each per-layer metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_totals, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dense-k3", "sparse-grid", "oracle-rk4")
SETUP_SAMPLES = 3          # setup_s is the median over this many fresh processes
TAIL_BEYOND = 10           # op_s_tail leaves this many operations beyond it
RHS_BLOCKS, RHS_CALLS = 5, 20


def setup(workload_name, seed):
    """Import the package, build the inputs and run one untimed warm-up
    operation.  Returns (seconds taken, workload, inputs)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    inputs = workload.inputs(np.random.default_rng(seed))
    workload.run(inputs[0])
    return time.perf_counter() - start, workload, inputs


def setup_in_fresh_process(workload_name, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def tail(times):
    """The highest percentile with at least TAIL_BEYOND operations beyond
    it, but never below the median: with fewer than 2 * TAIL_BEYOND
    operations the sample cannot tell a tail from the middle, and the
    median is reported.  Returns (value, percentile, operations beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return statistics.median(ordered), 50.0, n // 2


def time_rhs(a0):
    """Median microseconds per public oracle_rhs call on the operation's data."""
    from mkdv_series import oracle

    rhs = getattr(oracle, "oracle_rhs", None)
    if rhs is None:
        return None
    blocks = []
    for _ in range(RHS_BLOCKS):
        start = time.perf_counter()
        for _ in range(RHS_CALLS):
            rhs(a0, "modified_mkdv", 0.0)
        blocks.append((time.perf_counter() - start) / RHS_CALLS * 1e6)
    return statistics.median(blocks)


def closed_loop(workload, inputs, refs, seconds, tracer):
    """Run operations back to back until `seconds` have passed.  With a
    tracer, odd-numbered operations run with the span wrappers installed."""
    ops = []
    start = time.perf_counter()
    i = 0
    min_ops = 1 if tracer is None else 2
    while i < min_ops or time.perf_counter() - start < seconds:
        k = i % len(inputs)
        traced = tracer is not None and i % 2 == 1
        record = {"op": i, "input": k, "traced": traced}
        if tracer is not None:
            tracer.op = i
        with patched(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = workload.run(inputs[k])
            except Exception:
                out = None
                record["error"] = traceback.format_exc()
            t1 = time.perf_counter()
        if out is not None:
            try:
                check = workload.check(inputs[k], refs[k], out)
                record.update(ok=bool(check.ok), errors=check.errors)
            except Exception:
                record.update(ok=False, error=traceback.format_exc())
        else:
            record["ok"] = False
        record["op_s"] = t1 - t0
        record["wall_s"] = time.perf_counter() - t0
        if traced:
            record["rhs_us"] = time_rhs(inputs[k])
        ops.append(record)
        i += 1
    return ops, time.perf_counter() - start


def end_to_end(ops, wall, setup_samples):
    done = [r["op_s"] for r in ops if "error" not in r]
    value, pct, beyond = tail(done)
    metrics = {
        "ops_per_s": (len(done) / wall, "ops/s"),
        "op_s_p50": (statistics.median(done), "s"),
        "op_s_tail": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    notes = {"op_s_tail_percentile": pct, "op_s_tail_beyond": beyond, "op_s_samples": len(done)}
    return metrics, notes


def allocation_pass(workload, a0):
    """One extra, untimed operation with tracemalloc around the marked
    layers; returns its spans."""
    tracer = Tracer()
    with patched(tracer, allocations=True):
        try:
            workload.run(a0)
        except Exception:
            traceback.print_exc()
    return tracer.spans


def per_layer(ops, spans, memory_spans):
    traced = [r for r in ops if r["traced"]]
    plain = [r for r in ops if not r["traced"]]
    n = len(traced)
    tot = layer_totals(spans)
    peak_mb = layer_totals(memory_spans)["ops.tree_term_table"]["peak_mb"]
    ttt, ett = tot["ops.tree_term_table"], tot["ops.evaluate_term_table"]
    solve, norm = tot["series.solve_series"], tot["spectral.weighted_norm"]
    inc, full = tot["oracle.oracle_solve_increment"], tot["oracle.oracle_solve"]
    steps = inc["steps"] + full["steps"]
    rhs = [r["rhs_us"] for r in traced if r["rhs_us"] is not None]
    per_op = lambda x: x / n
    ratio = lambda a, b: a / b if b else 0.0
    rate = lambda rs: len(rs) / sum(r["wall_s"] for r in rs)
    metrics = {
        "ops.tree_term_table.calls": (per_op(ttt["calls"]), "count"),
        "ops.tree_term_table.self_s": (per_op(ttt["self_s"]), "s"),
        "ops.tree_term_table.rows": (per_op(ttt["rows"]), "count"),
        "ops.tree_term_table.profiles": (per_op(ttt["profiles"]), "count"),
        "ops.tree_term_table.keep_ratio": (ratio(ttt["profiles"], ttt["rows"]), "1"),
        "ops.tree_term_table.peak_mb": (peak_mb, "MiB"),
        "ops.tree_term_table.solve_share": (ratio(ttt["self_s"], solve["span_s"]), "1"),
        "ops.evaluate_term_table.calls": (per_op(ett["calls"]), "count"),
        "ops.evaluate_term_table.self_s": (per_op(ett["self_s"]), "s"),
        "ops.evaluate_term_table.profile_times": (per_op(ett["profile_times"]), "count"),
        "ops.evaluate_term_table.ns_per_profile_time": (ratio(ett["self_s"], ett["profile_times"]) * 1e9, "ns"),
        "series.solve_series.self_s": (per_op(solve["self_s"]), "s"),
        "series.solve_series.span_s": (per_op(solve["span_s"]), "s"),
        "spectral.weighted_norm.calls": (per_op(norm["calls"]), "count"),
        "spectral.weighted_norm.self_s": (per_op(norm["self_s"]), "s"),
        "series.ode_residual.self_s": (per_op(tot["series.ode_residual"]["self_s"]), "s"),
        "trees.enumerate_trees.self_s": (per_op(tot["trees.enumerate_trees"]["self_s"]), "s"),
        "trees.enumerate_trees.trees": (per_op(tot["trees.enumerate_trees"]["trees"]), "count"),
        "oracle.oracle_solve_increment.self_s": (per_op(inc["self_s"]), "s"),
        "oracle.oracle_solve.self_s": (per_op(full["self_s"]), "s"),
        "oracle.steps": (per_op(steps), "count"),
        "oracle.us_per_step": (ratio(inc["self_s"] + full["self_s"], steps) * 1e6, "us"),
        "oracle.oracle_rhs.us_per_call": (statistics.median(rhs) if rhs else 0.0, "us"),
        "trace.overhead_frac": (1.0 - rate(traced) / rate(plain), "1"),
    }
    return metrics, {"traced_ops": n, "untraced_ops": len(plain)}


def fingerprint():
    import numpy

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:   # not some enclosing repository
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "numba_imports": numba_imports,
        # tree_term_table takes its numba kernel whenever numba imports;
        # results from the two routes are not comparable
        "enumeration_route": "numba" if numba_imports else "numpy",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mkdv_series" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'mkdv_series'}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0

    # setup_s is reported only by the untraced run
    fresh = 0 if args.trace else SETUP_SAMPLES - 1
    samples = [setup_in_fresh_process(args.workload, args.seed) for _ in range(fresh)]
    seconds, workload, inputs = setup(args.workload, args.seed)
    samples.append(seconds)
    refs = [workload.reference(a0) for a0 in inputs]

    tracer = Tracer() if args.trace else None
    ops, wall = closed_loop(workload, inputs, refs, args.seconds, tracer)
    if all("error" in r for r in ops):
        print(ops[0]["error"], file=sys.stderr)
        print("perfbench: every operation raised", file=sys.stderr)
        return 1
    if args.trace:
        memory_spans = allocation_pass(workload, inputs[0])
        metrics, notes = per_layer(ops, tracer.spans, memory_spans)
    else:
        metrics, notes = end_to_end(ops, wall, samples)
    attempted = len(ops)
    failed = sum(not r["ok"] for r in ops)
    notes.update(fail_frac=failed / attempted, setup_samples_s=samples, wall_s=wall)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "claim": None, "fingerprint": fingerprint(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "ops": ops, "spans": tracer.spans if tracer else [],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(" ".join(f"{k}={v}" for k, v in notes.items() if k != "setup_samples_s"))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
