"""Benchmark for ionseries: one closed-loop client, one process, four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-golden

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run and reports the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (tail percentile and sample count, skipped and unsolved inputs,
``fail_ratio``, failure messages, machine and environment record). ``all``
runs every workload both ways in child processes, prints one table, and ends
with one JSON object that holds ``workloads`` in place of ``metrics``. The
exit code is 0 only when every op passed its correctness check.

The package is run from ``src/`` through ``PYTHONPATH``; it is not installed.
``--record-golden`` rewrites ``golden.json``, the sha256 of every artefact of
the CLI command list; do that only for a deliberate change of CLI output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The keys of workloads.WORKLOADS, repeated so that parsing the arguments does
# not import numpy before the BLAS thread count is pinned.
WORKLOAD_NAMES = ("cli_session", "validate_sweep", "termination_scan", "phase_space")

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
MIN_OPS = 11  # the tail percentile needs at least 10 samples beyond it
# One BLAS thread, so the thread count (and with it the rounding of every
# BLAS result the golden hashes cover) is the same on every run.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def bench_env():
    """The environment of this process and every child it starts.

    ``IONTRAP_CUTOFF`` is removed: it silently changes the CLI's default
    cutoff and with it every output.
    """
    env = dict(os.environ)
    cutoff_var = env.pop("IONTRAP_CUTOFF", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    record = dict(PINNED_ENV, PYTHONPATH="src",
                  IONTRAP_CUTOFF="unset" if cutoff_var is None else "removed")
    return env, record


def machine_record(env):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "ionseries").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def child_wall(argv, env):
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stderr


def setup_seconds(module, env):
    """Median wall time of a fresh interpreter that imports ``module``."""
    argv = [sys.executable, "-c", f"import {module}"]
    child_wall(argv, env)  # compiles bytecode on a fresh checkout
    return statistics.median(child_wall(argv, env)[0] for _ in range(SETUP_REPEATS))


def import_seconds(module, env):
    """Self import time per top-level package, from ``python -X importtime``."""
    argv = [sys.executable, "-X", "importtime", "-c", f"import {module}"]
    runs = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        totals = defaultdict(float)
        for line in child_wall(argv, env)[1].splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if m:
                totals[m.group(2).split(".")[0]] += int(m.group(1)) * 1e-6
        for package in ("numpy", "scipy", "ionseries"):
            runs[package].append(totals[package])
    return {p: statistics.median(v) for p, v in runs.items()}


def measure(workload, seconds, tracer=None):
    """Closed loop over whole blocks until ``seconds`` of op time have passed.

    Only ``workload.run`` is timed; preparation and the correctness check of
    each op run between timed regions.
    """
    from workloads import OK, UNSOLVED

    latencies, failures, unsolved = [], [], 0
    workload.tracer = tracer
    for block in workload.blocks():
        for item in block:
            workload.before(item)
            start = time.perf_counter()
            try:
                result = workload.run(item)
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                result = exc
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.active = False
            if isinstance(result, Exception):
                verdict = f"raised {type(result).__name__}: {result}"
            else:
                verdict = workload.check(item, result)
            if tracer is not None:
                tracer.active = True
            if verdict == UNSOLVED:
                unsolved += 1
            elif verdict != OK:
                failures.append(verdict)
        if sum(latencies) >= seconds and len(latencies) >= MIN_OPS:
            break
    workload.tracer = None
    return latencies, unsolved, failures


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(tracer, traced_ops, output_bytes, imports, overhead):
    """Per-layer metrics of the traced half, per op so that runs of different
    length and speed compare; ratios are over the layer's calls."""
    import spans

    totals = spans.layer_totals(tracer.spans)
    counts = tracer.counts
    m = {f"import.{p}_s": (imports[p], "s") for p in ("numpy", "scipy", "ionseries")}
    for name in spans.SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        m[f"{name}.calls"] = (calls / traced_ops, "count/op")
        if name != "oracle.nearest_eigenpair":
            m[f"{name}.self_s"] = (self_s / traced_ops, "s/op")

    def ratio(count, layer):
        calls = totals.get(layer, (0, 0.0))[0]
        return counts[count] / calls if calls else 0.0

    m["cli.output_bytes"] = (output_bytes / traced_ops, "bytes/op")
    m["model.build_h_transformed.bytes_out"] = (
        counts["model.build_h_transformed.bytes_out"] / traced_ops, "bytes/op")
    m["series.terminate_general.found_ratio"] = (
        ratio("series.terminate_general.found", "series.terminate_general"), "ratio")
    m["oracle.validate_series_solution.pass_ratio"] = (
        ratio("oracle.validate_series_solution.passed", "oracle.validate_series_solution"),
        "ratio")
    m["oracle.validate_series_solution.inconclusive"] = (
        counts["oracle.validate_series_solution.inconclusive"], "count")
    m["states.wigner_grid.points"] = (counts["states.wigner_grid.points"] / traced_ops,
                                      "count/op")
    m["trace.ops"] = (traced_ops, "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def run_workload(name, seed, seconds, trace, env, env_record):
    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        warm = cls(seed, workdir, env)
        item = next(warm.blocks())[0]
        warm.before(item)
        warm.run(item)  # lazy library and BLAS set-up, untimed
        detail = {"workload": name, "seed": seed, "trace": trace,
                  "machine": machine_record(env), "env": env_record}
        if not trace:
            setup = setup_seconds(cls.import_module, env)
            w = cls(seed, workdir, env)
            lat, unsolved, failures = measure(w, seconds)
            value, pct, beyond = tail(lat)
            n = len(lat)
            metrics = {
                "setup_s": (setup, "s"),
                "ops_per_s": (n / sum(lat), "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "op_tail_ms": (value * 1e3, "ms"),
                "success_ratio": ((n - unsolved - len(failures)) / n, "ratio"),
                "peak_rss_mb": (peak_rss_mb(name == "cli_session"), "MB"),
            }
            detail.update(tail={"percentile": pct, "samples": n, "beyond": beyond},
                          skipped=w.skipped)
        else:
            imports = import_seconds(cls.import_module, env)
            half = seconds / 2.0
            # Both halves replay the same inputs on one workload object, so
            # checks already made are not repeated.
            w = cls(seed, workdir, env)
            lat0, unsolved0, failures0 = measure(w, half)
            tracer = spans.Tracer()
            tracer.install()
            try:
                lat1, unsolved1, failures1 = measure(w, half, tracer)
            finally:
                tracer.uninstall()
            overhead = (len(lat1) / sum(lat1)) / (len(lat0) / sum(lat0))
            metrics = layer_metrics(tracer, len(lat1), getattr(w, "output_bytes", 0),
                                    imports, overhead)
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"spans-{name}.json").write_text(json.dumps(tracer.dump()))
            lat, unsolved, failures = lat0 + lat1, unsolved0 + unsolved1, failures0 + failures1
            detail.update(skipped=w.skipped)
        detail.update(ops=len(lat), unsolved=unsolved, failed=len(failures),
                      fail_ratio=len(failures) / len(lat), failures=failures[:5])
        result = {
            "correct": not failures,
            "attempted": len(lat),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return detail, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed, seconds):
    """Every workload, untraced and traced, each in its own process."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or len(lines) < 2:
                print(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
                return 2
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            entry = results.setdefault(name, {})
            entry["per_layer" if trace else "end_to_end"] = result
            entry["detail_trace" if trace else "detail"] = detail
            print(f"== {name} (trace={trace}): {result['attempted']} ops, "
                  f"{result['failed']} failed, {detail['unsolved']} unsolved, "
                  f"fail_ratio {detail['fail_ratio']:.4g}")
            for key, metric in result["metrics"].items():
                print(f"   {key:48s} {metric['value']:>16.6g} {metric['unit']}")
            if not trace:
                print(f"   op_tail_ms is p{detail['tail']['percentile']:.2f} of "
                      f"{detail['tail']['samples']} samples")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "workloads": results}))
    return 0 if correct else 1


def record_golden(env):
    from workloads import GOLDEN_PATH, CliSession

    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        artefacts = CliSession(0, workdir, env).record_golden()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = machine_record(env)
    doc = {"recorded_at": {k: record[k] for k in ("git_commit", "source_sha256")},
           "artefacts": artefacts}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "ionseries" / "cli.py").is_file():
        print(f"error: no ionseries package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    env, env_record = bench_env()
    if args.workload == "all" and not args.record_golden:
        return run_all(args.seed, args.seconds)
    # The BLAS thread count must be set before numpy is first imported.
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    if args.record_golden:
        return record_golden(env)

    detail, result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  env, env_record)
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
