"""pcsq benchmark: closed-loop workloads, end-to-end metrics, traced layers.

Run from the root of a pcsq checkout (it imports the package from ``src/``):

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the workload up three times, runs its cycles for
``--seconds`` with nothing installed, then runs one more cycle under
``tracemalloc``, and reports the end-to-end metrics, each on every workload:

* ``setup_s``: import time plus the median of the three set-ups (input
  generation, model build and initialization, warm-up ops).
* ``cycle_s``: 10th percentile of the cycle wall times.  The low quantile
  discounts cycles slowed by other tenants of a shared machine, whose
  effective speed can change by tens of percent for minutes at a time.
* ``z_evals_per_step``: fresh partition-function evaluations per parameter
  update (per optimizer step when training, per write in query-mix).
* ``heldout_nll``: mean negative log-likelihood of held-out rows under the
  workload's model (best validation epoch when training).
* ``peak_mb``: peak traced allocation of the memory-pass cycle.

``--trace 1`` runs the cycles untraced for half of ``--seconds`` (at least
the traced cycle count), then sets up again and runs a fixed number of
cycles with span probes installed (see ``tracing.py``).  It reports the
per-layer metrics, the op-level rates of the untraced half, and the
tracing overhead.

The last line of standard output is one JSON object; the full record
(environment, per-op latency percentiles, every metric) is printed before
it and saved under ``.perfbench/``, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "cycle_s": "s",
    "z_evals_per_step": "count",
    "heldout_nll": "nats",
    "peak_mb": "MB",
}

# Op-level rates named by the workloads' ops.  Each applies to one or two
# workloads and is zero on the others, so they cannot be end-to-end metrics
# (those are reported on every workload and never read zero); every traced
# run reports them, measured in its untraced half, with the per-layer metrics.
OP_RATE_UNITS = {
    "train_rows_per_s": "rows/s",
    "train_val_ll": "nats",
    "density_rows_per_s": "rows/s",
    "marginal_rows_per_s": "rows/s",
    "logz_fresh_ms_p50": "ms",
    "cont_samples_per_s": "samples/s",
    "disc_samples_per_s": "samples/s",
    "error_rate": "ratio",
    "trace.overhead_ratio": "ratio",
}

RATE_OPS = {
    "train_rows_per_s": "train",
    "density_rows_per_s": "density",
    "marginal_rows_per_s": "marginal",
    "cont_samples_per_s": "sample-cont",
    "disc_samples_per_s": "sample-disc",
}


def import_pcsq():
    """Import pcsq from this checkout's ``src/``; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "pcsq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pcsq sources at {src / 'pcsq'}; run from a pcsq checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import pcsq

    seconds = time.perf_counter() - t0
    if Path(pcsq.__file__).resolve().parent != (src / "pcsq").resolve():
        raise SystemExit(f"perfbench: imported pcsq from {pcsq.__file__}, not from {src}")
    return seconds


def _blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def environment(seed):
    import numpy as np

    from pcsq import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "kernel_backend": kernels.backend_name(),
        "available_backends": kernels.available_backends(),
        "commit": _git_commit(),
        "seed": seed,
    }


def latency_summary(rec):
    """Per op kind: count, p50 and the highest percentile with 10 samples beyond it."""
    out = {}
    for kind in sorted({o.kind for o in rec.timed()}):
        secs = sorted(o.seconds for o in rec.timed(kind))
        n = len(secs)
        entry = {"n": n, "p50_ms": 1e3 * statistics.median(secs)}
        if n > 10:
            entry["tail_percentile"] = 100.0 * (n - 10) / n
            entry["tail_ms"] = 1e3 * secs[n - 11]
        out[kind] = entry
    return out


def op_rates(rec, workload):
    out = {}
    for name, kind in RATE_OPS.items():
        ops = rec.timed(kind)
        secs = sum(o.seconds for o in ops)
        out[name] = sum(o.amount for o in ops) / secs if secs > 0 else 0.0
    writes = rec.timed("write")
    out["logz_fresh_ms_p50"] = 1e3 * statistics.median(o.seconds for o in writes) if writes else 0.0
    out["train_val_ll"] = -_safe(workload.heldout_nll) if rec.timed("train") else 0.0
    timed = rec.timed()
    out["error_rate"] = sum(not o.ok for o in timed) / len(timed) if timed else 0.0
    return out


def _safe(fn):
    try:
        return float(fn())
    except (AttributeError, TypeError, IndexError, ZeroDivisionError):
        return 0.0  # the value was never produced; the run already reports a failure


def run_cycles(workload, rec, seconds, min_cycles=1, max_cycles=None):
    start = time.perf_counter()
    index = 0
    while True:
        rec.cycle = index
        workload.run_cycle(rec, index)
        index += 1
        if max_cycles is not None and index >= max_cycles:
            break
        if index >= min_cycles and time.perf_counter() - start >= seconds:
            break
    return index


def measure_untraced(name, seed, seconds, workdir):
    import numpy as np
    import workloads

    rec = workloads.Recorder()
    setup_times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = workloads.WORKLOADS[name](seed, workdir)
        t0 = time.perf_counter()
        workload.setup(rec)
        setup_times.append(time.perf_counter() - t0)
    try:
        cycles = run_cycles(workload, rec, seconds)
        # memory pass: one more cycle, never timed
        mem = workloads.Recorder()
        mem.cycle = cycles
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            if hasattr(workload, "count_cycle"):
                workload.count_cycle(mem, cycles)
            else:
                workload.run_cycle(mem, cycles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        memory_pass_s = time.perf_counter() - t0
        problems = rec.problems + mem.problems + workload.final_problems()
        metrics = {
            "setup_s": statistics.median(setup_times),
            "cycle_s": float(np.percentile(rec.cycle_seconds(), 10)),
            "z_evals_per_step": _safe(workload.z_evals_per_step),
            "heldout_nll": _safe(workload.heldout_nll),
            "peak_mb": peak / 1e6,
        }
        detail = {
            "setup_times_s": setup_times,
            "cycle_times_s": rec.cycle_seconds(),
            "op_rates": op_rates(rec, workload),
            "latency": latency_summary(rec),
            "memory_pass_s": memory_pass_s,
        }
        attempted = len(rec.ops) + len(mem.ops)
        failed = sum(not o.ok for o in rec.ops + mem.ops)
        return metrics, detail, attempted, failed, problems
    finally:
        workload.close()


def measure_traced(name, seed, seconds, workdir, spans_path):
    import tracing
    import workloads

    plain = workloads.Recorder()
    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        workload.setup(plain)
        run_cycles(workload, plain, seconds / 2.0, min_cycles=workload.trace_cycles)
        problems = plain.problems + workload.final_problems()
        rates = op_rates(plain, workload)
    finally:
        workload.close()

    tracer = tracing.Tracer()
    traced = workloads.Recorder(tracer)
    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        with tracer.installed():
            tracer.begin_op(-1, "setup")
            workload.setup(traced)
            run_cycles(workload, traced, 0.0, workload.trace_cycles, workload.trace_cycles)
        problems += traced.problems + workload.final_problems()
    finally:
        workload.close()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)

    n = workload.trace_cycles
    base = sum(plain.cycle_seconds()[:n])
    rates["trace.overhead_ratio"] = sum(traced.cycle_seconds()[:n]) / base - 1.0 if base > 0 else 0.0
    metrics = {**tracing.layer_metrics(tracer), **rates}
    units = {**tracing.PER_LAYER_UNITS, **OP_RATE_UNITS}
    detail = {
        "untraced_cycle_times_s": plain.cycle_seconds(),
        "traced_cycle_times_s": traced.cycle_seconds(),
        "latency": latency_summary(plain),
        "spans": len(tracer.spans),
    }
    attempted = len(plain.ops) + len(traced.ops)
    failed = sum(not o.ok for o in plain.ops + traced.ops)
    return {k: (v, units[k]) for k, v in metrics.items()}, detail, attempted, failed, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train-gauss-k64", "train-rings-mix2", "query-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_s = import_pcsq()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, detail, attempted, failed, problems = measure_traced(
            args.workload, args.seed, args.seconds, workdir, workdir / f"spans-{tag}.json"
        )
    else:
        values, detail, attempted, failed, problems = measure_untraced(
            args.workload, args.seed, args.seconds, workdir
        )
        values["setup_s"] += import_s
        detail["import_s"] = import_s
        metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "problems": problems,
        "detail": detail,
        "result": result,
    }
    (workdir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "environment", "problems", "detail")}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
