"""mnmt benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload desk|mid --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the workload runs once traced and
once untraced (same work), and the object holds the per-layer metrics, the
tracing overhead and the layers' coverage of each phase.  Earlier lines
carry the provenance record and, when traced, the per-phase layer table.
Inputs, span dumps and full results go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # setup_s counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
# One BLAS thread.  With two on a 2-vCPU host, OpenBLAS threads spin-wait on
# each other whenever anything else holds a vCPU (a 200x200 matmul ranged
# 15-870 ms with nothing else of ours running), and the workloads' matrices
# are too small for a second thread to gain much.
BLAS_THREADS = "1"
MIN_COVERAGE = 0.9

# pin BLAS threads before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def load_program() -> None:
    """Import mnmt from this checkout's src/, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mnmt", "__init__.py")):
        sys.exit(f"error: no src/mnmt under {ROOT}; run from the root of a checkout")
    sys.path[:0] = [src, HERE]
    import mnmt

    if not os.path.abspath(mnmt.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported mnmt from {mnmt.__file__}, not from {src}")


def provenance(seed: int) -> dict:
    import ctypes
    import glob
    import platform
    import subprocess

    import numpy as np

    blas = {"name": None, "threads": None}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas["name"] = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                blas["threads"] = getattr(lib, fn)()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    src_lines += f.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "blas": blas["name"],
        "blas_threads": blas["threads"] if blas["threads"] is not None else int(BLAS_THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": src_lines,
        "seed": seed,
    }


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    import resource

    from workloads import Pass, run

    p = Pass(WORK, seed, seconds, fixed=False, started=STARTED)
    run(name, p)
    p.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return {"pass": p, "metrics": p.metrics,
            "detail": {"phase_walls": p.phase_walls, "units": p.unit_log}}


def run_traced(name: str, seed: int, seconds: float) -> dict:
    from layers import instrument, per_layer_metrics
    from tracing import Tracer, layer_report
    from workloads import Pass, run

    # traced pass first: like an end-to-end run it starts cold, so its layer
    # times explain those runs; the untraced pass after it starts warm, so
    # the overhead figure errs toward overstating the cost of tracing
    tracer = Tracer()
    p = Pass(WORK, seed, seconds, fixed=True, tracer=tracer)
    probe = instrument(tracer, p.counters)
    try:
        run(name, p)
    finally:
        tracer.restore()
    traced_wall = sum(p.phase_walls.values())

    base = Pass(WORK, seed, seconds, fixed=True)
    run(name, base)
    untraced_wall = sum(base.phase_walls.values())
    p.op(p.outputs == base.outputs, "traced pass produced different outputs")
    del base
    report = layer_report(tracer)
    for phase, entry in report.items():
        p.op(entry["coverage"] >= MIN_COVERAGE,
             f"layers cover {entry['coverage']:.3f} of phase {phase}")
    metrics = per_layer_metrics(tracer, p.counters, probe, traced_wall, untraced_wall)
    spans_path = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
    tracer.write(spans_path)
    for phase, entry in report.items():
        layers = " ".join(f"{k}={v:.4f}" for k, v in sorted(entry["layers"].items()))
        print(f"phase {phase}: wall {entry['wall_s']:.4f}s coverage {entry['coverage']:.4f} "
              f"self[s] {layers}")
    print(f"tracing overhead: {traced_wall - untraced_wall:.3f}s on {untraced_wall:.3f}s untraced")
    return {"pass": p, "metrics": metrics,
            "detail": {"report": report, "spans": spans_path,
                       "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "mid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    os.makedirs(WORK, exist_ok=True)
    run = run_traced if args.trace else run_untraced
    start = time.perf_counter()
    out = run(args.workload, args.seed, args.seconds)
    p = out["pass"]
    # taken after the run, so its git call stays out of setup_s
    prov = provenance(args.seed)
    print("provenance: " + json.dumps(prov))
    for failure in p.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, provenance=prov,
                  wall_s=time.perf_counter() - start, counters=_plain(p.counters),
                  **out["detail"])
    path = os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


def _plain(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if isinstance(v, (int, float))}


if __name__ == "__main__":
    sys.exit(main())
