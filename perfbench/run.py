"""pdNCG benchmark: TV reconstructions solved end to end, with an optional
traced run that splits the solve time by layer.

    python3 perfbench/run.py --workload tv128_exact --seed 0 --seconds 55 --trace 0

Run it from the repository root; it imports ``csnewton`` from ``src/``
and nothing else.  Workloads are defined in ``workloads.py``;
``--workload all`` runs each of them in turn, in one process, so
each workload's ``peak_rss_mb`` includes the workloads before it.

``--trace 0`` solves the workload as many times as fit in ``--seconds``
(at least once), building the instance 21 times before each solve, and
reports the median build time ``setup_s``, the median ``solve_s``, the
PSNR and the peak RSS.  Every solve must pass the correctness gate of
``workloads.gate`` and return the same ``x`` bit for bit.

``--trace 1`` runs one untraced and one traced solve and reports the
per-layer metrics of the traced one (see ``tracer.py``) plus the
tracing overhead, traced minus untraced ``solve_s``.  Both solves must
pass the gate and agree in outer and PCG iterations, in the solver's own
operator-application counters and bit for bit in ``x``.

``--seed`` is the run seed: it is recorded but changes no input, because
the PSNR references and the convergence gate belong to one problem
instance.  The instance is set by ``--instance-seed`` (mask and noise
seed), 0 by default; seed 1 is held out for re-checking a claim on an
instance it was not tuned on.

BLAS/LAPACK run single-threaded and the benchmark uses one process: with
two threads the banded Cholesky is slower and changes the iteration
counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_BATCH = 21
BLAS_THREADS = 1
# Repeated from workloads.py, which cannot be imported before the BLAS
# thread count is set because it imports numpy.
WORKLOAD_NAMES = ("tv128_exact", "tv64_cg15", "tv64_none")
INSTANCE_SEEDS = (0, 1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="run seed (recorded only)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="time budget for the repeated solves (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, choices=INSTANCE_SEEDS, default=0,
                        help="mask and noise seed; 0 is the tuning seed, 1 is held out")
    return parser.parse_args(argv)


def set_blas_threads() -> None:
    """One BLAS/LAPACK thread; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    src = ROOT / "src"
    if not (src / "csnewton" / "__init__.py").is_file():
        raise SystemExit(f"error: no csnewton sources under {src}")
    sys.path.insert(0, str(src))
    import csnewton

    if Path(csnewton.__file__).resolve().parent != (src / "csnewton").resolve():
        raise SystemExit(f"error: imported csnewton from {csnewton.__file__}, not {src}")


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_solve(workload, obj):
    from workloads import solve

    t0 = time.perf_counter()
    state = solve(workload, obj)
    return state, time.perf_counter() - t0


def run_untraced(workload, args):
    """End-to-end metrics: median set-up and solve time, PSNR, peak RSS."""
    from workloads import build_instance, gate, objective

    setup, times, verdicts, first_x, identical = [], [], [], None, True
    deadline = time.perf_counter() + args.seconds
    # stop before a solve of median length would overrun the deadline
    while not times or time.perf_counter() + statistics.median(times) <= deadline:
        # set-up samples spread over the run, so they see the same machine as the solves
        for _ in range(SETUP_BATCH):
            t0 = time.perf_counter()
            inst = build_instance(workload, args.instance_seed)
            obj = objective(inst)
            setup.append(time.perf_counter() - t0)
        state, elapsed = timed_solve(workload, obj)
        times.append(elapsed)
        verdicts.append(gate(workload, inst, state, args.instance_seed))
        if first_x is None:
            first_x = state.x
        identical = identical and state.x.tobytes() == first_x.tobytes()

    failed = sum(not v.passed for v in verdicts)
    verdict = verdicts[0]
    print(f"{workload.name}: {len(times)} solves, solve_s min {min(times):.4f} "
          f"max {max(times):.4f}; setup_s over {len(setup)} builds; "
          f"converged {verdict.converged}; identical x across solves {identical}")
    metrics = {
        "solve_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "psnr_db": (verdict.psnr_db, "dB"),
    }
    report = dict(metrics)
    report["failed_frac"] = (failed / len(times), "ratio")
    report["invariant_violations"] = (verdict.invariant_violations, "count")
    print_metrics(workload.name, report)
    return identical and failed == 0, len(times), failed, metrics


def run_traced(workload, args):
    """Per-layer metrics from one traced solve, checked against an untraced one."""
    import tracer as tr
    from workloads import SCHEDULE, build_instance, gate, objective

    inst = build_instance(workload, args.instance_seed)
    plain, plain_s = timed_solve(workload, objective(inst))

    spans = tr.Tracer()
    obj = objective(inst, *tr.traced_operators(spans, inst.A, inst.W))
    with tr.traced(spans):
        traced, traced_s = timed_solve(workload, obj)

    checks = {
        "outer_iters": len(plain.trace) == len(traced.trace),
        "pcg_iters": [r.pcg_iters for r in plain.trace] == [r.pcg_iters for r in traced.trace],
        "counters": plain.counters == traced.counters,
        "x_bitwise": plain.x.tobytes() == traced.x.tobytes(),
    }
    print(f"{workload.name}: traced run matches untraced run: "
          + ", ".join(f"{k} {v}" for k, v in checks.items()))
    verdicts = [gate(workload, inst, s, args.instance_seed) for s in (plain, traced)]
    failed = sum(not v.passed for v in verdicts)

    metrics = tr.layer_metrics(spans.spans, len(SCHEDULE.stages))
    # The solver's own operator tally, beside the measured linops calls.
    metrics["counters.total_matvecs"] = (traced.counters.total_matvecs(), "count")
    metrics["solver.invariant_violations"] = (verdicts[1].invariant_violations, "count")
    metrics["trace.spans"] = (len(spans.spans), "count")
    metrics["trace.solve_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    print_metrics(workload.name, metrics)
    return all(checks.values()) and failed == 0, 2, failed, metrics


def print_metrics(label, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{label}  {name} = {value:.6g} {unit}")


def environment(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "instance_seed": args.instance_seed,
        "run_seed": args.seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    set_blas_threads()
    import_program()
    from workloads import WORKLOADS

    print("environment " + json.dumps(environment(args)))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics = run(WORKLOADS[name], args)
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
