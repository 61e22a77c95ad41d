"""Batch command-line front end.

Subcommands:
  phantom   write a head-phantom test image as binary PGM
  solve     reconstruct from a key=value config, writing image/trace/metrics
  spectrum  dense eigenvalue export for the Newton systems of a solve
  check     run the built-in verification suites

Exit codes: 0 success, 1 failed checks, 2 bad usage or aborted solve.
Images are binary PGM (P5), 8- or 16-bit on read and 8-bit on write, where
internal [0, 1] values are quantized with round(255*v).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import diagnostics
from .continuation import make_schedule, run_continuation
from .linops import make_dense_dictionary, make_gradient2d
from .precond import spectrum_report
from .problems import ProblemInstance, make_itv_instance, psnr, relative_error, shepp_logan
from .smoothing import SmoothedObjective
from .solver import SolverConfig, solve_subproblem

TRACE_COLUMNS = ["stage", "iter", "f", "grad_norm", "pcg_iters", "alpha", "backtracks", "time_s",
                 "eta", "pcg_converged", "max_residual_drift"]


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM, maxval 255; values are clipped to [0, 1] then rounded."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    data = np.round(255.0 * np.clip(image, 0.0, 1.0)).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8- or 16-bit (big-endian) binary PGM into a [0, 1] float image."""
    raw = Path(path).read_bytes()
    # header: magic, width, height, maxval; '#' comments allowed between tokens
    tokens: List[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        if pos >= len(raw):
            raise ValueError(f"{path}: PGM header ends after {len(tokens)} of 4 fields")
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"{path}: PGM width, height and maxval must be integers, "
                         f"got {tokens[1:]}") from None
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PGM width and height must be positive, got {w}x{h}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval must lie in 1..65535, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    if len(raw) - pos < w * h * dtype.itemsize:
        raise ValueError(f"{path}: truncated PGM payload, expected {w}x{h} samples")
    data = np.frombuffer(raw, dtype=dtype, count=w * h, offset=pos)
    return data.reshape((h, w)).astype(np.float64) / float(maxval)


# ---------------------------------------------------------------------------
# key=value config files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "problem": str,  # itv | l1-dense
    "image": str,  # path to PGM, or "phantom"
    "size": int,  # synthetic image side length
    "sampling_ratio": float,
    "target_psnr": float,  # "inf" for noiseless
    "c": float,
    "mu": float,
    "eta": float,
    "tau1": float,
    "tau2": float,
    "rho": float,
    "precond": str,  # none | exact | cg15
    "continuation": str,  # on | off
    "seed": int,
    "grad_tol": float,
    "max_outer": int,
    "nu": float,  # spectrum command only
}

_DEFAULTS = {
    "problem": "itv",
    "image": "phantom",
    "size": 64,
    "sampling_ratio": 0.25,
    "target_psnr": math.inf,
    "c": 1.0e-2,
    "mu": 1.0e-5,
    "eta": 1.0e-1,
    "tau1": 9.0e-1,
    "tau2": 1.0e-3,
    "rho": 5.0e-1,
    "precond": "none",
    "continuation": "on",
    "seed": 0,
    "grad_tol": 1.0e-6,
    "max_outer": 100,
}

_PRECOND_MODES = {"none": "none", "exact": "exact_banded", "cg15": "truncated_cg"}


class ConfigError(ValueError):
    pass


def parse_config(path) -> Dict:
    cfg = dict(_DEFAULTS)
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if cfg["problem"] not in ("itv", "l1-dense"):
        raise ConfigError(f"unknown problem {cfg['problem']!r}")
    if cfg["precond"] not in _PRECOND_MODES:
        raise ConfigError(f"unknown precond {cfg['precond']!r}")
    if cfg["continuation"] not in ("on", "off"):
        raise ConfigError("continuation must be 'on' or 'off'")
    return cfg


def _load_image(cfg) -> np.ndarray:
    if cfg["image"] == "phantom":
        return shepp_logan(cfg["size"], cfg["size"])
    return read_pgm(cfg["image"])


def _build_problem(cfg):
    if cfg["problem"] == "itv":
        image = _load_image(cfg)
        inst = make_itv_instance(image, cfg["sampling_ratio"], cfg["target_psnr"], cfg["seed"])
        return inst, image
    # l1-dense: orthonormal-row random dictionary on a random sparse-analysis signal
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["size"]
    el = 2 * n
    m = max(1, round(cfg["sampling_ratio"] * n))
    q, _ = np.linalg.qr(rng.standard_normal((el, n)))
    W = make_dense_dictionary(q.T, field="real")
    A = make_dense_dictionary(rng.standard_normal((m, n)) / math.sqrt(n), field="real")
    x_true = rng.standard_normal(n)
    b = A.apply(x_true)
    inst = ProblemInstance(
        A=A, W=W, b=b, ground_truth=x_true, noise=None, seed=cfg["seed"], n1=n, n2=1,
    )
    return inst, None


def _solver_config(cfg, audit: bool, snapshot_every: int = 0) -> SolverConfig:
    return SolverConfig(
        eta=cfg["eta"],
        tau1=cfg["tau1"],
        tau2=cfg["tau2"],
        rho=cfg["rho"],
        grad_tol=cfg["grad_tol"],
        max_outer=cfg["max_outer"],
        precond_mode=_PRECOND_MODES[cfg["precond"]],
        audit=audit,
        snapshot_every=snapshot_every,
    )


def _run_solve(cfg, audit_small: bool = True, snapshot_every: int = 0) -> tuple:
    inst, image = _build_problem(cfg)
    n = inst.A.cols
    audit = audit_small and n <= 4096
    config = _solver_config(cfg, audit, snapshot_every)
    obj = SmoothedObjective(c=cfg["c"], mu=cfg["mu"], A=inst.A, W=inst.W, b=inst.b)
    t0 = time.perf_counter()
    if cfg["continuation"] == "on":
        schedule = make_schedule(cfg["c"], cfg["mu"])
        state = run_continuation(obj, config, schedule)
    else:
        state = solve_subproblem(obj, config)
    elapsed = time.perf_counter() - t0
    return inst, image, obj, state, elapsed


def write_trace_csv(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            writer.writerow(
                [rec.stage, rec.outer_iter, f"{rec.f:.12e}", f"{rec.grad_norm:.6e}",
                 rec.pcg_iters, f"{rec.alpha:.6e}", rec.backtracks, f"{rec.wall_time:.6f}",
                 f"{rec.eta:.6e}", int(rec.pcg_converged), f"{rec.max_residual_drift:.6e}"]
            )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_phantom(args) -> int:
    if args.size < 16:
        print(f"error: size must be >= 16, got {args.size}", file=sys.stderr)
        return 2
    write_pgm(args.out, shepp_logan(args.size, args.size))
    return 0


def _cmd_solve(args) -> int:
    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        inst, image, obj, state, elapsed = _run_solve(cfg)
    except Exception as exc:  # solver aborts surface as exit 2
        print(f"error: solve aborted: {exc}", file=sys.stderr)
        return 2

    lines = [f"converged = {state.converged}", f"wall_time_s = {elapsed:.3f}",
             f"total_matvecs = {state.counters.total_matvecs()}"]
    if image is not None:
        recon = state.x.reshape((inst.n1, inst.n2), order="F")
        write_pgm(out_dir / "reconstruction.pgm", recon)
        lines.append(f"psnr_db = {psnr(recon, inst.ground_truth):.4f}")
        lines.append(f"relative_error = {relative_error(recon.ravel(), inst.ground_truth.ravel()):.6e}")
    elif inst.ground_truth is not None:
        lines.append(f"relative_error = {relative_error(state.x, inst.ground_truth):.6e}")
    write_trace_csv(out_dir / "trace.csv", state.trace)
    (out_dir / "metrics.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if state.converged else 2


def _cmd_spectrum(args) -> int:
    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.every < 1:
        print(f"error: --every must be >= 1, got {args.every}", file=sys.stderr)
        return 2
    n = cfg["size"] ** 2 if cfg["problem"] == "itv" else cfg["size"]
    if n > 4096:
        print(f"error: spectrum needs n <= 4096, got {n}", file=sys.stderr)
        return 2
    nu = args.nu if args.nu is not None else cfg.get("nu", 0.5 / cfg["mu"])
    try:
        _, _, _, state, _ = _run_solve(cfg, snapshot_every=args.every)
    except Exception as exc:
        print(f"error: solve aborted: {exc}", file=sys.stderr)
        return 2

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system", "stage", "iter", "index", "raw_lambda", "precond_lambda",
                         "sigma", "delta", "chi", "bound", "bound_kernel"])
        for sys_idx, snap in enumerate(state.snapshots):
            rep = spectrum_report(snap.system, cfg["rho"], nu)
            for i, (raw, pre) in enumerate(zip(rep.raw_eigs, rep.precond_eigs)):
                writer.writerow(
                    [sys_idx, snap.stage, snap.outer_iter, i, f"{raw:.10e}", f"{pre:.10e}",
                     rep.sigma, f"{rep.delta:.6e}", f"{rep.chi:.6e}",
                     f"{rep.bound:.6e}", f"{rep.bound_kernel:.6e}"]
                )
    print(f"wrote spectra of {len(state.snapshots)} systems to {args.out}")
    return 0


def _default_check_instance(n1=8, n2=8, seed=7, mu=1e-2, c=1e-1):
    image = shepp_logan(16, 16)[4 : 4 + n1, 4 : 4 + n2]
    inst = make_itv_instance(image, 0.5, math.inf, seed)
    return SmoothedObjective(c=c, mu=mu, A=inst.A, W=inst.W, b=inst.b)


def _cmd_check(args) -> int:
    failures = 0

    def emit(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

    suites = ("derivatives", "invariants", "rate") if args.suite == "all" else (args.suite,)

    if "derivatives" in suites:
        rep = diagnostics.check_derivatives(_default_check_instance(), trials=50, seed=11)
        for name, err, tol, ok in rep.rows():
            emit(f"derivatives/{name}", ok, f"max rel err {err:.3e} (tol {tol:.0e})")

    if "invariants" in suites or "rate" in suites:
        image = shepp_logan(16, 16)
        inst = make_itv_instance(image, 0.5, math.inf, seed=3)
        obj = SmoothedObjective(c=1e-2, mu=1e-2, A=inst.A, W=inst.W, b=inst.b)

    if "invariants" in suites:
        config = SolverConfig(grad_tol=1e-8, max_outer=60, audit=True,
                              precond_mode="exact_banded")
        state = run_continuation(obj, config, make_schedule(1e-2, 1e-2, precond_enable_mu=1.0))
        rep = diagnostics.check_solver_invariants(state.trace)
        for name, detail in rep.rows():
            emit(f"invariants/{name}", rep.passed, detail)

    if "rate" in suites:
        config = SolverConfig(grad_tol=1e-10, max_outer=80, eta_schedule="decreasing",
                              precond_mode="exact_banded")
        state = solve_subproblem(obj, config)
        ratios = diagnostics.rate_probe(state.trace)
        tail = ratios[-3:]
        ok = len(tail) == 3 and all(b < a for a, b in zip(tail, tail[1:])) and tail[-1] < 0.1
        emit("rate/superlinear_tail", ok, f"last ratios {[f'{r:.3e}' for r in tail]}")

    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="csnewton",
        description="Newton-Krylov reconstruction for l1-analysis and total-variation problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phantom = sub.add_parser("phantom", help="write a head-phantom PGM image")
    p_phantom.add_argument("--size", type=int, required=True)
    p_phantom.add_argument("--out", type=str, required=True)
    p_phantom.set_defaults(func=_cmd_phantom)

    p_solve = sub.add_parser("solve", help="reconstruct from a config file")
    p_solve.add_argument("--config", type=str, required=True)
    p_solve.add_argument("--out-dir", type=str, required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_spec = sub.add_parser("spectrum", help="export Newton-system spectra as CSV")
    p_spec.add_argument("--config", type=str, required=True)
    p_spec.add_argument("--nu", type=float, default=None)
    p_spec.add_argument("--out", type=str, required=True)
    p_spec.add_argument("--every", type=int, default=1, help="snapshot every k-th system")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_check = sub.add_parser("check", help="run verification suites")
    p_check.add_argument("--suite", choices=["derivatives", "invariants", "rate", "all"],
                         required=True)
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
