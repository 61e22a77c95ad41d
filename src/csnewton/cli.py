"""Batch command-line front end.

Subcommands:
  phantom   write a head-phantom test image as binary PGM
  solve     reconstruct from a key=value config, writing image/trace/metrics
  spectrum  dense eigenvalue export for the Newton systems of a solve
  check     run the built-in verification suites

Exit codes: 0 success, 1 failed checks (``check``, or a converged ``solve``
whose trace fails the solver invariants, after its outputs are written),
2 bad usage (a bad config or argument, an unreadable input or an
unwritable output) or a solve that aborted or did not converge; an error
is one ``error:`` line on stderr.
Images are binary PGM (P5), 8- or 16-bit on read and 8-bit on write, where
internal [0, 1] values are quantized with round(255*v).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import diagnostics
from .continuation import make_schedule, run_continuation
from .precond import SPECTRUM_MAX_N, spectrum_report
from .problems import make_itv_instance, make_l1_dense_instance, psnr, relative_error, shepp_logan
from .smoothing import SmoothedObjective
from .solver import IterationRecord, SolverConfig, solve_subproblem

# one trace.csv column per IterationRecord field, in field order
TRACE_COLUMNS = [f.name for f in dataclasses.fields(IterationRecord)]


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
    "precond": str,  # none | exact | cg15
    "continuation": str,  # on | off
    "seed": int,
    "grad_tol": float,
    "max_outer": int,
}

_DEFAULTS = {
    "problem": "itv",
    "image": "phantom",
    "size": 64,
    "sampling_ratio": 0.25,
    "target_psnr": math.inf,
    "c": 1.0e-2,
    "mu": 1.0e-5,
    "precond": "exact",
    "continuation": "on",
    "seed": 0,
}
# Config keys passed to SolverConfig when the file sets them; its own
# defaults apply otherwise.
_SOLVER_KEYS = ("eta", "grad_tol", "max_outer")

_PRECOND_MODES = {"none": "none", "exact": "exact_banded", "cg15": "truncated_cg"}


class ConfigError(ValueError):
    pass


class SolveAborted(Exception):
    """The solver raised; the message names its error."""


def parse_config(path) -> Dict:
    """The settings of a key=value config file over ``_DEFAULTS``."""
    given = {}
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
            given[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    cfg = dict(_DEFAULTS, **given)
    if cfg["problem"] not in ("itv", "l1-dense"):
        raise ConfigError(f"unknown problem {cfg['problem']!r}")
    ignored = [key for key in ("image", "target_psnr") if key in given]
    if cfg["problem"] == "l1-dense" and ignored:
        raise ConfigError(f"problem l1-dense draws a noiseless signal: it takes no "
                          f"{' or '.join(ignored)}")
    if cfg["precond"] not in _PRECOND_MODES:
        raise ConfigError(f"unknown precond {cfg['precond']!r}")
    if cfg["continuation"] not in ("on", "off"):
        raise ConfigError("continuation must be 'on' or 'off'")
    if not 0.0 < cfg["sampling_ratio"] <= 1.0:
        raise ConfigError(f"sampling_ratio must lie in (0, 1], got {cfg['sampling_ratio']}")
    # NaN fails; from 6165.09 dB = 20 log10(DBL_MAX) up, 10 ** (target / 20) overflows
    target = cfg["target_psnr"]
    if not (-math.inf < target < 20.0 * math.log10(sys.float_info.max) or target == math.inf):
        raise ConfigError(f"target_psnr must be a number below 6165.09 dB, or inf for noiseless "
                          f"data, got {target}")
    return cfg


def _build_problem(cfg):
    if cfg["problem"] == "itv":
        phantom = cfg["image"] == "phantom"
        image = shepp_logan(cfg["size"], cfg["size"]) if phantom else read_pgm(cfg["image"])
        return make_itv_instance(image, cfg["sampling_ratio"], cfg["target_psnr"], cfg["seed"])
    return make_l1_dense_instance(cfg["size"], cfg["sampling_ratio"], cfg["seed"])


def _build_solve(cfg) -> tuple:
    """The instance, the objective at the target (c, mu), the continuation
    schedule (None when off) and the solver settings as a ``SolverConfig``;
    a bad setting raises before any file is made."""
    config = SolverConfig(precond_mode=_PRECOND_MODES[cfg["precond"]],
                          **{key: cfg[key] for key in _SOLVER_KEYS if key in cfg})
    inst = _build_problem(cfg)
    obj = SmoothedObjective(c=cfg["c"], mu=cfg["mu"], A=inst.A, W=inst.W, b=inst.b)
    schedule = make_schedule(cfg["c"], cfg["mu"]) if cfg["continuation"] == "on" else None
    return inst, obj, schedule, config


def _run_solve(obj, schedule, config: SolverConfig, on_system=None) -> tuple:
    """Solve, by continuation if there is a ``schedule``; returns the final
    state and the wall time.  Any error of the solve raises SolveAborted."""
    t0 = time.perf_counter()
    try:
        if schedule is not None:
            state = run_continuation(obj, config, schedule, on_system=on_system)
        else:
            state = solve_subproblem(obj, config, on_system=on_system)
    except Exception as exc:
        raise SolveAborted(f"solve aborted: {exc}") from exc
    return state, time.perf_counter() - t0


def write_trace_csv(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            writer.writerow([getattr(rec, name) for name in TRACE_COLUMNS])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _say(text: str) -> None:
    """Print to stdout.  Once its reader has left (``| head -1``), stdout
    points at devnull and the command carries on to its own status."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_phantom(args) -> int:
    write_pgm(args.out, shepp_logan(args.size, args.size))
    return 0


def _cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    inst, obj, schedule, config = _build_solve(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state, elapsed = _run_solve(obj, schedule, config)

    lines = [f"converged = {state.converged}", f"wall_time_s = {elapsed:.3f}"]
    if cfg["problem"] == "itv":
        recon = state.x.reshape((inst.n1, inst.n2), order="F")
        write_pgm(out_dir / "reconstruction.pgm", recon)
        lines.append(f"psnr_db = {psnr(recon, inst.ground_truth):.4f}")
        lines.append(f"relative_error = {relative_error(recon.ravel(), inst.ground_truth.ravel()):.6e}")
    else:
        lines.append(f"relative_error = {relative_error(state.x, inst.ground_truth):.6e}")
    # one line per continuation stage that took a step, from the trace
    for stage, recs in itertools.groupby(state.trace, key=lambda rec: rec.stage):
        recs = list(recs)
        lines.append(f"stage {stage} = precond {recs[0].precond_mode}, outer {len(recs)}, "
                     f"pcg {sum(rec.pcg_iters for rec in recs)}, "
                     f"capped {sum(not rec.pcg_converged for rec in recs)}, "
                     f"rejected {sum(not rec.accepted for rec in recs)}")
    invariants = diagnostics.check_solver_invariants(state.trace)
    lines.append(f"invariants = {'pass' if invariants.passed else 'fail'} "
                 f"({len(invariants.violations)} violations)")
    write_trace_csv(out_dir / "trace.csv", state.trace)
    (out_dir / "metrics.txt").write_text("\n".join(lines) + "\n")
    _say("\n".join(lines))
    return 2 if not state.converged else 0 if invariants.passed else 1


def _cmd_spectrum(args) -> int:
    cfg = parse_config(args.config)
    if args.every < 1:
        raise ValueError(f"--every must be >= 1, got {args.every}")
    if args.nu is not None and not 0.0 < args.nu < math.inf:
        raise ValueError(f"--nu must be positive and finite, got {args.nu}")
    inst, obj, schedule, config = _build_solve(cfg)
    nu = args.nu if args.nu is not None else 0.5 / cfg["mu"]  # the build rejected mu = 0
    # the size of the problem actually built: a PGM image sets its own
    if inst.A.cols > SPECTRUM_MAX_N:
        raise ValueError(f"spectrum needs n <= {SPECTRUM_MAX_N}, got {inst.A.cols}")

    systems = []

    def keep(stage: int, k: int, system) -> None:
        if k % args.every == 0:
            systems.append((stage, k, system))

    out = Path(args.out)
    fh = open(out, "w", newline="")  # an unwritable --out fails here, before the solve
    try:
        with fh:
            _run_solve(obj, schedule, config, on_system=keep)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["system", "stage", "iter", "index", "raw_lambda", "precond_lambda",
                             "sigma", "delta", "chi", "bound", "bound_kernel", "kernel_residual"])
            for sys_idx, (stage, k, system) in enumerate(systems):
                rep = spectrum_report(system, nu)
                for i, (raw, pre, kres) in enumerate(
                    zip(rep.raw_eigs, rep.precond_eigs, rep.kernel_residuals)
                ):
                    writer.writerow(
                        [sys_idx, stage, k, i, f"{raw:.10e}", f"{pre:.10e}",
                         rep.sigma, f"{rep.delta:.6e}", f"{rep.chi:.6e}",
                         f"{rep.bound:.6e}", f"{rep.bound_kernel:.6e}", f"{kres:.6e}"]
                    )
    except BaseException:
        # an aborted solve or export leaves no partial CSV behind; a pipe,
        # a device or a link such as /dev/stdout is not removed
        if out.is_file() and not out.is_symlink():
            out.unlink()
        raise
    _say(f"wrote spectra of {len(systems)} systems to {args.out}")
    return 0


def _default_check_instance() -> SmoothedObjective:
    image = shepp_logan(16, 16)[4:12, 4:12]
    inst = make_itv_instance(image, 0.5, math.inf, seed=7)
    return SmoothedObjective(c=1e-1, mu=1e-2, A=inst.A, W=inst.W, b=inst.b)


def _cmd_check(args) -> int:
    failures = 0

    def emit(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        failures += 0 if ok else 1
        _say(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

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
        config = SolverConfig(grad_tol=1e-8, max_outer=60, precond_mode="exact_banded")
        state = run_continuation(obj, config, make_schedule(1e-2, 1e-2))
        rep = diagnostics.check_solver_invariants(state.trace)
        for name, detail in rep.rows():
            emit(f"invariants/{name}", rep.passed, detail)

    if "rate" in suites:
        config = SolverConfig(grad_tol=1e-10, max_outer=80, eta_schedule="decreasing",
                              precond_mode="exact_banded")
        traces = {"superlinear_tail": solve_subproblem(obj, config).trace}
        # the 32x32 phantom at the solve command's defaults, both instance seeds
        for seed in (0, 1):
            cfg = dict(_DEFAULTS, size=32, seed=seed)
            _, obj_seed, schedule, defaults = _build_solve(cfg)
            state, _ = _run_solve(obj_seed, schedule, defaults)
            traces[f"phantom32_seed{seed}"] = state.trace
        for name, trace in traces.items():
            tail = diagnostics.rate_probe(trace)[-3:]
            ok = len(tail) == 3 and all(b < a for a, b in zip(tail, tail[1:])) and tail[-1] < 0.1
            emit(f"rate/{name}", ok, f"last ratios {[f'{r:.3e}' for r in tail]}")

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
    p_spec.add_argument("--every", type=int, default=1,
                        help="export the systems of steps 0, k, 2k, ... of each stage")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_check = sub.add_parser("check", help="run verification suites")
    p_check.add_argument("--suite", choices=["derivatives", "invariants", "rate", "all"],
                         required=True)
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SolveAborted) as exc:
        # bad config or argument, unreadable input, unwritable output, or a solve that raised
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
