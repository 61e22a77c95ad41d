import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csnewton import cli
from csnewton.problems import shepp_logan
from csnewton.solver import IterationRecord, SolverConfig


def run_cli(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# PGM round trip
# ---------------------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    img = shepp_logan(32, 32)
    path = tmp_path / "img.pgm"
    cli.write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n32 32\n255\n")
    assert len(raw) == len(b"P5\n32 32\n255\n") + 32 * 32
    back = cli.read_pgm(path)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_comment_handling(tmp_path):
    path = tmp_path / "c.pgm"
    data = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + data)
    img = cli.read_pgm(path)
    assert img.shape == (2, 3)
    np.testing.assert_allclose(img.ravel() * 255, np.arange(6), atol=1e-12)


def test_pgm_16bit_big_endian(tmp_path):
    path = tmp_path / "deep.pgm"
    samples = np.array([[0, 255, 256], [1000, 40000, 65535]], dtype=">u2")
    path.write_bytes(b"P5\n3 2\n65535\n" + samples.tobytes())
    img = cli.read_pgm(path)
    np.testing.assert_array_equal(img, samples.astype(np.float64) / 65535.0)


@pytest.mark.parametrize("maxval", [0, 65536])
def test_pgm_rejects_maxval_out_of_range(tmp_path, maxval):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 1\n%d\n" % maxval + bytes(4))
    with pytest.raises(ValueError, match="bad.pgm.*maxval"):
        cli.read_pgm(path)


@pytest.mark.parametrize("maxval,payload", [(255, 5), (1023, 11)])
def test_pgm_rejects_truncated_payload(tmp_path, maxval, payload):
    # 3x2 image: 6 bytes at 8 bits, 12 bytes at 16 bits
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n3 2\n%d\n" % maxval + bytes(payload))
    with pytest.raises(ValueError, match="short.pgm.*truncated"):
        cli.read_pgm(path)


@pytest.mark.parametrize("content,reason", [
    (b"P5\n-3 4\n255\n" + bytes(12), "positive"),
    (b"P5\n0 4\n255\n", "positive"),
    (b"P5\n4", "header ends"),
    (b"", "header ends"),
    (b"P5\n4 x\n255\n" + bytes(16), "integers"),
    (b"P2\n2 1\n255\n0 255\n", r"not a binary PGM \(P5\)"),
])
def test_pgm_rejects_bad_header(tmp_path, content, reason):
    path = tmp_path / "head.pgm"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"head.pgm.*{reason}"):
        cli.read_pgm(path)


# ---------------------------------------------------------------------------
# phantom command
# ---------------------------------------------------------------------------


def test_phantom_command(tmp_path):
    out = tmp_path / "p.pgm"
    assert run_cli(["phantom", "--size", "64", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.startswith(b"P5\n64 64\n255\n")
    # deterministic: second run produces identical bytes
    out2 = tmp_path / "p2.pgm"
    run_cli(["phantom", "--size", "64", "--out", str(out2)])
    assert raw == out2.read_bytes()


def test_phantom_rejects_bad_size(tmp_path, capsys):
    assert run_cli(["phantom", "--size", "4", "--out", str(tmp_path / "x.pgm")]) == 2
    assert_one_error_line(capsys.readouterr().err, "at least 16 pixels")


def test_phantom_rejects_missing_out_dir(tmp_path, capsys):
    out = tmp_path / "missing" / "p.pgm"
    assert run_cli(["phantom", "--size", "16", "--out", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, "missing")


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------


SOLVE_CONFIG = """
# small reconstruction smoke test
problem = itv
image = phantom
size = 16
sampling_ratio = 0.5
target_psnr = inf
c = 1e-1
mu = 1e-2
precond = exact
continuation = on
seed = 3
grad_tol = 1e-6
max_outer = 40
"""


def test_solve_command_outputs(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out_dir = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "reconstruction.pgm").exists()
    assert (out_dir / "metrics.txt").exists()
    # rows end in "\n", so line tools see the last column's name as it is
    assert b"\r" not in (out_dir / "trace.csv").read_bytes()
    with open(out_dir / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.TRACE_COLUMNS
    assert len(rows) > 1
    # each row carries its stage's forcing term: exact_banded runs only in
    # the last stage (mu = 1e-2), and there with eta = 1e-2
    records = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert {(r["stage"], float(r["eta"])) for r in records} == {("0", 0.1), ("1", 0.1), ("2", 1e-2)}
    assert {r["pcg_converged"] for r in records} == {"True"}
    # PCG rechecks its residual explicitly only at exit at this size, where
    # the recurrence and the true residual agree to rounding
    drifts = [float(r["max_residual_drift"]) for r in records]
    assert all(0.0 <= d <= 1e-8 for d in drifts) and max(drifts) > 0.0
    # every row carries the line search's curvature and the PCG residual
    assert all(float(r["energy"]) > 0.0 for r in records)
    assert all(0.0 <= float(r["pcg_residual"]) < float("inf") for r in records)
    # where its step started, the gradient norm and f, and the dual box after
    # it, which the projection keeps within rounding of 1
    assert all(float(r["f"]) <= float(r["f_in"]) for r in records if r["accepted"] == "True")
    assert all(float(r["grad_norm_in"]) > 0.0 for r in records)
    assert all(0.0 < float(r["dual_box"]) <= 1.0 + 1e-12 for r in records)
    metrics = (out_dir / "metrics.txt").read_text()
    # each stage's PCG count is on its stage line; no untrue work tally
    assert "psnr_db" in metrics and "\nstage 0 = " in metrics and "total_matvecs" not in metrics


def test_solve_trace_names_each_stage_preconditioner(tmp_path):
    # cg15 switches truncated CG, and with it the flexible outer PCG, on at
    # mu <= 1e-4: the last two of the six stages to mu = 1e-5
    cfg = tmp_path / "cg15.cfg"
    cfg.write_text("size = 16\nprecond = cg15\n")
    out_dir = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    records = [dict(zip(rows[0], row)) for row in rows[1:]]
    modes = {}
    for r in records:
        modes.setdefault(int(r["stage"]), set()).add(r["precond_mode"])
    assert modes == {**{s: {"none"} for s in range(4)}, 4: {"truncated_cg"}, 5: {"truncated_cg"}}
    assert {r["accepted"] for r in records} <= {"False", "True"}
    assert records[-1]["accepted"] == "True"


def test_solve_metrics_summarize_each_stage(tmp_path):
    # metrics.txt gives one line per continuation stage, read from the trace,
    # and the invariant verdict; the stage lines add up to the trace's totals
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("size = 32\n")
    out_dir = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "trace.csv") as fh:
        records = list(csv.DictReader(fh))
    metrics = (out_dir / "metrics.txt").read_text().splitlines()
    pattern = re.compile(r"stage (\d+) = precond (\w+), outer (\d+), pcg (\d+), "
                         r"capped (\d+), rejected (\d+)$")
    stages = [pattern.match(line).groups() for line in metrics if line.startswith("stage ")]
    assert [int(s[0]) for s in stages] == list(range(6))
    assert sum(int(s[2]) for s in stages) == len(records)
    assert sum(int(s[3]) for s in stages) == sum(int(r["pcg_iters"]) for r in records)
    for stage, mode, _, _, capped, rejected in stages:
        rows = [r for r in records if r["stage"] == stage]
        assert {r["precond_mode"] for r in rows} == {mode}
        assert int(capped) == sum(r["pcg_converged"] == "False" for r in rows)
        assert int(rejected) == sum(r["accepted"] == "False" for r in rows)
    assert "invariants = pass (0 violations)" in metrics


def test_trace_csv_writes_every_record_field_at_full_precision(tmp_path):
    rec = IterationRecord(
        stage=2, outer_iter=7, f=1.0 / 3.0, grad_norm=2.0 ** -40, grad_norm_in=0.1,
        pcg_iters=12, alpha=0.9 ** 5, backtracks=5, wall_time=1e-3 / 7.0, eta=1e-2,
        energy=np.pi, dual_box=1.0 - 2.0 ** -52, accepted=False, pcg_converged=True,
        max_residual_drift=3e-17, pcg_residual=np.e, precond_mode="exact_banded",
        f_in=2.0 / 3.0, precond_sweeps=41, kinks_crossed=17,
    )
    path = tmp_path / "trace.csv"
    cli.write_trace_csv(path, [rec])
    with open(path) as fh:
        header, row = list(csv.reader(fh))
    assert header == [f.name for f in dataclasses.fields(IterationRecord)]
    assert {"grad_norm_in", "dual_box", "f_in", "precond_sweeps", "kinks_crossed"} <= set(header)
    cells = dict(zip(header, row))
    for name, value in dataclasses.asdict(rec).items():
        if isinstance(value, float):
            assert float(cells[name]) == value, name
        else:
            assert cells[name] == str(value), name


def test_solve_deterministic(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CONFIG)
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    run_cli(["solve", "--config", str(cfg), "--out-dir", str(d1)])
    run_cli(["solve", "--config", str(cfg), "--out-dir", str(d2)])
    assert (d1 / "reconstruction.pgm").read_bytes() == (d2 / "reconstruction.pgm").read_bytes()


def test_solve_rejects_unknown_key(tmp_path, capsys):
    # tau1, tau2 and rho are solver constants, not config keys, and the
    # spectrum command takes nu as --nu
    for key in ("bogus_key", "tau1", "tau2", "rho", "nu"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SOLVE_CONFIG + f"\n{key} = 0.5\n")
        out_dir = tmp_path / "nope"
        assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (out_dir / "reconstruction.pgm").exists()
        assert not (out_dir / "trace.csv").exists()


def test_solve_defaults_to_the_exact_preconditioner(tmp_path):
    # a config without precond runs exact_banded once it is switched on, at
    # mu <= 1e-2: stages 2-5 of the six stages to mu = 1e-5
    cfg = tmp_path / "default.cfg"
    cfg.write_text("size = 16\n")
    out_dir = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    modes = {}
    for r in (dict(zip(rows[0], row)) for row in rows[1:]):
        modes.setdefault(int(r["stage"]), set()).add(r["precond_mode"])
    assert modes == {0: {"none"}, 1: {"none"}, **{s: {"exact_banded"} for s in range(2, 6)}}


def test_solve_passes_the_keys_it_sets_to_the_solver(tmp_path, monkeypatch):
    configs = []
    run = cli.run_continuation

    def spy(obj, config, schedule, **kwargs):
        configs.append(config)
        return run(obj, config, schedule, **kwargs)

    monkeypatch.setattr(cli, "run_continuation", spy)
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CONFIG)
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    (config,) = configs
    # keys the file sets reach the solver; the others keep SolverConfig's defaults
    assert (config.grad_tol, config.max_outer) == (1e-6, 40)
    assert config.eta == SolverConfig().eta


L1_DENSE_CONFIG = ("problem = l1-dense\nsize = 32\nsampling_ratio = 0.5\n"
                   "c = 1e-1\nmu = 1e-2\nseed = 3\nmax_outer = 60\n")


def test_solve_l1_dense_problem(tmp_path):
    cfg = tmp_path / "l1.cfg"
    cfg.write_text(L1_DENSE_CONFIG)
    out_dir = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert "relative_error" in (out_dir / "metrics.txt").read_text()
    assert not (out_dir / "reconstruction.pgm").exists()


def run_with_reader_gone(args):
    """Run ``python args`` on the sources with stdout's read end already
    closed, as in ``csnewton ... | head -1`` once head has left."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, *args], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=300)
    finally:
        os.close(write_end)


def test_solve_keeps_its_status_when_the_reader_left(tmp_path):
    # `csnewton solve ... | head -1`: stdout's reader is gone before the
    # metrics are written; the converged solve still exits 0, quietly
    cfg = tmp_path / "l1.cfg"
    cfg.write_text(L1_DENSE_CONFIG)
    proc = run_with_reader_gone(["-m", "csnewton.cli", "solve", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    assert "converged = True" in (tmp_path / "out" / "metrics.txt").read_text()


@pytest.mark.parametrize("problem", ["itv", "l1-dense"])
@pytest.mark.parametrize("ratio", ["0", "1.5", "nan"])
def test_solve_rejects_sampling_ratio_outside_unit_interval(tmp_path, capsys, problem, ratio):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"problem = {problem}\nsize = 16\nsampling_ratio = {ratio}\n")
    with pytest.raises(cli.ConfigError, match="sampling_ratio must lie in"):
        cli.parse_config(cfg)
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "sampling_ratio must lie in (0, 1]" in err and "solve aborted" not in err
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_solve_rejects_nonpositive_max_outer(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SOLVE_CONFIG + "\nmax_outer = -1\n")
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "max_outer" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "max_outer = 0", "mu = 0", "size = 8", "eta = 0", "size 32", "size = big", "problem = l2",
    "precond = ilu", "continuation = maybe",
])
def test_solve_config_error_creates_no_out_dir(tmp_path, capsys, setting):
    # a bad solver, objective or problem setting is reported before --out-dir exists
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SOLVE_CONFIG + f"\n{setting}\n")
    out_dir = tmp_path / "fresh"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize("setting, named", [
    ("grad_tol = nan", "grad_tol"), ("grad_tol = inf", "grad_tol"), ("c = inf", "c = inf"),
    ("mu = inf", "mu = inf"), ("target_psnr = nan", "target_psnr"),
    ("target_psnr = -inf", "target_psnr"), ("target_psnr = 10000", "target_psnr"),
])
def test_solve_rejects_nonfinite_settings(tmp_path, capsys, setting, named):
    # each would otherwise run a solve: to max_outer (grad_tol = nan), to
    # x = 0 (grad_tol = inf), or until a stage aborted (the others)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SOLVE_CONFIG + f"\n{setting}\n")
    out_dir = tmp_path / "fresh"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert_one_error_line(capsys.readouterr().err, named)
    assert not out_dir.exists()


@pytest.mark.parametrize("setting, named", [
    ("mu = 0", "mu = 0.0"), ("c = inf", "c = inf"), ("mu = inf", "mu = inf"),
    ("c = nan", "c = nan"), ("eta = 0", "eta"), ("target_psnr = 10000", "target_psnr"),
    # the config reader also rejects the image and target_psnr that l1-dense ignores
    ("problem = l1-dense", "takes no image or target_psnr"),
])
def test_bad_setting_makes_no_file(tmp_path, capsys, setting, named):
    # the objective checks c and mu, the solver config eta, and the config
    # reader target_psnr; each before solve or spectrum makes a file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SOLVE_CONFIG + f"\n{setting}\n")
    out_dir, out = tmp_path / "fresh", tmp_path / "s.csv"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert_one_error_line(capsys.readouterr().err, named)
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, named)
    assert not out_dir.exists() and not out.exists()


def test_solve_exits_1_when_its_trace_fails_the_invariants(tmp_path, capsys, monkeypatch):
    from csnewton import diagnostics
    from csnewton.diagnostics import InvariantReport

    def corrupted(trace):
        rep = InvariantReport(checked_records=len(trace))
        rep.violations.append("stage 0 iter 1: dual box violated, |g|_inf = 1.5")
        return rep

    monkeypatch.setattr(diagnostics, "check_solver_invariants", corrupted)
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
    # a converged solve writes all its outputs first
    assert "converged = True" in capsys.readouterr().out
    metrics = (out / "metrics.txt").read_text()
    assert "invariants = fail (1 violations)" in metrics
    assert (out / "trace.csv").exists() and (out / "reconstruction.pgm").exists()


def test_solve_missing_config(tmp_path):
    assert run_cli(["solve", "--config", str(tmp_path / "absent.cfg"),
                    "--out-dir", str(tmp_path)]) == 2


def assert_one_error_line(err: str, *fragments: str):
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "Traceback" not in err and "solve aborted" not in err
    for fragment in fragments:
        assert fragment in err, err


def test_solve_rejects_out_dir_that_is_a_file(tmp_path, capsys):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(taken)]) == 2
    assert_one_error_line(capsys.readouterr().err, "taken")


def test_solve_aborts_when_the_solver_raises(tmp_path, capsys, monkeypatch):
    # a config error never says "solve aborted" (above); a solver failure
    # always does, with the solver's own message
    def broken(obj, config, schedule, **kwargs):
        raise FloatingPointError("non-finite PCG residual")

    monkeypatch.setattr(cli, "run_continuation", broken)
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CONFIG)
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: solve aborted: non-finite PCG residual\n"
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_continuation_off_matches_on_at_tight_tolerance(tmp_path):
    # both paths find the same minimizer on a tiny smooth instance
    base = """
problem = itv
image = phantom
size = 16
sampling_ratio = 0.5
target_psnr = inf
c = 1e-1
mu = 1e-1
precond = none
seed = 3
grad_tol = 1e-10
max_outer = 60
"""
    recons = {}
    for mode in ("on", "off"):
        cfg = tmp_path / f"c_{mode}.cfg"
        cfg.write_text(base + f"continuation = {mode}\n")
        out = tmp_path / mode
        assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        recons[mode] = cli.read_pgm(out / "reconstruction.pgm")
    err = np.linalg.norm(recons["on"] - recons["off"]) / np.linalg.norm(recons["off"])
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


def test_spectrum_command(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "spec.csv"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out), "--every", "3"]) == 0
    assert b"\r" not in out.read_bytes()
    with open(out) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:6] == ["system", "stage", "iter", "index", "raw_lambda", "precond_lambda"]
    assert {"sigma", "delta", "chi", "bound", "bound_kernel"} <= set(header)
    assert header[-1] == "kernel_residual"
    data = np.array([[float(r[4]), float(r[5])] for r in rows[1:]])
    assert np.all(np.isfinite(data))
    assert np.all(data[:, 0] > 0)
    # with every analysis row in the small-diagonal set (sigma = n = 256)
    # no eigenvector survives outside it; past that, some do
    residuals = {}
    for r in rows[1:]:
        residuals.setdefault((r[0], int(r[6])), []).append(float(r[-1]))
    assert 256 in {sigma for _, sigma in residuals} and min(s for _, s in residuals) < 256
    for (_, sigma), values in residuals.items():
        assert all(0.0 <= v < np.inf for v in values)
        assert (max(values) == 0.0) == (sigma == 256)


@pytest.mark.parametrize("every", ["0", "-2"])
def test_spectrum_rejects_every_below_one(tmp_path, capsys, every):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "s.csv"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out), "--every", every]) == 2
    assert "--every must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("nu", ["-1", "0", "nan", "inf"])
def test_spectrum_rejects_nu_not_positive_and_finite(tmp_path, capsys, monkeypatch, nu):
    def no_solve(*args, **kwargs):
        pytest.fail("spectrum solved with a bad --nu")

    monkeypatch.setattr(cli, "_run_solve", no_solve)
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "s.csv"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out), "--nu", nu]) == 2
    assert_one_error_line(capsys.readouterr().err, "--nu must be positive and finite")
    assert not out.exists()


def test_spectrum_rejects_missing_out_dir(tmp_path, capsys):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "missing" / "s.csv"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out), "--every", "50"]) == 2
    assert_one_error_line(capsys.readouterr().err, "missing")


def test_spectrum_checks_out_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        pytest.fail("spectrum solved before it opened --out")

    monkeypatch.setattr(cli, "_run_solve", no_solve)
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "missing" / "s.csv"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out), "--every", "50"]) == 2
    assert_one_error_line(capsys.readouterr().err, "missing")


def test_spectrum_aborted_solve_leaves_no_csv(tmp_path, capsys, monkeypatch):
    def broken(obj, config, schedule, **kwargs):
        raise FloatingPointError("non-finite PCG residual")

    monkeypatch.setattr(cli, "run_continuation", broken)
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "s.csv"
    # --out through a link, as /dev/stdout is: the link itself stays
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    for path in (out, link):
        assert run_cli(["spectrum", "--config", str(cfg), "--out", str(path), "--every", "50"]) == 2
        assert capsys.readouterr().err == "error: solve aborted: non-finite PCG residual\n"
    assert not out.exists()
    assert link.is_symlink()


def test_spectrum_keeps_its_status_when_the_reader_left(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "s.csv"
    proc = run_with_reader_gone(["-m", "csnewton.cli", "spectrum", "--config", str(cfg),
                                 "--out", str(out), "--every", "50"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert out.read_text().startswith("system,stage,iter,index")


def test_spectrum_rejects_large_problem(tmp_path, capsys):
    # n comes from the problem built: a 65x65 PGM is too large even though
    # the config's size (16) is not
    image = tmp_path / "big.pgm"
    cli.write_pgm(image, shepp_logan(65, 65))
    for text in (SOLVE_CONFIG.replace("size = 16", "size = 128"),
                 SOLVE_CONFIG.replace("image = phantom", f"image = {image}")):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(text)
        out = tmp_path / "s.csv"
        assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert "spectrum needs n <= 4096, got" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
def test_spectrum_exports_every_kth_step_of_each_stage(tmp_path):
    # the systems are numbered 0, 1, ... in the order the solve built them,
    # and are those of the steps k = outer_iter - 1 with k % --every == 0
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "spec.csv"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out), "--every", "2"]) == 0
    with open(out) as fh:
        triples = [(int(r["system"]), int(r["stage"]), int(r["iter"])) for r in csv.DictReader(fh)]
    systems = list(dict.fromkeys(triples))
    assert [idx for idx, _, _ in systems] == list(range(len(systems)))
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "trace.csv") as fh:
        steps = [(int(r["stage"]), int(r["outer_iter"]) - 1) for r in csv.DictReader(fh)]
    assert len({stage for stage, _ in steps}) > 1
    assert [(stage, k) for _, stage, k in systems] == [(s, k) for s, k in steps if k % 2 == 0]


# check command
# ---------------------------------------------------------------------------


def test_check_all_passes(capsys):
    assert run_cli(["check", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "PASS derivatives/gradient" in out
    assert "PASS invariants/invariants" in out
    assert "PASS rate/superlinear_tail" in out
    # the 32x32 phantom at the solve defaults, at both instance seeds
    assert "PASS rate/phantom32_seed0" in out and "PASS rate/phantom32_seed1" in out
    assert "FAIL" not in out


def test_check_reports_failure(monkeypatch, capsys):
    from csnewton import diagnostics
    from csnewton.diagnostics import InvariantReport

    def corrupted(trace):
        rep = InvariantReport(checked_records=len(trace))
        rep.violations.append("stage 0 iter 1: dual box violated, |g|_inf = 1.5")
        return rep

    monkeypatch.setattr(diagnostics, "check_solver_invariants", corrupted)
    assert run_cli(["check", "--suite", "invariants"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli(["check", "--suite", "nonsense"])
    assert err.value.code == 2


def test_check_runs_every_suite_when_the_reader_left():
    # `csnewton check --suite all | head -1`: the first line goes out, the
    # reader leaves, and the other suites still run to the real status
    proc = run_with_reader_gone(["-m", "csnewton.cli", "check", "--suite", "all"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""


def test_check_reports_failure_when_the_reader_left():
    script = """
import sys
from csnewton import cli, diagnostics
from csnewton.diagnostics import InvariantReport

def corrupted(trace):
    rep = InvariantReport(checked_records=len(trace))
    rep.violations.append("stage 0 iter 1: dual box violated, |g|_inf = 1.5")
    return rep

diagnostics.check_solver_invariants = corrupted
sys.exit(cli.main(["check", "--suite", "all"]))
"""
    proc = run_with_reader_gone(["-c", script])
    assert proc.returncode == 1, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
