import csv

import numpy as np
import pytest

from csnewton import cli
from csnewton.problems import shepp_logan


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


def test_phantom_rejects_bad_size(tmp_path):
    assert run_cli(["phantom", "--size", "4", "--out", str(tmp_path / "x.pgm")]) == 2


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
    with open(out_dir / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.TRACE_COLUMNS
    assert len(rows) > 1
    # each row carries its stage's forcing term: exact_banded runs only in
    # the last stage (mu = 1e-2), and there with eta = 1e-2
    records = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert {(r["stage"], float(r["eta"])) for r in records} == {("0", 0.1), ("1", 0.1), ("2", 1e-2)}
    assert {r["pcg_converged"] for r in records} == {"1"}
    # PCG rechecks its residual explicitly only at exit at this size, where
    # the recurrence and the true residual agree to rounding
    drifts = [float(r["max_residual_drift"]) for r in records]
    assert all(0.0 <= d <= 1e-8 for d in drifts) and max(drifts) > 0.0
    metrics = (out_dir / "metrics.txt").read_text()
    assert "psnr_db" in metrics and "total_matvecs" in metrics


def test_solve_deterministic(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CONFIG)
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    run_cli(["solve", "--config", str(cfg), "--out-dir", str(d1)])
    run_cli(["solve", "--config", str(cfg), "--out-dir", str(d2)])
    assert (d1 / "reconstruction.pgm").read_bytes() == (d2 / "reconstruction.pgm").read_bytes()


def test_solve_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SOLVE_CONFIG + "\nbogus_key = 1\n")
    out_dir = tmp_path / "nope"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert not (out_dir / "reconstruction.pgm").exists()
    assert not (out_dir / "trace.csv").exists()


def test_solve_l1_dense_problem(tmp_path):
    cfg = tmp_path / "l1.cfg"
    cfg.write_text("problem = l1-dense\nsize = 32\nsampling_ratio = 0.5\n"
                   "c = 1e-1\nmu = 1e-2\nseed = 3\nmax_outer = 60\n")
    out_dir = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert "relative_error" in (out_dir / "metrics.txt").read_text()
    assert not (out_dir / "reconstruction.pgm").exists()


def test_solve_rejects_nonpositive_max_outer(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SOLVE_CONFIG + "\nmax_outer = -1\n")
    assert run_cli(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "max_outer" in capsys.readouterr().err


def test_solve_missing_config(tmp_path):
    assert run_cli(["solve", "--config", str(tmp_path / "absent.cfg"),
                    "--out-dir", str(tmp_path)]) == 2


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
    with open(out) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:6] == ["system", "stage", "iter", "index", "raw_lambda", "precond_lambda"]
    assert {"sigma", "delta", "chi", "bound", "bound_kernel"} <= set(header)
    data = np.array([[float(r[4]), float(r[5])] for r in rows[1:]])
    assert np.all(np.isfinite(data))
    assert np.all(data[:, 0] > 0)


@pytest.mark.parametrize("every", ["0", "-2"])
def test_spectrum_rejects_every_below_one(tmp_path, capsys, every):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / "s.csv"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out), "--every", every]) == 2
    assert "--every must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_rejects_large_problem(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SOLVE_CONFIG.replace("size = 16", "size = 128"))
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------


def test_check_all_passes(capsys):
    assert run_cli(["check", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "PASS derivatives/gradient" in out
    assert "PASS invariants/invariants" in out
    assert "PASS rate/superlinear_tail" in out
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
