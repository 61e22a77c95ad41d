import numpy as np
import pytest

from csnewton.krylov import RECHECK_EVERY, NegativeCurvatureError, NonFiniteError, pcg_solve
from pcg_reference import reference_pcg_solve


def test_identity_converges_in_one_iteration():
    rhs = np.array([3.0, -1.0, 2.0])
    out = pcg_solve(lambda v: v, rhs, eta=1e-12, cap=10)
    assert out.converged and out.iterations == 1
    np.testing.assert_allclose(out.solution, rhs, rtol=1e-14)


def test_diagonal_system():
    d = np.array([1.0, 2.0, 4.0])
    out = pcg_solve(lambda v: d * v, d.copy(), eta=1e-14, cap=10)
    assert out.converged
    np.testing.assert_allclose(out.solution, np.ones(3), rtol=1e-12)


def test_random_spd_matches_direct_solve():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((10, 10))
    a = m.T @ m + np.eye(10)
    rhs = rng.standard_normal(10)
    out = pcg_solve(lambda v: a @ v, rhs, eta=1e-10, cap=500)
    direct = np.linalg.solve(a, rhs)
    assert out.converged
    assert np.linalg.norm(out.solution - direct) <= 1e-8 * np.linalg.norm(direct)


def test_zero_rhs_returns_zero():
    out = pcg_solve(lambda v: 2 * v, np.zeros(4), cap=10)
    assert out.converged and out.iterations == 0
    np.testing.assert_array_equal(out.solution, np.zeros(4))
    np.testing.assert_array_equal(out.op_solution, np.zeros(4))


def test_energy_identity_with_zero_start():
    # returned x satisfies x^T A x = x^T rhs at any eta (identity accuracy
    # is conditioning-limited in floating point, hence the moderate kappa)
    rng = np.random.default_rng(1)
    m = rng.standard_normal((30, 30))
    a = m.T @ m + 10.0 * np.eye(30)
    rhs = rng.standard_normal(30)
    for eta in (0.5, 0.1, 1e-6):
        out = pcg_solve(lambda v: a @ v, rhs, eta=eta, cap=500)
        x = out.solution
        lhs = x @ (a @ x)
        rhs_val = x @ rhs
        assert abs(lhs - rhs_val) <= 1e-10 * max(1.0, abs(rhs_val))


def test_exact_inverse_preconditioner_one_iteration():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((12, 12))
    a = m.T @ m + np.eye(12)
    inv = np.linalg.inv(a)
    rhs = rng.standard_normal(12)
    out = pcg_solve(lambda v: a @ v, rhs, precond=lambda r: inv @ r, eta=1e-8, cap=10)
    assert out.converged and out.iterations == 1


def test_residual_drift_guard():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((60, 60))
    a = m.T @ m + 1e-3 * np.eye(60)
    rhs = rng.standard_normal(60)
    out = pcg_solve(lambda v: a @ v, rhs, eta=1e-12, cap=400)
    assert out.max_residual_drift <= 1e-8


def test_true_residual_enforced_on_exit():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((40, 40))
    a = m.T @ m + 1e-2 * np.eye(40)
    rhs = rng.standard_normal(40)
    eta = 1e-6
    out = pcg_solve(lambda v: a @ v, rhs, eta=eta, cap=1000)
    assert out.converged
    true_resid = np.linalg.norm(a @ out.solution - rhs)
    assert true_resid <= eta * np.linalg.norm(rhs) * (1 + 1e-10)


def test_exit_on_recheck_iteration_applies_op_once():
    # the periodic recheck and the exit gate share one explicit residual, so
    # no two consecutive op calls see the same x
    d = np.geomspace(1.0, 1e3, 50)
    inputs = []

    def op(v):
        inputs.append(v.copy())
        return d * v

    out = pcg_solve(op, np.ones(50), eta=10**-9.5, cap=200)
    assert out.converged and out.iterations == 2 * RECHECK_EVERY
    # one op call per iteration plus the rechecks at iterations 50 and 100
    assert len(inputs) == out.iterations + 2
    assert not any(np.array_equal(a, b) for a, b in zip(inputs, inputs[1:]))


def test_negative_curvature_flagged():
    # the first direction is the rhs, whose curvature 0.09 - 1 is negative
    a = np.diag([1.0, -1.0])
    with pytest.raises(NegativeCurvatureError, match=r"p\^T op\(p\) = -0\.91 at iteration 1"):
        pcg_solve(lambda v: a @ v, np.array([0.3, 1.0]), eta=1e-10, cap=10)


def test_nonfinite_raises():
    def bad(v):
        return v * np.nan

    with pytest.raises(NonFiniteError):
        pcg_solve(bad, np.ones(3), eta=0.1, cap=10)


def test_nonfinite_residual_raises():
    # the curvature 0.5 is finite, but the step 2 overflows r's second entry
    def op(v):
        return np.array([0.5 * v[0], 1e308 * v[0]])

    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="non-finite residual"):
        pcg_solve(op, np.array([1.0, 0.0]), eta=0.1, cap=10)


def test_nonfinite_preconditioned_residual_raises():
    calls = []

    def precond(r):
        calls.append(r)
        return r if len(calls) == 1 else r * np.inf

    with pytest.raises(NonFiniteError, match="non-finite preconditioned residual at iteration 1"):
        pcg_solve(lambda v: np.array([1.0, 2.0]) * v, np.ones(2), precond=precond, eta=1e-10,
                  cap=10)


def test_cap_reached_reports_not_converged():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((50, 50))
    a = m.T @ m + 1e-8 * np.eye(50)
    out = pcg_solve(lambda v: a @ v, rng.standard_normal(50), eta=1e-14, cap=3)
    assert not out.converged and out.iterations == 3


def test_eta_validation():
    with pytest.raises(ValueError):
        pcg_solve(lambda v: v, np.ones(2), eta=1.0, cap=10)


def _spd(n, seed, shift):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return m.T @ m + shift * np.eye(n)


def _case(name):
    """(op, rhs, precond, eta, cap) for one reference comparison."""
    rng = np.random.default_rng(7)
    if name == "plain":
        a = _spd(60, 1, 1e-2)
        return (lambda v: a @ v), rng.standard_normal(60), None, 1e-8, 400
    if name == "preconditioned":
        a = _spd(60, 2, 1e-2)
        inv_diag = 1.0 / np.diag(a)
        return (lambda v: a @ v), rng.standard_normal(60), (lambda r: inv_diag * r), 1e-8, 400
    if name == "recheck_exit":
        d = np.geomspace(1.0, 1e3, 50)
        return (lambda v: d * v), np.ones(50), None, 10**-9.5, 200
    if name == "truncated":
        a = _spd(200, 3, 1.0)
        return (lambda v: a @ v), rng.standard_normal(200), None, 0.0, 15
    if name == "negative_curvature":
        a = np.diag([1.0, 2.0, -1.0])
        return (lambda v: a @ v), np.array([1.0, 1.0, 0.1]), None, 1e-10, 10
    if name == "zero_rhs":
        return (lambda v: 2 * v), np.zeros(4), None, 0.1, 10
    raise KeyError(name)


@pytest.mark.parametrize(
    "name",
    ["plain", "preconditioned", "recheck_exit", "truncated", "negative_curvature", "zero_rhs"],
)
def test_matches_reference_loop_bitwise(name):
    op, rhs, precond, eta, cap = _case(name)
    if name == "negative_curvature":
        with pytest.raises(NegativeCurvatureError) as got:
            pcg_solve(op, rhs, precond, eta, cap=cap)
        with pytest.raises(NegativeCurvatureError) as want:
            reference_pcg_solve(op, rhs, precond, eta, cap=cap)
        # the message holds p^T op(p) and the iteration: both loops stop at
        # the same direction with the same curvature
        assert str(got.value) == str(want.value)
        return
    got = pcg_solve(op, rhs, precond, eta, cap=cap)
    want = reference_pcg_solve(op, rhs, precond, eta, cap=cap)
    assert got.solution.tobytes() == want.solution.tobytes()
    # the drift is a nonnegative float, so == is bit equality
    fields = ("iterations", "converged", "max_residual_drift")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    # a converged exit returns the op(x) its gate formed; no other exit does
    if got.converged:
        assert got.op_solution.tobytes() == op(got.solution).tobytes()
    else:
        assert got.op_solution is None
    if name == "recheck_exit":
        assert want.iterations == 2 * RECHECK_EVERY and want.converged
    if name == "truncated":
        assert want.iterations == 15 and not want.converged


def _recording(a):
    """op v -> a @ v that keeps a copy of every input."""
    inputs = []

    def op(v):
        inputs.append(v.copy())
        return a @ v

    return op, inputs


def _worst_conjugacy(a, directions, lag):
    """Largest |p_k^T a p_{k-lag}| / (||p_k||_a ||p_{k-lag}||_a)."""
    worst = 0.0
    for p, prev in zip(directions[lag:], directions):
        cos = abs(p @ a @ prev) / np.sqrt((p @ a @ p) * (prev @ a @ prev))
        worst = max(worst, cos)
    return worst


def test_flexible_directions_stay_conjugate_under_truncated_inner_cg():
    # a few zero-start CG sweeps are a nonlinear preconditioner; FCG(2)
    # orthogonalizes each direction against the previous two, which the
    # standard recurrence does not achieve under such a preconditioner
    a = _spd(80, 11, 1.0)
    m = _spd(80, 12, 1.0)

    def inner_cg(r):
        return pcg_solve(lambda v: m @ v, r, eta=0.0, cap=4).solution

    rhs = np.random.default_rng(13).standard_normal(80)
    worst = {}
    for flexible in (False, True):
        op, inputs = _recording(a)
        # eta = 0 and cap < RECHECK_EVERY: op sees the search directions only
        out = pcg_solve(op, rhs, inner_cg, 0.0, cap=30, flexible=flexible)
        assert out.iterations == 30 and len(inputs) == 30
        worst[flexible] = max(_worst_conjugacy(a, inputs, lag) for lag in (1, 2))
    assert worst[True] <= 1e-10
    assert worst[False] > 1e-6


def test_flexible_matches_standard_under_a_linear_preconditioner():
    a = _spd(60, 2, 1e-2)
    inv_diag = 1.0 / np.diag(a)
    rhs = np.random.default_rng(14).standard_normal(60)
    eta = 1e-10
    outs = [pcg_solve(lambda v: a @ v, rhs, lambda r: inv_diag * r, eta, cap=400,
                      flexible=flexible) for flexible in (False, True)]
    assert all(out.converged for out in outs)
    standard, flexible = (out.solution for out in outs)
    assert np.linalg.norm(a @ (flexible - standard)) <= 2 * eta * np.linalg.norm(rhs)
    assert abs(outs[0].iterations - outs[1].iterations) <= 1
