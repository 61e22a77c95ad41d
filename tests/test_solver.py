import numpy as np
import pytest
from hessian_oracle import hess_f_matvec

from csnewton.krylov import NegativeCurvatureError, NonFiniteError, pcg_solve
from csnewton.linops import (
    dense_columns,
    make_dense_dictionary,
    make_gradient2d,
)
from csnewton.smoothing import SmoothedObjective, build_D, objective_value
from csnewton.solver import (
    MAX_BACKTRACKS,
    NewtonSystem,
    SolverConfig,
    fresh_state,
    line_search,
    project_linf,
    solve_subproblem,
)


def small_instance(rng, n=16, m=10, mu=1e-2, c=0.1, complex_w=False, l=None):
    l = l or n + 8
    g = rng.standard_normal((n, l))
    if complex_w:
        g = g + 1j * rng.standard_normal((n, l))
    W = make_dense_dictionary(g)
    A = make_dense_dictionary(rng.standard_normal((m, n)) / np.sqrt(n))
    b = A.apply(rng.standard_normal(n))
    return SmoothedObjective(c=c, mu=mu, A=A, W=W, b=b)


@pytest.mark.parametrize("field,value", [
    ("eta", 1.0), ("precond_mode", "bogus"), ("eta_schedule", "bogus"),
    ("max_outer", 0), ("max_outer", -1), ("grad_tol", -1.0),
    ("grad_tol", float("nan")), ("grad_tol", float("inf")), ("eta", 0.0),
])
def test_solver_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["tau1", "tau2", "rho"])
def test_solver_config_has_no_fixed_settings(field):
    # the Armijo pair and the preconditioner shift are module constants
    with pytest.raises(TypeError, match=field):
        SolverConfig(**{field: 0.5})


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_linf_cases():
    np.testing.assert_allclose(project_linf(np.array([0.5])), [0.5])
    np.testing.assert_allclose(project_linf(np.array([3.0 + 4.0j])), [0.6 + 0.8j])
    np.testing.assert_allclose(project_linf(np.array([-2.0 + 0j])), [-1.0])
    np.testing.assert_array_equal(project_linf(np.array([0.0 + 0j])), [0.0])


def test_project_linf_random_bound():
    rng = np.random.default_rng(0)
    u = 3 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    v = project_linf(u)
    assert np.max(np.abs(v)) <= 1.0 + 1e-15
    inside = np.abs(u) <= 1
    np.testing.assert_array_equal(v[inside], u[inside])


# ---------------------------------------------------------------------------
# Bhat and the dual step
# ---------------------------------------------------------------------------


def test_bhat_zero_point_identity_dictionary():
    # x = 0, g = 0, W = I (real), A = 0, c = 1: Bhat v = v / mu
    mu = 0.25
    W = make_dense_dictionary(np.eye(3))
    A = make_dense_dictionary(np.zeros((2, 3)))
    obj = SmoothedObjective(c=1.0, mu=mu, A=A, W=W, b=np.zeros(2))
    state = fresh_state(obj)
    system = NewtonSystem(obj, state.x, state.g)
    v = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(system.bhat_matvec(v), v / mu, rtol=1e-14)


@pytest.mark.parametrize("complex_w", [False, True])
def test_bhat_equals_hessian_at_central_duals(complex_w):
    rng = np.random.default_rng(1)
    obj = small_instance(rng, complex_w=complex_w)
    x = rng.standard_normal(obj.n)
    system = NewtonSystem.at_central_duals(obj, x)
    for _ in range(10):
        v = rng.standard_normal(obj.n)
        hv = hess_f_matvec(obj, x, v)
        assert np.linalg.norm(system.bhat_matvec(v) - hv) <= 1e-10 * np.linalg.norm(hv)


def test_bhat_symmetry_at_generic_duals():
    rng = np.random.default_rng(2)
    obj = small_instance(rng, complex_w=True)
    x = rng.standard_normal(obj.n)
    g = project_linf(rng.standard_normal(obj.W.cols) + 1j * rng.standard_normal(obj.W.cols))
    system = NewtonSystem(obj, x, g)
    for _ in range(10):
        u = rng.standard_normal(obj.n)
        v = rng.standard_normal(obj.n)
        lhs = u @ system.bhat_matvec(v)
        rhs = v @ system.bhat_matvec(u)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_dual_step_fixed_point_at_central_duals():
    rng = np.random.default_rng(3)
    obj = small_instance(rng, complex_w=True)
    system = NewtonSystem.at_central_duals(obj, rng.standard_normal(obj.n))
    dg = system.dual_step(np.zeros(obj.W.cols))
    assert np.max(np.abs(dg.real)) <= 1e-14
    assert np.max(np.abs(dg.imag)) <= 1e-14


def test_dual_step_zero_point_identity_dictionary():
    mu = 0.2
    W = make_dense_dictionary(np.eye(3))
    A = make_dense_dictionary(np.zeros((2, 3)))
    obj = SmoothedObjective(c=1.0, mu=mu, A=A, W=W, b=np.zeros(2))
    state = fresh_state(obj)
    dx = np.array([0.3, -0.1, 0.7])
    dg = NewtonSystem(obj, state.x, state.g).dual_step(W.adjoint_apply(dx))
    np.testing.assert_allclose(dg.real, dx / mu, rtol=1e-14)
    np.testing.assert_array_equal(dg.imag, np.zeros(3))


def gradient_instance(rng, n1=6, n2=4, m=10, mu=1e-2, c=0.1):
    n = n1 * n2
    A = make_dense_dictionary(rng.standard_normal((m, n)) / np.sqrt(n))
    b = A.apply(rng.standard_normal(n))
    return SmoothedObjective(c=c, mu=mu, A=A, W=make_gradient2d(n1, n2), b=b)


DUAL_STEP_INSTANCES = {
    "dense_complex": lambda rng: small_instance(rng, n=16, complex_w=True),
    "grad6x4": gradient_instance,
}


@pytest.mark.parametrize("kind", sorted(DUAL_STEP_INSTANCES))
def test_dual_step_matches_dense_formula(kind):
    # dense evaluation of the linearized dual update at a generic point
    rng = np.random.default_rng(4)
    obj = DUAL_STEP_INSTANCES[kind](rng)
    x = rng.standard_normal(obj.n)
    dx = rng.standard_normal(obj.n)
    g = project_linf(rng.standard_normal(obj.W.cols) + 1j * rng.standard_normal(obj.W.cols))
    g_re, g_im = np.real(g), np.imag(g)
    system = NewtonSystem(obj, x, g)

    wd = dense_columns(obj.W.apply, obj.W.cols)
    p = wd.conj().T.real  # maps v -> Re(W* v)
    q = wd.conj().T.imag  # maps v -> Im(W* v)
    y = wd.conj().T @ x
    d = build_D(y, obj.mu)
    a, b = p @ x, q @ x
    b1 = d * g_re * a
    b2 = d * g_re * b
    b3 = d * g_im * a
    b4 = d * g_im * b
    expect_re = d * (1 - b1) * (p @ dx) - d * b2 * (q @ dx) - g_re + d * a
    expect_im = d * (1 - b4) * (q @ dx) - d * b3 * (p @ dx) - g_im + d * b

    dg = system.dual_step(obj.W.adjoint_apply(dx))
    np.testing.assert_allclose(dg.real, expect_re, rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(dg.imag, expect_im, rtol=1e-11, atol=1e-12)
    # the same update in complex arithmetic, sharing no channel code
    ydx = wd.conj().T @ dx
    expect = d * (y + ydx) - g * (1 + d**2 * np.real(np.conj(y) * ydx))
    np.testing.assert_allclose(dg, expect, rtol=1e-11, atol=1e-12)


# ---------------------------------------------------------------------------
# line search
# ---------------------------------------------------------------------------


def test_line_search_exact_newton_on_quadratic():
    # pure least squares: f is quadratic with Hessian Bhat; full step accepted
    rng = np.random.default_rng(5)
    n = 8
    a_mat = rng.standard_normal((12, n))
    A = make_dense_dictionary(a_mat)
    W = make_dense_dictionary(np.eye(n))
    b = rng.standard_normal(12)
    obj = SmoothedObjective(c=1e-12, mu=1.0, A=A, W=W, b=b)  # regularizer negligible
    x = rng.standard_normal(n)
    h = a_mat.T @ a_mat + 1e-12 * np.eye(n)
    grad = a_mat.T @ (a_mat @ x - b)
    dx = np.linalg.solve(h, -grad)
    energy = dx @ (h @ dx)
    res = line_search(obj, x, W.adjoint_apply(x), dx, W.adjoint_apply(dx), energy)
    assert res.accepted and res.backtracks == 0 and res.alpha == 1.0


def test_line_search_zero_direction_degenerate():
    rng = np.random.default_rng(6)
    obj = small_instance(rng)
    x = rng.standard_normal(obj.n)
    res = line_search(obj, x, obj.W.adjoint_apply(x), np.zeros(obj.n), np.zeros(obj.W.cols), 0.0)
    assert res.accepted and res.backtracks == 0 and res.alpha == 1.0


def test_line_search_rejects_a_nonfinite_trial():
    # f(x + dx) overflows for a step of 1e200 in every entry
    rng = np.random.default_rng(8)
    obj = small_instance(rng)
    x, dx = np.zeros(obj.n), np.full(obj.n, 1e200)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="at j=0"):
        line_search(obj, x, obj.W.adjoint_apply(x), dx, obj.W.adjoint_apply(dx), energy=1.0)


def test_line_search_exhaustion_flagged():
    # ascent direction with fake positive energy can never satisfy the test;
    # exhaustion is flagged and returns the zero step at f(x)
    rng = np.random.default_rng(7)
    obj = small_instance(rng)
    x = rng.standard_normal(obj.n)
    from csnewton.smoothing import objective_grad

    up = objective_grad(obj, x)
    res = line_search(obj, x, obj.W.adjoint_apply(x), up, obj.W.adjoint_apply(up), energy=1.0)
    assert not res.accepted
    assert res.backtracks == MAX_BACKTRACKS
    assert res.alpha == 0.0
    assert res.f_new == pytest.approx(objective_value(obj, x), rel=1e-12)


# ---------------------------------------------------------------------------
# full subproblem solves
# ---------------------------------------------------------------------------


def test_rejected_line_search_leaves_x(monkeypatch):
    # with a single trial step some full Newton steps fail; none may move x
    import csnewton.solver

    calls = []
    search = csnewton.solver.line_search

    def spy(obj, x, *args):
        res = search(obj, x, *args)
        calls.append((x.copy(), res))
        return res

    monkeypatch.setattr(csnewton.solver, "MAX_BACKTRACKS", 0)
    monkeypatch.setattr(csnewton.solver, "line_search", spy)
    obj = small_instance(np.random.default_rng(0), mu=1e-4)
    state = solve_subproblem(obj, SolverConfig(max_outer=30))
    assert state.converged
    rejected = [i for i, (_, res) in enumerate(calls) if not res.accepted]
    assert rejected and rejected[-1] < len(calls) - 1
    for i in rejected:
        x, res = calls[i]
        assert res.alpha == 0.0
        assert res.f_new == pytest.approx(objective_value(obj, x), rel=1e-12)
        np.testing.assert_array_equal(calls[i + 1][0], x)
    assert [r.accepted for r in state.trace] == [res.accepted for _, res in calls]
    fs = [r.f for r in state.trace]
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(fs, fs[1:]))


def test_capped_solve_pays_one_product_and_is_flagged(monkeypatch):
    # a converged PCG solve hands back Bhat dx from its exit gate; a capped
    # one does not, so the solver forms it once, counted as one PCG
    # iteration, and the record's residual shows the missed forcing term
    import csnewton.solver
    from csnewton.diagnostics import check_solver_invariants

    pcg = csnewton.solver.pcg_solve

    def capped(op, rhs, precond, eta, *, cap, flexible):
        return pcg(op, rhs, precond, eta, cap=2, flexible=flexible)

    monkeypatch.setattr(csnewton.solver, "pcg_solve", capped)
    obj = small_instance(np.random.default_rng(17), n=16, mu=1e-2)
    state = solve_subproblem(obj, SolverConfig(eta=1e-8, max_outer=3))
    assert len(state.trace) == 3 and not any(r.pcg_converged for r in state.trace)
    assert state.counters.pcg_iters == sum(r.pcg_iters + 1 for r in state.trace)
    assert all(r.energy > 0.0 for r in state.trace)
    violations = check_solver_invariants(state.trace).violations
    assert len(violations) == 3 and all("PCG residual" in v for v in violations)


def test_zero_data_terminates_immediately():
    rng = np.random.default_rng(8)
    obj = small_instance(rng)
    obj = SmoothedObjective(c=obj.c, mu=obj.mu, A=obj.A, W=obj.W, b=np.zeros(obj.A.rows))
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-10))
    assert state.trace == [] and state.converged
    np.testing.assert_array_equal(state.x, np.zeros(obj.n))


def dense_damped_newton(obj, tol=1e-12, iters=300):
    """Independent oracle: explicit Hessian assembly, direct solves, Armijo."""
    wd = dense_columns(obj.W.apply, obj.W.cols)
    ad = dense_columns(obj.A.apply, obj.A.cols)
    n = obj.n
    mu, c = obj.mu, obj.c
    x = np.zeros(n)
    for _ in range(iters):
        y = wd.conj().T @ x
        d = 1.0 / np.sqrt(mu * mu + np.abs(y) ** 2)
        g = c * np.real(wd @ (d * y)) + ad.T @ (ad @ x - obj.b)
        if np.linalg.norm(g) <= tol:
            break
        yhat = mu * mu * d**3 + d
        ytil = -(y * y) * d**3
        h = 0.5 * np.real(wd @ (yhat[:, None] * wd.conj().T) + wd @ (ytil[:, None] * wd.T))
        h = c * h + ad.T @ ad
        dx = np.linalg.solve(h, -g)
        t, f0 = 1.0, objective_value(obj, x)
        while objective_value(obj, x + t * dx) > f0 + 1e-4 * t * (g @ dx) and t > 1e-14:
            t *= 0.5
        x = x + t * dx
    return x


@pytest.mark.parametrize("complex_w", [False, True])
def test_solver_matches_dense_newton_oracle(complex_w):
    rng = np.random.default_rng(9)
    obj = small_instance(rng, n=16, mu=1e-3, c=0.1, complex_w=complex_w)
    oracle = dense_damped_newton(obj)
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-12, max_outer=300))
    assert state.converged
    assert np.linalg.norm(state.x - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_trace_invariants_on_healthy_run():
    from csnewton.continuation import make_schedule, run_continuation

    rng = np.random.default_rng(10)
    obj = small_instance(rng, n=16, mu=1e-2, c=0.1)
    config = SolverConfig(grad_tol=1e-10, max_outer=100, precond_mode="exact_banded")
    state = run_continuation(obj, config, make_schedule(0.1, 1e-2))
    assert state.converged
    assert all(r.accepted for r in state.trace)
    for stage in {r.stage for r in state.trace}:
        fs = [r.f for r in state.trace if r.stage == stage]
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(fs, fs[1:]))
        # sufficient decrease as accepted: f_new <= f_prev - tau2*alpha*energy,
        # with the recorded energy dx^T Bhat dx
        recs = [r for r in state.trace if r.stage == stage]
        for prev, rec in zip(fs, recs[1:]):
            assert rec.f <= prev - 1e-3 * rec.alpha * rec.energy + 1e-10 * max(1.0, abs(prev))
    assert all(r.dual_box <= 1.0 + 1e-12 for r in state.trace)
    for r in state.trace:
        assert r.energy > 0.0
        assert r.pcg_residual <= r.eta * r.grad_norm_in * (1 + 1e-10)


def test_dual_convergence_to_central_values():
    rng = np.random.default_rng(11)
    obj = small_instance(rng, n=12, mu=1e-2, c=0.1, complex_w=True)
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-10, max_outer=200))
    assert state.converged
    y = obj.W.adjoint_apply(state.x)
    d = build_D(y, obj.mu)
    assert np.max(np.abs(state.g.real - d * np.real(y))) <= 1e-5
    assert np.max(np.abs(state.g.imag - d * np.imag(y))) <= 1e-5


def test_bhat_approaches_hessian_at_termination():
    rng = np.random.default_rng(12)
    obj = small_instance(rng, n=12, mu=1e-2, c=0.1, complex_w=True)
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-10, max_outer=200))
    v = rng.standard_normal(obj.n)
    system = NewtonSystem(obj, state.x, state.g)
    gap = system.bhat_matvec(v) - hess_f_matvec(obj, state.x, v)
    assert np.linalg.norm(gap) / np.linalg.norm(v) <= 1e-4


def test_superlinear_tail_with_decreasing_eta():
    rng = np.random.default_rng(13)
    obj = small_instance(rng, n=16, mu=1e-2, c=0.1)
    config = SolverConfig(grad_tol=1e-10, max_outer=100, eta_schedule="decreasing")
    state = solve_subproblem(obj, config)
    from csnewton.diagnostics import rate_probe

    tail = rate_probe(state.trace)[-3:]
    assert len(tail) == 3
    assert tail[0] > tail[1] > tail[2]
    assert tail[2] < 0.1


def test_negative_curvature_flagged_for_invalid_duals():
    # duals far outside the box break positive definiteness; PCG must raise
    # on the nonpositive curvature instead of iterating on garbage
    rng = np.random.default_rng(14)
    obj = small_instance(rng, n=10, mu=1e-3, c=5.0)
    x = rng.standard_normal(obj.n)
    system = NewtonSystem(obj, x, 40.0 * np.ones(obj.W.cols))
    with pytest.raises(NegativeCurvatureError):
        pcg_solve(system.bhat_matvec, rng.standard_normal(obj.n), eta=1e-10, cap=50)


def test_entry_projection_protects_solver_from_bad_warm_start():
    # the same invalid duals passed through the public entry point are
    # projected back into the box, so the solve proceeds normally
    rng = np.random.default_rng(15)
    obj = small_instance(rng, n=10, mu=1e-2, c=0.1)
    state = fresh_state(obj)
    state.g = 40.0 * np.ones(obj.W.cols)
    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-8, max_outer=100), init=state)
    assert state.converged
    assert np.max(np.abs(state.g)) <= 1.0 + 1e-12


def test_snapshots_hold_the_systems_the_loop_built():
    # the loop rebinds x and the duals and never writes into them, so every
    # system the callback kept still holds what it was built with
    rng = np.random.default_rng(16)
    obj = small_instance(rng, n=12, mu=1e-2, c=0.1, complex_w=True)
    names = ("y", "g", "d1", "d4", "d23")
    systems = []

    def keep(stage, k, system):
        systems.append((k, system, {name: getattr(system, name).copy() for name in names}))

    state = solve_subproblem(obj, SolverConfig(grad_tol=1e-10, max_outer=200), on_system=keep)
    assert state.converged and len(systems) == len(state.trace) > 1
    np.testing.assert_array_equal(systems[0][1].y, np.zeros(obj.W.cols))  # x starts at 0
    for j, (k, s, copies) in enumerate(systems):
        assert k == j
        for name in names:
            assert getattr(s, name).tobytes() == copies[name].tobytes(), (k, name)
    assert not np.array_equal(systems[-1][1].y, obj.W.adjoint_apply(state.x))
