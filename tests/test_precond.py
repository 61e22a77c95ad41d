import numpy as np
import pytest
from test_linops import band_to_dense

from csnewton.linops import make_dense_dictionary, make_gradient2d, make_zero_operator
from csnewton.precond import build_for_system, spectrum_report
from csnewton.problems import make_itv_instance, shepp_logan
from csnewton.smoothing import SmoothedObjective
from csnewton.solver import NewtonSystem, SolverConfig, project_linf


def itv_system(n1=4, n2=4, mu=1e-2, c=0.1, seed=0, x=None, g=None):
    rng = np.random.default_rng(seed)
    n = n1 * n2
    image = shepp_logan(max(16, n1), max(16, n2))[:n1, :n2]
    inst = make_itv_instance(image, 0.5, float("inf"), seed)
    obj = SmoothedObjective(c=c, mu=mu, A=inst.A, W=inst.W, b=inst.b)
    x = rng.standard_normal(n) if x is None else x
    if g is None:
        g = project_linf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return obj, NewtonSystem(obj, x, np.real(g), np.imag(g))


def dense_system(field, seed=0, n=12, l=16, mu=1e-2, c=0.1):
    # wide dense dictionary with a dense measurement operator
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n, l))
    if field == "complex":
        entries = entries + 1j * rng.standard_normal((n, l))
    W = make_dense_dictionary(entries, field=field)
    A = make_dense_dictionary(rng.standard_normal((n // 2, n)) / np.sqrt(n))
    obj = SmoothedObjective(c=c, mu=mu, A=A, W=W, b=rng.standard_normal(n // 2))
    g = project_linf(rng.standard_normal(l) + 1j * rng.standard_normal(l))
    return obj, NewtonSystem(obj, rng.standard_normal(n), np.real(g), np.imag(g))


ORACLE_SYSTEMS = {
    "grad8x4": lambda: itv_system(n1=8, n2=4),
    "grad4x8": lambda: itv_system(n1=4, n2=8),
    "grad16x8": lambda: itv_system(n1=16, n2=8, mu=1e-3),
    "dense_real": lambda: dense_system("real"),
    "dense_complex": lambda: dense_system("complex"),
}


def dense_columns(action, n):
    out = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        out[:, j] = action(e)
        e[j] = 0.0
    return out


def dense_ntilde(system, rho):
    return dense_columns(system.ntilde_action(rho), system.obj.n)


@pytest.mark.parametrize("kind", sorted(ORACLE_SYSTEMS))
def test_curvature_band_matches_matrix_free_oracle(kind):
    obj, system = ORACLE_SYSTEMS[kind]()
    ab = obj.W.curvature_band(system.d1, system.d4, system.d23)
    oracle = dense_columns(system.symb_matvec, obj.n)
    scale = np.max(np.abs(oracle))
    np.testing.assert_allclose(band_to_dense(ab), oracle, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("kind", sorted(ORACLE_SYSTEMS))
def test_exact_banded_matches_matrix_free_oracle(kind):
    obj, system = ORACLE_SYSTEMS[kind]()
    pre = build_for_system(system, "exact_banded", rho=0.5)
    nd = dense_ntilde(system, pre.rho)
    rng = np.random.default_rng(10)
    for _ in range(5):
        r = rng.standard_normal(obj.n)
        z = pre.action(r)
        np.testing.assert_allclose(z, np.linalg.solve(nd, r), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(nd @ z, r, rtol=1e-10, atol=1e-10)


def test_exact_banded_matches_dense_solve():
    obj, system = itv_system()
    pre = build_for_system(system, "exact_banded", rho=0.5)
    nd = dense_ntilde(system, 0.5)
    rng = np.random.default_rng(1)
    for _ in range(5):
        r = rng.standard_normal(obj.n)
        np.testing.assert_allclose(pre.action(r), np.linalg.solve(nd, r), rtol=1e-10, atol=1e-12)


def test_exact_banded_apply_then_multiply_is_identity():
    obj, system = itv_system(n1=8, n2=4)
    pre = build_for_system(system, "exact_banded", rho=0.5)
    rng = np.random.default_rng(2)
    for _ in range(5):
        r = rng.standard_normal(obj.n)
        back = system.ntilde_action(pre.rho)(pre.action(r))
        np.testing.assert_allclose(back, r, rtol=1e-10, atol=1e-12)


def test_truncated_cg_dominant_shift_limit():
    # with rho = 1e6 the target is essentially rho*I, so 15 inner CG
    # iterations invert it to high accuracy
    obj, system = itv_system()
    pre = build_for_system(system, "truncated_cg", rho=1e6, inner=15)
    assert pre.inner == 15
    rng = np.random.default_rng(3)
    r = rng.standard_normal(obj.n)
    back = system.ntilde_action(pre.rho)(pre.action(r))
    assert np.linalg.norm(back - r) <= 1e-4 * np.linalg.norm(r)


def test_preconditioner_action_symmetric_positive():
    obj, system = itv_system(n1=8, n2=8, mu=1e-3)
    rng = np.random.default_rng(4)
    for mode in ("exact_banded", "truncated_cg"):
        pre = build_for_system(system, mode, rho=0.5, inner=15)
        for _ in range(20):
            z = rng.standard_normal(obj.n)
            u = rng.standard_normal(obj.n)
            lhs = u @ pre.action(z)
            rhs = z @ pre.action(u)
            tol = 1e-10 if mode == "exact_banded" else 1e-6
            assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs))
        for _ in range(100):
            z = rng.standard_normal(obj.n)
            assert z @ pre.action(z) > 0.0


def test_second_build_reuses_the_released_band():
    _, first_system = itv_system(n1=8, n2=4)
    first = build_for_system(first_system, "exact_banded", rho=0.5)
    band = first.release_band()
    assert first.band is None and first.action is None
    _, system = itv_system(n1=8, n2=4, seed=1)
    second = build_for_system(system, "exact_banded", rho=0.5, band=band)
    assert second.band is band
    fresh = build_for_system(system, "exact_banded", rho=0.5)
    assert fresh.band is not band and second.band.tobytes() == fresh.band.tobytes()
    r = np.random.default_rng(6).standard_normal(system.obj.n)
    assert second.action(r).tobytes() == fresh.action(r).tobytes()


def test_factorization_breakdown_doubles_shift():
    # duals far outside the box make the curvature indefinite; the builder
    # must double rho until the factorization succeeds and flag rebuilds
    obj, system = itv_system(g=None)
    storage = build_for_system(system, "exact_banded", rho=0.5).release_band()
    bad = 30.0 * (np.ones(obj.n) + 1j * np.ones(obj.n))
    system = NewtonSystem(obj, system.x, np.real(bad), np.imag(bad))
    pre = build_for_system(system, "exact_banded", rho=1e-8, band=storage)
    assert pre.rebuilds >= 1
    assert pre.rho > 1e-8
    assert pre.band is storage  # every retry rewrote the same storage
    r = np.random.default_rng(5).standard_normal(obj.n)
    back = system.ntilde_action(pre.rho)(pre.action(r))
    np.testing.assert_allclose(back, r, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# spectrum reports
# ---------------------------------------------------------------------------


def test_spectrum_all_ones_when_target_equals_matrix():
    # A^T A = rho * I makes the preconditioner target coincide with the
    # Newton matrix, so every preconditioned eigenvalue is exactly one
    rho = 0.5
    n1 = n2 = 4
    n = n1 * n2
    rng = np.random.default_rng(7)
    W = make_gradient2d(n1, n2)
    A = make_dense_dictionary(np.sqrt(rho) * np.eye(n))
    obj = SmoothedObjective(c=0.1, mu=1e-2, A=A, W=W, b=rng.standard_normal(n))
    x = rng.standard_normal(n)
    g = project_linf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rep = spectrum_report(NewtonSystem(obj, x, np.real(g), np.imag(g)), rho=rho, nu=0.5 / obj.mu)
    np.testing.assert_allclose(rep.precond_eigs, np.ones(n), atol=1e-10)
    assert np.all(rep.raw_eigs > 0)
    assert np.all(np.diff(rep.raw_eigs) >= 0) and np.all(np.diff(rep.precond_eigs) >= 0)


def test_spectrum_near_identity_target_reproduces_raw():
    # negligible curvature weight and rho = 1 make the target the identity
    n1 = n2 = 4
    n = n1 * n2
    rng = np.random.default_rng(8)
    W = make_gradient2d(n1, n2)
    A = make_dense_dictionary(rng.standard_normal((n // 2, n)) / np.sqrt(n))
    obj = SmoothedObjective(c=1e-12, mu=1e-2, A=A, W=W, b=rng.standard_normal(n // 2))
    system = NewtonSystem(obj, rng.standard_normal(n), np.zeros(n), np.zeros(n))
    rep = spectrum_report(system, rho=1.0, nu=0.5 / obj.mu)
    np.testing.assert_allclose(rep.precond_eigs, rep.raw_eigs, atol=1e-8)


def test_spectrum_rejects_large_n():
    # operators without dense storage reach the size check cheaply
    big = SmoothedObjective(
        c=0.1, mu=1e-2, A=make_zero_operator(1, 5000), W=make_zero_operator(5000, 5000),
        b=np.zeros(1),
    )
    zeros = np.zeros(5000)
    with pytest.raises(ValueError):
        spectrum_report(NewtonSystem(big, zeros, zeros, zeros), rho=0.5, nu=1.0)


def test_spectrum_report_fields_and_sigma():
    obj, system = itv_system(n1=4, n2=4, mu=1e-2)
    nu = 0.5 / obj.mu
    rep = spectrum_report(system, rho=0.5, nu=nu)
    y = obj.W.adjoint_apply(system.x)
    d = 1.0 / np.sqrt(obj.mu**2 + np.abs(y) ** 2)
    assert rep.sigma == int(np.sum(d < nu))
    assert rep.nu == nu
    assert rep.chi == pytest.approx(1.0 + rep.delta - 0.5)
    assert rep.bound > 0 and rep.bound_kernel > 0
    assert rep.kernel_residuals.shape == rep.precond_eigs.shape


def test_clustering_bounds_hold_on_solved_instance():
    # oracle-computed reproduction of the clustering claims: both branch
    # bounds hold, and preconditioning collapses the spectral spread
    image = shepp_logan(16, 16)
    inst = make_itv_instance(image, 0.25, float("inf"), seed=5)
    mu = 1e-3
    obj = SmoothedObjective(c=2.29e-2, mu=mu, A=inst.A, W=inst.W, b=inst.b)
    from csnewton.continuation import make_schedule, run_continuation

    config = SolverConfig(grad_tol=1e-8, max_outer=40, precond_mode="exact_banded")
    state = run_continuation(obj, config, make_schedule(2.29e-2, mu, precond_enable_mu=1.0))
    system = NewtonSystem(obj, state.x, state.g_re, state.g_im)
    rep = spectrum_report(system, rho=0.5, nu=0.5 / mu)
    dev = np.abs(rep.precond_eigs - 1.0)
    assert np.all(dev <= rep.bound_kernel + 1e-9)
    strong = rep.kernel_residuals > 1e-2
    assert np.all(dev[strong] <= rep.bound + 1e-9)
    raw_kappa = rep.raw_eigs[-1] / rep.raw_eigs[0]
    pre_kappa = rep.precond_eigs[-1] / rep.precond_eigs[0]
    assert pre_kappa <= raw_kappa / 10.0
