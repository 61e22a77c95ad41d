import gc
import weakref

import numpy as np
import pytest
from pcg_reference import reference_pcg_solve
from scipy.linalg import cholesky_banded, eigvalsh

from csnewton.krylov import NegativeCurvatureError
from csnewton.linops import (
    LinearOperator,
    dense_columns,
    make_dense_dictionary,
    make_gradient2d,
)
from csnewton.precond import (
    RHO,
    TRUNCATED_CG_ETA,
    TRUNCATED_CG_SWEEPS,
    _target_band,
    build_for_system,
    spectrum_report,
)
from csnewton.problems import make_itv_instance, shepp_logan
from csnewton.smoothing import SmoothedObjective
from csnewton.solver import NewtonSystem, SolverConfig, fresh_state, project_linf


def itv_system(n1=4, n2=4, mu=1e-2, c=0.1, seed=0, x=None, g=None):
    rng = np.random.default_rng(seed)
    n = n1 * n2
    image = shepp_logan(max(16, n1), max(16, n2))[:n1, :n2]
    inst = make_itv_instance(image, 0.5, float("inf"), seed)
    obj = SmoothedObjective(c=c, mu=mu, A=inst.A, W=inst.W, b=inst.b)
    x = rng.standard_normal(n) if x is None else x
    if g is None:
        g = project_linf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return obj, NewtonSystem(obj, x, g)


def dense_system(field, seed=0, n=12, l=16, mu=1e-2, c=0.1):
    # wide dense dictionary with a dense measurement operator
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n, l))
    if field == "complex":
        entries = entries + 1j * rng.standard_normal((n, l))
    W = make_dense_dictionary(entries)
    A = make_dense_dictionary(rng.standard_normal((n // 2, n)) / np.sqrt(n))
    obj = SmoothedObjective(c=c, mu=mu, A=A, W=W, b=rng.standard_normal(n // 2))
    g = project_linf(rng.standard_normal(l) + 1j * rng.standard_normal(l))
    return obj, NewtonSystem(obj, rng.standard_normal(n), g)


ORACLE_SYSTEMS = {
    "grad8x4": lambda: itv_system(n1=8, n2=4),
    "grad4x8": lambda: itv_system(n1=4, n2=8),
    "grad16x8": lambda: itv_system(n1=16, n2=8, mu=1e-3),
    "dense_real": lambda: dense_system("real"),
    "dense_complex": lambda: dense_system("complex"),
}


def matrix_free_symb(system):
    """Dense sym(Bt) from analysis -> (d1, d4, d23) -> synthesis, written
    here so that it shares no code with the stencil kernel behind the
    band, ``symb_matvec`` and the truncated-CG target."""
    W = system.obj.W

    def action(v):
        u = W.adjoint_apply(v)
        r, i = u.real, u.imag
        return W.fast_synth_real(system.d1 * r + system.d23 * i, system.d4 * i + system.d23 * r)

    return dense_columns(action, system.obj.n)


def oracle_target(system):
    """The dense preconditioner target c*sym(Bt) + RHO*I."""
    return system.obj.c * matrix_free_symb(system) + RHO * np.eye(system.obj.n)


def band_to_dense(ab):
    """Symmetric matrix from LAPACK lower-band storage: entry (j + k, j)
    at row k, column j."""
    n = ab.shape[1]
    s = np.zeros((n, n))
    for k in range(ab.shape[0]):
        s[np.arange(k, n), np.arange(n - k)] = ab[k, : n - k]
        s[np.arange(n - k), np.arange(k, n)] = ab[k, : n - k]
    return s


@pytest.mark.parametrize("kind", sorted(ORACLE_SYSTEMS))
def test_curvature_band_matches_matrix_free_oracle(kind):
    # the gradient systems write the band from their stencil, the dense
    # ones from the columns of symb_matvec
    obj, system = ORACLE_SYSTEMS[kind]()
    assert (system.stencil is None) == kind.startswith("dense")
    ab = _target_band(system)
    oracle = oracle_target(system)
    scale = np.max(np.abs(oracle))
    assert ab.flags.f_contiguous
    np.testing.assert_allclose(band_to_dense(ab), oracle, rtol=0, atol=1e-13 * scale)


def _parent_curvature_band(d1, d4, d23, n1, n2):
    """The band writer the stencil kernel replaced, kept verbatim as the
    bit-for-bit reference of the band of sym(Bt), in LAPACK upper-band
    storage: entry (j - k, j) at row n1 - k, column j."""
    ah, av, ac = d1.copy(), d4.copy(), d23.copy()
    ah[-n1:] = ac[-n1:] = 0.0
    av[n1 - 1 :: n1] = ac[n1 - 1 :: n1] = 0.0
    ab = np.zeros((n1 + 1, n1 * n2), order="F")
    h, v = ah.copy(), av.copy()
    h[n1:] += ah[:-n1]
    v[1:] += av[:-1]
    ab[n1] = h + v + ac + ac
    ab[n1 - 1, 1:] -= av[:-1] + ac[:-1]
    ab[1, n1:] += ac[:-n1]
    ab[0, n1:] -= ah[:-n1] + ac[:-n1]
    return ab


@pytest.mark.parametrize("n1,n2", [(2, 5), (5, 2), (24, 40), (40, 24), (64, 64)])
def test_gradient_band_is_the_parent_band_bit_for_bit(n1, n2):
    # c*S + RHO*I, S from the parent's band writer moved to lower storage, is
    # the band that exact_banded factors, to the last bit, fresh or in used
    # storage
    obj, system = itv_system(n1=n1, n2=n2, mu=1e-3, c=0.3)
    upper = obj.c * _parent_curvature_band(system.d1, system.d4, system.d23, n1, n2)
    upper[-1] += RHO
    n = n1 * n2
    reference = np.zeros_like(upper, order="F")
    for k in range(n1 + 1):
        reference[k, : n - k] = upper[n1 - k, k:]
    ab = _target_band(system)
    assert ab.flags.f_contiguous and ab.tobytes() == reference.tobytes()
    used = np.asfortranarray(np.random.default_rng(7).standard_normal(ab.shape))
    assert _target_band(system, out=used) is used
    assert used.tobytes() == reference.tobytes()
    pre = build_for_system(system, "exact_banded")
    assert pre.band.tobytes() == cholesky_banded(reference, lower=True).tobytes()


@pytest.mark.parametrize("kind", sorted(ORACLE_SYSTEMS))
def test_exact_banded_matches_matrix_free_oracle(kind):
    obj, system = ORACLE_SYSTEMS[kind]()
    pre = build_for_system(system, "exact_banded")
    nd = oracle_target(system)
    rng = np.random.default_rng(10)
    for _ in range(5):
        r = rng.standard_normal(obj.n)
        z = pre.action(r)
        np.testing.assert_allclose(z, np.linalg.solve(nd, r), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(nd @ z, r, rtol=1e-10, atol=1e-10)


def test_exact_banded_matches_dense_solve():
    obj, system = itv_system()
    pre = build_for_system(system, "exact_banded")
    nd = oracle_target(system)
    rng = np.random.default_rng(1)
    for _ in range(5):
        r = rng.standard_normal(obj.n)
        np.testing.assert_allclose(pre.action(r), np.linalg.solve(nd, r), rtol=1e-10, atol=1e-12)


def test_exact_banded_apply_then_multiply_is_identity():
    obj, system = itv_system(n1=8, n2=4)
    pre = build_for_system(system, "exact_banded")
    nd = oracle_target(system)
    rng = np.random.default_rng(2)
    for _ in range(5):
        r = rng.standard_normal(obj.n)
        back = nd @ pre.action(r)
        np.testing.assert_allclose(back, r, rtol=1e-10, atol=1e-12)


def test_truncated_cg_dominant_shift_limit():
    # with c = 1e-9 the target is essentially RHO*I, so a few inner CG
    # iterations invert it to round-off
    obj, system = itv_system(c=1e-9)
    pre = build_for_system(system, "truncated_cg")
    assert pre.linear is False and pre.sweeps == 0
    rng = np.random.default_rng(3)
    r = rng.standard_normal(obj.n)
    back = oracle_target(system) @ pre.action(r)
    assert np.linalg.norm(back - r) <= 1e-10 * np.linalg.norm(r)
    # the inner sweeps stop at round-off, well before the cap of 15
    assert 0 < pre.sweeps < TRUNCATED_CG_SWEEPS == 15


@pytest.mark.parametrize("frame", ["identity", "parseval"])
def test_truncated_cg_inverts_a_multiple_of_the_identity(frame):
    # at x = 0 with zero duals, a dictionary with W W* = I (the CLI's
    # l1-dense frame) makes the target (c/mu + RHO)*I: one inner sweep
    # solves it, and the sweeps after it must not run on into an
    # underflowed residual and a zero curvature
    rng = np.random.default_rng(0)
    n = 16
    entries = np.eye(n) if frame == "identity" else np.linalg.qr(
        rng.standard_normal((2 * n, n)))[0].T
    A = make_dense_dictionary(rng.standard_normal((4, n)) / 4)
    obj = SmoothedObjective(c=1e-2, mu=1e-3, A=A, W=make_dense_dictionary(entries),
                            b=rng.standard_normal(4))
    state = fresh_state(obj)
    pre = build_for_system(NewtonSystem(obj, state.x, state.g), "truncated_cg")
    r = rng.standard_normal(n)
    z = pre.action(r)
    assert pre.sweeps == 1
    np.testing.assert_allclose((obj.c / obj.mu + RHO) * z, r, rtol=1e-14)


def test_truncated_cg_is_freed_once_dropped():
    # its action counts on it without keeping it alive: no reference cycle
    # holds a stage's last preconditioner until the next garbage collection
    obj, system = itv_system()
    pre = build_for_system(system, "truncated_cg")
    pre.action(np.ones(obj.n))
    freed = weakref.ref(pre)
    gc.disable()
    try:
        del pre
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", ["none", "exact_banded"])
def test_linear_preconditioners_run_no_inner_sweeps(mode):
    obj, system = itv_system()
    pre = build_for_system(system, mode)
    if pre.action is not None:
        pre.action(np.random.default_rng(5).standard_normal(obj.n))
    assert pre.linear is True and pre.sweeps == 0


def test_truncated_cg_is_jacobi_pcg_on_the_target():
    # CG sweeps on S^{-1/2} N S^{-1/2}, S = diag(N), scaled back by S^{-1/2},
    # are in exact arithmetic Jacobi-preconditioned CG on the target N
    obj, system = itv_system(n1=16, n2=16, mu=1e-5)
    nd = oracle_target(system)
    inv_diag = 1.0 / np.diag(nd)
    pre = build_for_system(system, "truncated_cg")
    rng = np.random.default_rng(11)
    for _ in range(3):
        r = rng.standard_normal(obj.n)
        want = reference_pcg_solve(lambda v: nd @ v, r, lambda v: inv_diag * v,
                                   TRUNCATED_CG_ETA, cap=TRUNCATED_CG_SWEEPS)
        assert want.iterations == TRUNCATED_CG_SWEEPS and not want.converged
        got = pre.action(r)
        assert np.linalg.norm(got - want.solution) <= 1e-12 * np.linalg.norm(want.solution)


def out_of_box_system(scale):
    # duals scale*(1 + i) lie outside the unit box for every scale > 1/sqrt(2)
    return itv_system(g=scale * (1 + 1j) * np.ones(16))


def test_truncated_cg_rejects_a_nonpositive_target_diagonal():
    _, system = out_of_box_system(30.0)
    assert np.min(np.diag(oracle_target(system))) < 0.0
    with pytest.raises(np.linalg.LinAlgError, match="truncated_cg"):
        build_for_system(system, "truncated_cg")


def test_truncated_cg_raises_on_inner_negative_curvature():
    # a positive diagonal but an indefinite target: the build succeeds, and
    # an application along a negative-curvature direction of the scaled
    # target must raise inner CG's error, not return the sweeps before it
    _, system = out_of_box_system(3.0)
    nd = oracle_target(system)
    sqrt_diag = np.sqrt(np.diag(nd))
    evals, evecs = np.linalg.eigh(nd / np.outer(sqrt_diag, sqrt_diag))
    assert evals[0] < 0.0
    pre = build_for_system(system, "truncated_cg")
    with pytest.raises(NegativeCurvatureError, match="at iteration 1$"):
        pre.action(sqrt_diag * evecs[:, 0])


def test_preconditioner_action_symmetric_positive():
    obj, system = itv_system(n1=8, n2=8, mu=1e-3)
    rng = np.random.default_rng(4)
    for mode in ("exact_banded", "truncated_cg"):
        pre = build_for_system(system, mode)
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
    # a build uses up the previous preconditioner: the band is written into
    # its factor's storage, and it keeps no band and no action
    _, first_system = itv_system(n1=8, n2=4)
    first = build_for_system(first_system, "exact_banded")
    band = first.band
    _, system = itv_system(n1=8, n2=4, seed=1)
    second = build_for_system(system, "exact_banded", first)
    assert first.band is None and first.action is None
    assert second.band is band
    # a previous preconditioner without a band leaves the build fresh storage
    for mode in ("none", "truncated_cg"):
        previous = build_for_system(first_system, mode)
        fresh = build_for_system(system, "exact_banded", previous)
        assert previous.band is None and previous.action is None
        assert fresh.band is not band and second.band.tobytes() == fresh.band.tobytes()
        r = np.random.default_rng(6).standard_normal(system.obj.n)
        assert second.action(r).tobytes() == fresh.action(r).tobytes()


def test_build_rejects_an_unknown_mode():
    _, system = itv_system()
    with pytest.raises(ValueError, match="unknown preconditioner mode 'ilu'"):
        build_for_system(system, "ilu")


def test_exact_banded_rejects_a_previous_band_of_another_shape():
    _, small = itv_system(n1=8, n2=4)
    _, large = itv_system(n1=16, n2=8)
    with pytest.raises(ValueError, match="band storage must be"):
        build_for_system(large, "exact_banded", build_for_system(small, "exact_banded"))


def test_factorization_breakdown_raises():
    # duals far outside the box make the target indefinite: the factor
    # fails, and no larger shift is tried in its place
    _, system = out_of_box_system(30.0)
    assert np.min(np.linalg.eigvalsh(oracle_target(system))) < 0.0
    with pytest.raises(np.linalg.LinAlgError, match="exact_banded"):
        build_for_system(system, "exact_banded")


@pytest.mark.parametrize("kind", ["grad8x4", "dense_real"])
def test_exact_banded_rejects_a_non_finite_curvature(kind):
    obj, system = ORACLE_SYSTEMS[kind]()
    if system.stencil is not None:
        system.stencil[1][0, 3] = np.nan
    else:
        system.d1[2] = np.inf
    with pytest.raises(ValueError, match="exact_banded"):
        build_for_system(system, "exact_banded")


# ---------------------------------------------------------------------------
# spectrum reports
# ---------------------------------------------------------------------------


def test_spectrum_all_ones_when_target_equals_matrix():
    # A^T A = RHO * I makes the preconditioner target coincide with the
    # Newton matrix, so every preconditioned eigenvalue is exactly one
    n1 = n2 = 4
    n = n1 * n2
    rng = np.random.default_rng(7)
    W = make_gradient2d(n1, n2)
    A = make_dense_dictionary(np.sqrt(RHO) * np.eye(n))
    obj = SmoothedObjective(c=0.1, mu=1e-2, A=A, W=W, b=rng.standard_normal(n))
    x = rng.standard_normal(n)
    g = project_linf(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rep = spectrum_report(NewtonSystem(obj, x, g), nu=0.5 / obj.mu)
    np.testing.assert_allclose(rep.precond_eigs, np.ones(n), atol=1e-10)
    assert np.all(rep.raw_eigs > 0)
    assert np.all(np.diff(rep.raw_eigs) >= 0) and np.all(np.diff(rep.precond_eigs) >= 0)


def test_spectrum_shift_only_target_scales_raw():
    # negligible curvature weight makes the target RHO*I, so the
    # preconditioned eigenvalues are the raw ones divided by RHO
    n1 = n2 = 4
    n = n1 * n2
    rng = np.random.default_rng(8)
    W = make_gradient2d(n1, n2)
    A = make_dense_dictionary(rng.standard_normal((n // 2, n)) / np.sqrt(n))
    obj = SmoothedObjective(c=1e-12, mu=1e-2, A=A, W=W, b=rng.standard_normal(n // 2))
    system = NewtonSystem(obj, rng.standard_normal(n), np.zeros(n))
    rep = spectrum_report(system, nu=0.5 / obj.mu)
    np.testing.assert_allclose(rep.precond_eigs, rep.raw_eigs / RHO, atol=1e-8)


def test_spectrum_rejects_large_n():
    # a zero dictionary without dense storage reaches the size check cheaply
    zeros = np.zeros(5000)
    W = LinearOperator(rows=5000, cols=5000, apply=lambda v: zeros,
                       adjoint_apply=lambda x: zeros, fast_synth_real=lambda p, q: zeros)
    big = SmoothedObjective(c=0.1, mu=1e-2, A=make_dense_dictionary(np.zeros((1, 5000))), W=W,
                            b=np.zeros(1))
    with pytest.raises(ValueError):
        spectrum_report(NewtonSystem(big, zeros, zeros), nu=1.0)


@pytest.mark.parametrize("kind", sorted(ORACLE_SYSTEMS))
def test_spectrum_report_fields_and_sigma(kind):
    # the stencil and the matrix-free dictionaries alike: both spectra match
    # the dense oracle's, Bhat = c*sym(Bt) + A^T A against the target
    obj, system = ORACLE_SYSTEMS[kind]()
    nu = 0.5 / obj.mu
    rep = spectrum_report(system, nu=nu)
    a = dense_columns(obj.A.apply, obj.n)
    bhat = obj.c * matrix_free_symb(system) + a.T @ a
    np.testing.assert_allclose(rep.raw_eigs, eigvalsh(bhat), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(rep.precond_eigs, eigvalsh(bhat, oracle_target(system)),
                               rtol=1e-9, atol=1e-12)
    d = 1.0 / np.sqrt(obj.mu**2 + np.abs(system.y) ** 2)
    assert rep.sigma == int(np.sum(d < nu))
    assert rep.delta == pytest.approx(np.linalg.norm(a @ a.T - np.eye(a.shape[0]), 2),
                                      rel=1e-10, abs=1e-13)
    assert rep.chi == pytest.approx(1.0 + rep.delta - RHO)
    assert rep.bound > 0 and rep.bound_kernel > 0
    assert rep.kernel_residuals.shape == rep.precond_eigs.shape


CLUSTERING_MUS = (1e-3, 1e-5, 1e-7, 1e-9)


@pytest.fixture(scope="module")
def clustering_ladder():
    # the spectrum report at the solution of each mu in the ladder: 16x16
    # phantom, seed 5, c = 2.29e-2, exact_banded continuation (1e-9 takes
    # 42 outer iterations)
    from csnewton.continuation import make_schedule, run_continuation

    c = 2.29e-2
    inst = make_itv_instance(shepp_logan(16, 16), 0.25, float("inf"), seed=5)
    config = SolverConfig(grad_tol=1e-8, max_outer=80, precond_mode="exact_banded")
    reports = {}
    for mu in CLUSTERING_MUS:
        obj = SmoothedObjective(c=c, mu=mu, A=inst.A, W=inst.W, b=inst.b)
        state = run_continuation(obj, config, make_schedule(c, mu))
        assert state.converged
        reports[mu] = spectrum_report(NewtonSystem(obj, state.x, state.g), nu=0.5 / mu)
    return reports


def kappa(eigs):
    return eigs[-1] / eigs[0]


def strong_branch_deviation(rep):
    # largest |lambda - 1| over the eigenvectors outside the kernel branch
    strong = rep.kernel_residuals > 1e-2
    return np.max(np.abs(rep.precond_eigs[strong] - 1.0))


def test_clustering_bounds_hold_on_solved_instance(clustering_ladder):
    # oracle-computed reproduction of the clustering claims as mu -> 0: raw
    # kappa grows as 1/mu (6.88e3 -> 6.3e9), the preconditioned kappa stays
    # flat (60.9, 56.4, 56.6, 56.6), every eigenvalue stays inside the
    # kernel-branch bound (max |lambda - 1| = 1.0 against 2.618), and at
    # mu = 1e-3 the strong branch is inside its bound (0.967 against 2.49)
    reports = [clustering_ladder[mu] for mu in CLUSTERING_MUS]
    assert kappa(reports[-1].raw_eigs) >= 1e5 * kappa(reports[0].raw_eigs)
    pre_kappa0 = kappa(reports[0].precond_eigs)
    for rep in reports:
        pre_kappa = kappa(rep.precond_eigs)
        assert pre_kappa0 / 1.5 <= pre_kappa <= 1.5 * pre_kappa0
        assert pre_kappa <= kappa(rep.raw_eigs) / 10.0
        assert np.all(np.abs(rep.precond_eigs - 1.0) <= rep.bound_kernel + 1e-9)
    assert strong_branch_deviation(reports[0]) <= reports[0].bound + 1e-9


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="strong-branch |lambda - 1| exceeds `bound` on this instance at mu <= 1e-5: "
    "0.123 against 0.0939 at 1e-5, 1.6e-3 against 9.73e-4 at 1e-7, 1.22e-5 against "
    "9.74e-6 at 1e-9 (it holds at all four mu at seed 0, c = 1e-2)",
)
def test_strong_branch_bound_holds_as_mu_shrinks(clustering_ladder):
    for mu in CLUSTERING_MUS[1:]:
        rep = clustering_ladder[mu]
        assert strong_branch_deviation(rep) <= rep.bound + 1e-9
