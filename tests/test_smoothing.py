from dataclasses import replace

import numpy as np
import pytest
from hessian_oracle import hess_psi_matvec

from csnewton.linops import make_dense_dictionary, make_gradient2d
from csnewton.smoothing import (
    SmoothedObjective,
    build_D,
    fd_step,
    grad_psi,
    huber_value,
    objective_grad,
    objective_value,
)
from csnewton.solver import NewtonSystem


def hessian(obj, x):
    """Hessian action of f at x: the Newton matrix at the central duals."""
    return NewtonSystem.at_central_duals(obj, x).bhat_matvec


def hessian_psi(x, W, mu):
    """Hessian action of psi_mu(W* x): f with c = 1 and A = 0."""
    zero = make_dense_dictionary(np.zeros((1, W.rows)))
    return hessian(SmoothedObjective(c=1.0, mu=mu, A=zero, W=W, b=np.zeros(1)), x)


def dense_hessian(obj, x):
    action = hessian(obj, x)
    return np.column_stack([action(e) for e in np.eye(obj.n)])


def test_huber_value_cases():
    assert huber_value(np.zeros(5), mu=0.3) == 0.0
    assert abs(huber_value(np.array([4.0]), mu=3.0) - 2.0) <= 1e-15
    assert abs(huber_value(np.array([1.0]), mu=1.0) - (np.sqrt(2) - 1)) <= 1e-15
    for mu in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"positive and finite, got mu = {mu}"):
            huber_value(np.ones(3), mu=mu)


def test_huber_l1_approximation_bound():
    # 0 <= ||y||_1 - psi_mu(y) <= l * mu, exactly, over 1000 random draws
    rng = np.random.default_rng(0)
    for mu in (1e-1, 1e-3, 1e-5):
        for _ in range(334):
            l = int(rng.integers(1, 30))
            y = rng.standard_normal(l) * 10.0 ** float(rng.integers(-3, 3))
            gap = np.sum(np.abs(y)) - huber_value(y, mu)
            assert 0.0 <= gap <= l * mu


def test_build_D_values():
    assert build_D(np.array([0.0]), mu=1.0)[0] == 1.0
    assert abs(build_D(np.array([4.0]), mu=3.0)[0] - 0.2) <= 1e-15
    d = build_D(np.array([3.0 + 4.0j]), mu=np.sqrt(11))[0]
    assert abs(d - 1.0 / 6.0) <= 1e-15
    y = np.random.default_rng(1).standard_normal(50)
    mu = 1e-2
    vals = build_D(y, mu)
    assert np.all(vals > 0) and np.all(vals <= 1.0 / mu)
    # unchecked, an infinite mu gives zeros and a NaN mu gives NaNs
    for mu in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"positive and finite, got mu = {mu}"):
            build_D(y, mu)


def test_grad_psi_identity_dictionary():
    W = make_dense_dictionary(np.eye(1))
    np.testing.assert_allclose(grad_psi(np.array([4.0]), W, mu=3.0), [0.8])
    np.testing.assert_array_equal(grad_psi(np.zeros(1), W, mu=3.0), [0.0])


def test_hess_psi_identity_dictionary():
    W = make_dense_dictionary(np.eye(1))
    np.testing.assert_allclose(hessian_psi(np.zeros(1), W, mu=1.0)(np.ones(1)), [1.0])
    np.testing.assert_allclose(hessian_psi(np.array([4.0]), W, mu=3.0)(np.ones(1)), [9.0 / 125.0])


@pytest.mark.parametrize("kind", ["real", "complex", "grad2d"])
def test_derivatives_match_finite_differences(kind):
    rng = np.random.default_rng(5)
    if kind == "real":
        W = make_dense_dictionary(rng.standard_normal((6, 10)))
    elif kind == "complex":
        W = make_dense_dictionary(
            rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10)), field="complex"
        )
    else:
        W = make_gradient2d(4, 4)
    n = W.rows
    mu = 0.05
    for _ in range(20):
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        h = fd_step(x)
        y_p = W.adjoint_apply(x + h * v)
        y_m = W.adjoint_apply(x - h * v)
        fd_g = (huber_value(y_p, mu) - huber_value(y_m, mu)) / (2 * h)
        assert abs(fd_g - grad_psi(x, W, mu) @ v) <= 1e-6 * max(1.0, abs(fd_g))
        fd_h = (grad_psi(x + h * v, W, mu) - grad_psi(x - h * v, W, mu)) / (2 * h)
        hv = hessian_psi(x, W, mu)(v)
        assert np.linalg.norm(fd_h - hv) <= 1e-5 * max(1.0, np.linalg.norm(fd_h))


def test_objective_dimension_validation():
    A = make_dense_dictionary(np.ones((2, 3)))
    W = make_dense_dictionary(np.ones((3, 4)))
    SmoothedObjective(c=1.0, mu=1.0, A=A, W=W, b=np.zeros(2))
    with pytest.raises(ValueError):
        SmoothedObjective(c=0.0, mu=1.0, A=A, W=W, b=np.zeros(2))
    with pytest.raises(ValueError):
        SmoothedObjective(c=1.0, mu=1.0, A=A, W=W, b=np.zeros(5))
    with pytest.raises(ValueError):
        SmoothedObjective(c=1.0, mu=1.0, A=W, W=A, b=np.zeros(3))


@pytest.mark.parametrize("c, mu, named", [
    (0.0, 1.0, "c = 0.0"), (-1.0, 1.0, "c = -1.0"), (np.inf, 1.0, "c = inf"),
    (np.nan, 1.0, "c = nan"), (1.0, 0.0, "mu = 0.0"), (1.0, np.inf, "mu = inf"),
    (1.0, np.nan, "mu = nan"),
])
def test_objective_rejects_c_and_mu_not_positive_and_finite(c, mu, named):
    A = make_dense_dictionary(np.ones((2, 3)))
    W = make_dense_dictionary(np.ones((3, 4)))
    with pytest.raises(ValueError, match=f"positive and finite, got {named}$"):
        SmoothedObjective(c=c, mu=mu, A=A, W=W, b=np.zeros(2))


def test_objective_rejects_dictionary_without_kernels():
    # the smoothed term and the Newton system synthesize through W's real
    # channel kernel; the measurement operator A need not have it
    A = make_dense_dictionary(np.ones((2, 3)))
    W = make_dense_dictionary(np.ones((3, 4)))
    with pytest.raises(ValueError, match="fast_synth_real"):
        SmoothedObjective(c=1.0, mu=1.0, A=A, W=replace(W, fast_synth_real=None), b=np.zeros(2))
    bare = replace(A, fast_synth_real=None)
    SmoothedObjective(c=1.0, mu=1.0, A=bare, W=W, b=np.zeros(2))


def test_objective_zero_data_minimized_at_zero():
    A = make_dense_dictionary(np.eye(4))
    W = make_dense_dictionary(np.eye(4))
    obj = SmoothedObjective(c=1.0, mu=0.5, A=A, W=W, b=np.zeros(4))
    assert objective_value(obj, np.zeros(4)) == 0.0
    np.testing.assert_array_equal(objective_grad(obj, np.zeros(4)), np.zeros(4))


def test_objective_scalar_case_by_hand():
    # c=1, mu=3, A=W=I, x=4, b=0: f = huber + 0.5*16 = 2 + 8, grad = 0.8 + 4
    A = make_dense_dictionary(np.eye(1))
    W = make_dense_dictionary(np.eye(1))
    obj = SmoothedObjective(c=1.0, mu=3.0, A=A, W=W, b=np.zeros(1))
    x = np.array([4.0])
    assert abs(objective_value(obj, x) - 10.0) <= 1e-14
    np.testing.assert_allclose(objective_grad(obj, x), [4.8])


def test_hess_f_reduces_to_regularizer_with_zero_A():
    # against the closed-form oracle, which shares no Newton machinery
    rng = np.random.default_rng(6)
    W = make_gradient2d(3, 3)
    A = make_dense_dictionary(np.zeros((4, 9)))
    obj = SmoothedObjective(c=0.7, mu=0.1, A=A, W=W, b=np.zeros(4))
    x = rng.standard_normal(9)
    v = rng.standard_normal(9)
    np.testing.assert_allclose(hessian(obj, x)(v), 0.7 * hess_psi_matvec(x, v, W, 0.1), atol=1e-14)


def test_hess_f_matches_dense_assembly_and_symmetry():
    rng = np.random.default_rng(7)
    n = 16
    W = make_gradient2d(4, 4)
    A = make_dense_dictionary(rng.standard_normal((6, n)) / np.sqrt(n))
    obj = SmoothedObjective(c=0.3, mu=1e-3, A=A, W=W, b=rng.standard_normal(6))
    x = rng.standard_normal(n) * 3  # most |y_i| >> mu
    hd = dense_hessian(obj, x)
    np.testing.assert_allclose(hd, hd.T, atol=1e-10)
    action = hessian(obj, x)
    for _ in range(20):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = u @ action(v)
        rhs = v @ action(u)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    # action agrees with the dense assembly
    v = rng.standard_normal(n)
    np.testing.assert_allclose(action(v), hd @ v, rtol=1e-12, atol=1e-12)


def test_hess_f_positive_definite_when_kernels_disjoint():
    rng = np.random.default_rng(8)
    n = 16
    W = make_gradient2d(4, 4)  # kernel: constants
    mask_entries = np.zeros((1, n))
    mask_entries[0, :] = 1.0 / np.sqrt(n)  # A sees the constant direction
    A = make_dense_dictionary(mask_entries)
    obj = SmoothedObjective(c=0.2, mu=1e-2, A=A, W=W, b=np.zeros(1))
    hd = dense_hessian(obj, rng.standard_normal(n))
    evals = np.linalg.eigvalsh(0.5 * (hd + hd.T))
    assert evals.min() > 0


def test_hessian_continuity_is_bounded():
    # ratio ||H(y) - H(x)|| / ||y - x|| stays finite over random pairs
    rng = np.random.default_rng(9)
    n = 16
    W = make_gradient2d(4, 4)
    A = make_dense_dictionary(rng.standard_normal((5, n)) / 4)
    obj = SmoothedObjective(c=0.4, mu=1e-1, A=A, W=W, b=np.zeros(5))
    ratios = []
    for _ in range(100):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        ratios.append(
            np.linalg.norm(dense_hessian(obj, y) - dense_hessian(obj, x), 2) / np.linalg.norm(y - x)
        )
    assert np.all(np.isfinite(ratios))
