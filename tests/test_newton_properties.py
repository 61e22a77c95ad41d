"""Property tests of the primal-dual Newton system on 2D gradient
dictionaries of random shape, at random points and duals in the box."""

import numpy as np
from hessian_oracle import hess_f_matvec
from hypothesis import given, settings
from hypothesis import strategies as st

from csnewton.linops import make_dense_dictionary, make_gradient2d
from csnewton.smoothing import SmoothedObjective
from csnewton.solver import NewtonSystem, project_linf

# derandomized so that the suite stays deterministic
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
CASES = st.tuples(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))


def tv_point(n1, n2, seed):
    """TV objective on an n1 x n2 image with a dense Gaussian A, plus a
    random primal point and random duals in the unit box."""
    rng = np.random.default_rng(seed)
    n = n1 * n2
    m = max(1, n // 2)
    A = make_dense_dictionary(rng.standard_normal((m, n)) / np.sqrt(n))
    W = make_gradient2d(n1, n2)
    mu = 10.0 ** rng.uniform(-3.0, -1.0)
    obj = SmoothedObjective(c=0.1, mu=mu, A=A, W=W, b=rng.standard_normal(m))
    g = project_linf(2.0 * (rng.standard_normal(W.cols) + 1j * rng.standard_normal(W.cols)))
    return obj, rng.standard_normal(n), g


def dense(action, n):
    return np.column_stack([action(e) for e in np.eye(n)])


@PROPERTY
@given(CASES)
def test_symb_matvec_is_symmetric(case):
    obj, x, g = tv_point(*case)
    s = dense(NewtonSystem(obj, x, g.real, g.imag).symb_matvec, obj.n)
    np.testing.assert_allclose(s, s.T, rtol=0, atol=1e-12 * np.max(np.abs(s)))


@PROPERTY
@given(CASES)
def test_bhat_matvec_is_positive_definite(case):
    obj, x, g = tv_point(*case)
    b = dense(NewtonSystem(obj, x, g.real, g.imag).bhat_matvec, obj.n)
    evals = np.linalg.eigvalsh(0.5 * (b + b.T))
    assert evals[0] > 1e-8 * evals[-1]


@PROPERTY
@given(CASES)
def test_dual_step_vanishes_at_central_duals(case):
    obj, x, _ = tv_point(*case)
    dg_re, dg_im = NewtonSystem.at_central_duals(obj, x).dual_step(np.zeros(obj.n))
    assert np.max(np.abs(dg_re)) <= 1e-14 and np.max(np.abs(dg_im)) <= 1e-14


@PROPERTY
@given(CASES)
def test_central_dual_bhat_is_the_hessian(case):
    obj, x, _ = tv_point(*case)
    system = NewtonSystem.at_central_duals(obj, x)
    for v in np.random.default_rng(case[2]).standard_normal((3, obj.n)):
        hv = hess_f_matvec(obj, x, v)
        assert np.linalg.norm(system.bhat_matvec(v) - hv) <= 1e-10 * np.linalg.norm(hv)
