import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dctn, idctn

from csnewton.linops import (
    analysis_parts,
    LinearOperator,
    SamplingMask,
    estimate_delta,
    make_dense_dictionary,
    make_gradient2d,
    make_mask,
    make_partial_dct2,
    stencil_matrix,
    synth_real,
    to_dense,
)


def band_to_dense(ab):
    """Symmetric matrix from LAPACK upper-band storage."""
    u, n = ab.shape[0] - 1, ab.shape[1]
    s = np.zeros((n, n))
    for k in range(u + 1):
        s[np.arange(n - k), np.arange(k, n)] = ab[u - k, k:]
        s[np.arange(k, n), np.arange(n - k)] = ab[u - k, k:]
    return s


def assert_adjoint_consistent(op, rng, pairs=100, rtol=1e-10):
    complex_in = op.field == "complex"
    for _ in range(pairs):
        u = rng.standard_normal(op.cols)
        if complex_in:
            u = u + 1j * rng.standard_normal(op.cols)
        v = rng.standard_normal(op.rows)
        lhs = np.vdot(op.apply(u), v)
        rhs = np.vdot(u, op.adjoint_apply(v))
        assert abs(lhs - rhs) <= rtol * max(1.0, abs(lhs))


def test_operator_dimension_validation():
    with pytest.raises(ValueError):
        LinearOperator(0, 3, "real", lambda x: x, lambda x: x)
    with pytest.raises(ValueError):
        LinearOperator(3, 3, "quaternion", lambda x: x, lambda x: x)


def test_mask_sorted_distinct_and_seeded():
    m1 = make_mask(100, 25, seed=7)
    m2 = make_mask(100, 25, seed=7)
    assert np.array_equal(m1.selected_indices, m2.selected_indices)
    assert len(m1) == 25
    assert np.all(np.diff(m1.selected_indices) > 0)
    with pytest.raises(ValueError):
        SamplingMask(np.array([3, 3, 5]), seed=0)


def test_mask_include_first():
    m = make_mask(64, 16, seed=3, include_first=True)
    assert m.selected_indices[0] == 0
    assert len(m) == 16


# ---------------------------------------------------------------------------
# 2D gradient
# ---------------------------------------------------------------------------


def test_gradient2d_constant_image_maps_to_zero():
    W = make_gradient2d(5, 7)
    x = np.full(35, 0.7)
    assert np.all(W.adjoint_apply(x) == 0)


def test_gradient2d_2x2_stencil():
    # columns of the image: [a, b] and [c, d]; column-stacked x = [a, b, c, d]
    a, b, c, d = 1.0, 2.0, 4.0, 8.0
    W = make_gradient2d(2, 2)
    y = W.adjoint_apply(np.array([a, b, c, d]))
    expected = np.array([(c - a) + 1j * (b - a), (d - b), 1j * (d - c), 0.0])
    np.testing.assert_allclose(y, expected, atol=1e-15)


@pytest.mark.parametrize("n1,n2", [(2, 2), (3, 3), (4, 5), (6, 6)])
def test_gradient2d_dense_rank_deficiency(n1, n2):
    W = make_gradient2d(n1, n2)
    dense = to_dense(W)
    assert np.linalg.matrix_rank(dense) == n1 * n2 - 1


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 5), (4, 6), (7, 3)])
def test_gradient2d_adjoint_and_curvature_band(n1, n2):
    rng = np.random.default_rng(0)
    W = make_gradient2d(n1, n2)
    assert_adjoint_consistent(W, rng)
    n = n1 * n2
    d1, d4, d23 = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(-1.0, 1.0, n)
    ab = W.curvature_band(d1, d4, d23)
    assert ab.shape == (n1 + 1, n) and ab.flags.f_contiguous
    # bit for bit the band of the sparse sum of the four products of
    # S = Dh^T d1 Dh + Dv^T d4 Dv + Dh^T d23 Dv + Dv^T d23 Dh, W = Dh^T - i Dv^T
    dense = to_dense(W)
    dh = sp.csr_matrix(dense.real.T)
    dv = sp.csr_matrix(-dense.imag.T)
    s = (dh.T @ sp.diags(d1) @ dh + dv.T @ sp.diags(d4) @ dv
         + dh.T @ sp.diags(d23) @ dv + dv.T @ sp.diags(d23) @ dh)
    for k in range(n1 + 1):
        assert ab[n1 - k, k:].tobytes() == s.diagonal(k).tobytes()


def _parent_curvature_band(d1, d4, d23, n1, n2):
    """The band writer the stencil kernel replaced, kept verbatim as the
    bit-for-bit reference of ``curvature_band``."""
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
def test_gradient2d_stencil_matches_analysis_synthesis(n1, n2):
    rng = np.random.default_rng(7)
    W = make_gradient2d(n1, n2)
    n = n1 * n2
    d1, d4, d23 = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(-1.0, 1.0, n)
    offsets, diags = W.curvature_diagonals(d1, d4, d23)
    assert offsets == sorted(set(offsets)) and offsets[0] == 0  # n1 = 2 merges 1 and n1-1
    stencil = stencil_matrix(offsets, diags)
    c, rho = 0.3, 0.7
    shifted = stencil_matrix(offsets, diags, scale=c, shift=rho)
    for v in rng.standard_normal((3, n)):
        r, i = analysis_parts(W, v)
        ref = synth_real(W, d1 * r + d23 * i, d4 * i + d23 * r)
        assert np.linalg.norm(stencil @ v - ref) <= 1e-14 * np.linalg.norm(ref)
        ref = c * ref + rho * v
        assert np.linalg.norm(shifted @ v - ref) <= 1e-14 * np.linalg.norm(ref)
    reference = _parent_curvature_band(d1, d4, d23, n1, n2)
    ab = W.curvature_band(d1, d4, d23)
    assert ab.flags.f_contiguous and ab.tobytes() == reference.tobytes()
    # written into used storage, the band is the same bits
    used = np.asfortranarray(rng.standard_normal(ab.shape))
    assert W.curvature_band(d1, d4, d23, out=used) is used
    assert used.tobytes() == reference.tobytes()


def _grad_channels_fortran(x, n1, n2):
    im = x.reshape((n1, n2), order="F")
    h = np.zeros((n1, n2))
    v = np.zeros((n1, n2))
    np.subtract(im[:, 1:], im[:, :-1], out=h[:, :-1])
    np.subtract(im[1:, :], im[:-1, :], out=v[:-1, :])
    return h.ravel(order="F"), v.ravel(order="F")


def _complex(re, im):
    out = np.empty(re.size, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _grad_synth_fortran(p, q, n1, n2):
    P = p.reshape((n1, n2), order="F")
    Q = q.reshape((n1, n2), order="F")
    out = np.zeros((n1, n2))
    out[:, :-1] -= P[:, :-1]
    out[:, 1:] += P[:, :-1]
    out[:-1, :] -= Q[:-1, :]
    out[1:, :] += Q[:-1, :]
    return out.ravel(order="F")


@pytest.mark.parametrize("n1,n2", [(2, 2), (4, 8), (8, 4), (16, 2)])
def test_flat_kernels_match_fortran_reference_bitwise(n1, n2):
    # reference: the same stencils on the (n1, n2) image in Fortran order
    rng = np.random.default_rng(n1 * 31 + n2)
    n = n1 * n2
    x, p, q = (rng.standard_normal(n) for _ in range(3))
    for v in (x, p, q):
        v[::3] = -0.0
        v[1::5] = 0.0
    bits = lambda a: np.asarray(a).tobytes()  # noqa: E731
    W = make_gradient2d(n1, n2)
    h, v = _grad_channels_fortran(x, n1, n2)
    assert bits(W.adjoint_apply(x)) == bits(_complex(h, v))
    for got, want in zip(W.fast_analysis_parts(x), (h, v)):
        assert bits(got) == bits(want)
    assert bits(W.fast_synth_real(p, q)) == bits(_grad_synth_fortran(p, q, n1, n2))
    z = _complex(p, q)
    re = _grad_synth_fortran(p, q, n1, n2)
    im = _grad_synth_fortran(q, -p, n1, n2)
    assert bits(W.apply(z)) == bits(_complex(re, im))

    mask = make_mask(n, n // 2, seed=1)
    A = make_partial_dct2(n1, n2, mask)
    idx = mask.selected_indices
    want = dctn(x.reshape((n1, n2), order="F"), norm="ortho").ravel(order="F")[idx]
    assert bits(A.apply(x)) == bits(want)
    full = np.zeros(n)
    full[idx] = x[: idx.size]
    want = idctn(full.reshape((n1, n2), order="F"), norm="ortho").ravel(order="F")
    assert bits(A.adjoint_apply(x[: idx.size])) == bits(want)


def test_gradient2d_rejects_small_dims():
    with pytest.raises(ValueError):
        make_gradient2d(1, 8)


# ---------------------------------------------------------------------------
# partial DCT2
# ---------------------------------------------------------------------------


def test_partial_dct2_full_mask_isometry():
    rng = np.random.default_rng(1)
    n1 = n2 = 8
    n = n1 * n2
    A = make_partial_dct2(n1, n2, make_mask(n, n, seed=0))
    x = rng.standard_normal(n)
    assert abs(np.linalg.norm(A.apply(x)) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
    assert estimate_delta(A, 20) <= 1e-12


@pytest.mark.parametrize("n1,n2", [(8, 8), (8, 4), (4, 16)])
def test_partial_dct2_matches_dense_row_selection(n1, n2):
    rng = np.random.default_rng(2)
    n = n1 * n2
    mask = make_mask(n, n // 4, seed=5)
    A = make_partial_dct2(n1, n2, mask)
    # dense oracle: full orthonormal DCT-II matrix, select rows
    full = np.zeros((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        full[:, j] = dctn(e.reshape((n1, n2), order="F"), norm="ortho").ravel(order="F")
        e[j] = 0.0
    dense = full[mask.selected_indices, :]
    x = rng.standard_normal(n)
    np.testing.assert_allclose(A.apply(x), dense @ x, rtol=1e-12, atol=1e-12)
    assert_adjoint_consistent(A, rng)


@pytest.mark.parametrize("n1,n2", [(24, 40), (40, 24), (30, 30)])
def test_partial_dct2_any_image_size(n1, n2):
    rng = np.random.default_rng(3)
    n = n1 * n2
    assert_adjoint_consistent(make_partial_dct2(n1, n2, make_mask(n, n // 4, seed=5)), rng)
    full = make_partial_dct2(n1, n2, make_mask(n, n, seed=0))
    x = rng.standard_normal(n)
    assert abs(np.linalg.norm(full.apply(x)) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# dense dictionary and delta estimate
# ---------------------------------------------------------------------------


def test_dense_dictionary_identity_and_adjoint():
    op = make_dense_dictionary(np.eye(4))
    x = np.arange(4.0)
    np.testing.assert_array_equal(op.apply(x), x)
    row = make_dense_dictionary(np.array([[1.0, 1.0]]) / np.sqrt(2))
    np.testing.assert_allclose(row.adjoint_apply(np.array([1.0])), np.array([1, 1]) / np.sqrt(2))


def test_dense_dictionary_random_adjoint():
    rng = np.random.default_rng(4)
    op = make_dense_dictionary(rng.standard_normal((8, 12)))
    assert_adjoint_consistent(op, rng)


def test_dense_dictionary_rejects_nonfinite():
    with pytest.raises(ValueError):
        make_dense_dictionary(np.array([[1.0, np.inf]]))


def test_estimate_delta_scaled_identity():
    A = make_dense_dictionary(2.0 * np.eye(4))
    assert abs(estimate_delta(A, 30) - 3.0) <= 1e-8


def random_sensing_operator(n=64, m=16, seed=2):
    """Seeded Gaussian m x n operator scaled so that A A^T is near I;
    its delta = ||A A^T - I||_2 is about 1, far from zero."""
    rng = np.random.default_rng(seed)
    return make_dense_dictionary(rng.standard_normal((m, n)) / np.sqrt(n))


def test_estimate_delta_matches_dense_norm():
    A = random_sensing_operator()
    dense = to_dense(A)
    exact = np.linalg.norm(dense @ dense.T - np.eye(A.rows), 2)
    assert exact > 0.5
    assert abs(estimate_delta(A, 300) - exact) <= 1e-6 * max(1.0, exact)


def test_estimate_delta_monotone_in_iterations():
    A = random_sensing_operator()
    values = [estimate_delta(A, k) for k in (1, 2, 5, 10, 30)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
