import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dctn, idctn

from csnewton.linops import (
    DCT_MATMUL_BELOW,
    _dct_matrix,
    LinearOperator,
    SamplingMask,
    dense_columns,
    make_dense_dictionary,
    make_gradient2d,
    make_mask,
    make_partial_dct2,
    stencil_matrix,
)


def assert_adjoint_consistent(op, rng, pairs=100, rtol=1e-10):
    # an operator whose adjoint returns complex vectors applies to complex ones
    complex_in = np.iscomplexobj(op.adjoint_apply(np.zeros(op.rows)))
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
        LinearOperator(0, 3, lambda x: x, lambda x: x)


@pytest.mark.parametrize("build, message", [
    (lambda: SamplingMask(np.array([], dtype=np.int64)), "nonempty 1D"),
    (lambda: SamplingMask(np.array([[0, 1], [2, 3]])), "nonempty 1D"),
    (lambda: SamplingMask(np.array([-1, 2])), "nonnegative"),
    (lambda: make_mask(10, 0, seed=0), "1 <= m <= n"),
    (lambda: make_mask(10, 11, seed=0), "1 <= m <= n"),
    (lambda: make_partial_dct2(2, 2, SamplingMask(np.array([0, 4]))), "exceed image size"),
    (lambda: make_dense_dictionary(np.ones(3)), "2D array"),
])
def test_operator_inputs_are_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_mask_sorted_distinct_and_seeded():
    m1 = make_mask(100, 25, seed=7)
    m2 = make_mask(100, 25, seed=7)
    assert np.array_equal(m1.selected_indices, m2.selected_indices)
    assert len(m1) == 25
    assert np.all(np.diff(m1.selected_indices) > 0)
    with pytest.raises(ValueError):
        SamplingMask(np.array([3, 3, 5]))


def test_mask_include_first():
    # index 0 is in every mask, whatever the seed
    for seed in range(20):
        m = make_mask(64, 16, seed=seed)
        assert m.selected_indices[0] == 0
        assert len(m) == 16
    assert make_mask(1, 1, seed=0).selected_indices.tolist() == [0]


# ---------------------------------------------------------------------------
# 2D gradient
# ---------------------------------------------------------------------------


def test_gradient2d_constant_image_maps_to_zero():
    W = make_gradient2d(5, 7)
    x = np.full(35, 0.7)
    assert np.all(W.adjoint_apply(x) == 0)


def test_gradient2d_rejects_complex_images():
    # the gradient acts on real images; the solver never analyses a complex one
    W = make_gradient2d(3, 4)
    with pytest.raises(ValueError, match="real images"):
        W.adjoint_apply(np.ones(12, dtype=np.complex128))


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
    dense = dense_columns(W.apply, W.cols)
    assert np.linalg.matrix_rank(dense) == n1 * n2 - 1


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 5), (4, 6), (7, 3)])
def test_gradient2d_adjoint_and_curvature_band(n1, n2):
    rng = np.random.default_rng(0)
    W = make_gradient2d(n1, n2)
    assert_adjoint_consistent(W, rng)
    n = n1 * n2
    d1, d4, d23 = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(-1.0, 1.0, n)
    offsets, diags = W.curvature_diagonals(d1, d4, d23)
    assert offsets[-1] == n1 and diags.shape == (len(offsets), n)
    # bit for bit the upper diagonals of the sparse sum of the four products of
    # S = Dh^T d1 Dh + Dv^T d4 Dv + Dh^T d23 Dv + Dv^T d23 Dh, W = Dh^T - i Dv^T,
    # which has no others
    dense = dense_columns(W.apply, W.cols)
    dh = sp.csr_matrix(dense.real.T)
    dv = sp.csr_matrix(-dense.imag.T)
    s = (dh.T @ sp.diags(d1) @ dh + dv.T @ sp.diags(d4) @ dv
         + dh.T @ sp.diags(d23) @ dv + dv.T @ sp.diags(d23) @ dh)
    rows = dict(zip(offsets, diags))
    for k in range(n):
        want = rows[k][k:] if k in rows else np.zeros(n - k)
        assert want.tobytes() == s.diagonal(k).tobytes()


@pytest.mark.parametrize("n1,n2", [(2, 5), (5, 2), (24, 40), (40, 24), (64, 64)])
def test_gradient2d_stencil_matches_analysis_synthesis(n1, n2):
    rng = np.random.default_rng(7)
    W = make_gradient2d(n1, n2)
    n = n1 * n2
    d1, d4, d23 = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(-1.0, 1.0, n)
    offsets, diags = W.curvature_diagonals(d1, d4, d23)
    assert offsets == sorted(set(offsets)) and offsets[0] == 0  # n1 = 2 merges 1 and n1-1
    stencil = stencil_matrix(offsets, diags)
    for v in rng.standard_normal((3, n)):
        u = W.adjoint_apply(v)
        r, i = u.real, u.imag
        ref = W.fast_synth_real(d1 * r + d23 * i, d4 * i + d23 * r)
        assert np.linalg.norm(stencil @ v - ref) <= 1e-14 * np.linalg.norm(ref)


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


@pytest.mark.parametrize("n1,n2", [(2, 2), (4, 8), (8, 4), (16, 2), (128, 2), (2, 128)])
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
    assert bits(W.fast_synth_real(p, q)) == bits(_grad_synth_fortran(p, q, n1, n2))
    z = _complex(p, q)
    re = _grad_synth_fortran(p, q, n1, n2)
    im = _grad_synth_fortran(q, -p, n1, n2)
    assert bits(W.apply(z)) == bits(_complex(re, im))

    mask = make_mask(n, n // 2, seed=1)
    A = make_partial_dct2(n1, n2, mask)
    idx = mask.selected_indices
    want_fwd = dctn(x.reshape((n1, n2), order="F"), norm="ortho").ravel(order="F")[idx]
    full = np.zeros(n)
    full[idx] = x[: idx.size]
    want_adj = idctn(full.reshape((n1, n2), order="F"), norm="ortho").ravel(order="F")
    pairs = ((A.apply(x), want_fwd), (A.adjoint_apply(x[: idx.size]), want_adj))
    for got, want in pairs:
        if max(n1, n2) < DCT_MATMUL_BELOW:
            # dense matrix products round differently from the FFT
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        else:
            assert bits(got) == bits(want)


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
    a = dense_columns(A.apply, n)
    assert np.linalg.norm(a @ a.T - np.eye(n), 2) <= 1e-12


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


@pytest.mark.parametrize("n1,n2", [(2, 2), (3, 5), (64, 64), (127, 2), (2, 127)])
def test_partial_dct2_matrix_products_match_dctn(n1, n2):
    # both sides below DCT_MATMUL_BELOW: the operator multiplies by DCT matrices
    rng = np.random.default_rng(n1 * 131 + n2)
    n = n1 * n2
    mask = make_mask(n, max(1, n // 3), seed=7)
    A = make_partial_dct2(n1, n2, mask)
    idx = mask.selected_indices
    x = rng.standard_normal(n)
    want = dctn(x.reshape((n1, n2), order="F"), norm="ortho").ravel(order="F")[idx]
    got = A.apply(x)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    v = rng.standard_normal(idx.size)
    full = np.zeros(n)
    full[idx] = v
    want = idctn(full.reshape((n1, n2), order="F"), norm="ortho").ravel(order="F")
    got = A.adjoint_apply(v)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert_adjoint_consistent(A, rng)


@pytest.mark.parametrize("length", [1, 2, 5, 64, 127])
def test_dct_matrix_is_cached_orthogonal_and_read_only(length):
    c = _dct_matrix(length)
    assert np.abs(c @ c.T - np.eye(length)).max() <= 1e-14
    assert not c.flags.writeable
    with pytest.raises(ValueError):
        c[0, 0] = 1.0
    assert _dct_matrix(length) is c


# ---------------------------------------------------------------------------
# dense dictionary
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


def test_dense_dictionary_field_is_the_entries_dtype():
    # complex entries keep their imaginary part in every kernel
    rng = np.random.default_rng(9)
    m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    op = make_dense_dictionary(m)
    z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    x = rng.standard_normal(5)
    p, q = rng.standard_normal(7), rng.standard_normal(7)
    np.testing.assert_allclose(op.apply(z), m @ z, rtol=1e-14)
    np.testing.assert_allclose(op.adjoint_apply(x), m.conj().T @ x, rtol=1e-14)
    np.testing.assert_allclose(op.fast_synth_real(p, q), np.real(m @ (p + 1j * q)), rtol=1e-14)
    # integer entries make a real dictionary
    ints = make_dense_dictionary(np.array([[1, 2], [3, 4]]))
    out = ints.apply(np.ones(2))
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [3.0, 7.0])
    assert ints.fast_synth_real(np.ones(2), np.ones(2)).dtype == np.float64


def test_dense_dictionary_rejects_nonfinite():
    with pytest.raises(ValueError):
        make_dense_dictionary(np.array([[1.0, np.inf]]))


CHANNEL_DICTIONARIES = {
    "grad2x5": lambda rng: make_gradient2d(2, 5),
    "grad6x4": lambda rng: make_gradient2d(6, 4),
    "dense_real": lambda rng: make_dense_dictionary(rng.standard_normal((6, 10))),
    "dense_complex": lambda rng: make_dense_dictionary(
        rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    ),
}


@pytest.mark.parametrize("kind", sorted(CHANNEL_DICTIONARIES))
def test_channel_kernels_are_the_real_channels(kind):
    # fast_synth_real(p, q) = Re(apply(p + i q)), for every dictionary
    rng = np.random.default_rng(21)
    W = CHANNEL_DICTIONARIES[kind](rng)
    for _ in range(3):
        p, q = rng.standard_normal(W.cols), rng.standard_normal(W.cols)
        s = W.fast_synth_real(p, q)
        assert s.dtype == np.float64
        np.testing.assert_allclose(s, np.real(W.apply(p + 1j * q)), rtol=1e-13, atol=1e-13)

