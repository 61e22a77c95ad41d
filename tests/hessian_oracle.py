"""Hessian of the smoothed objective in closed form: the independent
oracle that the primal-dual Newton matrix at the central duals is
checked against.

For a complex dictionary the Hessian action uses the compact form

    H v = 1/2 Re( W (Yhat u + Ytil conj(u)) ),   u = W* v,

with diagonal weights Yhat_i = mu^2 D_i^3 + D_i and Ytil_i = -y_i^2 D_i^3
(the complex square, not the squared modulus).  When the dictionary is
real the imaginary channel drops analytically and H = W (mu^2 D^3) W^T.
"""

import numpy as np

from csnewton.linops import LinearOperator
from csnewton.smoothing import SmoothedObjective, build_D


def hess_psi_matvec(x: np.ndarray, v: np.ndarray, W: LinearOperator, mu: float) -> np.ndarray:
    """Action of the smoothed-term Hessian at x on a real direction v."""
    y = W.adjoint_apply(x)
    d = build_D(y, mu)
    u = W.adjoint_apply(v)
    if not np.iscomplexobj(u):
        return W.apply((mu * mu) * d**3 * u)
    yhat = (mu * mu) * d**3 + d
    ytil = -(y * y) * d**3
    z = yhat * u + ytil * np.conj(u)
    return 0.5 * W.fast_synth_real(np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag))


def hess_f_matvec(obj: SmoothedObjective, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return obj.c * hess_psi_matvec(x, v, obj.W, obj.mu) + obj.A.adjoint_apply(obj.A.apply(v))
