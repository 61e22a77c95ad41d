"""Pseudo-Huber smoothing of the l1-analysis objective.

The nonsmooth term c*||W* x||_1 is replaced by the smooth

    psi_mu(W* x) = sum_i ( sqrt(mu^2 + |(W* x)_i|^2) - mu ),

which approaches the l1-norm as mu -> 0 and never undershoots it by more
than l*mu.  Everything here is matrix-free, with intermediates living in
the dictionary domain so that wide dictionaries (l >> n) cost nothing
extra.  The Hessian action is the primal-dual Newton matrix at the
central duals, ``solver.NewtonSystem.at_central_duals``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import LinearOperator

__all__ = [
    "SmoothedObjective",
    "huber_value",
    "build_D",
    "grad_psi",
    "objective_value",
    "objective_grad",
    "fd_step",
]


@dataclass(frozen=True)
class SmoothedObjective:
    """Problem data for f(x) = c*psi_mu(W* x) + 0.5*||A x - b||^2."""

    c: float
    mu: float
    A: LinearOperator
    W: LinearOperator
    b: np.ndarray

    def __post_init__(self):
        for name, value in (("c", self.c), ("mu", self.mu)):
            if not 0.0 < value < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {name} = {value}")
        if self.W.fast_synth_real is None:
            raise ValueError("dictionary W must supply fast_synth_real")
        if self.A.cols != self.W.rows:
            raise ValueError(
                f"A acts on length {self.A.cols} but W has {self.W.rows} rows"
            )
        b = np.asarray(self.b, dtype=np.float64)
        object.__setattr__(self, "b", b)
        if b.shape != (self.A.rows,):
            raise ValueError("measurement vector length must equal A.rows")

    @property
    def n(self) -> int:
        return self.A.cols


def huber_value(y: np.ndarray, mu: float) -> float:
    """Sum of sqrt(mu^2 + |y_i|^2) - mu over the dictionary domain."""
    if not 0.0 < mu < np.inf:  # NaN fails too
        raise ValueError(f"mu must be positive and finite, got mu = {mu}")
    y = np.asarray(y)
    return float(np.sum(np.sqrt(mu * mu + np.abs(y) ** 2) - mu))


def build_D(y: np.ndarray, mu: float) -> np.ndarray:
    """Positive diagonal D_i = (mu^2 + |y_i|^2)^(-1/2); all entries <= 1/mu."""
    if not 0.0 < mu < np.inf:  # NaN fails too
        raise ValueError(f"mu must be positive and finite, got mu = {mu}")
    y = np.asarray(y)
    return 1.0 / np.sqrt(mu * mu + np.abs(y) ** 2)


def grad_psi(x: np.ndarray, W: LinearOperator, mu: float) -> np.ndarray:
    """Gradient of the smoothed analysis term at x, always a real vector."""
    y = W.adjoint_apply(x)
    d = build_D(y, mu)
    return W.fast_synth_real(d * y.real, d * y.imag)


def objective_value(obj: SmoothedObjective, x: np.ndarray) -> float:
    r = obj.A.apply(x) - obj.b
    return obj.c * huber_value(obj.W.adjoint_apply(x), obj.mu) + 0.5 * float(r @ r)


def objective_grad(obj: SmoothedObjective, x: np.ndarray) -> np.ndarray:
    r = obj.A.apply(x) - obj.b
    return obj.c * grad_psi(x, obj.W, obj.mu) + obj.A.adjoint_apply(r)


def fd_step(x: np.ndarray) -> float:
    """Central-difference step balancing truncation and rounding error."""
    return float(np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, np.max(np.abs(x), initial=0.0)))
