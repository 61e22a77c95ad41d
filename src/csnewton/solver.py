"""Primal-dual Newton conjugate-gradients core loop.

One outer iteration, at the current primal x and box-constrained duals
(g_re, g_im):

  1. build the symmetrized primal-dual matrix Bhat = c*sym(Bt) + A^T A
     as an action (sym(Bt) as an assembled sparse stencil for 2D
     gradients, matrix-free otherwise) and solve Bhat dx = -grad f with
     PCG until ||Bhat dx + grad f|| <= eta ||grad f||;
  2. take the full dual step and project the complex duals onto the
     componentwise unit ball, which keeps Bhat positive definite;
  3. backtrack on the primal step with the curvature term dx^T Bhat dx,
     obtained for free from the zero-start CG identity
     dx^T Bhat dx = -dx^T grad f; if no trial step passes, x stays put.

Dictionary-domain convention: the analysis channels of a real vector v
are Re(W* v) and Im(W* v), and the paired synthesis of two real vectors
(p, q) back to the primal space is Re(W (p + i q)); the complex dual
g_re + i g_im then estimates D * (W* x), whose componentwise modulus is
below one by construction.  The dual-coupled matrix and the dual step
are the exact linearization of the optimality conditions in these
channels (cross couplings enter with a minus sign); correctness is
pinned by the requirement that, with the duals at their central values
D*Re(W* x) and D*Im(W* x), the symmetrized matrix reproduces the true
Hessian of the smoothed objective.  ``NewtonSystem.at_central_duals``
builds that system, and ``csnewton check --suite derivatives`` compares
its action with finite differences of the gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .krylov import NonFiniteError, pcg_solve
from .linops import analysis_parts, stencil_matrix, synth_real
from .precond import build_for_system
from .smoothing import SmoothedObjective, build_D, huber_value

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "SystemSnapshot",
    "LineSearchResult",
    "NegativeCurvatureError",
    "NewtonSystem",
    "project_linf",
    "line_search",
    "solve_subproblem",
    "fresh_state",
]


class NegativeCurvatureError(RuntimeError):
    """PCG met a direction with nonpositive curvature; the duals were invalid."""


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the Newton loop; defaults follow the reference tuning."""

    eta: float = 1.0e-1
    tau1: float = 9.0e-1
    tau2: float = 1.0e-3
    max_backtracks: int = 200  # 0.9**200 ~ 7e-10; each trial costs O(l + m), no operator call
    rho: float = 5.0e-1
    grad_tol: float = 1.0e-6
    max_outer: int = 100
    precond_mode: str = "none"  # none | exact_banded | truncated_cg
    precond_inner: int = 15
    eta_schedule: str = "fixed"  # fixed | decreasing
    pcg_cap: int = 200
    audit: bool = False
    snapshot_every: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        if not 0.0 < self.tau1 < 1.0:
            raise ValueError("tau1 must lie in (0, 1)")
        if not 0.0 < self.tau2 < 0.5:
            raise ValueError("tau2 must lie in (0, 1/2)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be nonnegative")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if self.precond_mode not in ("none", "exact_banded", "truncated_cg"):
            raise ValueError(f"unknown precond_mode {self.precond_mode!r}")
        if self.eta_schedule not in ("fixed", "decreasing"):
            raise ValueError(f"unknown eta_schedule {self.eta_schedule!r}")
        if self.precond_inner < 1:
            raise ValueError("precond_inner must be >= 1")
        if self.pcg_cap < 1:
            raise ValueError("pcg_cap must be >= 1")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.grad_tol < 0.0:
            raise ValueError("grad_tol must be nonnegative")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative")


@dataclass
class IterationRecord:
    stage: int
    outer_iter: int
    f: float
    grad_norm: float
    grad_norm_in: float
    pcg_iters: int
    alpha: float
    backtracks: int
    wall_time: float
    eta: float
    energy: float
    grad_dot_dx: float
    dual_box: float
    accepted: bool
    pcg_converged: bool
    max_residual_drift: float
    energy_explicit: Optional[float] = None
    pcg_residual: Optional[float] = None


@dataclass
class SystemSnapshot:
    """The Newton system one outer iteration built; the loop rebinds x and
    the duals and never writes into them, so the system stays valid."""

    stage: int
    outer_iter: int
    system: NewtonSystem


@dataclass
class Counters:
    pcg_iters: int = 0
    precond_inner_iters: int = 0
    grad_evals: int = 0
    obj_evals: int = 0

    def total_matvecs(self) -> int:
        """Operator-application tally: one unit per Hessian-like action or
        objective/gradient evaluation (each is a fixed handful of A/W calls)."""
        return self.pcg_iters + self.precond_inner_iters + self.grad_evals + self.obj_evals


@dataclass
class SolverState:
    x: np.ndarray
    g_re: np.ndarray
    g_im: np.ndarray
    outer_iter: int = 0
    trace: List[IterationRecord] = field(default_factory=list)
    snapshots: List[SystemSnapshot] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    converged: bool = False


def fresh_state(obj: SmoothedObjective) -> SolverState:
    """Zero primal and dual start; satisfies the dual box constraint."""
    return SolverState(
        x=np.zeros(obj.n),
        g_re=np.zeros(obj.W.cols),
        g_im=np.zeros(obj.W.cols),
    )


def project_linf(u: np.ndarray) -> np.ndarray:
    """Componentwise projection of complex values onto the unit disc."""
    u = np.asarray(u, dtype=np.complex128)
    mod = np.abs(u)
    scale = np.ones_like(mod)
    big = mod > 1.0
    scale[big] = 1.0 / mod[big]
    return u * scale


class NewtonSystem:
    """Actions of one primal-dual Newton system.

    Freezes the diagonal data (D, the two cross couplings and the three
    diagonals of sym(Bt)) at a given (x, g_re, g_im), then exposes the
    symmetrized curvature action, the full Bhat action, the shifted
    preconditioner target action and the affine dual step.

    When the dictionary has a ``curvature_diagonals`` kernel (the 2D
    gradient), sym(Bt) is assembled once, as a sparse 7-diagonal stencil,
    and each curvature action is one sparse product.  Other dictionaries
    (dense, zero) apply it matrix-free, as an analysis, a diagonal
    scaling and a synthesis; assembling their S would cost O(n^2 l).
    """

    def __init__(self, obj: SmoothedObjective, x: np.ndarray, g_re: np.ndarray, g_im: np.ndarray):
        self.obj = obj
        self.x = x
        self.g_re = np.asarray(g_re, dtype=np.float64)
        self.g_im = np.asarray(g_im, dtype=np.float64)
        W = obj.W
        self.y = W.adjoint_apply(x)
        self.d = build_D(self.y, obj.mu)
        self.rx = np.real(self.y)
        self.ix = np.imag(self.y) if np.iscomplexobj(self.y) else np.zeros_like(self.rx)
        self.b2 = self.d * self.g_re * self.ix
        self.b3 = self.d * self.g_im * self.rx
        # diagonals of the symmetric part: D(I-B1), D(I-B4), -D(B2+B3)/2
        self.d1 = self.d * (1.0 - self.d * self.g_re * self.rx)
        self.d4 = self.d * (1.0 - self.d * self.g_im * self.ix)
        self.d23 = -0.5 * self.d * (self.b2 + self.b3)
        self._real_w = W.field == "real"
        self._stencil = None
        self._symb = None
        if W.curvature_diagonals is not None:
            self._stencil = W.curvature_diagonals(self.d1, self.d4, self.d23)
            self._symb = stencil_matrix(*self._stencil)

    @classmethod
    def at_central_duals(cls, obj: SmoothedObjective, x: np.ndarray) -> NewtonSystem:
        """The system at the central duals D*W* x, where sym(Bt) = Bt and
        Bhat is the exact Hessian of the smoothed objective at x."""
        y = obj.W.adjoint_apply(x)
        d = build_D(y, obj.mu)
        return cls(obj, x, d * np.real(y), d * np.imag(y))

    def symb_matvec(self, v: np.ndarray) -> np.ndarray:
        """Action of sym(Bt), the symmetrized dual-coupled curvature."""
        if self._symb is not None:
            return self._symb @ v
        W = self.obj.W
        rv, iv = analysis_parts(W, v)
        if self._real_w:
            return np.real(W.apply(self.d1 * rv))
        p = self.d1 * rv + self.d23 * iv
        q = self.d4 * iv + self.d23 * rv
        return synth_real(W, p, q)

    def bhat_matvec(self, v: np.ndarray) -> np.ndarray:
        A = self.obj.A
        return self.obj.c * self.symb_matvec(v) + A.adjoint_apply(A.apply(v))

    def ntilde_action(self, rho: float) -> Callable[[np.ndarray], np.ndarray]:
        """The action of the preconditioner target c*sym(Bt) + rho*I; with
        a stencil it is assembled here, so each call is one sparse product."""
        c = self.obj.c
        if self._stencil is None:
            return lambda v: c * self.symb_matvec(v) + rho * v
        ntilde = stencil_matrix(*self._stencil, scale=c, shift=rho)
        return lambda v: ntilde @ v

    def dual_step(self, dx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Affine dual increments for a given primal direction."""
        rdx, idx = analysis_parts(self.obj.W, dx)
        d = self.d
        dg_re = self.d1 * rdx - d * self.b2 * idx - self.g_re + d * self.rx
        dg_im = self.d4 * idx - d * self.b3 * rdx - self.g_im + d * self.ix
        return dg_re, dg_im


@dataclass
class LineSearchResult:
    alpha: float
    backtracks: int
    accepted: bool
    f_new: float


def line_search(
    obj: SmoothedObjective,
    x: np.ndarray,
    y: np.ndarray,
    dx: np.ndarray,
    energy: float,
    tau1: float,
    tau2: float,
    max_backtracks: int,
) -> LineSearchResult:
    """Least j >= 0 with f(x + tau1^j dx) <= f(x) - tau2 tau1^j energy.

    ``y`` is the cached analysis W* x and ``energy`` the quadratic form
    dx^T Bhat dx (not its square root).  After one W* and two A actions
    the sufficient-decrease test is evaluated from the transforms of x and
    dx, so each trial costs O(l + m) flops and no operator calls.
    Exhaustion returns ``alpha = 0`` and ``f_new = f(x)`` with
    ``accepted=False``: a step that fails the test is never taken.
    """
    ydx = obj.W.adjoint_apply(dx)
    r = obj.A.apply(x) - obj.b
    rdx = obj.A.apply(dx)

    def value(a: float) -> float:
        res = r + a * rdx
        return obj.c * huber_value(y + a * ydx, obj.mu) + 0.5 * float(res @ res)

    f_x = value(0.0)
    for j in range(max_backtracks + 1):
        a = tau1**j
        f_trial = value(a)
        if not np.isfinite(f_trial):
            raise NonFiniteError(f"non-finite objective in line search at j={j}")
        if f_trial <= f_x - tau2 * a * energy:
            return LineSearchResult(a, j, True, f_trial)
    return LineSearchResult(0.0, max_backtracks, False, f_x)


def _grad_and_norm(obj: SmoothedObjective, x: np.ndarray, counters: Counters):
    from .smoothing import objective_grad

    counters.grad_evals += 1
    g = objective_grad(obj, x)
    return g, float(np.linalg.norm(g))


def solve_subproblem(
    obj: SmoothedObjective,
    config: SolverConfig,
    init: Optional[SolverState] = None,
    stage: int = 0,
) -> SolverState:
    """Run the Newton loop on one (c, mu) subproblem until the gradient
    norm drops below grad_tol * max(1, initial gradient norm), or the
    outer-iteration cap is hit.

    The incoming duals are re-projected onto the unit box, so warm starts
    from a previous subproblem are always admissible.
    """
    state = init if init is not None else fresh_state(obj)
    g0 = project_linf(state.g_re + 1j * state.g_im)
    state.g_re, state.g_im = np.real(g0), np.imag(g0)

    counters = state.counters
    pre = None
    grad, gnorm = _grad_and_norm(obj, state.x, counters)
    tol = config.grad_tol * max(1.0, gnorm)
    state.converged = gnorm <= tol

    for _ in range(config.max_outer):
        if gnorm <= tol:
            state.converged = True
            break
        t0 = time.perf_counter()
        gnorm_in = gnorm
        system = NewtonSystem(obj, state.x, state.g_re, state.g_im)
        if config.snapshot_every > 0 and state.outer_iter % config.snapshot_every == 0:
            state.snapshots.append(SystemSnapshot(stage, state.outer_iter, system))
        # the next factor is written into the previous one's storage
        band = pre.release_band() if pre is not None else None
        pre = build_for_system(system, config.precond_mode, config.rho, config.precond_inner, band)
        eta_k = config.eta
        if config.eta_schedule == "decreasing":
            eta_k = min(config.eta, float(np.sqrt(gnorm)))

        outcome = pcg_solve(system.bhat_matvec, -grad, pre.action, eta_k, config.pcg_cap)
        counters.pcg_iters += outcome.iterations
        # one inner CG sweep per preconditioned residual (iterations + initial);
        # pre.inner is 0 unless the preconditioner runs truncated CG
        counters.precond_inner_iters += pre.inner * (outcome.iterations + 1)
        if outcome.negative_curvature:
            raise NegativeCurvatureError(
                f"nonpositive curvature in PCG at outer iteration {state.outer_iter}"
            )
        dx = outcome.solution
        grad_dot_dx = float(dx @ grad)
        energy = -grad_dot_dx  # zero-start CG identity: dx^T Bhat dx = -dx^T grad

        energy_explicit = None
        pcg_residual = None
        if config.audit:
            bdx = system.bhat_matvec(dx)
            counters.pcg_iters += 1
            energy_explicit = float(dx @ bdx)
            pcg_residual = float(np.linalg.norm(bdx + grad))

        dg_re, dg_im = system.dual_step(dx)
        g_new = project_linf((state.g_re + dg_re) + 1j * (state.g_im + dg_im))
        state.g_re, state.g_im = np.real(g_new), np.imag(g_new)
        dual_box = float(np.max(np.abs(g_new))) if g_new.size else 0.0

        counters.obj_evals += 1
        ls = line_search(
            obj, state.x, system.y, dx, energy, config.tau1, config.tau2, config.max_backtracks
        )
        counters.obj_evals += ls.backtracks + 1
        if not ls.accepted and energy_explicit is None:
            bdx = system.bhat_matvec(dx)
            counters.pcg_iters += 1
            energy_explicit = float(dx @ bdx)

        if ls.accepted:  # a rejected step leaves x, and so grad, as they were
            state.x = state.x + ls.alpha * dx
            grad, gnorm = _grad_and_norm(obj, state.x, counters)
        state.outer_iter += 1
        state.trace.append(
            IterationRecord(
                stage=stage,
                outer_iter=state.outer_iter,
                f=ls.f_new,
                grad_norm=gnorm,
                grad_norm_in=gnorm_in,
                pcg_iters=outcome.iterations,
                alpha=ls.alpha,
                backtracks=ls.backtracks,
                wall_time=time.perf_counter() - t0,
                eta=eta_k,
                energy=energy,
                grad_dot_dx=grad_dot_dx,
                dual_box=dual_box,
                accepted=ls.accepted,
                pcg_converged=outcome.converged,
                max_residual_drift=outcome.max_residual_drift,
                energy_explicit=energy_explicit,
                pcg_residual=pcg_residual,
            )
        )
    else:
        state.converged = gnorm <= tol

    return state
