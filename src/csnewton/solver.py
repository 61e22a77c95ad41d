"""Primal-dual Newton conjugate-gradients core loop.

One outer iteration, at the current primal x and the complex dual g
(one entry per analysis coefficient, each of modulus at most 1):

  1. build the symmetrized primal-dual matrix Bhat = c*sym(Bt) + A^T A
     as an action (sym(Bt) as an assembled sparse stencil for 2D
     gradients, matrix-free otherwise) and solve Bhat dx = -grad f with
     PCG until ||Bhat dx + grad f|| <= eta ||grad f||;
  2. take the full dual step and project the complex duals onto the
     componentwise unit ball, which keeps Bhat positive definite;
  3. backtrack on the primal step with the curvature term dx^T Bhat dx,
     from the product Bhat dx that PCG's exit gate forms; if no trial
     step passes, x stays put.

Dictionary-domain convention: the analysis channels of a real vector v
are the real and imaginary parts of W* v (``adjoint_apply``), and the
paired synthesis of two real vectors (p, q) back to the primal space is
Re(W (p + i q)) (``fast_synth_real``); the complex dual g then estimates
D * (W* x), whose componentwise modulus is below one by construction.
Each step analyses dx once: the dual step and the line search share
W* dx.  The loop rebinds g to a new array at each step and never
writes into it, so a Newton system built at one step stays valid.  The
dual-coupled matrix and the dual step are the exact linearization of
the optimality conditions in these channels (cross couplings enter with
a minus sign); correctness is pinned by the requirement that, with the
duals at their central values D * (W* x), the symmetrized matrix
reproduces the true Hessian of the smoothed objective.
``NewtonSystem.at_central_duals`` builds that system, and ``csnewton
check --suite derivatives`` compares its action with finite differences
of the gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import smoothing
from .krylov import NonFiniteError, pcg_solve
from .linops import stencil_matrix
from .precond import build_for_system
from .smoothing import SmoothedObjective, build_D, huber_value

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "SystemSnapshot",
    "LineSearchResult",
    "NewtonSystem",
    "project_linf",
    "line_search",
    "solve_subproblem",
    "fresh_state",
]

# Armijo backtracking: trial steps TAU1**j, sufficient decrease TAU2 (the paper's pair)
TAU1 = 0.9
TAU2 = 1.0e-3
MAX_BACKTRACKS = 200  # TAU1**200 ~ 7e-10; each trial costs O(l + m), no operator call


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the Newton loop; defaults follow the reference tuning.

    Only settings that some caller varies are fields.  The fixed ones are
    module constants: the Armijo pair ``TAU1``/``TAU2`` and
    ``MAX_BACKTRACKS`` here, the preconditioner shift ``precond.RHO``.
    pdNCG converges for Newton directions solved to the forcing term eta,
    so PCG's cap, 10 * n iterations (scipy's ``cg`` default), is derived
    from the problem and only stops a solve that never ends."""

    eta: float = 1.0e-1
    grad_tol: float = 1.0e-6
    max_outer: int = 100
    precond_mode: str = "none"  # none | exact_banded | truncated_cg
    eta_schedule: str = "fixed"  # fixed | decreasing
    snapshot_every: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        if self.precond_mode not in ("none", "exact_banded", "truncated_cg"):
            raise ValueError(f"unknown precond_mode {self.precond_mode!r}")
        if self.eta_schedule not in ("fixed", "decreasing"):
            raise ValueError(f"unknown eta_schedule {self.eta_schedule!r}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not 0.0 <= self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be nonnegative and finite, got {self.grad_tol}")
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
    energy: float  # dx^T Bhat dx, the line search's curvature term
    dual_box: float
    accepted: bool
    pcg_converged: bool
    max_residual_drift: float
    pcg_residual: float  # ||Bhat dx + grad f||
    precond_mode: str  # the stage's preconditioner
    f_in: float  # f at the iterate the step started from
    precond_sweeps: int  # inner CG sweeps of the step's preconditioner (truncated_cg only)
    kinks_crossed: int  # coefficients whose |W* x| crosses mu along the full step dx


@dataclass
class SystemSnapshot:
    """The Newton system one outer iteration built; the loop rebinds x and
    the duals and never writes into them, so the system stays valid."""

    stage: int
    outer_iter: int
    system: NewtonSystem


@dataclass(frozen=True)
class Counters:
    """Work tallies of a solve, summed from its trace by ``SolverState.counters``.

    Each field is a sum over the records: PCG iterations (plus the one
    Bhat product that a capped solve pays for), preconditioner sweeps,
    gradient evaluations (one at the entry of each call that takes a
    step, one per accepted step) and objective evaluations (the line
    search's trials and f(x)).  A ``solve_subproblem`` call that starts
    converged takes no step and leaves no record, so its entry gradient
    is not counted.
    It remains only because the benchmark (``perfbench/run.py``) reads
    ``state.counters``."""

    pcg_iters: int
    precond_inner_iters: int
    grad_evals: int
    obj_evals: int

    def total_matvecs(self) -> int:
        """One unit per Bhat action, inner sweep, gradient and objective value."""
        return self.pcg_iters + self.precond_inner_iters + self.grad_evals + self.obj_evals


@dataclass
class SolverState:
    """Primal x and complex dual g (modulus at most 1 componentwise, rebound
    at each step and never written in place), with the trace of the steps."""

    x: np.ndarray
    g: np.ndarray
    trace: List[IterationRecord] = field(default_factory=list)
    snapshots: List[SystemSnapshot] = field(default_factory=list)
    converged: bool = False

    @property
    def counters(self) -> Counters:
        return Counters(sum(r.pcg_iters + (not r.pcg_converged) for r in self.trace),
                        sum(r.precond_sweeps for r in self.trace),
                        sum((r.outer_iter == 1) + r.accepted for r in self.trace),
                        sum(r.backtracks + 2 for r in self.trace))


def fresh_state(obj: SmoothedObjective) -> SolverState:
    """Zero primal and dual start; satisfies the dual box constraint."""
    return SolverState(x=np.zeros(obj.n), g=np.zeros(obj.W.cols, dtype=np.complex128))


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
    diagonals of sym(Bt)) at a given x and complex dual g, then exposes
    the symmetrized curvature action, the full Bhat action and the affine
    dual step.  The loop passes its g, of modulus at most 1 componentwise;
    the system keeps that array, which the loop rebinds at each step and
    never writes into.

    When the dictionary has a ``curvature_diagonals`` kernel (the 2D
    gradient), sym(Bt) is assembled once, as a sparse 7-diagonal stencil,
    and each curvature action is one sparse product.  Other dictionaries
    (dense ones) apply it as W*, a diagonal scaling and ``fast_synth_real``;
    assembling their S would cost O(n^2 l).
    """

    def __init__(self, obj: SmoothedObjective, x: np.ndarray, g: np.ndarray):
        self.obj = obj
        self.x = x
        self.g = np.asarray(g, dtype=np.complex128)
        W = obj.W
        self.y = W.adjoint_apply(x)
        self.d = build_D(self.y, obj.mu)
        self.rx = np.real(self.y)
        self.ix = np.imag(self.y)
        self.b2 = self.d * self.g.real * self.ix
        self.b3 = self.d * self.g.imag * self.rx
        # diagonals of the symmetric part: D(I-B1), D(I-B4), -D(B2+B3)/2
        self.d1 = self.d * (1.0 - self.d * self.g.real * self.rx)
        self.d4 = self.d * (1.0 - self.d * self.g.imag * self.ix)
        self.d23 = -0.5 * self.d * (self.b2 + self.b3)
        # upper diagonals (offsets, diags) of sym(Bt), with a stencil kernel only
        self.stencil = None
        self._symb = None
        if W.curvature_diagonals is not None:
            self.stencil = W.curvature_diagonals(self.d1, self.d4, self.d23)
            self._symb = stencil_matrix(*self.stencil)

    @classmethod
    def at_central_duals(cls, obj: SmoothedObjective, x: np.ndarray) -> NewtonSystem:
        """The system at the central duals D*W* x, where sym(Bt) = Bt and
        Bhat is the exact Hessian of the smoothed objective at x."""
        y = obj.W.adjoint_apply(x)
        return cls(obj, x, build_D(y, obj.mu) * y)

    def symb_matvec(self, v: np.ndarray) -> np.ndarray:
        """Action of sym(Bt), the symmetrized dual-coupled curvature."""
        if self._symb is not None:
            return self._symb @ v
        W = self.obj.W
        yv = W.adjoint_apply(v)
        rv, iv = yv.real, yv.imag
        return W.fast_synth_real(self.d1 * rv + self.d23 * iv, self.d4 * iv + self.d23 * rv)

    def bhat_matvec(self, v: np.ndarray) -> np.ndarray:
        A = self.obj.A
        return self.obj.c * self.symb_matvec(v) + A.adjoint_apply(A.apply(v))

    def dual_step(self, ydx: np.ndarray) -> np.ndarray:
        """Affine complex dual increment for the primal direction dx whose
        analysis ``ydx`` = W* dx the caller has formed."""
        rdx, idx = ydx.real, ydx.imag
        d = self.d
        dg_re = self.d1 * rdx - d * self.b2 * idx - self.g.real + d * self.rx
        dg_im = self.d4 * idx - d * self.b3 * rdx - self.g.imag + d * self.ix
        return dg_re + 1j * dg_im


@dataclass
class LineSearchResult:
    alpha: float
    backtracks: int
    accepted: bool
    f_new: float
    f_x: float
    kinks_crossed: int  # coefficients i with (|y_i| < mu) != (|y_i + ydx_i| < mu)


def line_search(
    obj: SmoothedObjective,
    x: np.ndarray,
    y: np.ndarray,
    dx: np.ndarray,
    ydx: np.ndarray,
    energy: float,
) -> LineSearchResult:
    """Least j in [0, MAX_BACKTRACKS] with f(x + TAU1^j dx) <= f(x) - TAU2 TAU1^j energy.

    ``y`` and ``ydx`` are the analyses W* x and W* dx, which the caller
    has formed, and ``energy`` the quadratic form dx^T Bhat dx (not its
    square root).  After two A actions the sufficient-decrease test is
    evaluated from the transforms of x and dx, so each trial costs
    O(l + m) flops and no operator calls.
    ``f_x`` is f(x) itself.  Exhaustion returns ``alpha = 0`` and
    ``f_new = f(x)`` with ``accepted=False``: a step that fails the test
    is never taken.  ``kinks_crossed`` counts the analysis coefficients
    on opposite sides of |.| = mu at x and at x + dx, an observable of
    where the smoothed objective bends along the step.
    """
    r = obj.A.apply(x) - obj.b
    rdx = obj.A.apply(dx)
    kinks = int(np.count_nonzero((np.abs(y) < obj.mu) != (np.abs(y + ydx) < obj.mu)))

    def value(a: float) -> float:
        res = r + a * rdx
        return obj.c * huber_value(y + a * ydx, obj.mu) + 0.5 * float(res @ res)

    f_x = value(0.0)
    for j in range(MAX_BACKTRACKS + 1):
        a = TAU1**j
        f_trial = value(a)
        if not np.isfinite(f_trial):
            raise NonFiniteError(f"non-finite objective in line search at j={j}")
        if f_trial <= f_x - TAU2 * a * energy:
            return LineSearchResult(a, j, True, f_trial, f_x, kinks)
    return LineSearchResult(0.0, MAX_BACKTRACKS, False, f_x, f_x, kinks)


def _grad_and_norm(obj: SmoothedObjective, x: np.ndarray):
    # looked up in smoothing at each call, so that a patch of it there is seen
    g = smoothing.objective_grad(obj, x)
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
    from a previous subproblem are always admissible.  The steps of each
    call are numbered from 1 (records) and from 0 (snapshots), whatever
    the trace of ``init`` already holds.
    """
    state = init if init is not None else fresh_state(obj)
    state.g = project_linf(state.g)

    pre = None
    grad, gnorm = _grad_and_norm(obj, state.x)
    tol = config.grad_tol * max(1.0, gnorm)

    for k in range(config.max_outer):
        if gnorm <= tol:
            break
        t0 = time.perf_counter()
        gnorm_in = gnorm
        system = NewtonSystem(obj, state.x, state.g)
        if config.snapshot_every > 0 and k % config.snapshot_every == 0:
            state.snapshots.append(SystemSnapshot(stage, k, system))
        pre = build_for_system(system, config.precond_mode, pre)
        eta_k = config.eta
        if config.eta_schedule == "decreasing":
            eta_k = min(config.eta, float(np.sqrt(gnorm)))

        outcome = pcg_solve(system.bhat_matvec, -grad, pre.action, eta_k, cap=10 * obj.n,
                            flexible=not pre.linear)
        dx = outcome.solution
        bdx = outcome.op_solution
        if bdx is None:  # a capped solve: its exit gate never formed Bhat dx
            bdx = system.bhat_matvec(dx)
        energy = float(dx @ bdx)
        pcg_residual = float(np.linalg.norm(bdx + grad))

        ydx = obj.W.adjoint_apply(dx)  # shared by the dual step and the line search
        state.g = project_linf(state.g + system.dual_step(ydx))
        dual_box = float(np.max(np.abs(state.g))) if state.g.size else 0.0

        ls = line_search(obj, state.x, system.y, dx, ydx, energy)
        del system, ydx  # the next system is built without this one or its W* dx

        if ls.accepted:  # a rejected step leaves x, and so grad, as they were
            state.x = state.x + ls.alpha * dx
            grad, gnorm = _grad_and_norm(obj, state.x)
        state.trace.append(
            IterationRecord(
                stage=stage,
                outer_iter=k + 1,
                f=ls.f_new,
                grad_norm=gnorm,
                grad_norm_in=gnorm_in,
                pcg_iters=outcome.iterations,
                alpha=ls.alpha,
                backtracks=ls.backtracks,
                wall_time=time.perf_counter() - t0,
                eta=eta_k,
                energy=energy,
                dual_box=dual_box,
                accepted=ls.accepted,
                pcg_converged=outcome.converged,
                max_residual_drift=outcome.max_residual_drift,
                pcg_residual=pcg_residual,
                precond_mode=config.precond_mode,
                f_in=ls.f_x,
                precond_sweeps=pre.sweeps,
                kinks_crossed=ls.kinks_crossed,
            )
        )
    state.converged = gnorm <= tol
    return state
