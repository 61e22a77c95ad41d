"""Verification harness: derivative checks, invariant sweeps, rate probes.

All checks are deterministic under fixed seeds.  Reports are plain
dataclasses with a ``rows()`` method for CSV export and a ``passed``
flag for the command-line gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .smoothing import SmoothedObjective, fd_step, objective_grad, objective_value
from .solver import IterationRecord, NewtonSystem

__all__ = [
    "DerivativeReport",
    "InvariantReport",
    "check_derivatives",
    "check_solver_invariants",
    "rate_probe",
]


@dataclass
class DerivativeReport:
    trials: int
    grad_max_rel_err: float
    hess_max_rel_err: float
    grad_tol: float = 1.0e-6
    hess_tol: float = 1.0e-5

    @property
    def passed(self) -> bool:
        return self.grad_max_rel_err <= self.grad_tol and self.hess_max_rel_err <= self.hess_tol

    def rows(self) -> List[Tuple[str, float, float, bool]]:
        return [
            ("gradient", self.grad_max_rel_err, self.grad_tol,
             self.grad_max_rel_err <= self.grad_tol),
            ("hessian_action", self.hess_max_rel_err, self.hess_tol,
             self.hess_max_rel_err <= self.hess_tol),
        ]


def check_derivatives(obj: SmoothedObjective, trials: int = 50, seed: int = 0) -> DerivativeReport:
    """Compare the analytic gradient and Hessian action against central
    finite differences at random points along random unit directions.

    The Hessian action is the solver's own Newton matrix Bhat at the
    central duals, so the check covers the matrix that PCG solves with."""
    n = obj.n
    if n > 256:
        raise ValueError("derivative checks are meant for small instances (n <= 256)")
    rng = np.random.default_rng(seed)
    grad_err = 0.0
    hess_err = 0.0
    for _ in range(trials):
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        h = fd_step(x)

        fd_dir = (objective_value(obj, x + h * v) - objective_value(obj, x - h * v)) / (2 * h)
        g_dir = float(objective_grad(obj, x) @ v)
        grad_err = max(grad_err, abs(fd_dir - g_dir) / max(1.0, abs(fd_dir)))

        fd_hv = (objective_grad(obj, x + h * v) - objective_grad(obj, x - h * v)) / (2 * h)
        hv = NewtonSystem.at_central_duals(obj, x).bhat_matvec(v)
        hess_err = max(
            hess_err,
            float(np.linalg.norm(fd_hv - hv)) / max(1.0, float(np.linalg.norm(fd_hv))),
        )
    return DerivativeReport(trials, grad_err, hess_err)


@dataclass
class InvariantReport:
    violations: List[str] = field(default_factory=list)
    checked_records: int = 0
    box_tol: float = 1.0e-12
    energy_tol: float = 1.0e-8

    @property
    def passed(self) -> bool:
        return not self.violations

    def rows(self) -> List[Tuple[str, str]]:
        if not self.violations:
            return [("invariants", f"pass ({self.checked_records} records)")]
        return [("violation", v) for v in self.violations]


def check_solver_invariants(trace: Sequence[IterationRecord]) -> InvariantReport:
    """Audit a completed trace: per-stage monotone objective, dual box,
    the zero-start energy identity and the PCG stopping rule (the last
    two need records produced with auditing enabled)."""
    report = InvariantReport(checked_records=len(trace))
    prev_f = {}
    for rec in trace:
        tag = f"stage {rec.stage} iter {rec.outer_iter}"
        if rec.stage in prev_f and rec.f > prev_f[rec.stage] + 1e-12 * max(
            1.0, abs(prev_f[rec.stage])
        ):
            report.violations.append(f"{tag}: objective increased {prev_f[rec.stage]} -> {rec.f}")
        prev_f[rec.stage] = rec.f
        if rec.dual_box > 1.0 + report.box_tol:
            report.violations.append(f"{tag}: dual box violated, |g|_inf = {rec.dual_box}")
        if rec.energy_explicit is not None:
            gap = abs(rec.energy_explicit + rec.grad_dot_dx)
            if gap > report.energy_tol * max(1.0, abs(rec.grad_dot_dx)):
                report.violations.append(f"{tag}: energy identity off by {gap}")
        if rec.pcg_residual is not None:
            if rec.pcg_residual > rec.eta * rec.grad_norm_in * (1.0 + 1e-10):
                report.violations.append(
                    f"{tag}: PCG residual {rec.pcg_residual} exceeds "
                    f"eta*||grad|| = {rec.eta * rec.grad_norm_in}"
                )
    return report


def rate_probe(trace: Sequence[IterationRecord], window: int = 5) -> List[float]:
    """Consecutive gradient-norm ratios over the last ``window`` records
    of the final stage; empty when fewer than two records exist."""
    if not trace:
        return []
    last_stage = trace[-1].stage
    gnorms = [rec.grad_norm for rec in trace if rec.stage == last_stage]
    gnorms = gnorms[-(window + 1):]
    return [gnorms[i + 1] / gnorms[i] for i in range(len(gnorms) - 1)]
