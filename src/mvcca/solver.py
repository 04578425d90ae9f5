"""Penalty/dual solver for regularized sum-of-correlations multiview CCA.

The problem couples I sparse views through per-view factors Q_i and
orthonormal latent blocks G_i tied by the slack constraints
``X_i Q_i = G_i``.  The main driver alternates an inexact sub-solver
(prox-gradient steps on every Q_i, then a polar-factor update of every
G_i) with a feasibility test: when the slack residual is small enough
the duals take an ascent step, otherwise the penalty weight grows.  A
plain ADMM driver with fixed penalty is the same loop with one sweep
and a dual step at every outer iteration, kept as a baseline; it has no
convergence guarantee on this nonconvex problem.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import regularizers as rg
from .linalg import (SparseView, pairwise_inner_sum, polar_factor,
                     spectral_norm_sq, spmm_left_t, spmm_right)

logger = logging.getLogger(__name__)

TRACE_COLUMNS = ("iter", "seconds", "rho", "primal_residual", "lagrangian",
                 "total_correlation")


class RegularityError(ValueError):
    """Problem dimensions too small for the constraint system to be regular."""


class StepSizeError(RuntimeError):
    """The sub-solver objective increased; the gradient step is mis-tuned."""


class EmptyViewError(ValueError):
    """A view with zero spectral norm cannot drive a gradient step."""


@dataclass
class SolverConfig:
    """Knobs for both solver modes.

    ``eta0`` sets the feasibility schedule eta(r) = eta0 / r that gates
    dual updates; ``eps0``/``eps_decay`` set the sub-solver accuracy
    schedule eps(r) = eps0 * eps_decay**r.  ``tol_feas`` = None means
    1e-6 * L * K at run time.
    """

    k: int
    rho0: float = 2.0
    c: float = 0.9
    eta0: float = 100.0
    eps0: float = 1e-2
    eps_decay: float = 0.9
    sub_max_sweeps: int = 5
    q_steps: int = 1
    outer_max: int = 500
    tol_feas: float | None = None
    tol_change: float = 1e-6
    safety: float = 0.9
    mode: str = "pdd"
    seed: int = 0
    power_iters: int = 100
    check_descent: bool = True
    virtual_clock: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.rho0 <= 0:
            raise ValueError("rho0 must be > 0")
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must be in (0, 1)")
        if self.eta0 <= 0 or self.eps0 <= 0:
            raise ValueError("schedules must start positive")
        if not 0.0 < self.eps_decay < 1.0:
            raise ValueError("eps_decay must be in (0, 1)")
        if min(self.sub_max_sweeps, self.q_steps, self.outer_max) < 1:
            raise ValueError("counts must be >= 1")
        if self.tol_feas is not None and self.tol_feas < 0:
            raise ValueError("tol_feas must be >= 0")
        if self.mode not in ("pdd", "admm"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def eta(self, r: int) -> float:
        return self.eta0 / max(r, 1)

    def eps(self, r: int) -> float:
        return self.eps0 * self.eps_decay ** r


@dataclass
class TraceRow:
    iteration: int
    seconds: float
    rho: float
    primal_residual: float
    lagrangian: float
    total_correlation: float


class Trace:
    """Per-outer-iteration history plus the ideal correlation K*I*(I-1)."""

    def __init__(self, ideal: float):
        self.ideal = float(ideal)
        self.rows: list[TraceRow] = []

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> np.ndarray:
        attr = "iteration" if name == "iter" else name
        return np.array([getattr(r, attr) for r in self.rows])

    def percents(self) -> np.ndarray:
        return 100.0 * self.column("total_correlation") / self.ideal

    def to_csv(self, path) -> None:
        lines = [",".join(TRACE_COLUMNS)]
        for r in self.rows:
            lines.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (
                r.iteration, r.seconds, r.rho, r.primal_residual,
                r.lagrangian, r.total_correlation))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, ideal: float) -> "Trace":
        trace = cls(ideal)
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != ",".join(TRACE_COLUMNS):
                raise ValueError(f"unexpected trace header {header!r}")
            for line in fh:
                vals = line.strip().split(",")
                if len(vals) != len(TRACE_COLUMNS):
                    raise ValueError("malformed trace row")
                trace.append(TraceRow(int(vals[0]), *map(float, vals[1:])))
        return trace


class SolverState:
    """All per-view iterates plus the product caches P_i = X_i Q_i.

    The caches are the single source of truth for products with the
    views: they are refreshed inside the Q update (the only place Q
    changes) and read everywhere else, so each sweep touches every
    sparse matrix exactly twice per gradient step.
    """

    def __init__(self, views: Sequence[SparseView], q, g, y, rho: float = 0.0):
        self.views = list(views)
        self.q = [np.array(a, dtype=np.float64) for a in q]
        self.g = [np.array(a, dtype=np.float64) for a in g]
        self.y = [np.array(a, dtype=np.float64) for a in y]
        self.p = [spmm_right(v, qi) for v, qi in zip(self.views, self.q)]
        self.rho = float(rho)
        self.sigma_sq: list[float] | None = None

    @property
    def num_views(self) -> int:
        return len(self.views)

    @property
    def k(self) -> int:
        return self.g[0].shape[1]

    def copy(self) -> "SolverState":
        dup = SolverState.__new__(SolverState)
        dup.views = list(self.views)
        dup.q = [a.copy() for a in self.q]
        dup.g = [a.copy() for a in self.g]
        dup.y = [a.copy() for a in self.y]
        dup.p = [a.copy() for a in self.p]
        dup.rho = self.rho
        dup.sigma_sq = None if self.sigma_sq is None else list(self.sigma_sq)
        return dup

    def ensure_sigma(self, power_iters: int, seed: int) -> None:
        """Cache the squared spectral norm of every view (seeded power runs)."""
        if self.sigma_sq is not None:
            return
        subseeds = np.random.SeedSequence(seed).generate_state(self.num_views)
        self.sigma_sq = [
            spectral_norm_sq(v, power_iters, int(s))
            for v, s in zip(self.views, subseeds)]


def validate_dimensions(views: Sequence[SparseView], k: int) -> None:
    """Check the dimension conditions that keep the constraint system regular.

    Requires the mean feature count and the shared row count to be at
    least (K+1)/2, and all views to agree on the row count.
    """
    views = list(views)
    if not views:
        raise ValueError("no views given")
    l_rows = views[0].shape[0]
    if any(v.shape[0] != l_rows for v in views):
        raise ValueError("views disagree on row count")
    bound = (k + 1) / 2.0
    mean_cols = sum(v.shape[1] for v in views) / len(views)
    if mean_cols < bound:
        raise RegularityError(
            f"regularity check failed: mean feature count {mean_cols:g} "
            f"< (K+1)/2 = {bound:g}")
    if l_rows < bound:
        raise RegularityError(
            f"regularity check failed: row count {l_rows} "
            f"< (K+1)/2 = {bound:g}")


def init_random(views: Sequence[SparseView], k: int, seed: int) -> SolverState:
    """Seeded start: G_i orthonormalized Gaussian, Q_i and Y_i zero."""
    rng = np.random.default_rng(seed)
    l_rows = views[0].shape[0]
    g = [polar_factor(rng.standard_normal((l_rows, k))) for _ in views]
    q = [np.zeros((v.shape[1], k)) for v in views]
    y = [np.zeros((l_rows, k)) for _ in views]
    return SolverState(views, q, g, y)


def _sum_except(mats: Sequence[np.ndarray], skip: int) -> np.ndarray:
    # accumulate in ascending view order so results are schedule-independent
    acc = np.zeros_like(mats[0])
    for j, m in enumerate(mats):
        if j != skip:
            acc += m
    return acc


def grad_q(i: int, state: SolverState, rho: float) -> np.ndarray:
    """Gradient of the smooth part of the block-i objective.

    Evaluates X_i^T [(I-1+rho) X_i Q_i - sum_{j!=i} G_j - rho G_i + Y_i]
    using the cached product P_i, so the cost is one sparse transpose
    product, O(nnz(X_i) * K).
    """
    n = state.num_views
    agg = (n - 1 + rho) * state.p[i]
    agg -= _sum_except(state.g, i)
    agg -= rho * state.g[i]
    agg += state.y[i]
    return spmm_left_t(state.views[i], agg)


def step_size(i: int, state: SolverState, rho: float,
              safety: float = 0.9) -> float:
    """Inverse Lipschitz bound for the block-i gradient, times a safety factor.

    The smooth block Hessian is (I-1+rho) X_i^T X_i, so
    alpha = safety / ((I-1+rho) * sigma_max^2(X_i)).
    """
    if state.sigma_sq is None:
        raise RuntimeError("spectral norms not cached; call ensure_sigma")
    sigma = state.sigma_sq[i]
    if sigma <= 0.0:
        raise EmptyViewError("empty view")
    return safety / ((state.num_views - 1 + rho) * sigma)


def update_q(i: int, state: SolverState, rho: float, reg: rg.Regularizer,
             q_steps: int = 1, safety: float = 0.9) -> np.ndarray:
    """Prox-gradient step(s) on Q_i with all G blocks frozen.

    Each step moves along the negative gradient with the safeguarded
    step size, applies the penalty's prox, and refreshes the cache
    P_i = X_i Q_i.
    """
    alpha = step_size(i, state, rho, safety)
    for _ in range(q_steps):
        grad = grad_q(i, state, rho)
        if not np.all(np.isfinite(grad)):
            raise ValueError("non-finite gradient in Q update")
        state.q[i] = rg.prox(reg, state.q[i] - alpha * grad, alpha)
        state.p[i] = spmm_right(state.views[i], state.q[i])
    return state.q[i]


def update_g(i: int, state: SolverState, rho: float) -> np.ndarray:
    """Closest-orthonormal update of G_i from the fresh product caches.

    The minimizer over orthonormal G of the block objective is the
    polar factor of sum_{j!=i} P_j + rho P_i + Y_i.
    """
    agg = _sum_except(state.p, i)
    agg += rho * state.p[i]
    agg += state.y[i]
    state.g[i] = polar_factor(agg, gram_jitter=1e-12)
    return state.g[i]


def primal_residual(state: SolverState) -> float:
    """Total squared slack sum_i ||X_i Q_i - G_i||_F^2 from the caches."""
    val = 0.0
    for p_i, g_i in zip(state.p, state.g):
        diff = p_i - g_i
        val += float(np.sum(diff * diff))
    return val


def _lagrangian(state: SolverState, rho: float,
                regs: Sequence[rg.Regularizer], reg_weight: float) -> float:
    val = 0.0
    n = state.num_views
    for i in range(n):
        for j in range(n):
            if j != i:
                diff = state.p[i] - state.g[j]
                val += 0.5 * float(np.sum(diff * diff))
    for i in range(n):
        val += reg_weight * rg.penalty_value(regs[i], state.q[i])
    for i in range(n):
        slack = state.p[i] - state.g[i] + state.y[i] / rho
        val += 0.5 * rho * float(np.sum(slack * slack))
    return val


def lagrangian_value(state: SolverState, rho: float, regs) -> float:
    """Augmented Lagrangian of the split problem (tracing/assertions only).

    The coupling term is summed over ordered view pairs, matching the
    per-block gradients and polar-factor aggregates the updates use, so
    this is the functional the sub-solver actually descends.
    """
    return _lagrangian(state, rho, _as_reg_list(regs, state.num_views), 1.0)


def _monotone_objective(state: SolverState, rho: float,
                        regs: Sequence[rg.Regularizer]) -> float:
    # regularizers enter the prox at half weight, so descent is only
    # guaranteed for the half-weighted functional; identical to
    # lagrangian_value whenever all penalties are "none"
    return _lagrangian(state, rho, regs, 0.5)


def dual_or_penalty_step(state: SolverState, residual: float, eta_r: float,
                         c: float) -> bool:
    """Dual ascent when the slack residual meets the schedule, else grow rho.

    Returns True when the duals moved.  On failure the penalty weight is
    divided by c (an increase, since 0 < c < 1) and the duals stay put.
    """
    if residual <= eta_r:
        for i in range(state.num_views):
            state.y[i] += state.rho * (state.p[i] - state.g[i])
        return True
    state.rho = state.rho / c
    logger.debug("penalty raised to %.6g (residual %.3g > %.3g)",
                 state.rho, residual, eta_r)
    return False


def _as_reg_list(regs, n: int) -> list[rg.Regularizer]:
    if regs is None:
        return [rg.NONE] * n
    if isinstance(regs, rg.Regularizer):
        return [regs] * n
    regs = list(regs)
    if len(regs) != n:
        raise ValueError(f"got {len(regs)} regularizers for {n} views")
    return regs


def _max_change(state: SolverState, q_prev, g_prev) -> float:
    """Largest entrywise change of any Q_i or G_i since the snapshots."""
    delta = 0.0
    for i in range(state.num_views):
        delta = max(delta,
                    float(np.max(np.abs(state.q[i] - q_prev[i]))),
                    float(np.max(np.abs(state.g[i] - g_prev[i]))))
    return delta


def run_subsolver(state: SolverState, rho: float, eps_r: float,
                  max_sweeps: int, regs=None, q_steps: int = 1,
                  safety: float = 0.9, check_descent: bool = True) -> int:
    """Inexact alternating sweeps at fixed duals and penalty.

    Each sweep updates every Q_i (all G frozen), then every G_i from the
    fresh caches.  Sweeping stops when the largest entrywise change of any
    iterate drops to ``eps_r`` or after ``max_sweeps``.  Returns the
    number of sweeps taken.

    With ``check_descent`` the half-weighted Lagrangian is verified to
    be non-increasing across sweeps; an increase beyond slack means the
    step size rule was violated and raises :class:`StepSizeError`.
    """
    if eps_r <= 0:
        raise ValueError("eps_r must be > 0")
    n = state.num_views
    regs = _as_reg_list(regs, n)
    prev = _monotone_objective(state, rho, regs) if check_descent else None
    for sweep in range(1, max_sweeps + 1):
        q_prev = [a.copy() for a in state.q]
        g_prev = [a.copy() for a in state.g]
        for i in range(n):
            update_q(i, state, rho, regs[i], q_steps, safety)
        for i in range(n):
            update_g(i, state, rho)
        if check_descent:
            cur = _monotone_objective(state, rho, regs)
            if cur > prev + 1e-9 * max(1.0, abs(prev)):
                raise StepSizeError(
                    f"step size violation: sub-solver objective rose "
                    f"{prev:.12g} -> {cur:.12g}")
            prev = cur
        if _max_change(state, q_prev, g_prev) <= eps_r:
            return sweep
    return max_sweeps


def _run(views, config: SolverConfig, regs, init, max_sweeps: int,
         eps: Callable[[int], float], eta: Callable[[int], float]):
    """Outer loop shared by both drivers.

    Outer iteration r runs the sub-solver for at most ``max_sweeps``
    sweeps to accuracy ``eps(r)``, then takes a dual step when the slack
    residual is within ``eta(r)`` and grows the penalty otherwise.
    """
    start = time.perf_counter()
    views = list(views)
    validate_dimensions(views, config.k)
    n = len(views)
    regs = _as_reg_list(regs, n)
    state = init.copy() if init is not None else init_random(
        views, config.k, config.seed)
    if state.k != config.k:
        raise ValueError("initial state disagrees with config.k")
    state.rho = config.rho0
    state.ensure_sigma(config.power_iters, config.seed)

    l_rows = views[0].shape[0]
    tol_feas = (config.tol_feas if config.tol_feas is not None
                else 1e-6 * l_rows * config.k)
    trace = Trace(config.k * n * (n - 1))

    def record(r: int, residual: float) -> None:
        seconds = float(r) if config.virtual_clock \
            else time.perf_counter() - start
        trace.append(TraceRow(r, seconds, state.rho, residual,
                              lagrangian_value(state, state.rho, regs),
                              2.0 * pairwise_inner_sum(state.p)))

    record(0, primal_residual(state))
    for r in range(1, config.outer_max + 1):
        q_prev = [a.copy() for a in state.q]
        g_prev = [a.copy() for a in state.g]
        run_subsolver(state, state.rho, eps(r), max_sweeps, regs,
                      config.q_steps, config.safety, config.check_descent)
        # neither step below moves P or G, so the residual stays current
        res = primal_residual(state)
        dual_or_penalty_step(state, res, eta(r), config.c)
        record(r, res)
        change = _max_change(state, q_prev, g_prev)
        if res <= tol_feas and change <= config.tol_change:
            logger.info("converged at outer iteration %d "
                        "(residual %.3g, change %.3g)", r, res, change)
            break
    return state, trace


def run_pdd(views, config: SolverConfig, regs=None, init=None):
    """Adaptive-penalty driver: sub-solver sweeps plus dual/penalty steps.

    Returns the final state (factors Q_i, latents G_i, duals Y_i) and
    the per-iteration trace.  Deterministic given the config seed.  The
    trace clock starts at the call, so its seconds include the start
    point and the spectral-norm estimates.
    """
    return _run(views, config, regs, init, config.sub_max_sweeps,
                config.eps, config.eta)


def _unbounded(r: int) -> float:
    return math.inf


def run_admm(views, config: SolverConfig, regs=None, init=None):
    """Fixed-penalty baseline: one Q pass, one G pass, dual step per cycle.

    The :func:`run_pdd` loop with a single sweep and no accuracy or
    feasibility target, so every outer step is a dual step and the
    penalty weight never changes.  Carries no convergence guarantee on
    this nonconvex problem.
    """
    return _run(views, config, regs, init, 1, _unbounded, _unbounded)
