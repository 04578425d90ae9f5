"""Penalty/dual solver for regularized sum-of-correlations multiview CCA.

The problem couples I sparse views through per-view factors Q_i and
orthonormal latent blocks G_i tied by the slack constraints
``X_i Q_i = G_i``.  The main driver alternates an inexact sub-solver
(prox-gradient steps on every Q_i, then a polar-factor update of every
G_i) with a feasibility test: when the slack residual is small enough
the duals take an ascent step, otherwise the penalty weight grows.  The
fixed-penalty ADMM baseline is the same driver configured with
``sub_max_sweeps = 1`` and ``eta0 = inf``: one sweep and a dual step at
every outer iteration.  It has no convergence guarantee on this
nonconvex problem.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Sequence

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
    """Knobs of the solver.

    ``eta0`` sets the feasibility schedule eta(r) = eta0 / r that gates
    dual updates; ``eps0``/``eps_decay`` set the sub-solver accuracy
    schedule eps(r) = eps0 * eps_decay**r.  ``tol_feas`` = None means
    1e-6 * L * K at run time.  ``sub_max_sweeps = 1`` with
    ``eta0 = inf`` gives the fixed-penalty ADMM baseline.
    """

    k: int
    rho0: float = 2.0
    c: float = 0.9
    eta0: float = 100.0
    eps0: float = 1e-2
    eps_decay: float = 0.9
    sub_max_sweeps: int = 5
    outer_max: int = 500
    tol_feas: float | None = None
    tol_change: float = 1e-6
    safety: float = 0.9
    seed: int = 0
    virtual_clock: bool = False

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for name in ("rho0", "eps0", "safety"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")
        if not self.eta0 > 0:
            raise ValueError("eta0 must be > 0")
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must be in (0, 1)")
        if not 0.0 < self.eps_decay < 1.0:
            raise ValueError("eps_decay must be in (0, 1)")
        if min(self.sub_max_sweeps, self.outer_max) < 1:
            raise ValueError("counts must be >= 1")
        if self.tol_feas is not None and not self.tol_feas >= 0:
            raise ValueError("tol_feas must be >= 0")
        if not self.tol_change >= 0:
            raise ValueError("tol_change must be >= 0")

    def eta(self, r: int) -> float:
        return self.eta0 / max(r, 1)

    def eps(self, r: int) -> float:
        # floored so a long solve never asks the sub-solver for eps = 0
        return max(self.eps0 * self.eps_decay ** r, np.finfo(float).tiny)


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
        if not trace.rows:
            raise ValueError("trace has no rows")
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

    def ensure_sigma(self, seed: int) -> None:
        """Cache the squared spectral norm of every view (seeded Lanczos)."""
        if self.sigma_sq is not None:
            return
        subseeds = np.random.SeedSequence(seed).generate_state(self.num_views)
        self.sigma_sq = [
            spectral_norm_sq(v, int(s))
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


def _total(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of all view blocks, accumulated in ascending view order."""
    acc = mats[0].copy()
    for m in mats[1:]:
        acc += m
    return acc


def grad_q(i: int, state: SolverState, rho: float,
           sum_g: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the smooth part of the block-i objective.

    Evaluates X_i^T [(I-1+rho) X_i Q_i - sum_{j!=i} G_j - rho G_i + Y_i]
    using the cached product P_i, so the cost is one sparse transpose
    product, O(nnz(X_i) * K).  ``sum_g`` is the total of all G blocks;
    a sweep passes it in once for all views, and it is formed here when
    omitted.
    """
    if sum_g is None:
        sum_g = _total(state.g)
    n = state.num_views
    agg = (n - 1 + rho) * state.p[i]
    agg -= sum_g
    agg += (1.0 - rho) * state.g[i]
    agg += state.y[i]
    return spmm_left_t(state.views[i], agg)


def step_size(i: int, state: SolverState, rho: float,
              safety: float = SolverConfig.safety) -> float:
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
             safety: float = SolverConfig.safety,
             sum_g: np.ndarray | None = None) -> np.ndarray:
    """One prox-gradient step on Q_i with all G blocks frozen.

    The step moves along the negative gradient with the safeguarded
    step size, applies the penalty's prox, and refreshes the cache
    P_i = X_i Q_i.  ``sum_g`` is passed on to :func:`grad_q`.
    """
    alpha = step_size(i, state, rho, safety)
    grad = grad_q(i, state, rho, sum_g)
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient in Q update")
    state.q[i] = rg.prox(reg, state.q[i] - alpha * grad, alpha)
    state.p[i] = spmm_right(state.views[i], state.q[i])
    return state.q[i]


def update_g(i: int, state: SolverState, rho: float,
             sum_p: np.ndarray | None = None) -> np.ndarray:
    """Closest-orthonormal update of G_i from the fresh product caches.

    The minimizer over orthonormal G of the block objective is the
    polar factor of sum_{j!=i} P_j + rho P_i + Y_i.  ``sum_p`` is the
    total of all P blocks; a sweep passes it in once for all views, and
    it is formed here when omitted.
    """
    if sum_p is None:
        sum_p = _total(state.p)
    agg = (rho - 1.0) * state.p[i]
    agg += sum_p
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


def lagrangian_value(state: SolverState, rho: float, regs,
                     sum_p: np.ndarray | None = None,
                     sum_g: np.ndarray | None = None) -> float:
    """Augmented Lagrangian the sub-solver descends (traced and checked).

    The coupling is summed over ordered view pairs, as in the updates.
    Penalties enter at half weight, 1/2 * sum_i r_i(Q_i), because the
    prox has no 1/2 on its quadratic (see :mod:`.regularizers`).  The
    totals of all P and G blocks are formed here when omitted.
    """
    regs = _as_reg_list(regs, state.num_views)
    if sum_p is None:
        sum_p = _total(state.p)
    if sum_g is None:
        sum_g = _total(state.g)
    # the ordered-pair coupling sum_{i!=j} ||P_i - G_j||^2 / 2 expands to
    # ((I-1) sum_i (||P_i||^2 + ||G_i||^2)) / 2
    #     - (<sum P, sum G> - sum_i <P_i, G_i>),
    # so one pass over the views costs O(I L K) instead of O(I^2 L K)
    n = state.num_views
    squares = 0.0
    matched = 0.0
    val = 0.0
    for i in range(n):
        p_i, g_i = state.p[i], state.g[i]
        squares += float(np.vdot(p_i, p_i)) + float(np.vdot(g_i, g_i))
        matched += float(np.vdot(p_i, g_i))
        val += 0.5 * rg.penalty_value(regs[i], state.q[i])
        slack = state.y[i] / rho
        slack += p_i
        slack -= g_i
        val += 0.5 * rho * float(np.vdot(slack, slack))
    cross = float(np.vdot(sum_p, sum_g)) - matched
    return val + 0.5 * (n - 1) * squares - cross


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
                  max_sweeps: int, regs=None,
                  safety: float = SolverConfig.safety,
                  start: float | None = None) -> int:
    """Inexact alternating sweeps at fixed duals and penalty.

    Each sweep updates every Q_i (all G frozen), then every G_i from the
    fresh caches.  Sweeping stops when the largest entrywise change of any
    iterate drops to ``eps_r`` or after ``max_sweeps``.  Returns the
    number of sweeps taken.

    :func:`lagrangian_value` is verified to be non-increasing across
    sweeps; an increase beyond slack means the step size rule was
    violated and raises :class:`StepSizeError`.  ``start`` is its value
    at the entry state, when the caller already has it.
    """
    if eps_r <= 0:
        raise ValueError("eps_r must be > 0")
    n = state.num_views
    regs = _as_reg_list(regs, n)
    # each pass reads one total, formed while its blocks are frozen; the
    # objective reads both, and the G total carries into the next sweep
    sum_g = _total(state.g)
    prev = start if start is not None else lagrangian_value(
        state, rho, regs, sum_g=sum_g)
    for sweep in range(1, max_sweeps + 1):
        # the updates rebind Q_i and G_i and never write them in place,
        # so lists of the current blocks are snapshots
        q_prev, g_prev = list(state.q), list(state.g)
        for i in range(n):
            update_q(i, state, rho, regs[i], safety, sum_g)
        sum_p = _total(state.p)
        for i in range(n):
            update_g(i, state, rho, sum_p)
        sum_g = _total(state.g)
        cur = lagrangian_value(state, rho, regs, sum_p, sum_g)
        if cur > prev + 1e-9 * max(1.0, abs(prev)):
            raise StepSizeError(
                f"step size violation: sub-solver objective rose "
                f"{prev:.12g} -> {cur:.12g}")
        prev = cur
        if _max_change(state, q_prev, g_prev) <= eps_r:
            return sweep
    return max_sweeps


def run_pdd(views, config: SolverConfig, regs=None, init=None):
    """Adaptive-penalty driver: sub-solver sweeps plus dual/penalty steps.

    Outer iteration r runs the sub-solver for at most
    ``config.sub_max_sweeps`` sweeps to accuracy ``config.eps(r)``, then
    takes a dual step when the slack residual is within
    ``config.eta(r)`` and grows the penalty otherwise.

    Returns the final state (factors Q_i, latents G_i, duals Y_i) and
    the per-iteration trace.  Deterministic given the config seed.  The
    trace clock starts at the call, so its seconds include the start
    point and the spectral-norm estimates.
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
    state.ensure_sigma(config.seed)

    l_rows = views[0].shape[0]
    tol_feas = (config.tol_feas if config.tol_feas is not None
                else 1e-6 * l_rows * config.k)
    trace = Trace(config.k * n * (n - 1))

    def record(r: int, residual: float) -> float:
        # nothing moves before the next sub-solver, whose entry value it is
        seconds = float(r) if config.virtual_clock \
            else time.perf_counter() - start
        value = lagrangian_value(state, state.rho, regs)
        trace.append(TraceRow(r, seconds, state.rho, residual, value,
                              2.0 * pairwise_inner_sum(state.p)))
        return value

    value = record(0, primal_residual(state))
    for r in range(1, config.outer_max + 1):
        q_prev, g_prev = list(state.q), list(state.g)
        run_subsolver(state, state.rho, config.eps(r), config.sub_max_sweeps,
                      regs, config.safety, value)
        # neither step below moves P or G, so the residual stays current
        res = primal_residual(state)
        dual_or_penalty_step(state, res, config.eta(r), config.c)
        value = record(r, res)
        change = _max_change(state, q_prev, g_prev)
        if res <= tol_feas and change <= config.tol_change:
            logger.info("converged at outer iteration %d "
                        "(residual %.3g, change %.3g)", r, res, change)
            break
    return state, trace
