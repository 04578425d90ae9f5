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
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from . import regularizers as rg
from .errors import EmptyViewError, RegularityError, StepSizeError
from .linalg import (SparseView, inner, narrow_columns, pairwise_inner_sum,
                     parse_float, parse_int, polar_factor, row_count,
                     spectral_norm_sq, spmm_left_t, spmm_right, sum_blocks)

logger = logging.getLogger(__name__)

TRACE_COLUMNS = ("iter", "seconds", "rho", "primal_residual", "lagrangian",
                 "total_correlation")

# Fixed PDD constants, read at call time.  RHO0 is the starting penalty
# weight and C the factor a failed feasibility test divides it by; the
# sub-solver accuracy schedule is eps(r) = EPS0 * EPS_DECAY**r; SAFETY
# scales each inverse-Lipschitz step.  A solve stops early once the slack
# residual is at most TOL_FEAS * L * K and a one-sweep sub-solve moved no
# Q_i or G_i entry by more than TOL_CHANGE.
RHO0 = 2.0
C = 0.9
EPS0 = 1e-2
EPS_DECAY = 0.9
SAFETY = 0.9
TOL_FEAS = 1e-6
TOL_CHANGE = 1e-6


@dataclass
class SolverConfig:
    """Knobs of the solver.

    ``eta0`` sets the feasibility schedule eta(r) = eta0 / r that gates
    dual updates.  ``sub_max_sweeps = 1`` with ``eta0 = inf`` gives the
    fixed-penalty ADMM baseline.  The other constants of the driver are
    the module's ``RHO0`` ... ``TOL_CHANGE``.
    """

    k: int
    eta0: float = 100.0
    sub_max_sweeps: int = 5
    outer_max: int = 500
    seed: int = 0
    virtual_clock: bool = False

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.eta0 > 0:
            raise ValueError("eta0 must be > 0")
        if min(self.sub_max_sweeps, self.outer_max) < 1:
            raise ValueError("counts must be >= 1")

    def eta(self, r: int) -> float:
        return self.eta0 / max(r, 1)

    def eps(self, r: int) -> float:
        # floored so a long solve never asks the sub-solver for eps = 0
        return max(EPS0 * EPS_DECAY ** r, np.finfo(float).tiny)


@dataclass
class TraceRow:
    iteration: int
    seconds: float
    rho: float
    primal_residual: float
    lagrangian: float
    total_correlation: float


def ideal_correlation(k: int, n_views: int) -> float:
    """K*I*(I-1), the total correlation of views projected onto one latent."""
    return float(k * n_views * (n_views - 1))


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

    def to_csv(self, path) -> None:
        lines = [",".join(TRACE_COLUMNS)]
        for r in self.rows:
            lines.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g" % astuple(r))
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
                trace.append(TraceRow(parse_int(vals[0]),
                                      *map(parse_float, vals[1:])))
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

    def __init__(self, views: Sequence[SparseView], q, g, y,
                 rho: float | None = None):
        self.views = list(views)
        self.q = [np.array(a, dtype=np.float64) for a in q]
        self.g = [np.array(a, dtype=np.float64) for a in g]
        self.y = [np.array(a, dtype=np.float64) for a in y]
        self.p = [spmm_right(v, qi) for v, qi in zip(self.views, self.q)]
        self.rho = RHO0 if rho is None else float(rho)
        self.sigma_sq: list[float] | None = None
        self.moved = np.inf  # largest move of any Q_i or G_i in a sweep
        # <G_i, A_i> at each view's last G update (see update_g)
        self.coupling = [np.nan] * len(self.views)

    @property
    def num_views(self) -> int:
        return len(self.views)

    @property
    def k(self) -> int:
        return self.g[0].shape[1]


def _sigma_squares(views: Sequence[SparseView], seed: int) -> list[float]:
    """sigma_max^2 of every view, each Lanczos run on its own subseed."""
    subseeds = np.random.SeedSequence(seed).generate_state(len(views))
    return [spectral_norm_sq(v, int(s)) for v, s in zip(views, subseeds)]


def validate_dimensions(views: Sequence[SparseView], k: int) -> None:
    """Check the dimension conditions that keep the constraint system regular.

    The views pass :func:`.linalg.row_count`; the mean feature count is
    at least (K+1)/2, and the row count at least K, since each G_i is
    L x K with orthonormal columns (a :class:`RegularityError` otherwise).
    :func:`run_pdd` checks the views narrowed to their data columns, so
    the feature count is that of the columns its sweeps see, and a view
    set that stores no entry at all fails with a mean of 0.
    """
    views = list(views)
    l_rows = row_count(views)
    bound = (k + 1) / 2.0
    mean_cols = sum(v.shape[1] for v in views) / len(views)
    if mean_cols < bound:
        raise RegularityError(
            f"regularity check failed: mean feature count {mean_cols:g} "
            f"< (K+1)/2 = {bound:g}")
    if l_rows < k:
        raise RegularityError(
            f"regularity check failed: row count {l_rows} < K = {k}")


def init_random(views: Sequence[SparseView], k: int, seed: int) -> SolverState:
    """Seeded start: G_i orthonormalized Gaussian, Q_i and Y_i zero."""
    rng = np.random.default_rng(seed)
    l_rows = views[0].shape[0]
    g = [polar_factor(rng.standard_normal((l_rows, k))) for _ in views]
    q = [np.zeros((v.shape[1], k)) for v in views]
    y = [np.zeros((l_rows, k)) for _ in views]
    return SolverState(views, q, g, y)


def grad_q(i: int, state: SolverState, sum_g: np.ndarray) -> np.ndarray:
    """Gradient of the smooth part of the block-i objective at ``state.rho``.

    Evaluates X_i^T [(I-1+rho) X_i Q_i - sum_{j!=i} G_j - rho G_i + Y_i]
    using the cached product P_i, so the cost is one sparse transpose
    product, O(nnz(X_i) * K).  ``sum_g`` is the total of all G blocks,
    formed once per sweep by the caller.
    """
    rho = state.rho
    agg = (state.num_views - 1 + rho) * state.p[i]
    agg -= sum_g
    agg += (1.0 - rho) * state.g[i]
    agg += state.y[i]
    return spmm_left_t(state.views[i], agg)


def step_size(i: int, state: SolverState) -> float:
    """Inverse Lipschitz bound for the block-i gradient, times ``SAFETY``.

    The smooth block Hessian is (I-1+rho) X_i^T X_i at ``state.rho``, so
    alpha = SAFETY / ((I-1+rho) * sigma_max^2(X_i)).
    """
    if state.sigma_sq is None:
        raise RuntimeError("spectral norms not cached; set state.sigma_sq")
    sigma = state.sigma_sq[i]
    if sigma <= 0.0:
        raise EmptyViewError("empty view")
    return SAFETY / ((state.num_views - 1 + state.rho) * sigma)


def update_q(i: int, state: SolverState, reg: rg.Regularizer, alpha: float,
             sum_g: np.ndarray) -> np.ndarray:
    """One prox-gradient step of size ``alpha`` on Q_i, all G blocks frozen.

    The step moves along the negative gradient, applies the penalty's
    prox, and refreshes the cache P_i = X_i Q_i.  ``alpha`` comes from
    :func:`step_size`; ``sum_g`` is passed on to :func:`grad_q`.
    """
    grad = grad_q(i, state, sum_g)
    state.q[i] = rg.prox(reg, state.q[i] - alpha * grad, alpha)
    state.p[i] = spmm_right(state.views[i], state.q[i])
    return state.q[i]


def update_g(i: int, state: SolverState, sum_p: np.ndarray) -> np.ndarray:
    """Closest-orthonormal update of G_i from the fresh product caches.

    The minimizer over orthonormal G of the block objective is the
    polar factor of the aggregate A_i = sum_{j!=i} P_j + rho P_i + Y_i
    at ``state.rho``.  ``sum_p`` is the total of all P blocks, formed
    once per sweep by the caller.  The new G_i's coupling <G_i, A_i>,
    its share of the coupling term of :func:`lagrangian_value`, is kept
    in ``state.coupling[i]`` for the sub-solver's descent check.
    """
    agg = (state.rho - 1.0) * state.p[i]
    agg += sum_p
    agg += state.y[i]
    state.g[i] = polar_factor(agg)
    state.coupling[i] = inner(state.g[i], agg)
    return state.g[i]


def primal_residual(state: SolverState) -> float:
    """Total squared slack sum_i ||X_i Q_i - G_i||_F^2 from the caches."""
    val = 0.0
    for p_i, g_i in zip(state.p, state.g):
        diff = p_i - g_i
        val += float(np.sum(diff * diff))
    return val


def lagrangian_value(state: SolverState, regs,
                     coupling: float | None = None) -> float:
    """Augmented Lagrangian the sub-solver descends (traced and checked).

    With penalty weight rho = ``state.rho``, the sum over ordered view
    pairs of ||P_i - G_j||^2 / 2, the penalty terms and the duals expand
    to one scalar formula,

        1/2 sum_i r_i(Q_i) + (I-1+rho)/2 sum_i (||P_i||^2 + ||G_i||^2)
            + sum_i <Y_i, P_i> + sum_i ||Y_i||^2 / (2 rho)
            - sum_i <G_i, A_i>,

    with A_i = (rho-1) P_i + sum_j P_j + Y_i, the aggregate whose polar
    factor :func:`update_g` takes.  Penalties enter at half weight
    because the prox has no 1/2 on its quadratic (see
    :mod:`.regularizers`).  ``coupling`` is sum_i <G_i, A_i> when the
    caller has it, as the sub-solver has after a sweep's G updates;
    otherwise it is formed here as
    <sum G, sum P> + (rho-1) sum_i <G_i, P_i> + sum_i <G_i, Y_i>.
    Either way one pass over the views costs O(I L K), not O(I^2 L K).
    """
    n, rho = state.num_views, state.rho
    regs = _as_reg_list(regs, n)
    if coupling is None:
        coupling = inner(sum_blocks(state.g), sum_blocks(state.p))
        for p_i, g_i, y_i in zip(state.p, state.g, state.y):
            coupling += (rho - 1.0) * inner(g_i, p_i) + inner(g_i, y_i)
    squares = 0.0
    val = 0.0
    for i in range(n):
        p_i, y_i = state.p[i], state.y[i]
        squares += inner(p_i, p_i) + inner(state.g[i], state.g[i])
        val += (0.5 * rg.penalty_value(regs[i], state.q[i])
                + inner(y_i, p_i) + inner(y_i, y_i) / (2.0 * rho))
    return val + 0.5 * (n - 1 + rho) * squares - coupling


def dual_or_penalty_step(state: SolverState, residual: float,
                         eta_r: float) -> bool:
    """Dual ascent when the slack residual meets the schedule, else grow rho.

    Returns True when the duals moved.  On failure the penalty weight is
    divided by ``C`` (an increase, since 0 < C < 1) and the duals stay put.
    """
    if residual <= eta_r:
        for i in range(state.num_views):
            state.y[i] += state.rho * (state.p[i] - state.g[i])
        return True
    state.rho = state.rho / C
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


def run_subsolver(state: SolverState, eps_r: float, max_sweeps: int,
                  regs=None, start: float | None = None) -> int:
    """Inexact alternating sweeps at fixed duals and penalty ``state.rho``.

    Each sweep takes a prox-gradient step on every Q_i (all G frozen),
    sized once per call by :func:`step_size`, then updates every G_i from
    the fresh caches.  Sweeping stops when the largest entrywise move of any
    block against the one it replaced, kept in ``state.moved``, drops to
    ``eps_r`` or after ``max_sweeps``.  Returns the number of sweeps.

    :func:`lagrangian_value` is verified to be non-increasing across
    sweeps; an increase beyond slack means the step size rule was
    violated and raises :class:`StepSizeError`.  ``start`` is its value
    at the entry state, when the caller already has it.
    """
    if eps_r <= 0:
        raise ValueError("eps_r must be > 0")
    n = state.num_views
    regs = _as_reg_list(regs, n)
    alphas = [step_size(i, state) for i in range(n)]
    prev = start if start is not None else lagrangian_value(state, regs)
    # each pass reads one total, formed while its blocks are frozen; the
    # G total carries into the next sweep
    sum_g = sum_blocks(state.g)
    for sweep in range(1, max_sweeps + 1):
        # the updates rebind Q_i and G_i, so the old block is still at
        # hand; a move is max |d|, taken as max(max d, -min d)
        moved = 0.0
        for i in range(n):
            old = state.q[i]
            d = update_q(i, state, regs[i], alphas[i], sum_g) - old
            moved = max(moved, float(d.max()), -float(d.min()))
        sum_p = sum_blocks(state.p)
        for i in range(n):
            # the old G_i is dropped, so it takes its own move in place
            d = state.g[i]
            d -= update_g(i, state, sum_p)
            moved = max(moved, float(d.max()), -float(d.min()))
        sum_g = sum_blocks(state.g)
        # every G_i was updated from this sweep's P blocks, so the
        # couplings update_g kept are those of the current state
        cur = lagrangian_value(state, regs, sum(state.coupling))
        if cur > prev + 1e-9 * max(1.0, abs(prev)):
            raise StepSizeError(
                f"step size violation: sub-solver objective rose "
                f"{prev:.12g} -> {cur:.12g}")
        prev = cur
        state.moved = moved
        if moved <= eps_r:
            return sweep
    return max_sweeps


def _widen(state: SolverState, views: list[SparseView],
           kept: Sequence[np.ndarray]) -> None:
    """Undo :func:`run_pdd`'s narrowing: zero rows back into every Q_i."""
    for i, cols in enumerate(kept):
        full = np.zeros((views[i].shape[1], state.k))
        full[cols] = state.q[i]
        state.q[i] = full
    # the products P_i are bitwise those of the full views
    state.views = list(views)


def run_pdd(views, config: SolverConfig, regs=None):
    """Adaptive-penalty driver: sub-solver sweeps plus dual/penalty steps.

    Outer iteration r runs the sub-solver for at most
    ``config.sub_max_sweeps`` sweeps to accuracy ``config.eps(r)``, then
    takes a dual step when the slack residual is within
    ``config.eta(r)`` and grows the penalty otherwise.  It stops early
    once the residual is at most ``TOL_FEAS * L * K`` and a one-sweep
    sub-solve moved no entry by more than ``TOL_CHANGE``.

    The view set passes :func:`.linalg.row_count` first.  Then
    :func:`.linalg.narrow_columns` narrows every view to its columns
    that store an entry, and the narrowed views pass
    :func:`validate_dimensions`, so its bounds count only those columns.
    The solve starts from :func:`init_random` at the config seed on the
    narrowed views, where every Q_i is zero, so no product reads a
    full-width Q_i.  The other rows of Q_i stay exactly zero, so one
    sweep costs O(nnz(X_i) K) sparse work plus O(I L K) and
    O(M_data_i K) dense work, with M_data_i the columns of X_i that
    hold data.  The solve holds a
    renumbered copy of each view's column indices.  sigma^2 is computed
    once per view, by Lanczos on the caller's view.

    Returns the final state (factors Q_i, latents G_i, duals Y_i) and
    the per-iteration trace.  Deterministic given the config seed.  The
    trace clock starts at the call, so its seconds include the start
    point and the spectral-norm estimates.
    """
    start = time.perf_counter()
    views = list(views)
    l_rows = row_count(views)
    # a column that stores no entry (explicit zeros count) gives a zero
    # row in X_i^T(.), and every prox maps a zero row to zero, so a Q_i
    # row there, zero at the start, never moves or enters a product
    narrowed, kept = zip(*map(narrow_columns, views))
    validate_dimensions(narrowed, config.k)
    n = len(views)
    regs = _as_reg_list(regs, n)
    state = init_random(narrowed, config.k, config.seed)
    state.sigma_sq = _sigma_squares(views, config.seed)

    tol_feas = TOL_FEAS * l_rows * config.k
    trace = Trace(ideal_correlation(config.k, n))

    def record(r: int, residual: float) -> float:
        # nothing moves before the next sub-solver, whose entry value it is
        seconds = float(r) if config.virtual_clock \
            else time.perf_counter() - start
        value = lagrangian_value(state, regs)
        trace.append(TraceRow(r, seconds, state.rho, residual, value,
                              2.0 * pairwise_inner_sum(state.p)))
        return value

    value = record(0, primal_residual(state))
    for r in range(1, config.outer_max + 1):
        sweeps = run_subsolver(state, config.eps(r), config.sub_max_sweeps,
                               regs, value)
        # the steps below move no Q, P or G: residual and move stay current
        res = primal_residual(state)
        dual_or_penalty_step(state, res, config.eta(r))
        value = record(r, res)
        if res <= tol_feas and sweeps == 1 and state.moved <= TOL_CHANGE:
            logger.info("converged at outer iteration %d "
                        "(residual %.3g, move %.3g)", r, res, state.moved)
            break
    _widen(state, views, kept)
    return state, trace
