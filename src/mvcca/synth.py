"""Synthetic multiview benchmarks and the correlation/outlier metrics.

Two generators: a clean regime where every view is a sparse random map
of one shared factor (so the views are perfectly correlated in the
latent domain and the ideal total correlation is K*I*(I-1)), and an
outlier regime that appends energy-matched uncorrelated feature blocks
plus sparse noise.  The metrics quantify how much signal-block
correlation a set of factors captures and how much mass they leave on
the outlier rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import SparseView, pairwise_inner_sum, spmm_right
from .solver import Trace

_DENSITY_RTOL = 0.2
_MAX_ATTEMPTS = 12


@dataclass(frozen=True)
class SynthSpec:
    """Shape and sparsity of one generated problem instance.

    ``density`` is the target fill of each view; realized fill is kept
    within 20% of it.  ``outliers`` = 0 selects the clean regime.
    """

    rows: int
    features: int
    views: int
    components: int = 5
    density: float = 1e-2
    outliers: int = 0
    noise_var: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if min(self.rows, self.features, self.views, self.components) < 1:
            raise ValueError("dimensions must be positive")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if self.outliers < 0:
            raise ValueError("outliers must be >= 0")
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")


@dataclass(frozen=True)
class IndexSets:
    """Column index partition of each view: signal block, outlier block."""

    signal: np.ndarray
    outlier: np.ndarray

    def __post_init__(self):
        if np.intersect1d(self.signal, self.outlier).size:
            raise ValueError("signal and outlier indices overlap")


def _sparse_gaussian(rows: int, cols: int, density: float, rng,
                     std: float = 1.0) -> sp.csr_matrix:
    """Sparse matrix with a uniform random support and Gaussian values."""
    cells = rows * cols
    nnz = int(round(density * cells))
    if nnz < 1:
        raise ValueError(
            f"density {density:g} infeasibly small for a nonzero "
            f"{rows}x{cols} matrix")
    nnz = min(nnz, cells)
    flat = rng.choice(cells, size=nnz, replace=False)
    r, c = np.divmod(flat, cols)
    data = std * rng.standard_normal(nnz)
    return sp.coo_matrix((data, (r, c)), shape=(rows, cols)).tocsr()


def _factor_density(view_density: float, width: int) -> float:
    """Initial per-factor fill so the product lands near the view target."""
    if view_density >= 1.0:
        return 1.0
    # product fill under independent supports: 1 - (1 - p^2)^width
    p = np.sqrt(-np.log1p(-view_density) / width)
    return min(p, 1.0)


def _signal_block(shared: sp.csr_matrix, spec: SynthSpec,
                  stream: np.random.SeedSequence):
    """One view's signal part S @ A with the realized fill close to target.

    Returns the product and the mixing factor used.
    """
    cells = spec.rows * spec.features
    p = _factor_density(spec.density, spec.features)
    children = stream.spawn(_MAX_ATTEMPTS)
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(children[attempt])
        mix = _sparse_gaussian(spec.features, spec.features, p, rng)
        block = (shared @ mix).tocsr()
        block.sort_indices()
        realized = block.nnz / cells
        if abs(realized - spec.density) <= _DENSITY_RTOL * spec.density:
            return block, mix
        if realized <= 0.0:
            raise ValueError("generated view is empty; density infeasible")
        # re-solve 1 - exp(-c p) = density for p using the observed fill
        capped = min(realized, 1.0 - 0.5 / cells)
        c_est = -np.log1p(-capped) / p
        p = min(-np.log1p(-min(spec.density, 1.0 - 0.5 / cells)) / c_est, 1.0)
    raise ValueError(
        f"could not hit density {spec.density:g} within 20% "
        f"after {_MAX_ATTEMPTS} attempts")


def _gen_clean_parts(spec: SynthSpec):
    """Clean-regime generator exposing the shared factor and per-view mixes."""
    root = np.random.SeedSequence(spec.seed)
    streams = root.spawn(spec.views + 1)
    shared = _sparse_gaussian(
        spec.rows, spec.features,
        _factor_density(spec.density, spec.features),
        np.random.default_rng(streams[0]))
    views, mixes = [], []
    for i in range(spec.views):
        block, mix = _signal_block(shared, spec, streams[1 + i])
        views.append(SparseView(block))
        mixes.append(mix)
    return views, shared, mixes


def gen_shared_factor(spec: SynthSpec) -> list[SparseView]:
    """Clean regime: every view is the shared sparse factor times a sparse map.

    Deterministic given the spec seed; one RNG stream per view.
    """
    if spec.outliers != 0:
        raise ValueError("clean generator requires outliers == 0")
    return _gen_clean_parts(spec)[0]


def gen_with_outliers(spec: SynthSpec) -> tuple[list[SparseView], IndexSets]:
    """Outlier regime: [signal | outliers] + noise, energy matched.

    The outlier block of each view is uncorrelated across views and
    rescaled so its Frobenius norm is within 5% of the signal block's;
    sparse Gaussian noise with the spec variance covers all columns.
    """
    if spec.outliers <= 0:
        raise ValueError("outlier generator requires outliers > 0")
    root = np.random.SeedSequence(spec.seed)
    streams = root.spawn(3 * spec.views + 1)
    shared = _sparse_gaussian(
        spec.rows, spec.features,
        _factor_density(spec.density, spec.features),
        np.random.default_rng(streams[0]))

    views = []
    total_cols = spec.features + spec.outliers
    for i in range(spec.views):
        signal, _ = _signal_block(shared, spec, streams[1 + 3 * i])
        out_rng = np.random.default_rng(streams[2 + 3 * i])
        out_density = max(signal.nnz / (spec.rows * spec.features),
                          1.0 / (spec.rows * spec.outliers))
        outlier = _sparse_gaussian(spec.rows, spec.outliers,
                                   min(out_density, 1.0), out_rng)
        signal_energy = sp.linalg.norm(signal)
        outlier_energy = sp.linalg.norm(outlier)
        if outlier_energy == 0 or signal_energy == 0:
            raise ValueError("generated block is empty; density infeasible")
        outlier = outlier * (signal_energy / outlier_energy)
        ratio = sp.linalg.norm(outlier) / signal_energy
        if not 0.95 <= ratio <= 1.05:
            raise AssertionError(f"energy ratio {ratio:g} out of range")
        mat = sp.hstack([signal, outlier]).tocsr()
        if spec.noise_var > 0:
            noise_rng = np.random.default_rng(streams[3 + 3 * i])
            noise = _sparse_gaussian(spec.rows, total_cols, spec.density,
                                     noise_rng, std=np.sqrt(spec.noise_var))
            mat = (mat + noise).tocsr()
        mat.sort_indices()
        views.append(SparseView(mat))
    idx = IndexSets(np.arange(spec.features),
                    np.arange(spec.features, total_cols))
    return views, idx


def total_correlation(views, factors) -> tuple[float, float]:
    """Sum of pairwise latent correlations and its percent of the ideal.

    Raw value is sum over ordered pairs of trace(Q_i^T X_i^T X_j Q_j);
    the percent normalizes by K * I * (I-1), the value reached when all
    projected views coincide with a shared orthonormal latent matrix.
    """
    products = [spmm_right(v, q) for v, q in zip(views, factors)]
    n = len(products)
    k = np.asarray(factors[0]).shape[1]
    raw = 2.0 * pairwise_inner_sum(products)
    ideal = k * n * (n - 1)
    return raw, 100.0 * raw / ideal


def metric1(views, factors, signal_idx) -> float:
    """Percent of signal-block correlation captured (ideal 100).

    Restricts both the views and the factors to the signal columns and
    sums unordered pair traces, doubled so the normalization by
    K * I * (I-1) puts the ideal at exactly 100.
    """
    signal_idx = np.asarray(signal_idx, dtype=np.int64)
    if signal_idx.size == 0:
        raise ValueError("empty signal index set")
    products = [
        spmm_right(v.select_columns(signal_idx),
                   np.asarray(q, dtype=np.float64)[signal_idx, :])
        for v, q in zip(views, factors)]
    n = len(products)
    k = np.asarray(factors[0]).shape[1]
    return (2.0 * pairwise_inner_sum(products) * 100.0
            / (k * n * (n - 1)))


def metric2(factors, outlier_idx) -> float:
    """Total Frobenius mass on the outlier rows of the factors (ideal 0)."""
    outlier_idx = np.asarray(outlier_idx, dtype=np.int64)
    val = 0.0
    for q in factors:
        val += float(np.linalg.norm(np.asarray(q)[outlier_idx, :]))
    return val


def time_to_fraction(trace: Trace, fraction: float) -> float | None:
    """First recorded time at which the trace captures the given fraction.

    Scans the trace for the first row whose correlation reaches
    ``fraction`` of the ideal and returns its seconds; None when the
    threshold is never reached (rendered as "inf" downstream).
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    target = fraction * trace.ideal
    for row in trace:
        if row.total_correlation >= target:
            return row.seconds
    return None
