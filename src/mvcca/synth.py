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

from .errors import ConfigError
from .linalg import SparseView, pairwise_inner_sum, row_count, spmm_right
from .solver import Trace, ideal_correlation

_DENSITY_RTOL = 0.2
_MAX_ATTEMPTS = 12


@dataclass(frozen=True)
class SynthSpec:
    """Shape and sparsity of one generated problem instance.

    ``density`` is the target fill of each view; realized fill is kept
    within 20% of it.  ``outliers`` = 0 selects the clean regime.
    ``components`` is validated and echoed, but neither generator reads
    it: the shared factor has ``features`` columns.  A spec that no draw
    can meet, such as a density too small for one entry or one missed
    by more than 20% after every attempt, makes the generators raise a
    :class:`ConfigError`.
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
        if min(self.rows, self.features, self.components) < 1:
            raise ValueError("dimensions must be positive")
        # solve and metrics correlate view pairs
        if self.views < 2:
            raise ValueError("views must be >= 2")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if self.outliers < 0:
            raise ValueError("outliers must be >= 0")
        # written so that NaN fails
        if not 0 <= self.noise_var < np.inf:
            raise ValueError("noise_var must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _sparse_gaussian(rows: int, cols: int, density: float, rng,
                     std: float = 1.0) -> sp.csr_matrix:
    """Sparse matrix with a uniform random support and Gaussian values."""
    cells = rows * cols
    nnz = int(round(density * cells))
    if nnz < 1:
        raise ConfigError(
            f"density infeasibly small for a nonzero {rows}x{cols} matrix")
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
            raise ConfigError("generated view is empty; density infeasible")
        # re-solve 1 - exp(-c p) = density for p using the observed fill
        capped = min(realized, 1.0 - 0.5 / cells)
        c_est = -np.log1p(-capped) / p
        p = min(-np.log1p(-min(spec.density, 1.0 - 0.5 / cells)) / c_est, 1.0)
    raise ConfigError(
        f"could not hit density {spec.density:g} within 20% "
        f"after {_MAX_ATTEMPTS} attempts")


def _shared_draw(spec: SynthSpec, per_view: int):
    """The shared factor and each view's RNG streams.

    The spec seed spawns ``1 + per_view * views`` streams: the first
    draws the shared factor and view i takes the ``per_view`` streams
    from ``1 + per_view * i`` on.
    """
    streams = np.random.SeedSequence(spec.seed).spawn(
        1 + per_view * spec.views)
    shared = _sparse_gaussian(
        spec.rows, spec.features,
        _factor_density(spec.density, spec.features),
        np.random.default_rng(streams[0]))
    return shared, [streams[1 + per_view * i:1 + per_view * (i + 1)]
                    for i in range(spec.views)]


def gen_shared_factor(spec: SynthSpec) -> list[SparseView]:
    """Clean regime: every view is the shared sparse factor times a sparse map.

    Deterministic given the spec seed; one RNG stream per view.
    """
    if spec.outliers != 0:
        raise ValueError("clean generator requires outliers == 0")
    shared, streams = _shared_draw(spec, 1)
    return [SparseView(_signal_block(shared, spec, signal_stream)[0])
            for (signal_stream,) in streams]


def gen_with_outliers(spec: SynthSpec) -> list[SparseView]:
    """Outlier regime: [signal | outliers] + noise, energy matched.

    Each view has ``features + outliers`` columns: the signal block in
    columns 0 to ``features - 1``, then the outlier block.  The outlier
    block is uncorrelated across views and rescaled so its Frobenius
    norm equals the signal block's up to round-off; sparse Gaussian
    noise with the spec variance covers all columns.
    """
    if spec.outliers <= 0:
        raise ValueError("outlier generator requires outliers > 0")
    shared, streams = _shared_draw(spec, 3)
    views = []
    total_cols = spec.features + spec.outliers
    for signal_stream, outlier_stream, noise_stream in streams:
        signal, _ = _signal_block(shared, spec, signal_stream)
        out_rng = np.random.default_rng(outlier_stream)
        out_density = max(signal.nnz / (spec.rows * spec.features),
                          1.0 / (spec.rows * spec.outliers))
        outlier = _sparse_gaussian(spec.rows, spec.outliers,
                                   min(out_density, 1.0), out_rng)
        signal_energy = sp.linalg.norm(signal)
        outlier_energy = sp.linalg.norm(outlier)
        if outlier_energy == 0 or signal_energy == 0:
            raise ConfigError("generated block is empty; density infeasible")
        outlier = outlier * (signal_energy / outlier_energy)
        mat = sp.hstack([signal, outlier]).tocsr()
        if spec.noise_var > 0:
            noise_rng = np.random.default_rng(noise_stream)
            noise = _sparse_gaussian(spec.rows, total_cols, spec.density,
                                     noise_rng, std=np.sqrt(spec.noise_var))
            mat = (mat + noise).tocsr()
        mat.sort_indices()
        views.append(SparseView(mat))
    return views


def total_correlation(views, factors) -> tuple[float, float]:
    """Sum of pairwise latent correlations and its percent of the ideal.

    Raw value is sum over ordered pairs of trace(Q_i^T X_i^T X_j Q_j);
    the percent normalizes by K * I * (I-1), the value reached when all
    projected views coincide with a shared orthonormal latent matrix.
    The views and factors pass :func:`.linalg.row_count` first, and
    factors of different widths raise a ValueError listing each width.
    """
    row_count(views, factors)
    products = [spmm_right(v, q) for v, q in zip(views, factors)]
    widths = [p.shape[1] for p in products]
    if any(w != widths[0] for w in widths):
        raise ValueError("factors disagree on width: "
                         + ", ".join(map(str, widths)))
    raw = 2.0 * pairwise_inner_sum(products)
    return raw, 100.0 * raw / ideal_correlation(widths[0], len(products))


def metric1(views, factors, signal_idx) -> float:
    """Percent of signal-block correlation captured (ideal 100).

    The total correlation percent, view set check included, of the views
    and factors restricted to the signal columns.  Zeroing the factors'
    other rows restricts X_i Q_i to X_i[:, S] Q_i[S] without copying any
    view: each zero row adds only zero terms to the products.
    """
    signal_idx = np.asarray(signal_idx, dtype=np.int64)
    if signal_idx.size == 0:
        raise ValueError("empty signal index set")
    masked = []
    for q in factors:
        q = np.asarray(q, dtype=np.float64)
        signal_rows = np.zeros_like(q)
        signal_rows[signal_idx] = q[signal_idx]
        masked.append(signal_rows)
    return total_correlation(views, masked)[1]


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
