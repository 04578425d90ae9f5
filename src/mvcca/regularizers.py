"""Structural penalties on the canonical components and their prox maps.

Each penalty is a pair: a value function and the proximal operator for
the objective ``||Q - V||_F^2 + tau * lambda * r(Q)``.  Note the missing
1/2 on the quadratic; the entrywise soft threshold is therefore
``tau * lambda / 2``, and this convention is used consistently by the
solver's gradient steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

KINDS = ("none", "l1", "l21", "elastic_l1", "elastic_l21", "nonneg")


@dataclass(frozen=True)
class Regularizer:
    """A penalty choice: kind plus its weights.

    ``lam`` scales the sparsity part (l1 or row-group norm); ``mu``
    scales the squared-Frobenius part of the elastic kinds and is
    ignored otherwise.  ``nonneg`` is an exact constraint (indicator +
    projection), so both weights are ignored.
    """

    kind: str = "none"
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        # written so that NaN fails
        for name in ("lam", "mu"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


NONE = Regularizer("none")


def penalty_value(reg: Regularizer, q) -> float:
    """Evaluate the weighted penalty at Q.

    Returns 0 for kind "none"; for "nonneg" returns 0 on the feasible
    set and +inf otherwise.  Q is not scanned for non-finite entries: a
    solve's Q_i come from :func:`prox`, which rejects them.
    """
    q = np.asarray(q, dtype=np.float64)
    if reg.kind == "none":
        return 0.0
    if reg.kind == "l1":
        return reg.lam * float(np.abs(q).sum())
    if reg.kind == "l21":
        return reg.lam * float(_row_norms(q).sum())
    if reg.kind == "elastic_l1":
        return (reg.lam * float(np.abs(q).sum())
                + reg.mu * float((q * q).sum()))
    if reg.kind == "elastic_l21":
        return (reg.lam * float(_row_norms(q).sum())
                + reg.mu * float((q * q).sum()))
    # nonneg: indicator of the nonnegative orthant
    return 0.0 if q.size == 0 or q.min() >= 0.0 else math.inf


def _row_norms(q: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, the one row-norm kernel of the penalty
    and the prox: einsum squares and sums each row without the M x K
    temporary of ``np.linalg.norm(q, axis=1)``."""
    return np.sqrt(np.einsum("ij,ij->i", q, q))


def _soft_entries(v: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def _soft_rows(v: np.ndarray, thr: float) -> np.ndarray:
    """Row-group soft threshold: each row scaled by max(1 - thr/||row||, 0).

    A row whose norm is at most ``thr`` comes out exactly zero.  An
    all-zero row gives thr/0 = inf (or 0/0 = NaN when thr = 0), and
    ``fmax`` maps both -inf and NaN to 0, so it stays +0.0 without a
    warning.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.fmax(1.0 - thr / _row_norms(v), 0.0)
    return v * factor[:, None]


def prox(reg: Regularizer, v, tau: float) -> np.ndarray:
    """Minimize ``||Q - V||_F^2 + tau * lambda * r(Q)`` in closed form.

    The quadratic carries no 1/2, so the l1 threshold is tau*lam/2 and
    the row-group threshold likewise; elastic kinds shrink the
    thresholded result by 1/(1 + tau*mu).
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NumericError("prox input contains non-finite values")
    if reg.kind == "none":
        return v.copy()
    if reg.kind == "nonneg":
        return np.maximum(v, 0.0)
    thr = tau * reg.lam / 2.0
    if reg.kind == "l1":
        return _soft_entries(v, thr)
    if reg.kind == "l21":
        return _soft_rows(v, thr)
    if reg.kind == "elastic_l1":
        return _soft_entries(v, thr) / (1.0 + tau * reg.mu)
    return _soft_rows(v, thr) / (1.0 + tau * reg.mu)
