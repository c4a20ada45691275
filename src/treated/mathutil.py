"""Small numerical helpers: stable logistic transforms and the normal quantile."""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

_STD_NORMAL = NormalDist()


def expit(t):
    """Numerically stable logistic function 1 / (1 + exp(-t))."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0, e)  # 1 / (1 + e) for t >= 0, e / (1 + e) below
    e += 1.0
    out /= e
    return out


def bernoulli_loglik(a, eta):
    """Log-likelihood of 0/1 responses ``a`` under logits ``eta``."""
    return float(a @ eta - np.logaddexp(0.0, eta).sum())


def norm_quantile(p: float) -> float:
    """Standard normal quantile, via the standard library's ``NormalDist``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)
