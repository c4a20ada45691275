"""Benchmark inputs and reference values, computed without the package.

Everything here is plain numpy so that a change to ``treated`` cannot change
the benchmark's inputs or the references its outputs are checked against.
The data-generating process is the package's ``continuous_d2`` spec:
two standard-normal covariates, a logit-linear propensity clipped to
[0.02, 0.98], linear arm means and linear noise sds floored at 0.05.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# The continuous_d2 coefficients, intercept first.
SPEC = {
    "schema_version": 1,
    "d": 2,
    "x_dist": "std_normal",
    "propensity_coeffs": [0.2, 0.4, -0.3],
    "mu0_coeffs": [1.0, 1.0, 0.5],
    "mu1_coeffs": [2.0, 1.5, 0.5],
    "noise0_sd_coeffs": [1.0, 0.2, 0.0],
    "noise1_sd_coeffs": [1.3, 0.0, -0.1],
    "dependence": "independent",
    "outcome_kind": "continuous",
    "exact_noise": False,
}
PI_CLIP = (0.02, 0.98)
NOISE_SD_FLOOR = 0.05


def _affine(name: str, x: np.ndarray) -> np.ndarray:
    c = SPEC[name]
    return c[0] + x[..., 0] * c[1] + x[..., 1] * c[2]


def propensity(x: np.ndarray) -> np.ndarray:
    return np.clip(1.0 / (1.0 + np.exp(-_affine("propensity_coeffs", x))), *PI_CLIP)


def draw_units(n: int, seed: int):
    """Draw (y, a, x) for n units from a stream keyed by the benchmark seed."""
    rng = np.random.default_rng([seed, 0x5EED])
    x = rng.standard_normal((n, 2))
    a = (rng.random(n) < propensity(x)).astype(np.int64)
    z0, z1 = rng.standard_normal(n), rng.standard_normal(n)
    sd0 = np.maximum(NOISE_SD_FLOOR, _affine("noise0_sd_coeffs", x))
    sd1 = np.maximum(NOISE_SD_FLOOR, _affine("noise1_sd_coeffs", x))
    y0 = _affine("mu0_coeffs", x) + sd0 * z0
    y1 = _affine("mu1_coeffs", x) + sd1 * z1
    return np.where(a == 1, y1, y0), a, x


def write_csv(path, n: int, seed: int) -> str:
    """Write the estimate workload's CSV and return its sha256."""
    y, a, x = draw_units(n, seed)
    lines = ["y,a,x1,x2"]
    lines += [f"{yi!r},{ai},{x1!r},{x2!r}"
              for yi, ai, x1, x2 in zip(y.tolist(), a.tolist(),
                                        x[:, 0].tolist(), x[:, 1].tolist())]
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def population_constants(nodes: int = 80) -> dict:
    """Treated share E[pi], its variance, and the ATT E[pi (mu1 - mu0)] / E[pi].

    Computed by tensor Gauss-Hermite quadrature over the two standard-normal
    covariates; the integrands are smooth except for the clip of pi, which
    binds only beyond eight standard deviations of the logit.
    """
    t, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    x = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)
    weight = np.outer(w, w)
    pi = propensity(x)
    delta = _affine("mu1_coeffs", x) - _affine("mu0_coeffs", x)
    p_a = float((weight * pi).sum())
    return {
        "p_a": p_a,
        "var_pi": float((weight * pi ** 2).sum()) - p_a ** 2,
        "att": float((weight * pi * delta).sum()) / p_a,
    }
