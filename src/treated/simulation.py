"""Synthetic data with complete potential outcomes, brute-force oracles, and
seeded replication studies.

The generative family is logit-linear in the propensity and linear in the
conditional means, so the parametric nuisance fitters are correctly specified
and the theory's rate conditions hold by construction. Propensities are
clipped to [0.02, 0.98] at generation (explicit positivity) and continuous
noise sds are floored at 0.05 unless ``exact_noise`` deliberately permits
zero-noise outcomes for analytic test cases.

Replication r of a study draws from a stream that is a pure function of
(seed, r), batch k of the oracle's x-only pass from (seed, 1, k) and batch k
of its joint pass from (seed, 2, k), so runs are reproducible regardless of
execution order and worker count; aggregation happens in index order. A
study first computes its population effect, unless given, by
``psi_patt_true`` seeded (seed, 2**31); its items, in one fork pool
(``mathutil._chunked``), are then its replications, and each replication
scores the sample/mixed estimands against their realized values and the
population effect against that fixed Monte Carlo truth. Both oracle passes
run their batches in the pool at every size.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import InitVar, dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from . import data_model
from .data_model import (Dataset, EstimandKind, NuisanceValues, OutcomeKind, KIND_ORDER,
                         _frozen_array, _is_int, check_ci_level, check_count, check_seed,
                         check_type)
from .errors import LengthMismatchError, NonFiniteEstimateError, TreatedError, ValidationError
from .estimator import _Columns, estimate_all
from .mathutil import _chunked, affine, expit, select
from .nuisance import NuisanceConfig

SCHEMA_VERSION = 1
PI_CLIP = (0.02, 0.98)
BINARY_MEAN_CLAMP = (0.02, 0.98)
NOISE_SD_FLOOR = 0.05
# Draws per oracle batch. The batch size decides the streams, so
# psi_patt_true shares it to stay the oracle's pass 1, and it is a constant:
# one derived from the machine would make the bytes depend on it. `treated
# oracle --draws 1e7` on the d = 2 spec (2 vCPUs, medians of 10 alternating
# runs; wall time, then the largest process's peak RSS) took 2.24 s and
# 118 MiB at 500,000 draws, 2.21 s and 76 MiB at 262,144, 2.15 s and 54 MiB
# at 125,000, 2.04 s and 43.5 MiB at 65,536, 2.08 s and 39 MiB at 32,768, and
# 2.12 s and 36 MiB at 16,384. A joint-pass batch peaks at 16-17 columns.
BATCH_DRAWS = 65_536
_COEFF_FIELDS = ("propensity_coeffs", "mu0_coeffs", "mu1_coeffs", "noise0_sd_coeffs",
                 "noise1_sd_coeffs")


class XDist(enum.Enum):
    STD_NORMAL = "std_normal"
    UNIFORM01 = "uniform01"


class Dependence(enum.Enum):
    """Joint law of the two potential outcomes given covariates."""

    INDEPENDENT = "independent"
    COMONOTONE = "comonotone"
    ANTITONE = "antitone"


@dataclass(frozen=True, eq=False)
class DgpSpec:
    """Generative description: logit-linear propensity, linear means and sds.

    Coefficient vectors have length d+1 (intercept first). With
    ``exact_noise`` the 0.05 sd floor is lifted so sd coefficients of zero
    yield deterministic outcomes.
    """

    d: int
    propensity_coeffs: np.ndarray
    mu0_coeffs: np.ndarray
    mu1_coeffs: np.ndarray
    noise0_sd_coeffs: np.ndarray
    noise1_sd_coeffs: np.ndarray
    x_dist: XDist = XDist.STD_NORMAL
    dependence: Dependence = Dependence.INDEPENDENT
    outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS
    exact_noise: bool = False

    def __post_init__(self):
        if not _is_int(self.d):
            raise ValidationError("d must be an integer")
        if self.d < 0:
            raise ValidationError("covariate dimension must be nonnegative")
        if not isinstance(self.exact_noise, bool):
            raise ValidationError("exact_noise must be true or false")
        for name, kind in (("x_dist", XDist), ("dependence", Dependence),
                           ("outcome_kind", OutcomeKind)):
            check_type(name, getattr(self, name), kind)
        for name in _COEFF_FIELDS:
            v = _frozen_array(getattr(self, name), name)
            if v.shape[0] != self.d + 1:
                raise ValidationError(f"{name} must have length d+1={self.d + 1}")
            if not np.isfinite(v).all():
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, v)

    def propensity(self, x) -> np.ndarray:
        return np.clip(expit(affine(self.propensity_coeffs, x)), *PI_CLIP)

    def mu(self, arm: int, x) -> np.ndarray:
        raw = affine(self.mu1_coeffs if arm == 1 else self.mu0_coeffs, x)
        if self.outcome_kind is OutcomeKind.BINARY:
            return np.clip(raw, *BINARY_MEAN_CLAMP)
        return raw

    def sigma(self, arm: int, x) -> np.ndarray:
        """True conditional sd of the potential outcome."""
        if self.outcome_kind is OutcomeKind.BINARY:
            p = self.mu(arm, x)
            return np.sqrt(p * (1.0 - p))
        raw = affine(self.noise1_sd_coeffs if arm == 1 else self.noise0_sd_coeffs, x)
        return np.maximum(0.0 if self.exact_noise else NOISE_SD_FLOOR, raw)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "d": self.d,
            "x_dist": self.x_dist.value,
            "propensity_coeffs": list(self.propensity_coeffs),
            "mu0_coeffs": list(self.mu0_coeffs),
            "mu1_coeffs": list(self.mu1_coeffs),
            "noise0_sd_coeffs": list(self.noise0_sd_coeffs),
            "noise1_sd_coeffs": list(self.noise1_sd_coeffs),
            "dependence": self.dependence.value,
            "outcome_kind": self.outcome_kind.value,
            "exact_noise": self.exact_noise,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DgpSpec":
        """The spec of a parsed JSON object, whose ``schema_version`` is the
        JSON integer 1, ``d`` a JSON integer, ``exact_noise`` a JSON boolean
        and coefficient lists flat lists of JSON numbers; nothing is coerced,
        and a key that names no field is refused."""
        if not isinstance(data, dict):
            raise ValidationError("DGP spec must be a JSON object")
        version = data.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:  # not True, not 1.0
            raise ValidationError(
                f"unsupported DGP spec schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        known = {"schema_version", *(f.name for f in fields(cls))}
        unknown = [name for name in data if name not in known]
        if unknown:
            raise ValidationError(f"unknown DGP spec fields {unknown}")
        try:
            d, coeffs = data["d"], {name: data[name] for name in _COEFF_FIELDS}
            for name, v in coeffs.items():
                if not (isinstance(v, list) and all(
                        isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)):
                    raise ValueError(f"{name} must be a list of numbers")
            return cls(d=d, **coeffs, exact_noise=data.get("exact_noise", False),
                       x_dist=XDist(data.get("x_dist", "std_normal")),
                       dependence=Dependence(data.get("dependence", "independent")),
                       outcome_kind=OutcomeKind(data.get("outcome_kind", "continuous")))
        except KeyError as exc:
            raise ValidationError(f"DGP spec is missing field {exc}") from exc
        except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
            raise ValidationError(f"bad DGP spec field: {exc}") from exc


@dataclass(frozen=True, eq=False)
class PotentialDataset:
    """Observed view plus the complete potential outcomes and exact nuisances."""

    dataset: Dataset
    y0: np.ndarray
    y1: np.ndarray
    true_nuisances: NuisanceValues
    _owned: InitVar[bool] = False  # package-private, as for Dataset

    def __post_init__(self, _owned):
        # data_model's classes: the benchmark's tracer replaces this module's names.
        check_type("dataset", self.dataset, data_model.Dataset)
        check_type("true_nuisances", self.true_nuisances, data_model.NuisanceValues)
        for name in ("y0", "y1"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name, owned=_owned))
        n = self.dataset.n
        for name, length in (("y0", self.y0.shape[0]), ("y1", self.y1.shape[0]),
                             ("true_nuisances", self.true_nuisances.n)):
            if length != n:
                raise LengthMismatchError(f"{name} has length {length}, dataset has {n}")


class McValue(NamedTuple):
    """A Monte Carlo estimate with its attached standard error."""

    value: float
    se: float


def _draw_x(spec: DgpSpec, n: int, rng) -> np.ndarray:
    if spec.x_dist is XDist.STD_NORMAL:
        return rng.standard_normal((n, spec.d))
    return rng.random((n, spec.d))


def _draw_potentials(spec: DgpSpec, rng, mu0, mu1, sigma0, sigma1):
    """Draw (y0, y1) from the arm means and sds under the spec's dependence
    regime: e1 then e0, uniforms for binary outcomes and normals for
    continuous ones; antitone reflects e1 as 1 - u or -z."""
    binary = spec.outcome_kind is OutcomeKind.BINARY
    draw = rng.random if binary else rng.standard_normal
    e1 = draw(mu0.shape[0])
    if spec.dependence is Dependence.COMONOTONE:
        e0 = e1
    elif spec.dependence is Dependence.ANTITONE:
        e0 = 1.0 - e1 if binary else -e1
    else:
        e0 = draw(mu0.shape[0])
    if binary:
        return (e0 < mu0).astype(float), (e1 < mu1).astype(float)
    return mu0 + sigma0 * e0, mu1 + sigma1 * e1


def _draw_units(spec: DgpSpec, n: int, rng):
    """Draw n complete units in the order every stream uses: x, then its true
    (pi, mu0, mu1, sigma0, sigma1), the treatment, then (y0, y1). Returns
    ``(x, true, a, y0, y1)`` with ``a`` boolean."""
    x = _draw_x(spec, n, rng)
    true = spec.propensity(x), spec.mu(0, x), spec.mu(1, x), spec.sigma(0, x), spec.sigma(1, x)
    a = rng.random(n) < true[0]
    y0, y1 = _draw_potentials(spec, rng, *true[1:])
    return x, true, a, y0, y1


def generate(spec: DgpSpec, n: int, seed) -> PotentialDataset:
    """Seeded draw of n i.i.d. units with complete potential outcomes.

    Treatment is drawn from Bernoulli(pi(x)) independently of the potential
    outcomes given x, so ignorability holds by construction, and the observed
    outcome is exactly a*y1 + (1-a)*y0. Every array is allocated here and
    handed over uncopied; the constructors still check all of them.
    """
    check_type("spec", spec, DgpSpec)
    check_count("n", n)
    check_seed(seed)
    x, true, a, y0, y1 = _draw_units(spec, n, np.random.default_rng(seed))
    # The exact nuisances; clip_eps matches PI_CLIP.
    nu = NuisanceValues(*true, clip_eps=PI_CLIP[0], _owned=True)
    dataset = Dataset(y=select(a, y1, y0), a=a.astype(float), x=x,
                      outcome_kind=spec.outcome_kind, _owned=True)
    return PotentialDataset(dataset=dataset, y0=y0, y1=y1, true_nuisances=nu, _owned=True)


def true_sample_estimands(pd: PotentialDataset, psi_patt_true: float) -> dict:
    """Per-replication realized values of all six estimands with TRUE nuisances."""
    check_type("pd", pd, PotentialDataset)
    if not isinstance(psi_patt_true, numbers.Real):
        raise ValidationError(f"psi_patt_true must be a number, got {psi_patt_true!r}")
    ds = pd.dataset
    nuis = pd.true_nuisances
    n_treated = ds.a.sum()
    pi = nuis.pi_hat
    delta_mu = nuis.mu1_hat - nuis.mu0_hat
    delta_y = pd.y1 - pd.y0
    return {
        EstimandKind.PATT: float(psi_patt_true),
        EstimandKind.ACTT: float((pi * delta_mu).sum() / pi.sum()),
        EstimandKind.SWATT: float((pi * delta_y).sum() / pi.sum()),
        EstimandKind.CATT: float((ds.a * delta_mu).sum() / n_treated),
        EstimandKind.SATT: float((ds.a * (ds.y - pd.y0)).sum() / n_treated),
        EstimandKind.MATT: float((ds.a * (ds.y - nuis.mu0_hat)).sum() / n_treated),
    }


def psi_tilde(pd: PotentialDataset) -> float:
    """One-step functional with TRUE nuisances: the most precisely estimable
    sample variant; the estimator's point estimate on the exact nuisances."""
    check_type("pd", pd, PotentialDataset)
    return _Columns.of(pd.dataset, pd.true_nuisances).psi


# ---------------------------------------------------------------------------
# Brute-force oracles for the population constants and asymptotic variances.

def _batch_sizes(draws: int):
    """``(batch_size, count)``: ``count`` batches cover ``draws``, batch k of
    ``min(batch_size, draws - k * batch_size)`` draws. The size is
    ``BATCH_DRAWS``, less when that leaves under 16 batches."""
    check_count("draws", draws)
    batch_size = min(BATCH_DRAWS, max(1, draws // 16))
    return batch_size, -(-draws // batch_size)


def _mc_value(batch_values) -> McValue:
    vals = np.asarray(batch_values, dtype=float)
    value = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan")
    return McValue(value, se)


def _child_seed(seed, *tail):
    """Flat entropy list for a derived stream: pure function of (seed, tail)."""
    check_seed(seed)
    base = [int(s) for s in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
    return base + [int(t) for t in tail]


def _x_batches(spec: DgpSpec, draws, batch_size, seed, lo, hi):
    """Yield the sums of pi, pi (mu1 - mu0) and pi mu0 over each batch k in
    [lo, hi) of ``draws``: its x-only draws from the (seed, 1, k) stream."""
    for k in range(lo, hi):
        x = _draw_x(spec, min(batch_size, draws - k * batch_size),
                    np.random.default_rng(_child_seed(seed, 1, k)))
        pi = spec.propensity(x)
        mu0 = spec.mu(0, x)
        yield (float(pi.sum()), float((pi * (spec.mu(1, x) - mu0)).sum()),
               float((pi * mu0).sum()))


def _joint_batches(spec: DgpSpec, draws, batch_size, seed, consts, lo, hi):
    """Yield ``_oracle_functionals`` for each batch k in [lo, hi) of ``draws``:
    its complete draws from the (seed, 2, k) stream."""
    for k in range(lo, hi):
        true, a, y0, y1 = _draw_units(spec, min(batch_size, draws - k * batch_size),
                                      np.random.default_rng(_child_seed(seed, 2, k)))[1:]
        yield _oracle_functionals(spec, consts, *true, a.astype(float), y0, y1,
                                  select(a, y1, y0))


class _XConstants(NamedTuple):
    p_a: float  # E[pi]
    psi: McValue  # E[pi (mu1 - mu0)] / E[pi]
    tau: McValue  # E[pi mu0] / E[pi]


def _x_constants(spec: DgpSpec, draws: int, seed) -> _XConstants:
    """Population constants from x-only draws, with batch-means errors, added
    in batch order; the batches run in the fork pool."""
    check_type("spec", spec, DgpSpec)
    check_seed(seed)
    import secrets  # before the pools fork, as in run_monte_carlo
    batch_size, count = _batch_sizes(draws)
    s_pi = s_pidelta = s_pimu0 = 0.0
    psi_batches, tau_batches = [], []
    for b_pi, b_pidelta, b_pimu0 in _chunked(_x_batches, (spec, draws, batch_size, seed), count,
                                             pooled=True):
        s_pi += b_pi
        s_pidelta += b_pidelta
        s_pimu0 += b_pimu0
        psi_batches.append(b_pidelta / b_pi)
        tau_batches.append(b_pimu0 / b_pi)
    return _XConstants(
        p_a=s_pi / draws,
        psi=McValue(s_pidelta / s_pi, _mc_value(psi_batches).se),
        tau=McValue(s_pimu0 / s_pi, _mc_value(tau_batches).se),
    )


def psi_patt_true(spec: DgpSpec, draws: int = 10_000_000, seed=0) -> McValue:
    """Brute-force Monte Carlo of E[pi (mu1 - mu0)] / E[pi] over x draws: pass 1
    of ``oracle_asymptotic_variances``, with its streams and pool."""
    return _x_constants(spec, draws, seed).psi


def _oracle_functionals(spec: DgpSpec, consts: _XConstants, pi, mu0, mu1, sigma0, sigma1, a,
                        y0, y1, y) -> dict:
    """Per-batch variances of the six scores, the tau score and the bounds,
    keyed by their ``OracleVariances`` field names. The patt component sum, the
    satt decomposition and the swatt truth from (y0, y1) are not read off the
    estimator's table: they check its closed-form patt and plug-in satt."""
    p_a = consts.p_a
    c = _Columns(y, a, pi, mu0, mu1, sigma0, sigma1, a_bar=p_a, psi=consts.psi.value,
                 binary=spec.outcome_kind is OutcomeKind.BINARY)
    psi_y, psi_a, psi_x = c.comp
    out = {
        "patt": np.var(psi_y + psi_a + psi_x), "actt": c.v_actt, "catt": c.v_catt,
        "matt": c.v_matt, "tau_score": np.var(c.tau_y + a * (mu0 - consts.tau.value) / p_a),
        "satt": c.v_matt + ((pi * (1.0 - a) / (1.0 - pi) * (y - mu0) ** 2) / p_a ** 2).mean(),
        "swatt": c.v_actt - ((pi ** 2 * (y1 - y0 - (mu1 - mu0)) ** 2) / p_a ** 2).mean(),
        "sigma_bound": c.v_sigma_bound,
    }
    if c.binary:
        out["fh_bound"] = c.v_fh_bound
    return out


@dataclass(frozen=True)
class OracleVariances:
    """Brute-force limits of the six estimand variances plus the bounds.

    ``sigma_bound`` is the identified lower bound on the effect-variance term
    and ``fh_bound`` its sharp binary-outcome counterpart (None for continuous
    outcomes). ``tau`` is the control mean among the treated, E[pi mu0]/E[pi],
    and ``tau_score`` the variance of its score. Each entry carries a
    batch-means MC standard error.
    """

    patt: McValue
    actt: McValue
    swatt: McValue
    catt: McValue
    satt: McValue
    matt: McValue
    sigma_bound: McValue
    fh_bound: Optional[McValue]
    psi_patt: McValue
    tau: McValue
    tau_score: McValue
    p_a: float
    draws: int

    def by_kind(self) -> dict:
        return {kind: getattr(self, kind.value) for kind in KIND_ORDER}


def oracle_asymptotic_variances(spec: DgpSpec, draws: int = 10_000_000,
                                seed=0) -> OracleVariances:
    """Monte Carlo over complete draws with TRUE nuisances.

    Pass 1 estimates the population constants (treated share, effect, control
    mean among treated) from x-only draws. Pass 2 draws full joint replicates,
    evaluates the per-draw score components, the control-mean (tau) score and
    the identified conditional-variance terms, and aggregates per batch; values
    are batch means and the attached standard errors are batch-means errors.
    Each pass runs its batches in one forked worker process per CPU in the
    affinity mask, each on a contiguous block of batches. Batch k of pass p
    draws from its own (seed, p, k) stream and the batches are aggregated in
    order, so the result does not depend on the number of workers. A
    non-finite population constant stops the oracle before pass 2.
    """
    consts = _x_constants(spec, draws, seed)
    named = (("p_a", consts.p_a), ("psi_patt", consts.psi.value), ("tau", consts.tau.value))
    bad = [f"{name}={value}" for name, value in named if not np.isfinite(value)]
    if bad:
        raise NonFiniteEstimateError(f"oracle pass 1: non-finite {', '.join(bad)}")

    # Pass 2: joint draws, per-batch functionals, in batch order.
    batch_size, count = _batch_sizes(draws)
    batches: dict = {}
    for out in _chunked(_joint_batches, (spec, draws, batch_size, seed, consts), count,
                        pooled=True):
        for key, value in out.items():
            batches.setdefault(key, []).append(value)

    values = {"fh_bound": None, **{key: _mc_value(v) for key, v in batches.items()}}
    return OracleVariances(**values, psi_patt=consts.psi, tau=consts.tau, p_a=consts.p_a,
                           draws=draws)


# ---------------------------------------------------------------------------
# Replication studies.

@dataclass(frozen=True)
class McKindStats:
    """Aggregates for one estimand across replications."""

    empirical_var_scaled: float
    empirical_var_scaled_se: float
    mean_variance_estimate: float
    coverage: float
    ci_level: float


@dataclass(frozen=True)
class OrderingVerdict:
    """Paired comparison of two scaled empirical variances.

    ``holds`` means kind_small's scaled variance does not exceed kind_large's
    by more than 3 paired MC standard errors.
    """

    kind_small: EstimandKind
    kind_large: EstimandKind
    scaled_diff: float  # n * (var_small - var_large)
    scaled_se: float
    holds: bool


@dataclass(frozen=True, eq=False)
class McReport:
    per_kind: dict
    reps: int
    n: int
    seed: int
    ci_level: float
    failed_reps: int
    failure_messages: tuple
    extras: dict = field(default_factory=dict)


def _paired_verdict(errors, k_small, k_large, n) -> OrderingVerdict:
    e1 = errors[k_small] - errors[k_small].mean()
    e2 = errors[k_large] - errors[k_large].mean()
    mean, se = _mc_value(e1 ** 2 - e2 ** 2)
    return OrderingVerdict(
        kind_small=k_small,
        kind_large=k_large,
        scaled_diff=n * mean,
        scaled_se=n * se,
        holds=bool(mean <= 3.0 * se),
    )


# The (smaller, larger) pairs of the paper's variance ordering.
_ORDERING = ((EstimandKind.MATT, EstimandKind.CATT), (EstimandKind.CATT, EstimandKind.ACTT),
             (EstimandKind.ACTT, EstimandKind.PATT), (EstimandKind.SWATT, EstimandKind.ACTT))


class _Replication(NamedTuple):
    """What one successful replication adds to a study; the per-kind tuples
    follow KIND_ORDER."""

    psi_hat: float
    truths: tuple
    lowers: tuple
    uppers: tuple
    variances: tuple
    swatt_sigma: Optional[float]
    swatt_fh: Optional[float]
    floored: bool
    gap: float


def _replications(spec, n, seed, config, ci_level, psi_patt, lo, hi):
    """Yield, for each replication r in [lo, hi), a _Replication scored against
    the population effect ``psi_patt``, or the message ``"rep r: ..."`` for one
    that raised a TreatedError; a ``config`` of None estimates on the true
    nuisances.

    ``pd`` and ``report`` stay bound until the next replication replaces them:
    freeing them on every return would hand their pages back to the system, and
    the next replication would fault them in again. The stages are called by
    their module-level names, which the benchmark's tracer wraps.
    """
    for r in range(lo, hi):
        try:
            pd = generate(spec, n, seed=_child_seed(seed, r))
            truths = true_sample_estimands(pd, psi_patt)
            report = estimate_all(pd.dataset, config,
                                  oracle=pd.true_nuisances if config is None else None,
                                  ci_level=ci_level)
        except TreatedError as exc:
            yield f"rep {r}: {exc}"
            continue
        per_kind = [report.per_kind[k] for k in KIND_ORDER]
        sw = report.per_kind[EstimandKind.SWATT]
        yield _Replication(
            psi_hat=report.psi_hat,
            truths=tuple(truths[k] for k in KIND_ORDER),
            lowers=tuple(inf.ci_lower for inf in per_kind),
            uppers=tuple(inf.ci_upper for inf in per_kind),
            variances=tuple(inf.variance if inf.variance is not None else inf.variance_used
                            for inf in per_kind),
            swatt_sigma=sw.conservative_sigma,
            swatt_fh=sw.conservative_fh,
            floored=bool(report.diagnostics.get("swatt_sigma_floored")
                         or report.diagnostics.get("swatt_fh_floored")),
            # On the exact nuisances psi_hat is psi_tilde's own computation.
            gap=0.0 if config is None else np.sqrt(n) * (report.psi_hat - psi_tilde(pd)),
        )


def run_monte_carlo(spec: DgpSpec, n: int, reps: int, seed: int,
                    nuisance_config: Optional[NuisanceConfig] = None,
                    ci_level: float = 0.95,
                    psi_patt: Optional[McValue] = None,
                    patt_draws: int = 2_000_000) -> McReport:
    """Seeded replication study of the estimator against all six estimands.

    Each replication draws a fresh PotentialDataset from a stream derived from
    (seed, r), computes the realized estimand values, runs the full estimation
    pipeline and records those values with the intervals and variance
    estimates. Without ``nuisance_config`` it estimates on the replication's
    true nuisances, clipped at the default eps; with one it fits them.
    Replications that raise are counted and reported, never silently dropped.

    Without ``psi_patt`` the study first computes the population effect by
    ``psi_patt_true`` (``patt_draws`` draws, seed (seed, 2**31)), whose
    batches run in a pool of their own. The replications, items of one pool,
    are aggregated in index order, so the report depends neither on the number
    of workers nor on whether ``psi_patt`` was given.
    """
    check_type("spec", spec, DgpSpec)
    if nuisance_config is not None:
        check_type("nuisance_config", nuisance_config, NuisanceConfig)
    check_count("reps", reps)
    check_count("n", n)
    check_ci_level(ci_level)
    check_seed(seed)
    if psi_patt is not None:
        check_type("psi_patt", psi_patt, McValue)
    check_count("draws", patt_draws)  # psi_patt_true's rule, even when psi_patt is given

    import secrets  # numpy.random's: loads libcrypto once here, not in every pool worker
    if psi_patt is None:
        psi_patt = psi_patt_true(spec, patt_draws, _child_seed(seed, 2 ** 31))
    items = _chunked(_replications, (spec, n, seed, nuisance_config, ci_level, psi_patt.value),
                     reps, pooled=True)
    failures = [record for record in items if isinstance(record, str)]
    done = [record for record in items if not isinstance(record, str)]
    ok = len(done)
    if ok == 0:
        raise ValidationError(
            f"every replication failed; nothing to aggregate (first: {failures[0]})")

    # One contiguous row per kind, in KIND_ORDER, a column per replication. Each
    # statistic reduces one row: an axis reduction would add in another order.
    truths, lowers, uppers, variances = (
        np.array([getattr(rec, name) for rec in done], dtype=float).T.copy()
        for name in ("truths", "lowers", "uppers", "variances"))
    psi_hats = np.array([rec.psi_hat for rec in done])
    errors = psi_hats - truths
    hits = (lowers <= truths) & (truths <= uppers)
    per_kind = {
        k: McKindStats(
            empirical_var_scaled=n * (float(e.var(ddof=1)) if ok > 1 else 0.0),
            empirical_var_scaled_se=n * _mc_value((e - e.mean()) ** 2).se,
            mean_variance_estimate=float(v.mean()),
            coverage=float(hit.mean()),
            ci_level=ci_level,
        )
        for k, e, v, hit in zip(KIND_ORDER, errors, variances, hits)
    }

    by_kind = dict(zip(KIND_ORDER, errors))
    if ok > 1:
        ordering = [_paired_verdict(by_kind, small, large, n) for small, large in _ORDERING]
        satt_vs_patt = _paired_verdict(by_kind, EstimandKind.SATT, EstimandKind.PATT, n)
    else:
        ordering, satt_vs_patt = [], None

    gaps = np.asarray([rec.gap for rec in done])
    swatt_sigma = [rec.swatt_sigma for rec in done if rec.swatt_sigma is not None]
    swatt_fh = [rec.swatt_fh for rec in done if rec.swatt_fh is not None]
    extras = {
        "psi_patt_value": psi_patt.value,
        "psi_patt_se": psi_patt.se,
        "ordering": ordering,
        "satt_vs_patt": satt_vs_patt,
        "psi_tilde_rms_scaled_gap": float(np.sqrt(np.mean(gaps ** 2))),
        "mean_psi_hat": float(np.mean(psi_hats)),
        "sd_psi_hat": float(np.std(psi_hats, ddof=1)) if ok > 1 else 0.0,
        # The simple variant is the actt variance, replication by replication.
        "mean_swatt_conservative_simple": per_kind[EstimandKind.ACTT].mean_variance_estimate,
        "mean_swatt_conservative_sigma": float(np.mean(swatt_sigma)) if swatt_sigma else None,
        "mean_swatt_conservative_fh": float(np.mean(swatt_fh)) if swatt_fh else None,
        "swatt_floored_count": sum(rec.floored for rec in done),
    }

    return McReport(
        per_kind=per_kind,
        reps=reps,
        n=n,
        seed=seed,
        ci_level=ci_level,
        failed_reps=len(failures),
        failure_messages=tuple(failures[:20]),
        extras=extras,
    )
