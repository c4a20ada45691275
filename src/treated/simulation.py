"""Synthetic data with complete potential outcomes, brute-force oracles, and
seeded replication studies.

The generative family is logit-linear in the propensity and linear in the
conditional means, so the parametric nuisance fitters are correctly specified
and the theory's rate conditions hold by construction. Propensities are
clipped to [0.02, 0.98] at generation (explicit positivity) and continuous
noise sds are floored at 0.05 unless ``exact_noise`` deliberately permits
zero-noise outcomes for analytic test cases.

Replication r of a study draws from a stream that is a pure function of
(seed, r), and batch k of the oracle's joint pass from (seed, 2, k), so runs
are reproducible regardless of execution order; aggregation happens in index
order. Coverage for the sample/mixed estimands targets the per-replication
realized value; the population effect targets its fixed Monte Carlo truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .data_model import (Dataset, EstimandKind, NuisanceValues, OutcomeKind, KIND_ORDER,
                         check_ci_level, check_seed)
from .errors import DegenerateTreatmentError, TreatedError, ValidationError
from .estimator import (_Columns, _score_components, _tau_y_raw, _var_fh_raw,
                        _var_sigma_bound_raw, estimate_all)
from .mathutil import _chunked, blocked_matmul, expit
from .nuisance import NuisanceConfig

SCHEMA_VERSION = 1
PI_CLIP = (0.02, 0.98)
BINARY_MEAN_CLAMP = (0.02, 0.98)
NOISE_SD_FLOOR = 0.05


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
        if self.d < 0:
            raise ValidationError("covariate dimension must be nonnegative")
        for name in ("propensity_coeffs", "mu0_coeffs", "mu1_coeffs",
                     "noise0_sd_coeffs", "noise1_sd_coeffs"):
            v = np.array(getattr(self, name), dtype=float, copy=True).reshape(-1)
            if v.shape[0] != self.d + 1:
                raise ValidationError(f"{name} must have length d+1={self.d + 1}")
            if not np.isfinite(v).all():
                raise ValidationError(f"{name} must be finite")
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def _affine(self, coeffs, x):
        """``coeffs[0] + x @ coeffs[1:]``, bit for bit, computed in row blocks
        (see ``mathutil.blocked_matmul``), so the oracle's forked workers wake
        no OpenBLAS helper thread."""
        out = blocked_matmul(x, coeffs[1:])
        out += coeffs[0]
        return out

    def propensity(self, x) -> np.ndarray:
        return np.clip(expit(self._affine(self.propensity_coeffs, x)), *PI_CLIP)

    def mu(self, arm: int, x) -> np.ndarray:
        raw = self._affine(self.mu1_coeffs if arm == 1 else self.mu0_coeffs, x)
        if self.outcome_kind is OutcomeKind.BINARY:
            return np.clip(raw, *BINARY_MEAN_CLAMP)
        return raw

    def sigma(self, arm: int, x) -> np.ndarray:
        """True conditional sd of the potential outcome."""
        if self.outcome_kind is OutcomeKind.BINARY:
            p = self.mu(arm, x)
            return np.sqrt(p * (1.0 - p))
        raw = self._affine(self.noise1_sd_coeffs if arm == 1 else self.noise0_sd_coeffs, x)
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
        if not isinstance(data, dict):
            raise ValidationError("DGP spec must be a JSON object")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported DGP spec schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        try:
            return cls(
                d=int(data["d"]),
                propensity_coeffs=data["propensity_coeffs"],
                mu0_coeffs=data["mu0_coeffs"],
                mu1_coeffs=data["mu1_coeffs"],
                noise0_sd_coeffs=data["noise0_sd_coeffs"],
                noise1_sd_coeffs=data["noise1_sd_coeffs"],
                x_dist=XDist(data.get("x_dist", "std_normal")),
                dependence=Dependence(data.get("dependence", "independent")),
                outcome_kind=OutcomeKind(data.get("outcome_kind", "continuous")),
                exact_noise=bool(data.get("exact_noise", False)),
            )
        except KeyError as exc:
            raise ValidationError(f"DGP spec is missing field {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"bad DGP spec field: {exc}") from exc


@dataclass(frozen=True, eq=False)
class PotentialDataset:
    """Observed view plus the complete potential outcomes and exact nuisances."""

    dataset: Dataset
    y0: np.ndarray
    y1: np.ndarray
    true_nuisances: NuisanceValues

    def __post_init__(self):
        for name in ("y0", "y1"):
            v = np.array(getattr(self, name), dtype=float, copy=True).reshape(-1)
            v.flags.writeable = False
            object.__setattr__(self, name, v)


class McValue(NamedTuple):
    """A Monte Carlo estimate with its attached standard error."""

    value: float
    se: float


def _draw_x(spec: DgpSpec, n: int, rng) -> np.ndarray:
    if spec.x_dist is XDist.STD_NORMAL:
        return rng.standard_normal((n, spec.d))
    return rng.random((n, spec.d))


def _true_arrays(spec: DgpSpec, x: np.ndarray):
    """True (pi, mu0, mu1, sigma0, sigma1) at each row of x."""
    return spec.propensity(x), spec.mu(0, x), spec.mu(1, x), spec.sigma(0, x), spec.sigma(1, x)


def _draw_potentials(spec: DgpSpec, rng, mu0, mu1, sigma0, sigma1):
    """Draw (y0, y1) from the arm means and sds under the spec's dependence regime."""
    n = mu0.shape[0]
    if spec.outcome_kind is OutcomeKind.BINARY:
        u1 = rng.random(n)
        if spec.dependence is Dependence.COMONOTONE:
            u0 = u1
        elif spec.dependence is Dependence.ANTITONE:
            u0 = 1.0 - u1
        else:
            u0 = rng.random(n)
        return (u0 < mu0).astype(float), (u1 < mu1).astype(float)
    z1 = rng.standard_normal(n)
    if spec.dependence is Dependence.COMONOTONE:
        z0 = z1
    elif spec.dependence is Dependence.ANTITONE:
        z0 = -z1
    else:
        z0 = rng.standard_normal(n)
    return mu0 + sigma0 * z0, mu1 + sigma1 * z1


def generate(spec: DgpSpec, n: int, seed) -> PotentialDataset:
    """Seeded draw of n i.i.d. units with complete potential outcomes.

    Treatment is drawn from Bernoulli(pi(x)) independently of the potential
    outcomes given x, so ignorability holds by construction, and the observed
    outcome is exactly a*y1 + (1-a)*y0.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    x = _draw_x(spec, n, rng)
    # The exact nuisances; clip_eps matches PI_CLIP.
    nu = NuisanceValues(*_true_arrays(spec, x), clip_eps=PI_CLIP[0])
    a = (rng.random(n) < nu.pi_hat).astype(np.int64)
    y0, y1 = _draw_potentials(spec, rng, nu.mu0_hat, nu.mu1_hat, nu.sigma0_hat, nu.sigma1_hat)
    y = np.where(a == 1, y1, y0)
    dataset = Dataset(y=y, a=a, x=x, outcome_kind=spec.outcome_kind)
    return PotentialDataset(dataset=dataset, y0=y0, y1=y1, true_nuisances=nu)


def true_sample_estimands(pd: PotentialDataset, psi_patt_true: float) -> dict:
    """Per-replication realized values of all six estimands with TRUE nuisances."""
    ds = pd.dataset
    a = ds.a.astype(float)
    nuis = pd.true_nuisances
    n_treated = a.sum()
    if n_treated == 0:
        raise DegenerateTreatmentError("no treated units: satt/catt/matt undefined")
    pi = nuis.pi_hat
    delta_mu = nuis.mu1_hat - nuis.mu0_hat
    delta_y = pd.y1 - pd.y0
    return {
        EstimandKind.PATT: float(psi_patt_true),
        EstimandKind.ACTT: float((pi * delta_mu).sum() / pi.sum()),
        EstimandKind.SWATT: float((pi * delta_y).sum() / pi.sum()),
        EstimandKind.CATT: float((a * delta_mu).sum() / n_treated),
        EstimandKind.SATT: float((a * (ds.y - pd.y0)).sum() / n_treated),
        EstimandKind.MATT: float((a * (ds.y - nuis.mu0_hat)).sum() / n_treated),
    }


def psi_tilde(pd: PotentialDataset) -> float:
    """One-step functional with TRUE nuisances: the most precisely estimable
    sample variant; the estimator's point estimate on the exact nuisances."""
    return _Columns(pd.dataset, pd.true_nuisances).psi


def fh_sharpness_oracle(p: float, q: float, grid: int = 4001) -> float:
    """Exhaustively maximize E[y1*y0] over joint Bernoulli pmfs with margins (p, q).

    The joint law is a one-parameter family indexed by the overlap cell p11;
    the oracle scans a dense inclusive grid of candidate overlaps and keeps
    the largest one with all four cells nonnegative. Certifies that the sharp
    upper bound min(p, q) is attained.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValidationError("margins must lie in [0, 1]")
    lo = max(0.0, p + q - 1.0)
    hi = min(p, q)
    best = -np.inf
    for p11 in np.linspace(lo, hi, grid):
        cells = (p11, p - p11, q - p11, 1.0 - p - q + p11)
        if all(c >= -1e-15 for c in cells):
            best = max(best, p11)
    return float(best)


# ---------------------------------------------------------------------------
# Brute-force oracles for the population constants and asymptotic variances.

def _batch_sizes(draws: int, batch_size: int):
    """Batch lengths covering ``draws``; at least 16 batches when draws allow."""
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    batch_size = min(batch_size, max(1, draws // 16))
    sizes = [batch_size] * (draws // batch_size)
    if draws % batch_size:
        sizes.append(draws % batch_size)
    return sizes


def _mc_value(batch_values) -> McValue:
    vals = np.asarray(batch_values, dtype=float)
    value = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan")
    return McValue(value, se)


def _child_seed(seed, *tail):
    """Flat entropy list for a derived stream: pure function of (seed, tail)."""
    check_seed(seed)
    if isinstance(seed, (int, np.integer)):
        base = [int(seed)]
    else:
        base = [int(s) for s in seed]
    return base + [int(t) for t in tail]


def _joint_batches(spec: DgpSpec, sizes, seed, functional, lo, hi):
    """Yield ``functional(pi, mu0, mu1, sigma0, sigma1, a, y0, y1, y)`` for each batch
    k in [lo, hi): ``sizes[k]`` complete draws from the (seed, 2, k) stream; ``a`` is
    float. Draws stay bound until the next batch replaces them one by one, and the
    functional's temporaries die on return: this keeps both the peak memory and the
    page faults per batch low."""
    for k in range(lo, hi):
        rng = np.random.default_rng(_child_seed(seed, 2, k))
        m = sizes[k]
        x = _draw_x(spec, m, rng)
        pi, mu0, mu1, sigma0, sigma1 = _true_arrays(spec, x)
        a = (rng.random(m) < pi).astype(float)
        y0, y1 = _draw_potentials(spec, rng, mu0, mu1, sigma0, sigma1)
        yield functional(pi, mu0, mu1, sigma0, sigma1, a, y0, y1, np.where(a == 1.0, y1, y0))


class _XConstants(NamedTuple):
    p_a: float  # E[pi]
    psi: McValue  # E[pi (mu1 - mu0)] / E[pi]
    tau: McValue  # E[pi mu0] / E[pi]


def _x_constants(spec: DgpSpec, draws: int, seed, batch_size: int) -> _XConstants:
    """Population constants from x-only draws, with batch-means errors."""
    rng = np.random.default_rng(_child_seed(seed, 1))
    s_pi = s_pidelta = s_pimu0 = 0.0
    psi_batches, tau_batches = [], []
    for m in _batch_sizes(draws, batch_size):
        x = _draw_x(spec, m, rng)
        pi = spec.propensity(x)
        mu0 = spec.mu(0, x)
        b_pi = float(pi.sum())
        b_pidelta = float((pi * (spec.mu(1, x) - mu0)).sum())
        b_pimu0 = float((pi * mu0).sum())
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


def psi_patt_true(spec: DgpSpec, draws: int = 10_000_000, seed=0,
                  batch_size: int = 1_000_000) -> McValue:
    """Brute-force Monte Carlo of E[pi (mu1 - mu0)] / E[pi] over x draws."""
    return _x_constants(spec, draws, seed, batch_size).psi


def _oracle_functionals(pi, mu0, mu1, sigma0, sigma1, a, y0, y1, y, *, psi, tau, p_a,
                        binary) -> dict:
    """Per-batch variances of the six scores, the tau score and the bounds,
    keyed by their ``OracleVariances`` field names."""
    # The tau score is tau_y + a (mu0 - tau) / p_a; tau_y dies before the
    # score components exist, so no extra column is live at peak memory.
    tau_y = _tau_y_raw(y, a, pi, mu0, p_a)
    v_matt, v_tau = np.var(tau_y), np.var(tau_y + a * (mu0 - tau) / p_a)
    del tau_y
    psi_y, psi_a, psi_x = _score_components(y, a, pi, mu0, mu1, psi, p_a)
    v_actt = np.var(psi_y + psi_a)
    out = {
        "patt": np.var(psi_y + psi_a + psi_x), "actt": v_actt, "catt": np.var(psi_y),
        "matt": v_matt, "tau_score": v_tau,
        "satt": v_matt + ((pi * (1.0 - a) / (1.0 - pi) * (y - mu0) ** 2) / p_a ** 2).mean(),
        "swatt": v_actt - ((pi ** 2 * (y1 - y0 - (mu1 - mu0)) ** 2) / p_a ** 2).mean(),
        "sigma_bound": _var_sigma_bound_raw(pi, sigma0, sigma1, p_a),
    }
    if binary:
        out["fh_bound"] = _var_fh_raw(pi, mu0, mu1)
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


def oracle_asymptotic_variances(spec: DgpSpec, draws: int = 10_000_000, seed=0,
                                batch_size: int = 500_000) -> OracleVariances:
    """Monte Carlo over complete draws with TRUE nuisances.

    Pass 1 estimates the population constants (treated share, effect, control
    mean among treated) from x-only draws, in this process. Pass 2 draws full
    joint replicates, evaluates the per-draw score components, the control-mean
    (tau) score and the identified conditional-variance terms, and aggregates
    per batch; values are batch means and the attached standard errors are
    batch-means errors. Pass 2 runs its batches in one forked worker process
    per CPU in the affinity mask, each on a contiguous block of batches; batch
    k draws from its own stream and the batches are aggregated in order, so the
    result does not depend on the number of workers.
    """
    consts = _x_constants(spec, draws, seed, batch_size)

    # Pass 2: joint draws, per-batch functionals, in batch order.
    sizes = _batch_sizes(draws, batch_size)
    functional = partial(_oracle_functionals, psi=consts.psi.value, tau=consts.tau.value,
                         p_a=consts.p_a, binary=spec.outcome_kind is OutcomeKind.BINARY)
    batches: dict = {}
    for out in _chunked(_joint_batches, (spec, sizes, seed, functional), len(sizes)):
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
    d = e1 ** 2 - e2 ** 2
    reps = d.size
    se = float(d.std(ddof=1) / np.sqrt(reps))
    mean = float(d.mean())
    return OrderingVerdict(
        kind_small=k_small,
        kind_large=k_large,
        scaled_diff=n * mean,
        scaled_se=n * se,
        holds=bool(mean <= 3.0 * se),
    )


class _Replication(NamedTuple):
    """What one successful replication adds to a study; the per-kind tuples
    follow KIND_ORDER."""

    psi_hat: float
    errors: tuple
    hits: tuple
    variances: tuple
    swatt_simple: float
    swatt_sigma: Optional[float]
    swatt_fh: Optional[float]
    floored: bool
    gap: float


def _replications(spec, n, seed, psi_patt_value, config, oracle_nuisances, ci_level, lo, hi):
    """Yield a _Replication for each replication r in [lo, hi), or the message
    ``"rep r: ..."`` for one that raised a TreatedError.

    ``pd`` and ``report`` stay bound until the next replication replaces them:
    freeing them on every return would hand their pages back to the system, and
    the next replication would fault them in again. The stages are called by
    their module-level names, which the benchmark's tracer wraps.
    """
    for r in range(lo, hi):
        try:
            pd = generate(spec, n, seed=_child_seed(seed, r))
            truths = true_sample_estimands(pd, psi_patt_value)
            report = estimate_all(pd.dataset, config,
                                  oracle=pd.true_nuisances if oracle_nuisances else None,
                                  ci_level=ci_level)
        except TreatedError as exc:
            yield f"rep {r}: {exc}"
            continue
        per_kind = [report.per_kind[k] for k in KIND_ORDER]
        truth = [truths[k] for k in KIND_ORDER]
        sw = report.per_kind[EstimandKind.SWATT]
        yield _Replication(
            psi_hat=report.psi_hat,
            errors=tuple(report.psi_hat - t for t in truth),
            hits=tuple(inf.ci_lower <= t <= inf.ci_upper for inf, t in zip(per_kind, truth)),
            variances=tuple(inf.variance if inf.variance is not None else inf.variance_used
                            for inf in per_kind),
            swatt_simple=sw.conservative_simple,
            swatt_sigma=sw.conservative_sigma,
            swatt_fh=sw.conservative_fh,
            floored=bool(report.diagnostics.get("swatt_sigma_floored")
                         or report.diagnostics.get("swatt_fh_floored")),
            gap=np.sqrt(n) * (report.psi_hat - psi_tilde(pd)),
        )


def run_monte_carlo(spec: DgpSpec, n: int, reps: int, seed: int,
                    nuisance_config: Optional[NuisanceConfig] = None,
                    oracle_nuisances: bool = True,
                    ci_level: float = 0.95,
                    psi_patt: Optional[McValue] = None,
                    patt_draws: int = 2_000_000) -> McReport:
    """Seeded replication study of the estimator against all six estimands.

    Each replication draws a fresh PotentialDataset from a stream derived from
    (seed, r), computes the realized estimand values, runs the full estimation
    pipeline with oracle or fitted nuisances, and records errors, variance
    estimates and CI hits. Replications that raise are counted and reported,
    never silently dropped.

    The replications run in one forked worker process per CPU in the affinity
    mask, each on a contiguous block of indices. The records are aggregated in
    index order, so the report does not depend on the number of workers.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if n < 1:
        raise ValidationError("n must be >= 1")
    check_ci_level(ci_level)
    check_seed(seed)
    if psi_patt is None:
        psi_patt = psi_patt_true(spec, draws=patt_draws, seed=_child_seed(seed, 2 ** 31))
    # Oracle replications ignore nuisance_config and clip at the default eps.
    if oracle_nuisances or nuisance_config is None:
        nuisance_config = NuisanceConfig()

    args = (spec, n, seed, psi_patt.value, nuisance_config, oracle_nuisances, ci_level)
    records = _chunked(_replications, args, reps)

    failures, done = [], []
    for record in records:
        (failures if isinstance(record, str) else done).append(record)
    ok = len(done)
    if ok == 0:
        raise ValidationError(
            f"every replication failed; nothing to aggregate (first: {failures[0]})")
    kinds = KIND_ORDER
    err_arrays = {k: np.asarray([rec.errors[i] for rec in done]) for i, k in enumerate(kinds)}

    per_kind = {}
    for i, k in enumerate(kinds):
        e = err_arrays[k]
        centered_sq = (e - e.mean()) ** 2
        v = float(e.var(ddof=1)) if ok > 1 else 0.0
        v_se = float(centered_sq.std(ddof=1) / np.sqrt(ok)) if ok > 1 else float("nan")
        per_kind[k] = McKindStats(
            empirical_var_scaled=n * v,
            empirical_var_scaled_se=n * v_se,
            mean_variance_estimate=float(np.mean([rec.variances[i] for rec in done])),
            coverage=float(np.mean([rec.hits[i] for rec in done])),
            ci_level=ci_level,
        )

    if ok > 1:
        ordering = [
            _paired_verdict(err_arrays, EstimandKind.MATT, EstimandKind.CATT, n),
            _paired_verdict(err_arrays, EstimandKind.CATT, EstimandKind.ACTT, n),
            _paired_verdict(err_arrays, EstimandKind.ACTT, EstimandKind.PATT, n),
            _paired_verdict(err_arrays, EstimandKind.SWATT, EstimandKind.ACTT, n),
        ]
        satt_vs_patt = _paired_verdict(err_arrays, EstimandKind.SATT, EstimandKind.PATT, n)
    else:
        ordering = []
        satt_vs_patt = None

    gaps = np.asarray([rec.gap for rec in done])
    psi_hats = [rec.psi_hat for rec in done]
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
        "mean_swatt_conservative_simple": float(np.mean([rec.swatt_simple for rec in done])),
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
