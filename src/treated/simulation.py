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
study's items, in one fork pool (``mathutil._chunked``), are its
replications, each with its share of the x-only batches of the population
effect (pass 1 of an oracle seeded (seed, 2**31)), none when that effect is
given; the calling process scores every estimand once, the sample/mixed ones
against each replication's realized value and the population effect against
its fixed Monte Carlo truth. The oracle's joint pass runs in the pool, its
x-only pass only from ``X_POOL_DRAWS`` draws on.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .data_model import (Dataset, EstimandKind, NuisanceValues, OutcomeKind, KIND_ORDER,
                         _frozen_array, check_ci_level, check_seed)
from .errors import NonFiniteEstimateError, TreatedError, ValidationError
from .estimator import _Columns, estimate_all
from .mathutil import _chunked, blocked_matmul, expit, select
from .nuisance import NuisanceConfig

SCHEMA_VERSION = 1
PI_CLIP = (0.02, 0.98)
BINARY_MEAN_CLAMP = (0.02, 0.98)
NOISE_SD_FLOOR = 0.05
# Fewest draws for which the oracle's x-only pass (and psi_patt_true) runs its
# batches in a fork pool of their own; below it a pool's start costs about what
# it saves. A one-replication study computes its PATT truth by this rule.
# `treated oracle` on the d = 2 spec (2 vCPUs, medians of 10 alternating pairs)
# took 320 ms serial against 303 ms pooled at 5e5 draws, 405 against 377 ms at
# 1e6 and 594 against 499 ms at 2e6; none won more than 7 pairs of 10.
X_POOL_DRAWS = 2_000_000
# Draws per oracle batch. The batch size decides the streams, so
# psi_patt_true shares it to stay the oracle's pass 1, and it is a constant:
# one derived from the machine would make the bytes depend on it. `treated
# oracle --draws 1e7` on the d = 2 spec (2 vCPUs, medians of 10 alternating
# runs; wall time, then the largest process's peak RSS) took 2.24 s and
# 118 MiB at 500,000 draws, 2.21 s and 76 MiB at 262,144, 2.15 s and 54 MiB
# at 125,000, 2.04 s and 43.5 MiB at 65,536, 2.08 s and 39 MiB at 32,768, and
# 2.12 s and 36 MiB at 16,384. A joint-pass batch peaks at 16-17 columns.
BATCH_DRAWS = 65_536


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
    _owned: InitVar[bool] = False  # package-private, as for Dataset

    def __post_init__(self, _owned):
        for name in ("y0", "y1"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), owned=_owned))


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


def _draw_units(spec: DgpSpec, n: int, rng):
    """Draw n complete units in the order every stream uses: x, then its true
    (pi, mu0, mu1, sigma0, sigma1), the treatment, then (y0, y1). Returns
    ``(x, true, a, y0, y1)`` with ``a`` boolean."""
    x = _draw_x(spec, n, rng)
    true = _true_arrays(spec, x)
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
    if n < 1:
        raise ValidationError("n must be >= 1")
    check_seed(seed)
    x, true, a, y0, y1 = _draw_units(spec, n, np.random.default_rng(seed))
    # The exact nuisances; clip_eps matches PI_CLIP.
    nu = NuisanceValues(*true, clip_eps=PI_CLIP[0], _owned=True)
    dataset = Dataset(y=select(a, y1, y0), a=a.astype(np.int64), x=x,
                      outcome_kind=spec.outcome_kind, _owned=True)
    return PotentialDataset(dataset=dataset, y0=y0, y1=y1, true_nuisances=nu, _owned=True)


def true_sample_estimands(pd: PotentialDataset, psi_patt_true: float) -> dict:
    """Per-replication realized values of all six estimands with TRUE nuisances."""
    ds = pd.dataset
    a = ds.a.astype(float)
    nuis = pd.true_nuisances
    n_treated = a.sum()
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
    return _Columns.of(pd.dataset, pd.true_nuisances).psi


# ---------------------------------------------------------------------------
# Brute-force oracles for the population constants and asymptotic variances.

def _batch_sizes(draws: int):
    """Batch lengths covering ``draws``: ``BATCH_DRAWS`` each, fewer when that
    leaves under 16 batches."""
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    batch_size = min(BATCH_DRAWS, max(1, draws // 16))
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


def _x_batches(spec: DgpSpec, sizes, seed, lo, hi):
    """Yield the sums of pi, pi (mu1 - mu0) and pi mu0 over each batch k in
    [lo, hi): ``sizes[k]`` x-only draws from the (seed, 1, k) stream."""
    for k in range(lo, hi):
        x = _draw_x(spec, sizes[k], np.random.default_rng(_child_seed(seed, 1, k)))
        pi = spec.propensity(x)
        mu0 = spec.mu(0, x)
        yield (float(pi.sum()), float((pi * (spec.mu(1, x) - mu0)).sum()),
               float((pi * mu0).sum()))


def _joint_batches(spec: DgpSpec, sizes, seed, consts, lo, hi):
    """Yield ``_oracle_functionals`` for each batch k in [lo, hi): ``sizes[k]``
    complete draws from the (seed, 2, k) stream."""
    for k in range(lo, hi):
        true, a, y0, y1 = _draw_units(spec, sizes[k],
                                      np.random.default_rng(_child_seed(seed, 2, k)))[1:]
        yield _oracle_functionals(spec, consts, *true, a.astype(float), y0, y1,
                                  select(a, y1, y0))


class _XConstants(NamedTuple):
    p_a: float  # E[pi]
    psi: McValue  # E[pi (mu1 - mu0)] / E[pi]
    tau: McValue  # E[pi mu0] / E[pi]


def _x_constants(spec: DgpSpec, draws: int, seed) -> _XConstants:
    """Population constants from x-only draws, with batch-means errors; from
    ``X_POOL_DRAWS`` draws on, the batches run in the fork pool."""
    check_seed(seed)
    import secrets  # before the pools fork, as in run_monte_carlo
    sizes = _batch_sizes(draws)
    sums = _chunked(_x_batches, (spec, sizes, seed), len(sizes), pooled=draws >= X_POOL_DRAWS)
    return _sum_constants(sums, draws)


def _sum_constants(sums, draws: int) -> _XConstants:
    """The constants from the ``_x_batches`` sums of all ``draws`` x-only
    draws, added in batch order."""
    s_pi = s_pidelta = s_pimu0 = 0.0
    psi_batches, tau_batches = [], []
    for b_pi, b_pidelta, b_pimu0 in sums:
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
    affinity mask, each on a contiguous block of batches; pass 1 does so from
    ``X_POOL_DRAWS`` draws on and runs in this process below that. Batch k of
    pass p draws from its own (seed, p, k) stream and the batches are
    aggregated in order, so the result does not depend on the number of
    workers. A non-finite population constant stops the oracle before pass 2.
    """
    consts = _x_constants(spec, draws, seed)
    named = (("p_a", consts.p_a), ("psi_patt", consts.psi.value), ("tau", consts.tau.value))
    bad = [f"{name}={value}" for name, value in named if not np.isfinite(value)]
    if bad:
        raise NonFiniteEstimateError(f"oracle pass 1: non-finite {', '.join(bad)}")

    # Pass 2: joint draws, per-batch functionals, in batch order.
    sizes = _batch_sizes(draws)
    batches: dict = {}
    for out in _chunked(_joint_batches, (spec, sizes, seed, consts), len(sizes), pooled=True):
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
    follow KIND_ORDER. Its patt truth is NaN: the study scores the records
    once it knows the population effect."""

    psi_hat: float
    truths: tuple
    lowers: tuple
    uppers: tuple
    variances: tuple
    swatt_sigma: Optional[float]
    swatt_fh: Optional[float]
    floored: bool
    gap: float


def _replications(spec, n, seed, config, ci_level, patt, lo, hi):
    """Yield ``(own_sums, record)`` for each replication r in [lo, hi). With
    ``patt = (sizes, patt_seed, reps)`` and B = ``len(sizes)``, ``own_sums`` are
    the ``_x_batches`` sums of the population effect's batches [ceil(r B / reps),
    ceil((r + 1) B / reps)), none when B = 0. The record is a _Replication, or the
    message ``"rep r: ..."`` for one that raised a TreatedError; a ``config`` of
    None estimates on the true nuisances.

    The chunk's batches run first, before any replication holds memory: run
    between replications (`simulate --n 20000 --reps 300 --oracle-nuisances`,
    2 vCPUs) they raised a worker's peak to 39.8 MiB from 37.4-37.8, or, with
    the last replication freed first, the page faults to 62,000 from 21,500
    and the wall time by 0.13 s.

    ``pd`` and ``report`` stay bound until the next replication replaces them:
    freeing them on every return would hand their pages back to the system, and
    the next replication would fault them in again. The stages are called by
    their module-level names, which the benchmark's tracer wraps.
    """
    sizes, patt_seed, reps = patt
    cuts = [-(-r * len(sizes) // reps) for r in range(lo, hi + 1)]
    sums = iter(list(_x_batches(spec, sizes, patt_seed, cuts[0], cuts[-1])))
    for r, start, end in zip(range(lo, hi), cuts, cuts[1:]):
        own = [next(sums) for _ in range(start, end)]
        try:
            pd = generate(spec, n, seed=_child_seed(seed, r))
            truths = true_sample_estimands(pd, np.nan)
            report = estimate_all(pd.dataset, config,
                                  oracle=pd.true_nuisances if config is None else None,
                                  ci_level=ci_level)
        except TreatedError as exc:
            yield own, f"rep {r}: {exc}"
            continue
        per_kind = [report.per_kind[k] for k in KIND_ORDER]
        sw = report.per_kind[EstimandKind.SWATT]
        yield own, _Replication(
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

    Without ``psi_patt`` the study computes the population effect as
    ``psi_patt_true`` does (``patt_draws`` draws, seed (seed, 2**31)): each
    replication, an item of one pool, carries its even share of the batches. A
    one-replication study computes it first, with the pool rule of pass 1, and
    runs its replication here. Sums and records are aggregated in index order
    and every estimand scored here, so the report depends neither on the number
    of workers nor on whether ``psi_patt`` was given.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if n < 1:
        raise ValidationError("n must be >= 1")
    check_ci_level(ci_level)
    check_seed(seed)

    import secrets  # numpy.random's: loads libcrypto once here, not in every pool worker
    patt_seed = _child_seed(seed, 2 ** 31)
    # One replication is too little work for a pool; its PATT batches pool as pass 1's would.
    if psi_patt is None and reps == 1:
        psi_patt = _x_constants(spec, patt_draws, patt_seed).psi
    sizes = [] if psi_patt is not None else _batch_sizes(patt_draws)
    items = _chunked(_replications, (spec, n, seed, nuisance_config, ci_level,
                                     (sizes, patt_seed, reps)), reps, pooled=True)
    if psi_patt is None:
        psi_patt = _sum_constants([sums for own, _ in items for sums in own], patt_draws).psi
    failures = [record for _, record in items if isinstance(record, str)]
    done = [record for _, record in items if not isinstance(record, str)]
    ok = len(done)
    if ok == 0:
        raise ValidationError(
            f"every replication failed; nothing to aggregate (first: {failures[0]})")

    # One contiguous row per kind, in KIND_ORDER, a column per replication. Each
    # statistic reduces one row: an axis reduction would add in another order.
    truths, lowers, uppers, variances = (
        np.array([getattr(rec, name) for rec in done], dtype=float).T.copy()
        for name in ("truths", "lowers", "uppers", "variances"))
    truths[KIND_ORDER.index(EstimandKind.PATT)] = psi_patt.value
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
