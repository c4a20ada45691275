"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything oracle-based is checked against brute-force Monte Carlo computed
independently of the estimation code paths; tolerances are fixed here, not
calibrated post hoc. Shared expensive fixtures (the 1e7-draw oracle) live in
conftest.py.
"""

import dataclasses
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from treated import (
    Dependence,
    DgpSpec,
    EstimandKind,
    NuisanceConfig,
    NuisanceValues,
    OutcomeKind,
    XDist,
    generate,
    oracle_asymptotic_variances,
    run_monte_carlo,
)
from treated import mathutil
from treated.estimator import _Columns, estimate_psi_hat, if_components, var_fh_binary, var_satt
from treated.simulation import _child_seed, true_sample_estimands

from conftest import (STD_SPEC, fh_sharpness_oracle, make_worked_example,
                      random_dataset_with_nuisances)

KINDS_FIVE = (EstimandKind.PATT, EstimandKind.ACTT, EstimandKind.CATT,
              EstimandKind.SATT, EstimandKind.MATT)


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Scenario DGPs (coefficients chosen so the relevant effects are far from the
# decision boundaries; see each criterion for the structural requirement).

HOMOGENEOUS_UNEQUAL_NOISE = DgpSpec(
    d=1, propensity_coeffs=[0.2, 0.6], mu0_coeffs=[1.0, 1.0], mu1_coeffs=[3.0, 1.0],
    noise0_sd_coeffs=[1.5, 0.0], noise1_sd_coeffs=[0.5, 0.0],
)

ANTITONE_EQUAL_SD = DgpSpec(
    d=1, propensity_coeffs=[-0.5, 2.2], mu0_coeffs=[1.0, 1.0], mu1_coeffs=[2.0, 1.0],
    noise0_sd_coeffs=[1.0, 0.0], noise1_sd_coeffs=[1.0, 0.0],
    x_dist=XDist.UNIFORM01, dependence=Dependence.ANTITONE,
)

DETERMINISTIC_CATE = DgpSpec(
    d=1, propensity_coeffs=[0.3, 0.5], mu0_coeffs=[0.0, 1.0], mu1_coeffs=[1.0, 3.0],
    noise0_sd_coeffs=[0.0, 0.0], noise1_sd_coeffs=[0.0, 0.0], exact_noise=True,
)

BINARY_COMONOTONE = DgpSpec(
    d=1, propensity_coeffs=[-0.2, 0.8], mu0_coeffs=[0.3, 0.3], mu1_coeffs=[0.4, 0.5],
    noise0_sd_coeffs=[0.0, 0.0], noise1_sd_coeffs=[0.0, 0.0],
    x_dist=XDist.UNIFORM01, dependence=Dependence.COMONOTONE,
    outcome_kind=OutcomeKind.BINARY,
)


@pytest.fixture(scope="module")
def mc_consistency(std_oracle):
    """Criterion 3 run: n=20000, 200 oracle-nuisance replications."""
    return run_monte_carlo(STD_SPEC, n=20_000, reps=200, seed=12,
                           psi_patt=std_oracle.psi_patt)


@pytest.fixture(scope="module")
def mc_coverage(std_oracle):
    """Criterion 4 run: n=2000, 2000 oracle-nuisance replications."""
    return run_monte_carlo(STD_SPEC, n=2_000, reps=2_000, seed=11,
                           psi_patt=std_oracle.psi_patt)


@pytest.fixture(scope="module")
def mc_ordering(std_oracle):
    """Criterion 5 run: n=5000, 2000 oracle-nuisance replications."""
    return run_monte_carlo(STD_SPEC, n=5_000, reps=2_000, seed=13,
                           psi_patt=std_oracle.psi_patt)


def test_criterion_01_worked_example_exactness():
    start = time.monotonic()
    dataset, nuis = make_worked_example()
    psi = estimate_psi_hat(_Columns.of(dataset, nuis))
    v_satt = var_satt(_Columns.of(dataset, nuis))
    elapsed = time.monotonic() - start
    ok_psi = abs(psi - float(Fraction(7, 6))) <= 1e-12 * float(Fraction(7, 6))
    ok_satt = abs(v_satt - float(Fraction(4, 9))) <= 1e-12 * float(Fraction(4, 9))
    _criterion(1, "worked example: psi_hat = 7/6 and V_satt = 4/9 to 1e-12 relative",
               ok_psi and ok_satt and elapsed < 1.0,
               f"psi={psi!r}, v_satt={v_satt!r}, {elapsed:.3f}s")


def test_criterion_02_influence_decomposition():
    start = time.monotonic()
    worst = 0.0
    for seed in range(1000):
        ds, nu = random_dataset_with_nuisances(seed, n=50)
        psi = estimate_psi_hat(_Columns.of(ds, nu))
        psi_y, psi_a, psi_x = if_components(_Columns.of(ds, nu, psi))
        a = ds.a.astype(float)
        closed = (a - nu.pi_hat) * (ds.y - nu.mu0_hat) / (a.mean() * (1 - nu.pi_hat)) \
            - a * psi / a.mean()
        scale = max(1.0, float(np.abs(closed).max()))
        worst = max(worst, float(np.abs(psi_y + psi_a + psi_x - closed).max()) / scale)
    elapsed = time.monotonic() - start
    _criterion(2, "psi_y+psi_a+psi_x equals closed-form score to 1e-10 relative "
                  "on 1000 random datasets",
               worst <= 1e-10 and elapsed < 10.0,
               f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_variance_estimator_consistency(mc_consistency, std_oracle):
    truth = std_oracle.by_kind()
    devs = {}
    for kind in KINDS_FIVE:
        mean_vhat = mc_consistency.per_kind[kind].mean_variance_estimate
        devs[kind.value] = mean_vhat / truth[kind].value - 1.0
    ok = all(abs(d) <= 0.05 for d in devs.values())
    _criterion(3, "V_patt/actt/catt/matt/satt (mean of 200 reps, n=20000) match "
                  "the 1e7-draw oracle within 5%",
               ok, ", ".join(f"{k}:{d:+.2%}" for k, d in devs.items()))


def test_criterion_04_coverage(mc_coverage):
    cov = {k.value: mc_coverage.per_kind[k].coverage for k in KINDS_FIVE}
    ok = all(abs(c - 0.95) <= 0.015 for c in cov.values())
    sw = mc_coverage.per_kind[EstimandKind.SWATT].coverage
    ok_sw = sw >= 0.95 - 0.015
    cov["swatt(conservative)"] = sw
    _criterion(4, "95% CIs cover at 95% +/- 1.5pp (swatt conservative: >= 93.5%), "
                  "n=2000, 2000 reps",
               ok and ok_sw, ", ".join(f"{k}:{c:.3f}" for k, c in cov.items()))


def test_criterion_05_partial_ordering(mc_ordering):
    verdicts = mc_ordering.extras["ordering"]
    detail = ", ".join(
        f"{v.kind_small.value}<={v.kind_large.value}:"
        f"{'ok' if v.holds else 'VIOLATED'} (diff {v.scaled_diff:+.3f}, se {v.scaled_se:.3f})"
        for v in verdicts
    )
    _criterion(5, "matt<=catt<=actt<=patt and swatt<=actt within 3 MC SEs "
                  "(n=5000, 2000 reps)",
               all(v.holds for v in verdicts), detail)


def test_criterion_06_homogeneous_effect_satt_exceeds_patt(std_oracle):
    rep = run_monte_carlo(HOMOGENEOUS_UNEQUAL_NOISE, n=5_000, reps=2_000, seed=21)
    v = rep.extras["satt_vs_patt"]
    ok = v.scaled_diff > 3.0 * v.scaled_se
    _criterion(6, "homogeneous effect with var(y1|x) < var(y0|x): "
                  "n*Var(psi-satt) exceeds n*Var(psi-patt) by > 3 SE",
               ok, f"diff {v.scaled_diff:+.3f}, 3se {3 * v.scaled_se:.3f}")


def test_criterion_07_antitone_swatt_below_matt():
    orc = oracle_asymptotic_variances(ANTITONE_EQUAL_SD, draws=10_000_000, seed=5)
    strictly_below = orc.swatt.value + 3 * (orc.swatt.se + orc.matt.se) < orc.matt.value
    rep = run_monte_carlo(ANTITONE_EQUAL_SD, n=20_000, reps=3_000, seed=22,
                          psi_patt=orc.psi_patt)
    emp_sw = rep.per_kind[EstimandKind.SWATT].empirical_var_scaled
    emp_ma = rep.per_kind[EstimandKind.MATT].empirical_var_scaled
    dev_sw = emp_sw / orc.swatt.value - 1.0
    dev_ma = emp_ma / orc.matt.value - 1.0
    ok = strictly_below and abs(dev_sw) <= 0.05 and abs(dev_ma) <= 0.05
    _criterion(7, "antitone equal-sd DGP: oracle swatt variance strictly below matt; "
                  "empirical scaled variances within 5%",
               ok, f"oracle swatt {orc.swatt.value:.4f} < matt {orc.matt.value:.4f}; "
                   f"emp dev swatt {dev_sw:+.2%}, matt {dev_ma:+.2%}")


_CRITERION_08_KINDS = (EstimandKind.SWATT, EstimandKind.CATT, EstimandKind.SATT)


def _deterministic_cate_errors(n, lo, hi):
    """psi_hat less each of the swatt, catt and satt truths, for each replication
    r in [lo, hi), seeded (23, r)."""
    for r in range(lo, hi):
        pd = generate(DETERMINISTIC_CATE, n, seed=_child_seed(23, r))
        truths = true_sample_estimands(pd, psi_patt_true=0.0)
        psi = estimate_psi_hat(_Columns.of(pd.dataset, pd.true_nuisances))
        yield tuple(psi - truths[k] for k in _CRITERION_08_KINDS)


def test_criterion_08_deterministic_cate_swatt_above_literal():
    reps, n = 2_000, 5_000
    # The replications run on the fork pool, read back in index order.
    rows = mathutil._chunked(_deterministic_cate_errors, (n,), reps, pooled=True)
    e = {k: np.asarray(v) for k, v in zip(_CRITERION_08_KINDS, zip(*rows))}
    oks, details = [], []
    for other in (EstimandKind.CATT, EstimandKind.SATT):
        d = (e[EstimandKind.SWATT] - e[EstimandKind.SWATT].mean()) ** 2 \
            - (e[other] - e[other].mean()) ** 2
        margin = 3.0 * d.std(ddof=1) / np.sqrt(reps)
        oks.append(d.mean() > margin)
        details.append(f"swatt-{other.value}: n*diff {n * d.mean():.3f} > 3se {n * margin:.3f}")
    _criterion(8, "deterministic heterogeneous-CATE outcomes: scaled variance of "
                  "psi-swatt strictly above catt and satt (3 SE margin)",
               all(oks), "; ".join(details))


def test_criterion_09_one_step_gap_shrinks_with_n():
    # psi-tilde is defined with true nuisances; the estimator side uses fitted
    # nuisances (with oracle nuisances the two coincide identically and the
    # gap is exactly zero at every n).
    rms = {}
    for n in (500, 2_000, 8_000):
        rep = run_monte_carlo(STD_SPEC, n=n, reps=500, seed=31,
                              nuisance_config=NuisanceConfig(),
                              patt_draws=100_000)
        rms[n] = rep.extras["psi_tilde_rms_scaled_gap"]
    ok = rms[500] > rms[2_000] > rms[8_000]
    _criterion(9, "RMS of sqrt(n)(psi_hat - psi_tilde) over 500 reps decreases "
                  "monotonically across n in {500, 2000, 8000}",
               ok, ", ".join(f"n={k}: {v:.4f}" for k, v in rms.items()))


def _fh_bounds(lo, hi):
    """The FH bound on the true nuisances of each replication r in [lo, hi),
    seeded (41, r), at n = 20,000."""
    for r in range(lo, hi):
        pd = generate(BINARY_COMONOTONE, 20_000, seed=_child_seed(41, r))
        yield var_fh_binary(_Columns.of(pd.dataset, pd.true_nuisances))


def test_criterion_10_fh_sharpness_and_consistency():
    grid = [round(0.1 * k, 10) for k in range(1, 10)]
    grid_exact = all(fh_sharpness_oracle(p, q) == min(p, q) for p in grid for q in grid)
    orc = oracle_asymptotic_variances(BINARY_COMONOTONE, draws=10_000_000, seed=7)
    vals = mathutil._chunked(_fh_bounds, (), 100, pooled=True)
    dev = float(np.mean(vals)) / orc.fh_bound.value - 1.0
    ok = grid_exact and abs(dev) <= 0.05
    _criterion(10, "FH sharpness oracle equals min(p,q) exactly on the 81-point "
                   "grid; mean V_FH at n=20000 within 5% of brute force",
               ok, f"grid exact: {grid_exact}, V_FH dev {dev:+.2%}")


def _misspecified_estimates(pairs, lo, hi):
    """For each replication r in [lo, hi), one sample seeded (51, r) at
    n = 20,000, and its estimate under each (propensity spec, mean spec) pair."""
    for r in range(lo, hi):
        pd = generate(STD_SPEC, 20_000, seed=_child_seed(51, r))
        x = pd.dataset.x
        yield tuple(estimate_psi_hat(_Columns.of(pd.dataset, NuisanceValues(
            pi_hat=pi_spec.propensity(x), mu0_hat=mu_spec.mu(0, x), clip_eps=0.01)))
            for pi_spec, mu_spec in pairs)


def test_criterion_11_double_robustness(std_oracle):
    wrong_pi = dataclasses.replace(STD_SPEC, propensity_coeffs=[0.2, 0.0, 0.0])
    wrong_mu = dataclasses.replace(STD_SPEC, mu0_coeffs=[0.0, 0.0, 0.0])
    psi_true = std_oracle.psi_patt.value
    pairs = {"wrong mu0": (STD_SPEC, wrong_mu), "wrong pi": (wrong_pi, STD_SPEC),
             "both wrong": (wrong_pi, wrong_mu)}
    rows = mathutil._chunked(_misspecified_estimates, (tuple(pairs.values()),), 200,
                             pooled=True)
    results = []
    for tag, est in zip(pairs, zip(*rows)):
        est = np.asarray(est)
        bias = est.mean() - psi_true
        se = est.std(ddof=1) / np.sqrt(est.size)
        results.append((bias, se, f"{tag}: bias {bias:+.5f} vs 3se {3 * se:.5f}"))
    (b1, s1, d1), (b2, s2, d2), (b3, s3, d3) = results
    ok = abs(b1) < 3 * s1 and abs(b2) < 3 * s2 and abs(b3) > 3 * s3
    _criterion(11, "one misspecified nuisance leaves psi_hat unbiased (3 SE); "
                   "both misspecified produce detectable bias",
               ok, "; ".join((d1, d2, d3)))


def test_criterion_12_simulate_determinism(tmp_path):
    import json

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(STD_SPEC.to_dict()), encoding="utf-8")
    outputs = []
    for name in ("run1.json", "run2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "treated", "simulate",
             "--spec", str(spec_path), "--n", "300", "--reps", "10",
             "--seed", "5", "--oracle-nuisances", "--patt-draws", "50000",
             "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _criterion(12, "cmd_simulate twice with identical flags produces "
                   "byte-identical JSON",
               ok, f"{len(outputs[0])} bytes")
