"""Correctness checks on one CLI report against references the package does
not compute. Each check returns a list of failure messages (empty = pass)."""

from __future__ import annotations

import math

# Bands are this many standard errors wide: loose enough that a correct
# program fails with negligible probability on any seed.
Z = 5.0
POINT_IDENTIFIED = ("patt", "actt", "catt", "satt", "matt")
ORDERING_PAIRS = ("matt<=catt", "catt<=actt", "actt<=patt", "swatt<=actt")


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_estimate(report: dict, consts: dict, n: int) -> list:
    failures = []
    if report.get("n") != n:
        failures.append(f"n is {report.get('n')}, expected {n}")
    for kind, entry in report.get("per_kind", {}).items():
        for key, value in entry.items():
            # The Frechet-Hoeffding variant applies to binary outcomes only.
            if key == "conservative_fh" and value is None:
                continue
            if not _finite(value):
                failures.append(f"per_kind.{kind}.{key} is {value!r}")
    if sorted(report.get("per_kind", {})) != sorted(POINT_IDENTIFIED + ("swatt",)):
        failures.append(f"per_kind has {sorted(report.get('per_kind', {}))}")
    psi = report.get("psi_hat")
    v_patt = report.get("per_kind", {}).get("patt", {}).get("variance")
    if not (_finite(psi) and _finite(v_patt)):
        failures.append("psi_hat or patt variance missing")
    elif abs(psi - consts["att"]) > Z * math.sqrt(v_patt / n):
        failures.append(f"psi_hat {psi} is more than {Z} sd from the ATT {consts['att']}")
    return failures


def check_simulate(report: dict, consts: dict, reps: int) -> list:
    failures = []
    if report.get("reps") != reps:
        failures.append(f"reps is {report.get('reps')}, expected {reps}")
    ok = reps - int(report.get("failed_reps", reps))
    per_kind = report.get("per_kind", {})
    for kind in POINT_IDENTIFIED:
        entry = per_kind.get(kind, {})
        cov, level = entry.get("coverage"), entry.get("ci_level")
        if not (_finite(cov) and _finite(level)) or ok < 1:
            failures.append(f"{kind} coverage missing")
            continue
        band = Z * math.sqrt(level * (1.0 - level) / ok)
        if abs(cov - level) > band:
            failures.append(f"{kind} coverage {cov} outside {level} +/- {band:.4f}")
    extras = report.get("extras", {})
    verdicts = {v.get("pair"): v.get("holds") for v in extras.get("ordering", [])}
    for pair in ORDERING_PAIRS:
        if verdicts.get(pair) is not True:
            failures.append(f"ordering verdict {pair} is {verdicts.get(pair)!r}")
    value, se = extras.get("psi_patt_value"), extras.get("psi_patt_se")
    if not (_finite(value) and _finite(se)) or abs(value - consts["att"]) > Z * se + 1e-12:
        failures.append(f"psi_patt_value {value} (se {se}) is off the ATT {consts['att']}")
    return failures


def check_oracle(report: dict, consts: dict, draws: int) -> list:
    failures = []
    if report.get("draws") != draws:
        failures.append(f"draws is {report.get('draws')}, expected {draws}")
    p_a = report.get("p_a")
    # The report carries no error for p_a; use the Monte Carlo error of a
    # mean of draws i.i.d. propensities.
    p_a_se = math.sqrt(consts["var_pi"] / draws)
    if not _finite(p_a) or abs(p_a - consts["p_a"]) > Z * p_a_se:
        failures.append(f"p_a {p_a} is off E[pi] {consts['p_a']}")
    psi = report.get("psi_patt") or {}
    value, se = psi.get("value"), psi.get("se")
    if not (_finite(value) and _finite(se)) or abs(value - consts["att"]) > Z * se + 1e-12:
        failures.append(f"psi_patt {value} (se {se}) is off the ATT {consts['att']}")
    av = report.get("asymptotic_variances", {})
    chain = [(av.get(k) or {}).get("value") for k in ("matt", "catt", "actt", "patt")]
    if not all(_finite(v) for v in chain):
        failures.append(f"asymptotic variances missing: {chain}")
    elif not chain[0] <= chain[1] <= chain[2] <= chain[3]:
        failures.append(f"matt <= catt <= actt <= patt fails: {chain}")
    return failures
