"""Compare empirical scaled variances of the six estimands against their
brute-force asymptotic limits and print the ordering verdicts.

Example:
    python scripts/run_ordering_study.py --spec scripts/specs/continuous_d2.json \
        --n 5000 --reps 2000 --seed 13
"""

import argparse
import json

from treated import oracle_asymptotic_variances, run_monte_carlo
from treated.data_model import KIND_ORDER
from treated.nuisance import NuisanceConfig
from treated.simulation import DgpSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--n", type=int, default=5_000)
    parser.add_argument("--reps", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--oracle-draws", type=int, default=2_000_000)
    parser.add_argument("--fitted", action="store_true",
                        help="fit nuisances instead of using oracle values")
    args = parser.parse_args()

    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = DgpSpec.from_dict(json.load(fh))

    oracle = oracle_asymptotic_variances(spec, draws=args.oracle_draws, seed=args.seed)
    report = run_monte_carlo(spec, n=args.n, reps=args.reps, seed=args.seed,
                             nuisance_config=NuisanceConfig() if args.fitted else None,
                             psi_patt=oracle.psi_patt)

    print(f"n={args.n} reps={args.reps} failed={report.failed_reps} "
          f"psi_patt={oracle.psi_patt.value:.5f}")
    print(f"{'estimand':>8} {'n*Var(emp)':>12} {'oracle':>10} {'mean Vhat':>10} {'coverage':>9}")
    truth = oracle.by_kind()
    for kind in KIND_ORDER:
        st = report.per_kind[kind]
        print(f"{kind.value:>8} {st.empirical_var_scaled:12.4f} "
              f"{truth[kind].value:10.4f} {st.mean_variance_estimate:10.4f} "
              f"{st.coverage:9.3f}")
    print("ordering verdicts (within 3 paired MC SEs):")
    for v in report.extras["ordering"]:
        print(f"  {v.kind_small.value} <= {v.kind_large.value}: "
              f"{'holds' if v.holds else 'VIOLATED'} "
              f"(scaled diff {v.scaled_diff:+.4f}, se {v.scaled_se:.4f})")


if __name__ == "__main__":
    main()
