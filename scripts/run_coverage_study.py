"""Coverage study: how often each estimand's interval captures its target.

Sample and mixed estimands are covered against their per-replication realized
values; the population effect against its fixed Monte Carlo truth.

Example:
    python scripts/run_coverage_study.py --spec scripts/specs/continuous_d2.json \
        --n 2000 --reps 2000 --fitted
"""

import argparse
import json

from treated import psi_patt_true, run_monte_carlo
from treated.data_model import KIND_ORDER
from treated.nuisance import NuisanceConfig
from treated.simulation import DgpSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--n", type=int, default=2_000)
    parser.add_argument("--reps", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--ci-level", type=float, default=0.95)
    parser.add_argument("--folds", type=int, default=1,
                        help="cross-fitting folds, with --fitted")
    parser.add_argument("--fitted", action="store_true",
                        help="fit nuisances instead of using oracle values")
    args = parser.parse_args()

    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = DgpSpec.from_dict(json.load(fh))

    patt = psi_patt_true(spec, draws=5_000_000, seed=args.seed)
    report = run_monte_carlo(
        spec, n=args.n, reps=args.reps, seed=args.seed,
        nuisance_config=NuisanceConfig(folds=args.folds, seed=args.seed) if args.fitted else None,
        ci_level=args.ci_level, psi_patt=patt,
    )
    print(f"n={args.n} reps={args.reps} nominal={args.ci_level:.3f} "
          f"failed={report.failed_reps}")
    for kind in KIND_ORDER:
        st = report.per_kind[kind]
        note = " (conservative)" if kind.value == "swatt" else ""
        print(f"  {kind.value:>5}: coverage {st.coverage:.3f}{note}")


if __name__ == "__main__":
    main()
