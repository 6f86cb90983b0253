"""Regenerate the paper's Table I and Fig. 3 from the command line.

By default runs a reduced configuration (2-12 qubits) that completes in a
few minutes; pass ``--full`` for the paper-scale 2-20 qubit study (about
15 minutes).  With ``--cache-dir`` the run is resumable: per-device
datasets and trained estimators are checkpointed there, and a rerun with
unchanged settings skips the completed compile/execute/train stages.

Run:  python examples/reproduce_table1.py [--full] [--max-qubits N]
           [--shots N] [--seed N] [--cache-dir DIR] [--max-workers N]
"""

import argparse
import time

from repro.evaluation import (
    StudyConfig,
    format_fig3,
    format_table_i,
    run_study,
)

REDUCED_GRID = {
    "n_estimators": [50],
    "max_depth": [None, 10],
    "min_samples_leaf": [1, 2],
    "min_samples_split": [2],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale study: 2-20 qubits, 2000 shots, full grid search",
    )
    parser.add_argument("--max-qubits", type=int, default=12)
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per compiled/executed circuit",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="checkpoint datasets/estimators here; reruns with unchanged "
             "settings resume instead of recomputing",
    )
    parser.add_argument(
        "--max-workers", type=int, default=None,
        help="workers for batched stages (default: one per CPU)",
    )
    args = parser.parse_args()

    if args.full:
        config = StudyConfig(shots=2000, seed=args.seed, progress=args.progress)
    else:
        config = StudyConfig(
            max_qubits=args.max_qubits,
            shots=args.shots,
            seed=args.seed,
            param_grid=REDUCED_GRID,
            progress=args.progress,
        )
    config.cache_dir = args.cache_dir
    config.max_workers = args.max_workers

    start = time.time()
    result = run_study(config=config)
    print()
    print(format_table_i(result))
    print()
    importances = {
        name: report.feature_importances
        for name, report in result.reports.items()
    }
    print(format_fig3(importances))
    print(f"\ntotal runtime: {time.time() - start:.0f}s")
    print(
        "\nPaper reference (Table I): gates 0.46/0.61/0.53, "
        "depth 0.46/0.62/0.54,\n  fidelity 0.66/0.80/0.73, "
        "ESP 0.59/0.70/0.64, proposed 0.88/0.94/0.91 (+49% avg)."
    )


if __name__ == "__main__":
    main()
