"""Cross-device generalization: train on one QPU, score transfer on the zoo.

The paper's case study trains and evaluates the Hellinger estimator on the
same device.  This example asks the question the two-QPU setup cannot:
does a model trained on one topology keep ranking circuits correctly on
hardware it never saw?  It trains on a grid device (the paper's setting)
and evaluates transfer on a ring, a heavy-hex lattice, and a seeded random
bounded-degree device from the zoo — three genuinely different coupling
structures.

One estimator is fitted on the train device's 80/20 training split; the
in-domain column and every transfer column score that same model on the
held-out programs only, so the gaps isolate the hardware change.  With
``--cache-dir`` the run is resumable: per-device labelled datasets, the
in-domain report, and the train-split estimator are checkpointed and
reused whenever their input fingerprints are unchanged.

Run:  python examples/cross_device_study.py [--quick] [--max-qubits N]
          [--shots N] [--seed N] [--tier TIER] [--cache-dir DIR]
          [--max-workers N]
"""

import argparse
import time

from repro.evaluation import (
    StudyConfig,
    format_transfer_table,
    run_cross_device_study,
)
from repro.hardware import make_zoo_device

REDUCED_GRID = {
    "n_estimators": [50],
    "max_depth": [None, 10],
    "min_samples_leaf": [1, 2],
    "min_samples_split": [2],
}

QUICK_GRID = {
    "n_estimators": [30],
    "max_depth": [None, 8],
    "min_samples_leaf": [1],
    "min_samples_split": [2],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest meaningful run: 2-6 qubit suite, 400 shots, tiny grid",
    )
    parser.add_argument("--max-qubits", type=int, default=10)
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tier", default="typical", choices=["clean", "typical", "noisy"],
        help="noise tier shared by every zoo device (default: typical)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per compiled/executed circuit",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="checkpoint datasets/estimator here; unchanged reruns resume",
    )
    parser.add_argument(
        "--max-workers", type=int, default=None,
        help="workers for batched stages (default: one per CPU)",
    )
    args = parser.parse_args()

    if args.quick:
        config = StudyConfig(
            max_qubits=min(args.max_qubits, 6), shots=400, seed=args.seed,
            param_grid=QUICK_GRID, progress=args.progress,
        )
    else:
        config = StudyConfig(
            max_qubits=args.max_qubits, shots=args.shots, seed=args.seed,
            param_grid=REDUCED_GRID, progress=args.progress,
        )
    config.cache_dir = args.cache_dir
    config.max_workers = args.max_workers

    # Train where the paper trains (a square grid), transfer to three
    # structurally different topologies at the same noise tier.
    train_device = make_zoo_device("grid", 12, tier=args.tier, seed=args.seed)
    eval_devices = [
        make_zoo_device("ring", 12, tier=args.tier, seed=args.seed),
        make_zoo_device("heavy_hex", 16, tier=args.tier, seed=args.seed),
        make_zoo_device("random", 12, tier=args.tier, seed=args.seed),
    ]

    start = time.time()
    result = run_cross_device_study(
        train_device, eval_devices, config=config
    )
    print()
    print(format_transfer_table(result))
    print(f"\ntotal runtime: {time.time() - start:.0f}s")
    print(
        "\nReading the table: each starred column scores the grid-trained\n"
        "estimator on a device it never saw, using only programs held out\n"
        "of training (so the gap isolates the hardware change).  A small\n"
        "transfer gap means the learned circuit features generalize across\n"
        "topologies; the established FoMs provide per-device baselines."
    )


if __name__ == "__main__":
    main()
