#!/usr/bin/env python3
"""Severity-vs-detection trend experiment on synthetic road scenes.

For each corruption kind, generates a matched scene population, fits a
GMM on clean training scenes (toy encoder embeddings), runs the
built-in severity presets (fog: 3 levels; noise: 50 sigmas; white box:
20 area fractions), and prints per-severity detection metrics plus the
severity-vs-metric correlations.

    python scripts/run_corruption_trends.py --n-train 300 --n-test 200
"""

import argparse
import time

from cornercase.bench import run_corruption_sweep
from cornercase.corruptions import SWEEP_PRESETS, severity_sweep
from cornercase.density import fit_gmm
from cornercase.embeddings import EmbeddingSet, toy_encode
from cornercase.synthetic import family_for_kind, scene_set

# the paper preset of each corruption kind
PRESETS = {kind: name for name, (kind, _) in SWEEP_PRESETS.items()}


def run_kind(kind: str, n_train: int, n_test: int, seed: int, verbose_rows: bool):
    family = family_for_kind(kind)
    train_scenes = scene_set(family, n_train, seed=seed)
    test_scenes = scene_set(family, n_test, seed=seed + 10_000)
    train = EmbeddingSet(
        [f"t{i}" for i in range(n_train)], [toy_encode(img, 4) for img in train_scenes]
    )
    model = fit_gmm(train, components=4, seed=seed)
    clean = [(f"s{i}", img) for i, img in enumerate(test_scenes)]
    sweep = severity_sweep(kind, PRESETS[kind], base_seed=seed)

    start = time.time()
    rows, correlations = run_corruption_sweep(clean, sweep, model)
    elapsed = time.time() - start

    print(f"\n== {kind} ({len(sweep.severities)} severities, {elapsed:.1f}s) ==")
    shown = rows if verbose_rows else [rows[0], rows[len(rows) // 2], rows[-1]]
    print(f"{'severity':>10} {'fpr@95':>8} {'auroc':>8} {'aupr_in':>8} {'aupr_out':>9}")
    for severity, rep in shown:
        print(
            f"{severity:>10.6g} {rep.fpr_at_95:>8.2f} {rep.auroc:>8.2f} "
            f"{rep.aupr_in:>8.2f} {rep.aupr_out:>9.2f}"
        )
    for metric, corr in correlations:
        print(
            f"  {corr.kind}({metric}): {100.0 * corr.coefficient:+7.2f}  "
            f"p={corr.p_value:.3g}  n={corr.n}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-train", type=int, default=300)
    parser.add_argument("--n-test", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kinds",
        default="fog,gaussian_noise,white_box",
        help="comma-separated subset of corruption kinds",
    )
    parser.add_argument("--all-rows", action="store_true", help="print every severity row")
    args = parser.parse_args()
    for kind in args.kinds.split(","):
        run_kind(kind.strip(), args.n_train, args.n_test, args.seed, args.all_rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
