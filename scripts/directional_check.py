#!/usr/bin/env python3
"""Compare base resampling against its decoupling hybrids on generated data.

For each seed a high-concurrence, high-imbalance dataset is generated, then
rebalanced with the chosen method alone and with every requested decoupling
threshold in front of it.  The script reports the post-resampling MeanIR per
configuration and a stratified-fold classifier comparison in a Base/H_q
column layout.

Example:
    python scripts/directional_check.py --method mlsmote --seeds 5 --folds 5
"""

import argparse
import sys

import numpy as np

from mlresample import (
    DecoupleConfig,
    MLENNConfig,
    MLROSConfig,
    MLSMOTEConfig,
    evaluate,
    hybrid_resample,
    mlknn_predict,
    mlknn_train,
    profile,
    resample,
    stratified_kfold,
)
from mlresample.cli import _method_config
from mlresample.partitioning import fold_datasets
from mlresample.synthetic import imbalanced_dataset


def fold_f_measure(d, assignment, preprocess, folds: int, k_nn: int) -> float:
    values = []
    for f in range(folds):
        train, test = fold_datasets(d, assignment, f)
        model = mlknn_train(preprocess(train), k_nn=min(k_nn, train.n - 1))
        report = evaluate(test.y, mlknn_predict(model, test))
        values.append(report.f_measure)
    return float(np.mean(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--method", choices=("mlros", "mlenn", "mlsmote"), default="mlsmote")
    parser.add_argument("--p", type=float, default=MLROSConfig.p)
    parser.add_argument("--ht", type=float, default=MLENNConfig.ht)
    parser.add_argument("--nn", type=int, default=MLENNConfig.nn)
    parser.add_argument("--k", type=int, default=MLSMOTEConfig.k_neighbors)
    parser.add_argument("--seeds", type=int, default=10, help="number of generated datasets")
    parser.add_argument("--n", type=int, default=500, help="instances per generated dataset")
    parser.add_argument("--labels", type=int, default=8)
    parser.add_argument(
        "--thresholds", nargs="+", default=["p25", "p37", "p50", "p62", "p75"]
    )
    parser.add_argument("--folds", type=int, default=0, help="0 skips the classifier pass")
    parser.add_argument("--k-nn", type=int, default=10)
    args = parser.parse_args(argv)

    configs = ["Base"] + [f"H_{t[1:] if t.startswith('p') else t}" for t in args.thresholds]
    # the parser shares the CLI's attribute names: method, p, ht, nn and k
    method = _method_config(args)

    print(f"post-resampling MeanIR, method={args.method}")
    print(f"{'seed':<6}{'SCUMBLE':>9}{'MeanIR':>9}" + "".join(f"{c:>10}" for c in configs))
    wins = [0] * len(args.thresholds)
    for seed in range(args.seeds):
        d = imbalanced_dataset(seed, n=args.n, k=args.labels)
        prof = profile(d)
        row = [f"{seed:<6}", f"{prof.scumble:>9.3f}", f"{prof.mean_ir:>9.2f}"]
        base_out, _ = resample(d, method, seed)
        base_after = profile(base_out).mean_ir if base_out.n else float("nan")
        row.append(f"{base_after:>10.3f}")
        for t_idx, threshold in enumerate(args.thresholds):
            out, _ = hybrid_resample(d, DecoupleConfig.from_spec(threshold), method, seed)
            after = profile(out).mean_ir if out.n else float("nan")
            wins[t_idx] += after < base_after
            row.append(f"{after:>10.3f}")
        print("".join(row))
    print(
        "hybrid beat base on "
        + ", ".join(f"{c}: {w}/{args.seeds}" for c, w in zip(configs[1:], wins))
    )

    if args.folds:
        d = imbalanced_dataset(0, n=args.n, k=args.labels)
        assignment = stratified_kfold(d, folds=args.folds, seed=0)
        print(f"\n{args.folds}-fold F-measure (higher is better)")
        print(f"{'metric':<12}" + "".join(f"{c:>10}" for c in configs))
        scores = [
            fold_f_measure(
                d, assignment, lambda t: resample(t, method, 1)[0],
                args.folds, args.k_nn,
            )
        ]
        for threshold in args.thresholds:
            decouple = DecoupleConfig.from_spec(threshold)
            scores.append(
                fold_f_measure(
                    d, assignment, lambda t: hybrid_resample(t, decouple, method, 1)[0],
                    args.folds, args.k_nn,
                )
            )
        print(f"{'F-measure':<12}" + "".join(f"{s:>10.4f}" for s in scores))
        deltas = [s - scores[0] for s in scores[1:]]
        print(f"{'delta':<12}{'':>10}" + "".join(f"{v:>+10.4f}" for v in deltas))
    return 0


if __name__ == "__main__":
    sys.exit(main())
