#!/usr/bin/env python3
"""Time an all-nominal neighbour self-query on seeded random binary data.

The data imitates a bag-of-words set (medical, enron, corel16k): 500 binary
columns, each set with a density drawn from 2-8%.  Every row asks for its
k nearest other rows (``exclude`` = its own index), as MLeNN and ML-kNN do.
One line per row count gives the seconds taken by ``prepare_reference`` plus
``neighbors`` (best of ``--repeat``) and a SHA-256 of the neighbour lists, so
that two commits can be compared for speed and for identical answers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/nominal_neighbors.py --rows 3000 6000
"""

import argparse
import hashlib
import sys
import time

import numpy as np

from mlresample.distance import neighbors, prepare_reference


COLUMNS = 500
K = 10


def binary_codes(rows: int) -> np.ndarray:
    """``rows`` x ``COLUMNS`` nominal codes in {0, 1}, each column set with a density in [0.02, 0.08]."""
    rng = np.random.default_rng(0)
    density = rng.uniform(0.02, 0.08, COLUMNS)
    return (rng.random((rows, COLUMNS)) < density).astype(np.int64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[3000, 6000])
    parser.add_argument("--repeat", type=int, default=1, help="timed runs per row count")
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.rows) <= K:
        parser.error(f"need --repeat >= 1 and every --rows above {K}")

    for n in args.rows:
        encoded = np.zeros((n, 0)), binary_codes(n)
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            got = neighbors(encoded, prepare_reference(encoded), K, exclude=np.arange(n))
            best = min(best, time.perf_counter() - start)
        digest = hashlib.sha256(got.astype("<i8").tobytes()).hexdigest()
        print(f"rows={n} columns={COLUMNS} k={K} seconds={best:.3f} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
