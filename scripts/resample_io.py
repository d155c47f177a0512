#!/usr/bin/env python3
"""Time the ARFF read, a p25 ML-ROS hybrid and the ARFF write of seeded dense data.

The data is ``imbalanced_dataset`` with 60 numeric features and 40 labels,
the large-profile benchmark's shape (mediamill has 43,907 rows), its values
rounded to six decimals as in the MULAN files: ``repr`` writes such a value
back unchanged, so the reader finds every input line in the writer's form
and the writer copies the line of every row the hybrid takes from the
input.  One line per row count gives the seconds taken by ``read_mulan``,
by ``hybrid_resample`` (REMEDIAL at p25, then ML-ROS at 25%) and by
``write_mulan`` with the report's sources, each the best of ``--repeat``,
and a SHA-256 of the written ARFF and XML bytes, so that two commits can be
compared for speed and for identical output:

    PYTHONPATH=src python scripts/resample_io.py --rows 4000 16000 43907
"""

import argparse
import hashlib
import sys
import time

from mlresample import DecoupleConfig, MLROSConfig, MultiLabelDataset
from mlresample import hybrid_resample, write_mulan
from mlresample.arff import read_mulan
from mlresample.synthetic import imbalanced_dataset

NUMERIC = 60
LABELS = 40


def input_files(rows: int) -> tuple[str, str]:
    """The seeded data set of ``rows`` rows, values rounded to six decimals, as an ARFF/XML pair."""
    d = imbalanced_dataset(0, n=rows, k=LABELS, n_numeric=NUMERIC)
    d = MultiLabelDataset(d.attributes, d.labels, d.numeric.round(6), d.nominal, d.y, d.name)
    return write_mulan(d)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[4000, 16000, 43907])
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per row count")
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.rows) < LABELS:
        parser.error(f"need --repeat >= 1 and every --rows >= {LABELS}")

    decouple, method = DecoupleConfig.from_spec("p25"), MLROSConfig(p=25)
    for n in args.rows:
        arff_text, xml_text = input_files(n)
        best = {"read": float("inf"), "resample": float("inf"), "write": float("inf")}
        for _ in range(args.repeat):
            # a formatter keeps what it spelled, so each run reads the input again
            start = time.perf_counter()
            d, rows = read_mulan(arff_text, xml_text)
            read = time.perf_counter()
            out, report = hybrid_resample(d, decouple, method, seed=0)
            resampled = time.perf_counter()
            written = write_mulan(out, rows, report.sources())
            end = time.perf_counter()
            for key, seconds in zip(best, (read - start, resampled - read, end - resampled)):
                best[key] = min(best[key], seconds)
        digest = hashlib.sha256("".join(written).encode("utf-8")).hexdigest()
        times = " ".join(f"{key}_s={seconds:.4f}" for key, seconds in best.items())
        print(f"rows={n} out_rows={out.n} {times} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
