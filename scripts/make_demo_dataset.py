#!/usr/bin/env python3
"""Write a generated high-concurrence dataset as a MULAN ARFF/XML pair.

Handy for exercising the command-line tool without downloading benchmarks:

    python scripts/make_demo_dataset.py --seed 0 --out demo
    mlresample info demo.arff demo.xml
"""

import argparse
import sys
from pathlib import Path

from mlresample import write_mulan
from mlresample.synthetic import imbalanced_dataset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--labels", type=int, default=8)
    parser.add_argument("--out", default="demo", help="output path stem")
    args = parser.parse_args(argv)

    d = imbalanced_dataset(args.seed, n=args.n, k=args.labels)
    arff_text, xml_text = write_mulan(d)
    arff_path = Path(f"{args.out}.arff")
    xml_path = Path(f"{args.out}.xml")
    arff_path.write_text(arff_text, encoding="utf-8")
    xml_path.write_text(xml_text, encoding="utf-8")
    print(f"wrote {arff_path} and {xml_path} ({d.n} instances, {d.k} labels)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
