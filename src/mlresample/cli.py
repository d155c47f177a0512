"""Command-line front end for reproducible dataset characterization runs.

Commands: ``info`` (metric table and profile JSON), ``resample`` (base or
decoupling-hybrid resampling, writing the transformed dataset plus report),
``partition`` (stratified fold pairs), ``evaluate`` (train/predict/score
with the built-in classifier), ``concurrence`` (co-occurrence CSV) and
``rerun`` (re-execute a recorded manifest).

Every command writing files also writes a manifest.  It records the tool
and its version, the command, the argument vector, the seed (``null`` for
commands that draw no random numbers) and the input and output paths.  The
argument vector is the run's only record: every default is a constant, so
``rerun`` replays it and reproduces the outputs byte for byte.  Files are
read and written as UTF-8, whatever the locale.  Human-readable tables go to
standard output, JSON and CSV reports to files.  Exit codes: 0 success, 2
unreadable or malformed input, 3 bad parameters, 4 internal invariant
violation or allocation failure.  Every check of a parameter that needs no
data runs before any input is read.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import __version__
from .arff import MulanFormatError, RowFormatter, parse_mulan, read_mulan, write_mulan
from .dataset import MultiLabelDataset
from .decoupling import DecoupleConfig, hybrid_resample
from .evaluation import evaluate
from .jsontext import dumps_indented
from .metrics import ImbalanceProfile, _check_tops, concurrence_csv, concurrence_export, profile
from .mlknn import _check_mlknn, mlknn_predict, mlknn_train
from .partitioning import _check_folds, fold_datasets, stratified_kfold
from .resampling import MLENNConfig, MLROSConfig, MLSMOTEConfig, ResampleMethod, _check_seed, resample


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)  # bad parameters: exit code 3


def _read_text(path: str) -> str:
    try:
        # utf-8-sig also drops a leading byte-order mark, which some editors write
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MulanFormatError(f"cannot decode {path}: {exc}") from None


def _read_dataset(arff_path: str, xml_path: str) -> MultiLabelDataset:
    return parse_mulan(_read_text(arff_path), _read_text(xml_path))


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 in slices of 2**20 characters, never encoding it whole."""
    with path.open("w", encoding="utf-8") as file:
        for at in range(0, len(text), 2**20):
            file.write(text[at : at + 2**20])


def _write_dataset(
    d: MultiLabelDataset, arff_path: Path, xml_path: Path, rows: RowFormatter, sources: Sequence[int]
) -> None:
    arff_text, xml_text = write_mulan(d, rows, sources)
    _write_text(arff_path, arff_text)
    _write_text(xml_path, xml_text)


def _write_manifest(
    path: Path, argv: list[str], seed: int | None, inputs: dict, outputs: dict
) -> None:
    manifest = {
        "tool": "mlresample",
        "version": __version__,
        "command": argv[0],
        "argv": argv,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
    }
    _write_text(path, dumps_indented(manifest) + "\n")


def _write_report(
    out: Path, text: str, argv: list[str], seed: int | None, inputs: dict, key: str
) -> None:
    """Write ``text`` to ``out``, and ``<out>.manifest.json`` naming it under ``key``."""
    _write_text(out, text)
    _write_manifest(out.with_name(out.name + ".manifest.json"), argv, seed, inputs, {key: str(out)})


def _warn_undefined(prof: ImbalanceProfile, d: MultiLabelDataset) -> None:
    undefined = prof.undefined_labels
    if undefined:
        names = ", ".join(d.labels[i] for i in undefined)
        print(
            f"warning: labels with no occurrences excluded from MeanIR: {names}",
            file=sys.stderr,
        )


def _info_table(d: MultiLabelDataset, prof: ImbalanceProfile) -> str:
    header = ("Dataset", "Inst.", "Attr.", "Labels", "LSet", "Card", "Dens", "MeanIR", "SCUMBLE", "TCS")
    row = (
        d.name,
        str(d.n),
        str(len(d.attributes)),
        str(d.k),
        str(prof.distinct_labelsets),
        f"{prof.card:.4f}",
        f"{prof.dens:.4f}",
        f"{prof.mean_ir:.4f}",
        f"{prof.scumble:.4f}",
        f"{prof.tcs:.3f}",
    )
    widths = [max(len(h), len(v)) for h, v in zip(header, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return fmt.format(*header).rstrip() + "\n" + fmt.format(*row).rstrip()


def cmd_info(args, argv: list[str]) -> int:
    d = _read_dataset(args.arff, args.xml)
    prof = profile(d)
    _warn_undefined(prof, d)
    print(_info_table(d, prof))
    if args.out:
        inputs = {"arff": args.arff, "xml": args.xml}
        text = dumps_indented(prof.to_dict()) + "\n"
        _write_report(Path(args.out), text, argv, None, inputs, "profile")
    return 0


def _method_config(args) -> ResampleMethod:
    if args.method == "mlros":
        return MLROSConfig(p=args.p)
    if args.method == "mlenn":
        return MLENNConfig(ht=args.ht, nn=args.nn)
    return MLSMOTEConfig(k_neighbors=args.k)


def cmd_resample(args, argv: list[str]) -> int:
    if args.drop_empty and not args.remedial:
        raise ValueError("--drop-empty needs --remedial")
    # every parameter is checked before the input is read; checks against the data come later
    method = _method_config(args)
    _check_seed(args.seed)
    decouple = None
    if args.remedial:
        decouple = DecoupleConfig.from_spec(args.remedial, drop_empty=args.drop_empty)
    # rows holds the input's data lines, for the rows the output takes from it
    d, rows = read_mulan(_read_text(args.arff), _read_text(args.xml))
    if decouple is None:
        out, report = resample(d, method, args.seed)
        suffix = args.method
    else:
        out, report = hybrid_resample(d, decouple, method, args.seed)
        suffix = f"{decouple.spec_string()}-{args.method}"
    out = MultiLabelDataset(
        out.attributes, out.labels, out.numeric, out.nominal, out.y, f"{d.name}-{suffix}"
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arff_path = out_dir / "resampled.arff"
    xml_path = out_dir / "resampled.xml"
    _write_dataset(out, arff_path, xml_path, rows, report.sources())
    name = d.name
    # the input's lines and both datasets' arrays go before the report is made
    del rows, d, out
    _write_text(out_dir / "report.json", dumps_indented(report.to_dict()) + "\n")
    _write_manifest(
        out_dir / "manifest.json",
        argv,
        args.seed,
        {"arff": args.arff, "xml": args.xml},
        {
            "arff": str(arff_path),
            "xml": str(xml_path),
            "report": str(out_dir / "report.json"),
        },
    )
    print(
        f"{name}: {report.instances_before} -> {report.instances_after} instances "
        f"(+{len(report.added)} -{len(report.removed)}, {len(report.decoupled)} decoupled)"
    )
    return 0


def cmd_partition(args, argv: list[str]) -> int:
    _check_seed(args.seed)
    _check_folds(args.folds)
    # every fold file reuses the input's data lines
    d, rows = read_mulan(_read_text(args.arff), _read_text(args.xml))
    fold_of = stratified_kfold(d, args.folds, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for f in range(args.folds):
        in_test = fold_of == f
        sources = np.flatnonzero(~in_test), np.flatnonzero(in_test)
        for part, ds, picked in zip(("train", "test"), fold_datasets(d, fold_of, f), sources):
            arff_path = out_dir / f"fold{f}-{part}.arff"
            _write_dataset(ds, arff_path, out_dir / f"fold{f}-{part}.xml", rows, picked)
            outputs[f"fold{f}-{part}"] = str(arff_path)
    csv_path = out_dir / "folds.csv"
    lines = map("{},{}\n".format, range(d.n), fold_of.tolist())
    _write_text(csv_path, "instance_index,fold\n" + "".join(lines))
    outputs["assignment"] = str(csv_path)
    _write_manifest(
        out_dir / "manifest.json", argv, args.seed, {"arff": args.arff, "xml": args.xml}, outputs
    )
    sizes = np.bincount(fold_of, minlength=args.folds).tolist()
    print(f"{d.name}: {args.folds} folds, test sizes {sizes}")
    return 0


def cmd_evaluate(args, argv: list[str]) -> int:
    _check_seed(args.seed)
    _check_mlknn(args.k, args.smoothing)
    train_xml = args.train_xml or str(Path(args.train_arff).with_suffix(".xml"))
    test_xml = args.test_xml or str(Path(args.test_arff).with_suffix(".xml"))
    train = _read_dataset(args.train_arff, train_xml)
    test = _read_dataset(args.test_arff, test_xml)
    model = mlknn_train(train, k_nn=args.k, smoothing=args.smoothing)
    predictions = mlknn_predict(model, test)
    report = evaluate(test.y, predictions)
    for key, value in report.to_dict().items():
        print(f"{key}: {value}")
    if args.out:
        inputs = {
            "train_arff": args.train_arff,
            "train_xml": train_xml,
            "test_arff": args.test_arff,
            "test_xml": test_xml,
        }
        text = dumps_indented(report.to_dict()) + "\n"
        _write_report(Path(args.out), text, argv, args.seed, inputs, "report")
    return 0


def cmd_concurrence(args, argv: list[str]) -> int:
    _check_tops(args.top, args.top)
    d = _read_dataset(args.arff, args.xml)
    rows = concurrence_export(d, args.top, args.top)
    csv_text = concurrence_csv(rows)
    if args.out:
        _write_report(Path(args.out), csv_text, argv, None, {"arff": args.arff, "xml": args.xml}, "csv")
    else:
        print(csv_text, end="")
    return 0


def cmd_rerun(args, argv: list[str]) -> int:
    try:
        manifest = json.loads(_read_text(args.manifest))
    except (OSError, json.JSONDecodeError) as exc:
        raise MulanFormatError(f"cannot load manifest {args.manifest}: {exc}") from exc
    recorded = manifest.get("argv") if isinstance(manifest, dict) else None
    if not isinstance(recorded, list) or not recorded:
        raise MulanFormatError(f"manifest {args.manifest} records no argv")
    recorded = [str(a) for a in recorded]
    if recorded[0] == "rerun":
        # no command records a rerun, and following one could recurse without end
        raise MulanFormatError(f"manifest {args.manifest} records a rerun, not a command")
    return main(recorded)


def build_parser() -> _Parser:
    parser = _Parser(prog="mlresample", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print the dataset characterization table")
    p_info.add_argument("arff")
    p_info.add_argument("xml")
    p_info.add_argument("--out", help="write the profile JSON here")
    p_info.set_defaults(func=cmd_info)

    p_res = sub.add_parser("resample", help="rebalance a dataset")
    p_res.add_argument("arff")
    p_res.add_argument("xml")
    p_res.add_argument("--method", required=True, choices=("mlros", "mlenn", "mlsmote"))
    p_res.add_argument("--p", type=float, default=MLROSConfig.p, help="oversampling percentage (mlros)")
    p_res.add_argument(
        "--ht", type=float, default=MLENNConfig.ht, help="labelset distance threshold (mlenn)"
    )
    p_res.add_argument("--nn", type=int, default=MLENNConfig.nn, help="neighbor count (mlenn)")
    p_res.add_argument(
        "--k", type=int, default=MLSMOTEConfig.k_neighbors, help="neighbor count (mlsmote)"
    )
    p_res.add_argument(
        "--remedial",
        metavar="MODE",
        help="decouple first: 'mean' or a percentile preset such as p25, p37, p50, p62, p75",
    )
    p_res.add_argument(
        "--drop-empty",
        action="store_true",
        help="discard decoupled sides left without labels (needs --remedial)",
    )
    p_res.add_argument("--seed", type=int, default=0)
    p_res.add_argument("--out-dir", required=True)
    p_res.set_defaults(func=cmd_resample)

    p_part = sub.add_parser("partition", help="write stratified train/test fold pairs")
    p_part.add_argument("arff")
    p_part.add_argument("xml")
    p_part.add_argument("--folds", type=int, default=10)
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument("--out-dir", required=True)
    p_part.set_defaults(func=cmd_partition)

    p_eval = sub.add_parser("evaluate", help="train on one dataset, score another")
    p_eval.add_argument("train_arff")
    p_eval.add_argument("test_arff")
    p_eval.add_argument("--train-xml", help="default: train ARFF path with .xml suffix")
    p_eval.add_argument("--test-xml", help="default: test ARFF path with .xml suffix")
    p_eval.add_argument("--classifier", default="mlknn", choices=("mlknn",))
    p_eval.add_argument("--k", type=int, default=10, help="neighbor count")
    p_eval.add_argument("--smoothing", type=float, default=1.0)
    p_eval.add_argument(
        "--seed", type=int, default=0, help="recorded in the manifest only: ML-kNN is deterministic"
    )
    p_eval.add_argument("--out", help="write the evaluation report JSON here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_conc = sub.add_parser("concurrence", help="export label co-occurrence data")
    p_conc.add_argument("arff")
    p_conc.add_argument("xml")
    p_conc.add_argument("--top", type=int, required=True, help="majority and minority label count")
    p_conc.add_argument("--out", help="write the CSV here (default: stdout)")
    p_conc.set_defaults(func=cmd_concurrence)

    p_rerun = sub.add_parser("rerun", help="re-execute a recorded manifest")
    p_rerun.add_argument("manifest")
    p_rerun.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):
        # the tables name the data set and its labels; they are UTF-8 like every file
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, argv)
    except (MulanFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, RuntimeError, MemoryError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
