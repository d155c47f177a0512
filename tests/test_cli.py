import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mlresample import (
    AttributeSpec,
    MLENNConfig,
    MLROSConfig,
    MLSMOTEConfig,
    MultiLabelDataset,
    cli,
    fold_datasets,
    parse_mulan,
    stratified_kfold,
    write_mulan,
)
from mlresample.cli import main
from mlresample.synthetic import imbalanced_dataset, separable_clusters

from conftest import (
    cli_env, float_range_dataset, make_dataset, spelled_heads, write_dataset_files
)


def run_cli(args, env=None):
    """Run the CLI in a subprocess, returning (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "mlresample.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=cli_env(env),
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def toy6_files(toy6, tmp_path):
    return write_dataset_files(toy6, tmp_path, "toy6")


ONE_STAGE_REPORT_KEYS = [
    "instances_before", "instances_after", "added", "removed",
    "decoupled", "profile_before", "profile_after",
]


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestInfo:
    def test_table_row(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        code, out, err = run_cli(["info", arff, xml, "--out", tmp_path / "p.json"])
        assert code == 0
        row = out.splitlines()[1].split()
        assert row[:5] == ["toy6", "6", "2", "3", "4"]
        assert row[5:9] == ["1.3333", "0.4444", "2.8333", "0.0585"]
        payload = json.loads((tmp_path / "p.json").read_text())
        assert payload["distinct_labelsets"] == 4
        assert (tmp_path / "p.json.manifest.json").exists()

    def test_missing_xml_exits_2(self, toy6_files, tmp_path):
        arff, _ = toy6_files
        missing = tmp_path / "nope.xml"
        code, _, err = run_cli(["info", arff, missing])
        assert code == 2
        assert "nope.xml" in err

    def test_parse_error_exits_2(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        bad = tmp_path / "bad.arff"
        bad.write_text("@relation x\n@attribute f0 numeric\n@data\n1.0,oops\n")
        code, _, err = run_cli(["info", bad, xml])
        assert code == 2
        assert "line" in err

    def test_non_finite_value_exits_2(self, toy6_files, tmp_path):
        _, xml = toy6_files
        bad = tmp_path / "bad.arff"
        bad.write_text(
            "@relation x\n@attribute f0 numeric\n"
            "@attribute A {0,1}\n@attribute B {0,1}\n@attribute C {0,1}\n"
            "@data\n1.0,1,0,0\n-Infinity,0,1,0\n"
        )
        code, _, err = run_cli(["info", bad, xml])
        assert code == 2
        assert "line 8: non-finite value '-Infinity' for attribute 'f0'" in err

    def test_an_undefined_mean_ir_is_json_null(self, tmp_path, toy6):
        # two rows whose labelsets are all empty: no label occurs, so MeanIR is undefined
        empty = MultiLabelDataset(
            toy6.attributes, toy6.labels, toy6.numeric[:2], toy6.nominal[:2],
            np.zeros((2, toy6.k), dtype=bool), "empty",
        )
        arff, xml = map(str, write_dataset_files(empty, tmp_path, "empty"))
        profile_path, out_dir = tmp_path / "p.json", tmp_path / "out"
        assert main(["info", arff, xml, "--out", str(profile_path)]) == 0
        args = ["resample", arff, xml, "--method", "mlros", "--out-dir", str(out_dir)]
        assert main(args) == 0

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        written = json.loads(profile_path.read_text(), parse_constant=refuse)
        report = json.loads((out_dir / "report.json").read_text(), parse_constant=refuse)
        assert written["mean_ir"] is None
        assert report["profile_before"]["mean_ir"] is None
        assert report["profile_after"]["mean_ir"] is None

    def test_zero_count_label_warning(self, tmp_path, toy6):
        sparse = toy6.subset(range(3))  # only label A used
        arff, xml = write_dataset_files(sparse, tmp_path, "sparse")
        code, _, err = run_cli(["info", arff, xml])
        assert code == 0
        assert "excluded from MeanIR" in err


class TestResample:
    def test_mlros_hand_trace(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            ["resample", arff, xml, "--method", "mlros", "--p", 25, "--seed", 7,
             "--out-dir", out_dir]
        )
        assert code == 0
        result = parse_mulan(
            (out_dir / "resampled.arff").read_text(), (out_dir / "resampled.xml").read_text()
        )
        assert result.n == 7
        assert result.name == "toy6-mlros"
        report = json.loads((out_dir / "report.json").read_text())
        assert list(report) == ONE_STAGE_REPORT_KEYS
        assert report["instances_after"] == 7
        assert report["added"] == [{"kind": "clone", "source": 5}]

    def test_hybrid_two_stage_report(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        out_dir = tmp_path / "hyb"
        code, _, _ = run_cli(
            ["resample", arff, xml, "--method", "mlsmote", "--k", "2",
             "--remedial", "p50", "--seed", 3, "--out-dir", out_dir]
        )
        assert code == 0
        assert (out_dir / "resampled.arff").read_text().startswith("@relation toy6-p50-mlsmote\n")
        report = json.loads((out_dir / "report.json").read_text())
        # the stages are written once, not again as the report's own profiles
        assert list(report) == ["instances_before", "instances_after", "added", "removed", "stages"]
        assert len(report["stages"]) == 2
        first, second = report["stages"]
        assert list(first) == list(second) == ONE_STAGE_REPORT_KEYS
        assert first["profile_after"] == second["profile_before"]
        assert first["instances_after"] == second["instances_before"]
        assert report["instances_before"] == first["instances_before"]
        assert report["instances_after"] == second["instances_after"]

    def test_mlsmote_across_the_float_range(self, tmp_path):
        # interpolating between -1.7e308 and 1.7e308 must not overflow to inf
        arff, xml = write_dataset_files(float_range_dataset(), tmp_path, "wide")
        out_dir = tmp_path / "out"
        args = ["resample", arff, xml, "--method", "mlsmote", "--k", 2, "--out-dir", out_dir]
        assert main(list(map(str, args))) == 0
        out = parse_mulan(
            (out_dir / "resampled.arff").read_text(), (out_dir / "resampled.xml").read_text()
        )
        assert out.n == 16

    def test_bad_method_param_exits_3(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        code, _, _ = run_cli(
            ["resample", arff, xml, "--method", "mlros", "--p", -4,
             "--seed", 1, "--out-dir", tmp_path / "x"]
        )
        assert code == 3

    def test_bad_remedial_spec_exits_3(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        code, _, _ = run_cli(
            ["resample", arff, xml, "--method", "mlros", "--remedial", "pxx",
             "--seed", 1, "--out-dir", tmp_path / "x"]
        )
        assert code == 3

    @pytest.mark.parametrize("spec", ["p\u0661\u0662", "p\u00b2"])
    def test_non_ascii_remedial_digits_exit_3(self, spec, toy6_files, tmp_path, capsys):
        arff, xml = toy6_files
        argv = ["resample", arff, xml, "--method", "mlros", "--remedial", spec, "--out-dir", tmp_path / "x"]
        assert main([str(a) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err == f"error: bad decoupling threshold {spec!r} (expected 'mean' or 'pNN')\n"
        assert not (tmp_path / "x").exists()

    def test_drop_empty_without_remedial_exits_3(self, toy6_files, tmp_path, capsys):
        arff, xml = toy6_files
        argv = ["resample", arff, xml, "--method", "mlros", "--drop-empty", "--out-dir", tmp_path / "x"]
        assert main([str(a) for a in argv]) == 3
        assert capsys.readouterr().err == "error: --drop-empty needs --remedial\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--seed", -1], "seed must fit in an unsigned 64-bit integer"),
            (["--p", 0], "percentage must be in (0, 1000], got 0.0"),
            (["--remedial", "p0"], "bad decoupling threshold 'p0' (expected 'mean' or 'pNN')"),
        ],
        ids=["seed", "p", "remedial"],
    )
    def test_parameters_are_checked_before_the_input_is_read(
        self, option, message, tmp_path, capsys
    ):
        missing = tmp_path / "nope"
        argv = ["resample", missing.with_suffix(".arff"), missing.with_suffix(".xml"),
                "--method", "mlros", *option, "--out-dir", tmp_path / "x"]
        assert main([str(a) for a in argv]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_the_parser_defaults_are_the_configs_defaults(self):
        args = cli.build_parser().parse_args(
            ["resample", "a.arff", "a.xml", "--method", "mlros", "--out-dir", "x"]
        )
        assert args.p == MLROSConfig().p
        assert (args.ht, args.nn) == (MLENNConfig().ht, MLENNConfig().nn)
        assert args.k == MLSMOTEConfig().k_neighbors

    def test_byte_identical_given_seed(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            args = ["resample", arff, xml, "--method", "mlsmote", "--k", 2,
                    "--remedial", "p25", "--seed", 11, "--out-dir", out_dir]
            assert run_cli(args)[0] == 0
        a, b = tree_bytes(dirs[0]), tree_bytes(dirs[1])
        assert set(a) == set(b) == {"resampled.arff", "resampled.xml", "report.json", "manifest.json"}
        for name in a:
            if name == "manifest.json":
                continue  # records the differing --out-dir argument
            assert a[name] == b[name], name

    def test_mlenn_leaves_numpy_ma_unimported(self, tmp_path):
        # np.setdiff1d imports numpy.ma on its first call, about 15 ms of a fresh process
        arff, xml = write_dataset_files(imbalanced_dataset(3, n=120, k=6), tmp_path, "data")
        argv = ["resample", arff, xml, "--method", "mlenn", "--ht", 0.5, "--out-dir", tmp_path / "out"]
        script = (
            "import sys\nfrom mlresample.cli import main\n"
            f"code = main({list(map(str, argv))!r})\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env()
        )
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
        assert json.loads((tmp_path / "out" / "report.json").read_text())["removed"]

    def test_the_environment_sets_no_seed(self, tmp_path):
        # the seed comes from argv alone, so rerun replays a run in any environment
        arff, xml = write_dataset_files(imbalanced_dataset(3, n=60, k=6), tmp_path, "data")
        job = ["resample", arff, xml, "--method", "mlsmote", "--remedial", "p25"]
        outputs = {}
        for name, seed, env in (("zero", ["--seed", 0], None), ("seven", ["--seed", 7], None),
                                ("env", [], {"MLRESAMPLE_SEED": "7"})):
            assert run_cli([*job, *seed, "--out-dir", tmp_path / name], env=env)[0] == 0
            outputs[name] = tree_bytes(tmp_path / name)
            del outputs[name]["manifest.json"]  # it names the output directory
        assert outputs["seven"] != outputs["zero"] == outputs["env"]
        manifest = tmp_path / "env" / "manifest.json"
        assert json.loads(manifest.read_text())["seed"] == 0
        before = tree_bytes(tmp_path / "env")
        (tmp_path / "env" / "resampled.arff").unlink()
        assert run_cli(["rerun", manifest], env={"MLRESAMPLE_SEED": "8"})[0] == 0
        assert tree_bytes(tmp_path / "env") == before


class TestRerun:
    JOBS = {
        "info": ["info", "{arff}", "{xml}", "--out", "{out}/profile.json"],
        "resample-mlros": ["resample", "{arff}", "{xml}", "--method", "mlros", "--p", "50",
                           "--seed", "5", "--out-dir", "{out}"],
        "resample-p25-mlsmote": ["resample", "{arff}", "{xml}", "--method", "mlsmote",
                                 "--remedial", "p25", "--seed", "5", "--out-dir", "{out}"],
        "partition": ["partition", "{arff}", "{xml}", "--folds", "3", "--seed", "5",
                      "--out-dir", "{out}"],
        "evaluate": ["evaluate", "{train}", "{test}", "--k", "3", "--out", "{out}/eval.json"],
        "concurrence": ["concurrence", "{arff}", "{xml}", "--top", "2", "--out", "{out}/pairs.csv"],
    }

    @pytest.mark.parametrize("job", JOBS)
    def test_manifest_rerun_reproduces_bytes(self, job, tmp_path):
        d = imbalanced_dataset(3, n=60, k=6)
        arff, xml = write_dataset_files(d, tmp_path, "data")
        train, _ = write_dataset_files(d.subset(range(40)), tmp_path, "train")
        test, _ = write_dataset_files(d.subset(range(40, 60)), tmp_path, "test")
        out = tmp_path / "out"
        out.mkdir()
        paths = {"arff": arff, "xml": xml, "train": train, "test": test, "out": out}
        assert main([arg.format(**paths) for arg in self.JOBS[job]]) == 0
        before = tree_bytes(out)
        [manifest] = [out / name for name in before if name.endswith("manifest.json")]
        for name in before:
            if out / name != manifest:
                (out / name).unlink()
        assert main(["rerun", str(manifest)]) == 0
        assert tree_bytes(out) == before
        assert len(before) >= 2

    def test_manifest_records_argv_not_a_copy_of_it(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        argv = ["resample", str(arff), str(xml), "--method", "mlros", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == {
            "tool": "mlresample",
            "version": cli.__version__,
            "command": "resample",
            "argv": argv,
            "seed": 0,
            "inputs": {"arff": str(arff), "xml": str(xml)},
            "outputs": {
                "arff": str(tmp_path / "resampled.arff"),
                "xml": str(tmp_path / "resampled.xml"),
                "report": str(tmp_path / "report.json"),
            },
        }

    def test_no_command_profiles_a_data_set_only_to_record_it(
        self, toy6_files, tmp_path, monkeypatch
    ):
        def refused(d):
            raise AssertionError("profile called")

        monkeypatch.setattr(cli, "profile", refused)
        arff, xml = toy6_files
        argv = ["partition", arff, xml, "--folds", 2, "--out-dir", tmp_path / "folds"]
        assert main([str(a) for a in argv]) == 0
        argv = ["concurrence", arff, xml, "--top", 1, "--out", tmp_path / "pairs.csv"]
        assert main([str(a) for a in argv]) == 0


class TestLocale:
    """Files and tables are UTF-8 whatever the locale's encoding."""

    JOBS = [
        ["info", "d.arff", "d.xml", "--out", "profile.json"],
        ["resample", "d.arff", "d.xml", "--method", "mlros", "--remedial", "mean",
         "--out-dir", "res"],
        ["partition", "d.arff", "d.xml", "--folds", "3", "--out-dir", "folds"],
        ["concurrence", "d.arff", "d.xml", "--top", "2", "--out", "pairs.csv"],
    ]
    LOCALES = {
        "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        "utf8": {"PYTHONUTF8": "1"},
    }

    def test_an_ascii_locale_writes_the_utf8_bytes(self, tmp_path):
        d = imbalanced_dataset(3, n=45, k=5)
        labels = ("caf\u00e9", *d.labels[1:])
        d = MultiLabelDataset(d.attributes, labels, d.numeric, d.nominal, d.y, "na\u00efve")
        trees, stdouts = {}, {}
        for locale, env in self.LOCALES.items():
            cwd = tmp_path / locale
            cwd.mkdir()
            write_dataset_files(d, cwd, "d")
            stdouts[locale] = []
            for job in self.JOBS:
                proc = subprocess.run(
                    [sys.executable, "-m", "mlresample.cli", *job],
                    capture_output=True,
                    cwd=cwd,
                    env=cli_env(env),
                )
                assert proc.returncode == 0, (locale, job, proc.stderr)
                stdouts[locale].append(proc.stdout)
            trees[locale] = tree_bytes(cwd)
        assert trees["ascii"] == trees["utf8"]
        assert stdouts["ascii"] == stdouts["utf8"]
        assert "na\u00efve".encode() in stdouts["ascii"][0]
        assert "caf\u00e9".encode() in trees["ascii"]["pairs.csv"] + trees["ascii"]["d.xml"]


class TestMalformedInputExits2:
    def test_rerun_of_a_manifest_that_is_not_an_object(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[1, 2]\n")
        assert main(["rerun", str(manifest)]) == 2
        assert capsys.readouterr().err == f"error: manifest {manifest} records no argv\n"

    def test_rerun_of_a_manifest_that_reruns_itself(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"argv": ["rerun", str(manifest)]}))
        assert main(["rerun", str(manifest)]) == 2
        assert capsys.readouterr().err == (
            f"error: manifest {manifest} records a rerun, not a command\n"
        )

    @pytest.mark.parametrize("bad", ["arff", "xml", "manifest"])
    def test_a_file_that_is_not_utf8(self, bad, toy6_files, tmp_path, capsys):
        arff, xml = toy6_files
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"argv": ["info", str(arff), str(xml)]}))
        # one byte that is not UTF-8, inside a name, a comment or a path
        path, text, spoiled = {
            "arff": (arff, b"@relation toy6", b"@relation toy\xff"),
            "xml": (xml, b"</labels>", b"</labels><!-- \xff -->"),
            "manifest": (manifest, b"toy6.arff", b"toy\xff.arff"),
        }[bad]
        path.write_bytes(path.read_bytes().replace(text, spoiled))
        assert main(["rerun", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot decode {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "job",
        [
            ["info"],
            ["resample", "--method", "mlros", "--out-dir", "out"],
            ["partition", "--folds", "2", "--out-dir", "out"],
            ["concurrence", "--top", "1"],
        ],
        ids=["info", "resample", "partition", "concurrence"],
    )
    def test_a_data_set_of_labels_only(self, job, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.arff").write_text(
            "@relation r\n@attribute A {0,1}\n@attribute B {0,1}\n@data\n1,0\n0,1\n1,1\n"
        )
        (tmp_path / "d.xml").write_text('<labels><label name="A"/><label name="B"/></labels>')
        assert main([job[0], "d.arff", "d.xml", *job[1:]]) == 2
        assert capsys.readouterr().err == (
            "error: the ARFF file declares no feature attribute, only labels\n"
        )
        assert not (tmp_path / "out").exists()


class TestPartition:
    def test_writes_fold_pairs(self, tmp_path):
        train, _ = separable_clusters(seed=0, n_train_per=20)
        arff, xml = write_dataset_files(train, tmp_path, "clusters")
        out_dir = tmp_path / "folds"
        code, out, _ = run_cli(
            ["partition", arff, xml, "--folds", 4, "--seed", 2, "--out-dir", out_dir]
        )
        assert code == 0
        for f in range(4):
            for part in ("train", "test"):
                assert (out_dir / f"fold{f}-{part}.arff").exists()
                assert (out_dir / f"fold{f}-{part}.xml").exists()
        csv_lines = (out_dir / "folds.csv").read_text().splitlines()
        assert csv_lines[0] == "instance_index,fold"
        assert len(csv_lines) == 41
        test_sets = [
            parse_mulan(
                (out_dir / f"fold{f}-test.arff").read_text(),
                (out_dir / f"fold{f}-test.xml").read_text(),
            )
            for f in range(4)
        ]
        assert sum(t.n for t in test_sets) == 40
        assert all(t.n == 10 for t in test_sets)

    def test_fold_files_equal_the_fold_datasets_written_alone(self, tmp_path):
        d = imbalanced_dataset(3, n=45, k=5)
        arff, xml = write_dataset_files(d, tmp_path, "data")
        out_dir = tmp_path / "folds"
        argv = ["partition", arff, xml, "--folds", 4, "--seed", 5, "--out-dir", out_dir]
        assert main([str(a) for a in argv]) == 0
        parsed = parse_mulan(arff.read_text(), xml.read_text())
        assignment = stratified_kfold(parsed, 4, 5)
        for f in range(4):
            for part, ds in zip(("train", "test"), fold_datasets(parsed, assignment, f)):
                arff_text, xml_text = write_mulan(ds)
                assert (out_dir / f"fold{f}-{part}.arff").read_text() == arff_text
                assert (out_dir / f"fold{f}-{part}.xml").read_text() == xml_text

    def test_too_many_folds_exits_3(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        code, _, _ = run_cli(
            ["partition", arff, xml, "--folds", 10, "--seed", 0, "--out-dir", tmp_path / "f"]
        )
        assert code == 3


class TestSeedRange:
    """Every command that takes ``--seed`` accepts 0 .. 2**64 - 1, through one
    shared check made before any input is read, and exits 3 outside it."""

    @staticmethod
    def argv(command, arff, xml, out):
        return {
            "resample": ["resample", arff, xml, "--method", "mlros", "--out-dir", out],
            "partition": ["partition", arff, xml, "--folds", 2, "--out-dir", out],
            "evaluate": ["evaluate", arff, arff, "--train-xml", xml, "--test-xml", xml, "--k", 3,
                         "--out", out],
        }[command]

    @pytest.mark.parametrize("seed", [-5, 2**64, 99999999999999999999999])
    @pytest.mark.parametrize("command", ["resample", "partition", "evaluate"])
    def test_out_of_range_exits_3(self, command, seed, toy6_files, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [*self.argv(command, *toy6_files, out), "--seed", seed]
        assert main([str(a) for a in argv]) == 3
        assert capsys.readouterr().err == "error: seed must fit in an unsigned 64-bit integer\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["resample", "partition", "evaluate"])
    def test_the_largest_seed_is_recorded(self, command, toy6_files, tmp_path):
        out = tmp_path / "out"
        argv = [*self.argv(command, *toy6_files, out), "--seed", 2**64 - 1]
        assert main([str(a) for a in argv]) == 0
        [manifest] = tmp_path.rglob("*manifest.json")
        assert json.loads(manifest.read_text())["seed"] == 2**64 - 1


class TestParametersBeforeInput:
    """A parameter that is bad whatever the data exits 3 with its message even
    when an input file is missing, as it does on existing files."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "{a}", "{a}", "--k", 0], "k_nn must be positive"),
            (
                ["evaluate", "{a}", "{a}", "--smoothing", "nan"],
                "smoothing must be non-negative, with smoothing * (k_nn + 1) finite, got nan",
            ),
            (["partition", "{a}", "{x}", "--folds", 0, "--out-dir", "{out}"], "need at least two folds"),
            (["concurrence", "{a}", "{x}", "--top", -1], "top counts must be non-negative"),
        ],
        ids=["evaluate-k", "evaluate-smoothing", "partition-folds", "concurrence-top"],
    )
    def test_a_missing_input_does_not_hide_them(self, argv, message, tmp_path, capsys):
        paths = {"a": tmp_path / "nope.arff", "x": tmp_path / "nope.xml", "out": tmp_path / "x"}
        assert main([str(a).format(**paths) for a in argv]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()


class TestEvaluate:
    def test_separable_fixture_perfect(self, tmp_path):
        train, test = separable_clusters(seed=1)
        train_arff, _ = write_dataset_files(train, tmp_path, "train")
        test_arff, _ = write_dataset_files(test, tmp_path, "test")
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            ["evaluate", train_arff, test_arff, "--classifier", "mlknn",
             "--k", 3, "--seed", 0, "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["hamming_loss"] == 0.0
        assert report["f_measure"] == 1.0
        assert all(0.0 <= report[f] <= 1.0 for f in
                   ("hamming_loss", "ranking_loss", "precision", "recall", "f_measure", "auc"))
        assert "hamming_loss: 0.0" in stdout

    @pytest.mark.parametrize("smoothing", ["nan", "inf", "1e308"])
    def test_a_smoothing_that_is_not_finite_exits_3(self, smoothing, tmp_path, capsys):
        # 1e308 is finite, but 1e308 * (k + 1) is not
        train, test = separable_clusters(seed=1)
        train_arff, _ = write_dataset_files(train, tmp_path, "train")
        test_arff, _ = write_dataset_files(test, tmp_path, "test")
        args = ["evaluate", str(train_arff), str(test_arff), "--smoothing", smoothing]
        assert main(args) == 3
        assert "smoothing" in capsys.readouterr().err

    def test_unknown_classifier_exits_3(self, tmp_path):
        train, test = separable_clusters(seed=1)
        train_arff, _ = write_dataset_files(train, tmp_path, "train")
        test_arff, _ = write_dataset_files(test, tmp_path, "test")
        code, _, _ = run_cli(["evaluate", train_arff, test_arff, "--classifier", "svm"])
        assert code == 3


class TestConcurrence:
    def test_names_holding_a_comma_or_a_quote_read_back(self, tmp_path):
        names = ("x,y", 'say "hi"', "plain")
        d = make_dataset(
            [AttributeSpec("f")], names, [((0.0,), [0, 1]), ((1.0,), [1, 2]), ((2.0,), [0, 2])]
        )
        arff, xml = write_dataset_files(d, tmp_path, "quoted")
        out = tmp_path / "c.csv"
        assert main(["concurrence", str(arff), str(xml), "--top", "3", "--out", str(out)]) == 0
        _, *body = csv.reader(io.StringIO(out.read_text(encoding="utf-8")))
        assert [len(row) for row in body] == [5, 5, 5]
        assert {name for row in body for name in row[:2]} == set(names)

    def test_toy6_top1(self, toy6_files):
        arff, xml = toy6_files
        code, out, _ = run_cli(["concurrence", arff, xml, "--top", 1])
        assert code == 0
        assert out.splitlines() == [
            "label_a,label_b,count,irlbl_a,irlbl_b",
            "A,C,1,1.0,5.0",
        ]

    def test_top_zero_header_only(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        out_file = tmp_path / "c.csv"
        code, _, _ = run_cli(["concurrence", arff, xml, "--top", 0, "--out", out_file])
        assert code == 0
        assert out_file.read_text() == "label_a,label_b,count,irlbl_a,irlbl_b\n"

    def test_sorted_by_count(self, toy6_files):
        arff, xml = toy6_files
        code, out, _ = run_cli(["concurrence", arff, xml, "--top", 3])
        counts = [int(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert counts == sorted(counts, reverse=True)


class TestParsing:
    def test_missing_subcommand_exits_3(self):
        code, _, _ = run_cli([])
        assert code == 3

    def test_in_process_entry_point(self, toy6_files, capsys):
        arff, xml = toy6_files
        assert main(["info", str(arff), str(xml)]) == 0
        assert "toy6" in capsys.readouterr().out

    def test_allocation_failure_exits_4(self, toy6_files, capsys, monkeypatch):
        def exhausted(args, argv):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli, "cmd_info", exhausted)
        arff, xml = toy6_files
        assert main(["info", str(arff), str(xml)]) == 4
        assert capsys.readouterr().err == "internal error: cannot allocate\n"


class TestRowsCheckedOnce:
    """The constructor checks every row of the arrays it is given."""

    def test_the_public_constructor_checks_every_row(self):
        d = imbalanced_dataset(4, n=30, k=6)
        for i in range(d.n):
            numeric = d.numeric.copy()
            numeric[i, -1] = -math.inf
            with pytest.raises(ValueError, match=f"^instance {i}: numeric attribute 'x5' needs a finite"):
                MultiLabelDataset(d.attributes, d.labels, numeric, d.nominal, d.y)
        assert MultiLabelDataset(d.attributes, d.labels, d.numeric, d.nominal, d.y, d.name) == d


# one data set in two spellings: as the writer spells it, and with the labels
# declared first, padded and signed numbers, an exponent and quoted cells
CANONICAL_ARFF = """@relation spelled
@attribute x numeric
@attribute color {red,blue}
@attribute A {0,1}
@attribute B {0,1}
@attribute C {0,1}
@data
"""
OTHER_ARFF = """@relation spelled
@attribute B {0,1}
@attribute x numeric
@attribute A {0,1}
@attribute color {red,blue}
@attribute C {0,1}
@data
"""
SPELLED_XML = """<labels xmlns="http://mulan.sourceforge.net/labels">
<label name="A"></label><label name="B"></label><label name="C"></label></labels>
"""
# x as repr writes it and otherwise, color, then labels A B C
SPELLED_ROWS = [
    ("1.5", "1.50", "red", "100"), ("2.0", "+2.0", "blue", "110"), ("1e-05", "0.00001", "red", "101"),
    ("3.25", "'3.25'", "blue", "100"), ("-0.5", "-0.50", "red", "010"), ("10.0", "1e1", "red", "100"),
    ("0.125", ".125", "blue", "110"), ("7.75", "7.750", "red", "100"), ("-4.0", "-4", "blue", "011"),
    ("0.001", "1E-3", "red", "100"),
]


def spelled_inputs(directory):
    """One data set as the writer spells it, with other numbers in the
    writer's column order, and spelled otherwise; each an (arff, xml) pair."""
    canonical = [f"{x},{c},{','.join(bits)}" for x, _, c, bits in SPELLED_ROWS]
    numbers = [f"{x},{c},{','.join(bits)}" for _, x, c, bits in SPELLED_ROWS]
    other = [f"{bits[1]},{x},'{bits[0]}',\"{c}\",{bits[2]}" for _, x, c, bits in SPELLED_ROWS]
    pairs = []
    for name, head, rows in (
        ("canonical", CANONICAL_ARFF, canonical),
        ("numbers", CANONICAL_ARFF, numbers),
        ("other", OTHER_ARFF, other),
    ):
        (directory / f"{name}.arff").write_text(head + "\n".join(rows) + "\n")
        (directory / f"{name}.xml").write_text(SPELLED_XML)
        pairs.append((f"{name}.arff", f"{name}.xml"))
    return pairs


class TestInputSpelling:
    """``resample`` and ``partition`` copy input lines already in the writer's
    form and spell the rest, so their outputs never depend on the input's spelling."""

    JOBS = [
        ["resample", "--method", "mlros", "--remedial", "p25", "--seed", "3"],
        ["resample", "--method", "mlsmote", "--k", "2", "--seed", "3"],
        ["resample", "--method", "mlenn", "--nn", "2"],
        ["partition", "--folds", "3", "--seed", "3"],
    ]

    @pytest.mark.parametrize("job", JOBS, ids=["mlros-p25", "mlsmote", "mlenn", "partition"])
    def test_both_spellings_write_the_same_bytes(self, job, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outputs = []
        for arff, xml in spelled_inputs(tmp_path):
            out_dir = tmp_path / f"out-{arff}"
            assert main([job[0], arff, xml, *job[1:], "--out-dir", str(out_dir)]) == 0
            files = tree_bytes(out_dir)
            del files["manifest.json"]  # it names the input files
            outputs.append(files)
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0]) >= 3

    @pytest.mark.parametrize(
        "method", [["mlros", "--remedial", "p25"], ["mlsmote"], ["mlsmote", "--remedial", "p25"]]
    )
    def test_only_rows_new_to_the_input_are_spelled(self, method, tmp_path, monkeypatch):
        d = imbalanced_dataset(2, n=150, k=6)
        # three decimals, which repr writes as they are
        d = MultiLabelDataset(
            d.attributes, d.labels, d.numeric.round(3), d.nominal, d.y, d.name
        )
        arff, xml = write_dataset_files(d, tmp_path, "data")
        spelled = spelled_heads(monkeypatch)
        argv = ["resample", arff, xml, "--method", *method, "--seed", 1, "--out-dir", tmp_path / "out"]
        assert main([str(a) for a in argv]) == 0
        added = json.loads((tmp_path / "out" / "report.json").read_text())["added"]
        synthetic = sum(a["kind"] == "synthetic" for a in added)
        assert len(added) > 0 and (synthetic > 0) == (method[0] == "mlsmote")
        assert len(spelled) == synthetic
        # partition writes every row with the input's lines
        argv = ["partition", arff, xml, "--folds", 3, "--out-dir", tmp_path / "folds"]
        assert main([str(a) for a in argv]) == 0
        assert len(spelled) == synthetic
