import json
import subprocess
import sys

import pytest

from mlresample import cli, dataset, fold_datasets, parse_mulan, stratified_kfold, write_mulan
from mlresample.cli import main
from mlresample.synthetic import imbalanced_dataset, separable_clusters

from conftest import cli_env, float_range_dataset, write_dataset_files


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

    def test_zero_count_label_warning(self, tmp_path, toy6):
        sparse = toy6.replace_instances(toy6.instances[:3])  # only label A used
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
        report = json.loads((out_dir / "report.json").read_text())
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
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["stages"]) == 2
        first, second = report["stages"]
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

    def test_env_var_seed_default(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        out_dir = tmp_path / "env"
        code, _, _ = run_cli(
            ["resample", arff, xml, "--method", "mlros", "--out-dir", out_dir],
            env={"MLRESAMPLE_SEED": "123"},
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 123

    def test_manifest_rerun_reproduces_bytes(self, toy6_files, tmp_path):
        arff, xml = toy6_files
        out_dir = tmp_path / "rerun"
        args = ["resample", arff, xml, "--method", "mlros", "--p", 50,
                "--seed", 5, "--out-dir", out_dir]
        assert run_cli(args)[0] == 0
        before = tree_bytes(out_dir)
        (out_dir / "resampled.arff").unlink()
        code, _, _ = run_cli(["rerun", out_dir / "manifest.json"])
        assert code == 0
        assert tree_bytes(out_dir) == before


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

    def test_unknown_classifier_exits_3(self, tmp_path):
        train, test = separable_clusters(seed=1)
        train_arff, _ = write_dataset_files(train, tmp_path, "train")
        test_arff, _ = write_dataset_files(test, tmp_path, "test")
        code, _, _ = run_cli(["evaluate", train_arff, test_arff, "--classifier", "svm"])
        assert code == 3


class TestConcurrence:
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
    """Rows are validated where they enter the program, and never again."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Every instance passed to the row check, patched wherever the check is bound."""
        seen = []
        original = dataset._check_rows

        def recording(instances, *args, **kwargs):
            seen.extend(instances)
            return original(instances, *args, **kwargs)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("mlresample") and getattr(module, "_check_rows", None) is original:
                monkeypatch.setattr(module, "_check_rows", recording)
        return seen

    @pytest.mark.parametrize(
        "argv",
        [
            ["resample", "--method", "mlros", "--remedial", "p25"],
            ["resample", "--method", "mlsmote", "--k", 3, "--remedial", "p25"],
            ["partition", "--folds", 5],
        ],
        ids=["hybrid-mlros", "hybrid-mlsmote", "partition"],
    )
    def test_no_row_is_checked_twice(self, argv, tmp_path, checked):
        arff, xml = write_dataset_files(imbalanced_dataset(4, n=80, k=6), tmp_path, "data")
        checked.clear()
        out_dir = tmp_path / "out"
        command, *options = argv
        argv = [command, arff, xml, *options, "--seed", 1, "--out-dir", out_dir]
        assert main([str(a) for a in argv]) == 0
        assert len({id(inst) for inst in checked}) == len(checked)
        # parsed rows, clones, decoupled copies and folds are trusted; only
        # MLSMOTE's synthetic rows are new
        synthetic = 0
        if command == "resample":
            report = json.loads((out_dir / "report.json").read_text())
            synthetic = sum(a["kind"] == "synthetic" for a in report["added"])
            assert synthetic > 0 or options[1] == "mlros"
        assert len(checked) == synthetic

    def test_the_public_constructor_checks_every_row(self, checked):
        d = imbalanced_dataset(4, n=30, k=6)
        assert len(checked) == 30
        d.replace_instances(d.instances[:10])
        assert len(checked) == 40
        d.subset(range(30))
        assert len(checked) == 40
