"""README's examples, run as written against the demo data set it tells the reader to make."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.fixture
def demo(tmp_path, monkeypatch):
    """A directory holding ``demo.arff`` and ``demo.xml`` from the demo script at seed 0."""
    script = ROOT / "scripts" / "make_demo_dataset.py"
    argv = [sys.executable, str(script), "--seed", "0"]
    subprocess.run(argv, cwd=tmp_path, env=cli_env(), check=True, capture_output=True)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_library_block_runs_verbatim(demo, capsys):
    block = re.search(r"## Library usage\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # the MeanIR of README's info table
    assert f"{float(capsys.readouterr().out):.4f}" == "10.5500"


def test_info_table_matches_the_command_line(demo):
    example = re.search(r"```\n\$ (mlresample info .*?)```", README, re.S).group(1)
    command, *table = example.splitlines()
    argv = [sys.executable, "-m", "mlresample.cli", *command.split()[1:]]
    proc = subprocess.run(argv, env=cli_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == table
