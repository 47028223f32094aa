"""The README's examples run as written: its "Library use" python block,
and each command of its "CLI" block at 2000 rounds into a temporary
directory; and its `trials.csv` and `curve.csv` column lists are the
headers the CLI writes. So the docs cannot drift from the code unnoticed."""

import re
import shlex
from pathlib import Path

import pytest

from screenqkd.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str) -> str:
    """The first fenced block under the README heading `## <section>`."""
    text = README.read_text().split(f"\n## {section}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", text, re.S).group(1)


def _cli_commands() -> list[list[str]]:
    lines = _block("CLI").replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


def test_library_use_block_runs(capsys):
    exec(_block("Library use"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("command", _cli_commands())
def test_cli_example_runs(command, tmp_path):
    # argparse keeps a repeated flag's last value
    assert command[0] == "screenqkd"
    assert main(command[1:] + ["--rounds", "2000", "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").is_file()


def _readme_columns(pattern: str) -> list[str]:
    """The comma-separated column names the README pattern's group holds."""
    text = re.search(pattern, README.read_text(), re.S).group(1)
    return [name.strip() for name in text.split(",")]


def test_table_columns_match_written_headers(tmp_path):
    argv = ["--sweep-N", "2,3", "--rounds", "200", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    headers = {
        name: (tmp_path / name).read_text().splitlines()[0].split(",")
        for name in ("trials.csv", "curve.csv")
    }
    assert headers == {
        "trials.csv": _readme_columns(r"`trials\.csv` is a flat table.*?```\n(.*?)```"),
        "curve.csv": _readme_columns(r"`curve\.csv` with .*?the columns\s+`([^`]*)`"),
    }
