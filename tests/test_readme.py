"""The README's examples run as written: its "Library use" python block,
and each command of its "CLI" block at 2000 rounds into a temporary
directory, so the docs cannot drift from the code unnoticed."""

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
