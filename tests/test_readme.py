import re
import shlex
from pathlib import Path

from hermvi.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs_as_written(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("| nodes")


def test_readme_cli_lines_run_as_written(monkeypatch, tmp_path, capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("hermvi ")]
    assert [shlex.split(line)[1] for line in lines] == ["solve", "convergence", "verify"]
    monkeypatch.chdir(tmp_path)  # solve writes its --output here
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
