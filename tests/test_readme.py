"""The README's examples run as written.

The "Library example" block is executed as it stands.  Each command of the
"CLI" block runs in order in one scratch directory: `fulkerson-lab …` lines
go through `cli.main` in this process, `> file` writes the captured stdout
to that file, and the `printf '…' > file` line writes its text.
"""

import re
import shlex
from pathlib import Path

from fulkerson_lab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_block(section: str, lang: str) -> str:
    """The first ```lang block under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL).group(1)


def commands() -> list[str]:
    return [line for line in code_block("CLI", "sh").splitlines() if line.strip()]


def split_redirect(line: str) -> tuple[list[str], str | None]:
    words = shlex.split(line)
    if ">" in words:
        at = words.index(">")
        return words[:at], words[at + 1]
    return words, None


def test_library_example_runs():
    exec(compile(code_block("Library example", "python"), "README.md", "exec"), {})


def test_cli_block_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert len(commands()) == 11
    for line in commands():
        words, target = split_redirect(line)
        assert words[0] in ("fulkerson-lab", "printf"), line
        if words[0] == "printf":
            Path(target).write_text(words[1].replace("\\n", "\n"))
            continue
        code = main(words[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if target is not None:
            Path(target).write_text(out)
