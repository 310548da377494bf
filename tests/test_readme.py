"""The README's examples, run and compared with the text it shows.

Each `$ wittkit ...` line in a ```text block is run in-process and its
stdout must equal the lines up to the next `$` line or the block's end;
`$ cat FILE` lines write the shown content to FILE first. The library
example's `print(...)  # result` comments must equal what it prints.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from wittkit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def shell_examples():
    """(argv, shown output lines) for every `$` line of the text blocks."""
    out = []
    for block in blocks("text"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            out.append((shlex.split(command), shown))
    return out


def test_shell_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ran = 0
    for argv, shown in shell_examples():
        if argv[0] == "cat":
            Path(argv[1]).write_text("\n".join(shown) + "\n")
            continue
        assert argv[0] == "wittkit" and shown, argv
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out.splitlines() == shown, argv
        ran += 1
    assert ran >= 5


def test_library_example():
    (code,) = blocks("python")
    expected = [line.split("  # ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, "README.md", "exec"), {})
    assert buf.getvalue().splitlines() == expected
