"""The README's examples, run as written.

Run as a script, `python tests/test_readme.py DIR` writes the command-line
example to DIR: `judgments.txt`, the command's arguments one per line in
`argv.txt`, and its output in `expected.txt`, so that an installed `fsub`
can be checked against it.
"""

import re
import sys
from pathlib import Path

import fsub
from fsub.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language: str) -> list[str]:
    """Bodies of the README's fenced blocks in `language`."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def cli_example() -> tuple[str, list[str], str]:
    """The `fsub check` shell example: the file it shows with `cat`, the
    arguments of the `fsub` command and the output printed under it."""
    (block,) = [b for b in fenced_blocks("sh") if "$ cat judgments.txt" in b]
    sections: dict[str, list[str]] = {}
    for line in block.splitlines():
        if line.startswith("$ "):
            command = line[2:]
            sections[command] = []
        else:
            sections[command].append(line)
    (command,) = [c for c in sections if c.startswith("fsub ")]
    content = "\n".join(sections["cat judgments.txt"]) + "\n"
    return content, command.split()[1:], "\n".join(sections[command]) + "\n"


def library_example() -> str:
    """The Python block under "Library use"."""
    (block,) = [b for b in fenced_blocks("python") if "from fsub import" in b]
    return block


def test_cli_example(tmp_path, monkeypatch, capsys):
    content, argv, expected = cli_example()
    (tmp_path / "judgments.txt").write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_library_example(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out == ""


def public_names() -> list[str]:
    """The names of the "Public names" section's list, in order."""
    text = README.read_text(encoding="utf-8")
    (section,) = re.findall(r"^## Public names\n(.*?)^## ", text, re.MULTILINE | re.DOTALL)
    return re.findall(r"^- `(\w+)`", section, re.MULTILINE)


def test_public_names_are_the_exports():
    names = public_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(fsub.__all__)


if __name__ == "__main__":
    out = Path(sys.argv[1])
    content, argv, expected = cli_example()
    (out / "judgments.txt").write_text(content, encoding="utf-8")
    (out / "argv.txt").write_text("\n".join(argv) + "\n", encoding="utf-8")
    (out / "expected.txt").write_text(expected, encoding="utf-8")
