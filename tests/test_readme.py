import re
from pathlib import Path

import necoh
from necoh.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_named_in_the_library_section():
    # the section lists what the package exports, so an export cannot ship
    # undocumented
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in necoh.__all__ if f"`{name}`" not in section] == []


def test_every_cli_flag_is_named(capsys):
    # the flags each sub-command's help screen lists, so a flag cannot ship
    # undocumented; `--to` must not pass as the start of `--tol`
    assert main(["--help"]) == 0
    commands = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
    flags = set()
    for command in commands:
        assert main([command, "--help"]) == 0
        flags.update(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    flags.discard("--help")
    text = README.read_text(encoding="utf-8")
    assert "--config" in flags  # the help screens were read
    assert sorted(f for f in flags if not re.search(rf"`{f}(?![\w-])", text)) == []
