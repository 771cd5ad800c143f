from pathlib import Path

import necoh

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_named_in_the_library_section():
    # the section lists what the package exports, so an export cannot ship
    # undocumented
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in necoh.__all__ if f"`{name}`" not in section] == []
