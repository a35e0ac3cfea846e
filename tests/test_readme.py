"""The README's library tour names only what the package exports."""

import re
from pathlib import Path

import hartogs

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_rows():
    """``(module, contents)`` cells of the table under "## Library tour"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    # the contents cell may hold "|" inside code spans, so split off the module cell only
    return re.findall(r"^\| (`hartogs\.[^|]*?) \| (.*) \|$", section, flags=re.M)


def test_library_tour_names_resolve():
    # every backticked bare identifier of two or more characters in the
    # contents column is a public attribute of the package, so a deleted
    # or renamed function cannot stay listed
    rows = tour_rows()
    assert len(rows) >= 9
    names = [span for _, contents in rows for span in re.findall(r"`([^`]+)`", contents)
             if re.fullmatch(r"[A-Za-z_]\w+", span)]
    assert "extremal_report" in names
    missing = [name for name in names if not hasattr(hartogs, name)]
    assert missing == []
