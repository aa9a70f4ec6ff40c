"""The program's size stays under the line ceiling of the ROADMAP's design aim."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "elemeq"
LINE_CEILING = 5037  # lines in src/elemeq/*.py, as ``cat src/elemeq/*.py | wc -l`` counts them


def test_src_stays_under_the_line_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= LINE_CEILING, f"src/elemeq/*.py: {lines} lines"
