"""The program's size stays under the line ceiling of the ROADMAP's design aim,
and its memos stay bounded, as its correctness aim asks of a long-lived process."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "elemeq"
LINE_CEILING = 4994  # lines in src/elemeq/*.py, as ``cat src/elemeq/*.py | wc -l`` counts them
# memos with no maxsize today: the one parser of the process, keyed on nothing
UNBOUNDED_MEMOS = {("cli.py", "_build_parser")}


def test_src_stays_under_the_line_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= LINE_CEILING, f"src/elemeq/*.py: {lines} lines"


def _memos(tree):
    """(the decorated function's name, or the line of any other use, and whether it is
    bounded) for each ``functools.lru_cache`` and ``functools.cache`` in a module."""
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools" for alias in node.names}
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    owners = {d: f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for d in f.decorator_list}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            name = node.attr
        else:
            name = imported.get(node.id) if isinstance(node, ast.Name) else None
        if name not in ("lru_cache", "cache"):
            continue
        call = parents[node] if isinstance(parents[node], ast.Call) and parents[node].func is node else None
        sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1] if call else []
        unbounded = name == "cache" or any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
        yield owners.get(call or node, f"line {node.lineno}"), not unbounded


def test_every_memo_has_a_finite_maxsize():
    # a long-lived process needs bounded memory (ROADMAP, correctness aim): every
    # lru_cache and cache in the program is bounded, but for the named unbounded ones
    unbounded = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
                 for owner, bounded in _memos(ast.parse(path.read_text())) if not bounded}
    assert unbounded <= UNBOUNDED_MEMOS, sorted(unbounded - UNBOUNDED_MEMOS)
