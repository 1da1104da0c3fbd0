"""Which library statements no command-line run reaches.

Traces every line the library executes, from its import on, while
`hyperelliptic.cli.main` runs every command of `output_digest.py` in both
formats on its documents, malformed ones included, plus `catalog list` and
`catalog run` and `catalog export` on each entry.  It then prints, module by
module, the line ranges of the statements (as `ast` parses them, docstrings
left out) none of whose lines ran: code that no input of this set reaches, so
deleting it changes no output the digest sees.  A compound statement counts as
run when a line of its header or a statement inside it ran; consecutive
statements that never ran print as one range, and nothing inside them is
listed again.  It is a script, not a collected test, because tracing every
line takes a few minutes.

    PYTHONPATH=src python tests/reachability.py [--expect N]

`--expect N` compares the number of ranges with a known one, such as the
number printed before a change: when they differ, the script prints both
and exits 1, so a change that should reach no more or no less code is
checked by one command.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hyperelliptic"
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)


def _bodies(node: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists directly inside node."""
    lists = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
    lists += [h.body for h in getattr(node, "handlers", [])]
    lists += [c.body for c in getattr(node, "cases", [])]
    return [b for b in lists if b]


def _ran(node: ast.stmt, lines: set[int]) -> bool:
    """Whether a line of node's header (all of node if it has no body) or a statement in it ran."""
    bodies = _bodies(node)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    last = min(b[0].lineno for b in bodies) - 1 if bodies else node.end_lineno
    return any(n in lines for n in range(first, last + 1)) or any(
        _ran(s, lines) for b in bodies for s in b if not _is_docstring(s)
    )


def unreached(body: list[ast.stmt], lines: set[int]) -> list[tuple[int, int]]:
    """(first line, last line) of each run of statements in body that never ran.

    Inside a statement that ran, its own bodies are searched the same way.
    """
    ranges: list[tuple[int, int]] = []
    extend = False
    for node in body:
        if _is_docstring(node):
            continue
        if _ran(node, lines):
            extend = False
            for inner in _bodies(node):
                ranges += unreached(inner, lines)
        elif extend:
            ranges[-1] = (ranges[-1][0], node.end_lineno)
        else:
            ranges.append((node.lineno, node.end_lineno))
            extend = True
    return ranges


def trace_runs() -> dict[Path, set[int]]:
    """The lines of each library file that ran in the set of command lines, from its import on."""
    hits: dict[str, set[int] | None] = {}  # code file name -> its lines that ran, None outside

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in hits:
            hits[name] = set() if Path(name).resolve().parent == PACKAGE else None
        return None if hits[name] is None else trace_lines

    sys.settrace(trace_calls)
    from output_digest import cases

    from hyperelliptic.catalog import list_entries
    from hyperelliptic.cli import main

    def silent_main(argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "datum.json"
        for _, text, command in cases():
            path.write_text(text)
            for fmt in ("json", "text"):
                silent_main([command[0], str(path), *command[1:], "--format", fmt])
    silent_main(["catalog", "list"])
    for name, action in itertools.product(list_entries(), ("run", "export")):
        silent_main(["catalog", action, name])
    sys.settrace(None)
    ran: dict[Path, set[int]] = {}
    for name, lines in hits.items():
        if lines is not None:
            ran.setdefault(Path(name).resolve(), set()).update(lines)
    return ran


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", type=int, metavar="N",
                        help="exit 1 unless this many ranges never ran")
    args = parser.parse_args(argv)
    ran = trace_runs()
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        ranges = unreached(ast.parse(source).body, ran.get(path, set()))
        count += len(ranges)
        print(f"{path.name}: {len(ranges)} never ran")
        source_lines = source.splitlines()
        for first, last in ranges:
            span = str(first) if first == last else f"{first}-{last}"
            print(f"  {span}: {source_lines[first - 1].strip()}")
    print(f"{count} ranges never ran")
    if args.expect is not None and count != args.expect:
        print(f"range count differs: expected {args.expect}, got {count}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
