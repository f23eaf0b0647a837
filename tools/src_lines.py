"""Line counts of the ``wptoolbox`` package, by kind, and its public names.

For each module under ``src/wptoolbox`` it prints the code, docstring,
comment and blank lines and their total (the ``wc -l`` count), then the
package totals and the number of names in the package's ``__all__``.  Then it
lists every line over ``MAX_COLUMNS`` columns as ``file:line`` and exits 1 if
there is one.  A docstring line belongs to a string that stands as a statement of its own; a
comment line holds a comment and no code; a blank line holds only white
space, inside a docstring too; every other line is code.

Usage::

    python3 tools/src_lines.py
"""
from __future__ import annotations

import ast
import importlib
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wptoolbox"
KINDS = ("code", "docstring", "comment", "blank")
#: the longest line a module may hold
MAX_COLUMNS = 100
#: tokens that are neither code nor a comment
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> dict[str, int]:
    """The lines of one module's ``text`` by kind; their sum is its line count."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    kinds = dict.fromkeys(KINDS, 0)
    for line, source in enumerate(text.splitlines(), 1):
        if not source.strip():
            kinds["blank"] += 1
        elif line in docstrings:
            kinds["docstring"] += 1
        elif line in comments and line not in code:
            kinds["comment"] += 1
        else:
            kinds["code"] += 1
    return kinds


def public_names() -> int:
    """The number of names in ``__all__``, read from the package imported from this
    checkout: ``__init__.py`` builds the list from its imports, not as a literal."""
    sys.path.insert(0, str(PACKAGE.parent))
    return len(importlib.import_module(PACKAGE.name).__all__)


def long_lines(path: Path) -> list[str]:
    """``file:line`` of each line of ``path`` over ``MAX_COLUMNS`` columns, the file
    relative to the repository root."""
    name = path.relative_to(PACKAGE.parent.parent)
    return [f"{name}:{line}" for line, source in enumerate(path.read_text().splitlines(), 1)
            if len(source) > MAX_COLUMNS]


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    rows = {path.name: count(path.read_text()) for path in paths}
    rows["total"] = {k: sum(row[k] for row in rows.values()) for k in KINDS}
    print(f"{'module':<14}" + "".join(f"{k:>11}" for k in (*KINDS, "lines")))
    for name, row in rows.items():
        values = (*row.values(), sum(row.values()))
        print(f"{name:<14}" + "".join(f"{v:>11}" for v in values))
    print(f"__all__: {public_names()} names")
    long = [where for path in paths for where in long_lines(path)]
    print(f"lines over {MAX_COLUMNS} columns: {len(long)}")
    for where in long:
        print(where)
    return 1 if long else 0


if __name__ == "__main__":
    sys.exit(main())
