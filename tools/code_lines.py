"""Print the code lines of each ``src/kljn`` module and their total.

A code line is a physical line that holds a token of code. Comments,
blank lines and docstrings (a string that is a statement of its own) do
not count; every other line of a multi-line statement does. Counting by
tokens reads a file the way Python does, so the figure does not depend on
what comments or strings hold. Run from anywhere::

    python tools/code_lines.py
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kljn"

# Tokens that end a statement or open a block: a string right after one of
# them (or first in the file) that ends its own statement is a docstring.
_BOUNDARY = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _BOUNDARY | {tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    tokens = [
        t
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    for before, tok, after in zip([None, *tokens], tokens, tokens[1:]):
        docstring = (
            tok.type == tokenize.STRING
            and (before is None or before.type in _BOUNDARY)
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5d}")
    print(f"{'total':16} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
