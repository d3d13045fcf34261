"""Count Python source lines outside docstrings, comments and blank lines.

A line counts when a token other than a comment, a docstring or layout
(newlines, indentation) lies on it; a token spanning several lines (a
multi-line string argument, say) counts every line it spans.  A docstring
is any string-only expression statement: module, class and function
docstrings, and the attribute docstrings that follow an assignment.

Each PATH is a ``.py`` file or a directory searched recursively for them.
Prints one line per PATH and, for more than one PATH, a total::

    python tools/loc.py [PATH...]        # default: src

The size gates in ``ROADMAP.md`` quote this count, taken with the same
script on both trees of a change.
"""

from __future__ import annotations

import io
import pathlib
import sys
import tokenize
from typing import Iterable, List, Set

#: Tokens that never make a line count.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that carry code."""
    lines: Set[int] = set()
    statement: List[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            if token.type == tokenize.NEWLINE and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(token)
    for t in statement:  # a last statement with no NEWLINE token
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def python_files(path: pathlib.Path) -> Iterable[pathlib.Path]:
    """``path`` itself when it is a file, else every ``.py`` file under it."""
    return [path] if path.is_file() else sorted(path.rglob("*.py"))


def count(path: pathlib.Path) -> int:
    """Code lines summed over every Python file at or under ``path``."""
    return sum(code_lines(file.read_text(encoding="utf-8"))
               for file in python_files(path))


def main(argv: List[str]) -> int:
    """Print the count of each path (and their total); exit status 0."""
    paths = [pathlib.Path(arg) for arg in argv] or [pathlib.Path("src")]
    counts = [count(path) for path in paths]
    for path, lines in zip(paths, counts):
        print(f"{lines:8d}  {path}")
    if len(paths) > 1:
        print(f"{sum(counts):8d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
