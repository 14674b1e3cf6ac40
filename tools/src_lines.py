"""Print total and code lines per module of src/fueterlab, and their sum.

A code line holds at least one token outside comments and docstrings.
A docstring here is a string that forms a statement on its own, as the
first statement of a module, class or function does.  Standard library
only; run from anywhere:

    python3 tools/src_lines.py
"""

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fueterlab"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines that hold a token other than layout, comments and docstrings."""
    lines = set()
    statement = []  # the tokens of the current logical line, layout left out
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in LAYOUT:
            statement.append(tok)
    return len(lines)


def main() -> int:
    total = code = 0
    width = max(len(p.name) for p in PACKAGE.glob("*.py"))
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        n_total, n_code = len(source.splitlines()), code_lines(source)
        total += n_total
        code += n_code
        print(f"{path.name:<{width}}  {n_total:6d} total  {n_code:6d} code")
    print(f"{'sum':<{width}}  {total:6d} total  {code:6d} code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
