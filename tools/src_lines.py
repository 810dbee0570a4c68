"""Print the size of the package: total lines of src/, its code lines, and the names in ``equivar.__all__``.

Code lines are the lines that hold a token of code, counted with
``tokenize``: blank lines, comments and docstrings (a string that is a
statement of its own) are not code.  Run from the repository root, or
give the root as the one argument::

    python tools/src_lines.py [ROOT]
"""

import sys
import tokenize
from pathlib import Path

# tokens that are not code; NEWLINE, which ends a statement, is kept to find the strings that stand alone
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a token other than layout, comments and docstrings."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in _SKIPPED]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        if tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type == tokenize.NEWLINE) \
                and tokens[i + 1].type == tokenize.NEWLINE:
            continue  # a docstring, or any other string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(root: Path) -> None:
    files = sorted((root / "src").rglob("*.py"))
    total = sum(len(path.read_bytes().splitlines()) for path in files)
    sys.path.insert(0, str(root / "src"))
    import equivar

    print(f"total {total}")
    print(f"code {sum(code_lines(path) for path in files)}")
    print(f"__all__ {len(equivar.__all__)}")


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve())
