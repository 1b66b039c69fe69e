"""Code lines: non-blank, non-comment, non-docstring (tokenize + ast).

``python -m repro.tools.loc [-v] [PATH...]`` (default ``src``) prints the
figure every simplicity PR and the ROADMAP quote: per file with ``-v``,
the total always.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with tokenize.open(path) as handle:
        source = handle.read()
    lines: set[int] = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv if arg != "-v"] or [Path("src")]
    files = sorted({f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py"))})
    counts = [(code_lines(path), path) for path in files]
    for count, path in counts if "-v" in argv else []:
        print(f"{count:7d}  {path}")
    print(f"{sum(count for count, _ in counts):7d}  total ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
