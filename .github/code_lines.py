"""Size of the package, per module: code lines and parser tokens.

``python .github/code_lines.py [FILE ...]`` prints, for each Python file
(every ``src/smtde/*.py`` by default) and in total:

* code lines: lines that hold a token of code, so neither blank lines, nor
  comment lines, nor the lines of a docstring (the string that opens a
  module, class or function body);
* tokens: ``tokenize`` tokens without comments and blank lines (COMMENT and
  NL), the tokens CPython's parser reads, docstrings included.
"""

import ast
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
# tokens that hold no code: a line with only these is not a code line
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the parsed module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(source: str) -> tuple[int, int]:
    """(code lines, tokens) of one module's source text."""
    docs = docstring_lines(ast.parse(source))
    code, tokens = set(), 0
    for tok in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if tok.type in (tokenize.COMMENT, tokenize.NL):
            continue
        tokens += 1
        if tok.type not in LAYOUT:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if n not in docs)
    return len(code), tokens


def main(argv: list[str]) -> None:
    files = ([pathlib.Path(f) for f in argv]
             or sorted((ROOT / "src" / "smtde").glob("*.py")))
    total_code = total_tokens = 0
    print(f"{'module':<20} {'code lines':>10} {'tokens':>8}")
    for path in files:
        code, tokens = measure(path.read_text(encoding="utf-8"))
        total_code += code
        total_tokens += tokens
        print(f"{path.name:<20} {code:>10} {tokens:>8}")
    print(f"{'total':<20} {total_code:>10} {total_tokens:>8}")


if __name__ == "__main__":
    main(sys.argv[1:])
