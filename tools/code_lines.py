"""Print the code lines of each src/pcst module and their total.

A code line is one that is not blank, not only a comment and not part
of a docstring (the first statement of a module, class or function,
when it is a string).  This is the count ROADMAP.md and CHANGES.md
quote.  Run it from anywhere: ``python tools/code_lines.py``.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pcst"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for k, line in enumerate(text.splitlines(), start=1)
               if k not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<14}{count:>6}")
    print(f"{'total':<14}{total:>6}")


if __name__ == "__main__":
    main()
