"""Count the code lines of the library between two checkouts.

    python tools/source_lines.py BEFORE AFTER

BEFORE and AFTER are checkouts of this repository.  For every module of
`src/driftflow` on either side the report prints its code lines in
BEFORE, in AFTER and the net change; a module only one side has counts 0
on the other.  A code line holds at least one token that is not a
comment, and is not part of a docstring (the leading string of a module,
class or function); blank lines and comment-only lines do not count.  A
statement spread over several lines counts each of them.  The report also
counts the public names, the entries of `driftflow.__all__` in each
checkout's `src/driftflow/__init__.py` (read with `ast`, not imported).

The last line is one JSON object: {"modules": {name: {"before", "after",
"net"}}, "before", "after", "net", "public": {"before", "after", "net"}}.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def module_lines(checkout: Path) -> dict[str, int]:
    """Code lines of each module of src/driftflow, by path below it."""
    package = checkout / "src" / "driftflow"
    return {
        str(path.relative_to(package)): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }


def public_names(checkout: Path) -> int:
    """The number of names in the checkout's `driftflow.__all__`; 0 without one."""
    init = checkout / "src" / "driftflow" / "__init__.py"
    if not init.is_file():
        return 0
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(ast.literal_eval(node.value))
    return 0


def compare(before: Path, after: Path) -> dict:
    b, a = module_lines(before), module_lines(after)
    modules = {
        name: {"before": b.get(name, 0), "after": a.get(name, 0),
               "net": a.get(name, 0) - b.get(name, 0)}
        for name in sorted(set(b) | set(a))
    }
    total_b, total_a = sum(b.values()), sum(a.values())
    public_b, public_a = public_names(before), public_names(after)
    return {"modules": modules, "before": total_b, "after": total_a,
            "net": total_a - total_b,
            "public": {"before": public_b, "after": public_a, "net": public_a - public_b}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    report = compare(args.before, args.after)
    for name, row in report["modules"].items():
        print(f"{name:<20} {row['before']:>6} {row['after']:>6} {row['net']:>+6}")
    print(f"{'total':<20} {report['before']:>6} {report['after']:>6} {report['net']:>+6}")
    public = report["public"]
    print(f"{'public names':<20} {public['before']:>6} {public['after']:>6} {public['net']:>+6}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
