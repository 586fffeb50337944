"""Which statements of ``src/proofbench`` the test suite reaches.

Runs pytest in this process under a ``sys.settrace`` line tracer, then
prints, per module, each statement that no test ran, and how many of them
are ``raise`` statements. Statements in ``ALLOWLIST`` are left out of the
listing; each entry says why no in-process test can run it. The tracer does
not follow subprocesses.

Tracing slows the suite about threefold, so its wall-time gates can fail;
reach is reported whatever the tests' verdicts are, and failed tests are
only listed. The exit status is 1 when a statement outside the allowlist is
unreached or an allowlist entry matches no unreached statement, else 0.
Run it from the repository root, with any pytest arguments:

    python tools/reach.py [pytest arguments]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "proofbench"

# (module, first line of the statement, or None for the whole module, reason)
ALLOWLIST = (
    ("__main__.py", None, "runs only as `python -m proofbench`, in a subprocess"),
    ("cli.py", "sys.exit(main())", "under the `__main__` guard: subprocess only"),
    (
        "cpproof.py",
        'raise AssertionError("DPLL refutation did not end in the empty clause")',
        "dpll logs an unsatisfiable formula's search down to the empty clause",
    ),
    (
        "circuit.py",
        'raise SoundnessError("final line produced no circuit for the empty '
        'history")',
        "validation makes the final line constant 0 with a depth-0 protocol, so "
        "its one history is good and gets a gate",
    ),
)


SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# no code of their own: declarations, and try, whose parts count on their own
NO_CODE = (ast.Global, ast.Nonlocal, ast.Try, ast.TryStar)


def statements(source: str) -> list[tuple[int, range, bool]]:
    """(first line, lines whose code is the statement's own, is a raise) of
    every statement that compiles to code, in line order.

    A compound statement owns its header, from its first decorator to the
    line before its body; its body's statements are counted on their own.
    Docstrings and, inside a function, bare annotations compile to nothing.
    """
    out = []

    def visit(parent: ast.AST, in_function: bool) -> None:
        doc = None
        if isinstance(parent, SCOPES) and ast.get_docstring(parent) is not None:
            doc = parent.body[0]
        in_function = in_function or isinstance(parent, FUNCTIONS)
        for node in ast.iter_child_nodes(parent):
            visit(node, in_function)
            bare = isinstance(node, ast.AnnAssign) and node.value is None
            if (
                not isinstance(node, ast.stmt)
                or node is doc
                or isinstance(node, NO_CODE)
                or in_function and bare
            ):
                continue
            decorators = getattr(node, "decorator_list", ())
            first = min([node.lineno] + [d.lineno for d in decorators])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            own = range(first, max(last, node.lineno) + 1)
            out.append((node.lineno, own, isinstance(node, ast.Raise)))

    visit(ast.parse(source), False)
    return sorted(out)


class Verdicts:
    """pytest plugin: records the failed tests, which do not change reach."""

    def __init__(self):
        self.failed: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)


def trace_suite(args: list[str]) -> tuple[dict[Path, set[int]], Verdicts]:
    """Lines run in each package module while pytest runs ``args``."""
    hits = {path: set() for path in PACKAGE.glob("*.py")}
    by_name: dict[str, object] = {}  # co_filename -> its local tracer, or None

    def local_for(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return by_name[name]
        except KeyError:
            lines = hits.get(Path(name).resolve())
            by_name[name] = None if lines is None else local_for(lines)
            return by_name[name]

    verdicts = Verdicts()
    sys.settrace(tracer)
    try:
        pytest.main(["-p", "no:cacheprovider", "-q", *args], plugins=[verdicts])
    finally:
        sys.settrace(None)
    return hits, verdicts


def main(argv: list[str]) -> int:
    hits, verdicts = trace_suite(argv)
    allowed = {(module, text) for module, text, _ in ALLOWLIST}
    used = set()
    total = raises = unreached = unreached_raises = allowed_count = 0
    report = []
    for path in sorted(hits):
        source = path.read_text()
        text_of = source.splitlines()
        missed = []
        for lineno, own, is_raise in statements(source):
            total += 1
            raises += is_raise
            if hits[path].intersection(own):
                continue
            text = text_of[lineno - 1].strip()
            key = (path.name, None if (path.name, None) in allowed else text)
            if key in allowed:
                used.add(key)
                allowed_count += 1
                continue
            missed.append((lineno, text, is_raise))
        if missed:
            n_raise = sum(r for _, _, r in missed)
            name = path.relative_to(ROOT)
            report.append(f"{name}: {len(missed)} unreached, {n_raise} raise")
            report += [f"  {lineno:4d}  {text}" for lineno, text, _ in missed]
            unreached += len(missed)
            unreached_raises += n_raise
    print()
    if verdicts.failed:
        count = len(verdicts.failed)
        print(f"{count} tests failed under the tracer (reach counts them anyway):")
        print("\n".join(f"  {nodeid}" for nodeid in verdicts.failed))
    print("\n".join(report))
    for module, text in sorted(allowed - used, key=str):
        print(f"stale allowlist entry, nothing unreached matches: {module} {text!r}")
    print(
        f"unreached: {unreached} of {total} statements, {unreached_raises} of "
        f"{raises} raises ({allowed_count} more allowlisted)"
    )
    return 1 if unreached or allowed != used else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
