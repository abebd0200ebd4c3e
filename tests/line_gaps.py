"""List the lines of `src/fulkerson_lab` that no tier-1 test executes.

Runs the tier-1 suite in this process under `sys.settrace`, then prints,
for each module, the executable lines that never ran (as ranges) and a
table of physical, executable and unexecuted lines per module and in
total.  Extra arguments go to pytest:

    python tests/line_gaps.py
    python tests/line_gaps.py -k cli

A line is executable when compiled code of the module maps an instruction
to it.  The suite runs several times slower under the tracer.  The name
does not match `test_*.py`, so pytest does not collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fulkerson_lab"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of `path` has instructions on."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    out: list[list[int]] = []
    for n in lines:
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code, and every (file, line) of the package that ran."""
    ran: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = run_traced(argv)
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        missed = sorted(n for n in executable if (str(path), n) not in ran)
        lines = len(path.read_text(encoding="utf-8").splitlines())
        rows.append((path.name, lines, len(executable), len(missed)))
        if missed:
            print(f"{path.name}: {ranges(missed)}")
    print(f"\n{'module':<16}{'lines':>8}{'executable':>12}{'unexecuted':>12}")
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    for name, lines, executable, missed in rows:
        print(f"{name:<16}{lines:>8}{executable:>12}{missed:>12}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
