"""Run pytest under sys.settrace and print every line of src/frpcag that never ran.

From the repository root:

    python tests/linetrace.py [pytest arguments]

pytest does not collect this file. Only frames of code under src/frpcag are
traced line by line, in this process; commands that tests launch as
subprocesses are not traced. A line is executable when the compiler's line
table (code.co_lines) lists it for some code object of its module. Each
executable line that no line event reached is printed as path:line: source,
followed by the count. The exit status is pytest's.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "frpcag")

executed = {}  # path -> set of line numbers


def _lines(frame, event, arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(SRC + os.sep):
        return None
    executed.setdefault(path, set())
    return _lines(frame, event, arg)


def _executable(path):
    with open(path) as fh:
        source = fh.read()
    lines, codes = set(), [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return source.splitlines(), lines


def main(args):
    import pytest

    if any(name == "frpcag" or name.startswith("frpcag.") for name in sys.modules):
        raise SystemExit("frpcag is imported before tracing starts")
    sys.settrace(_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    missed = 0
    for name in sorted(os.listdir(SRC)):
        path = os.path.join(SRC, name)
        if not name.endswith(".py"):
            continue
        source, lines = _executable(path)
        for line in sorted(lines - executed.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/frpcag never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
