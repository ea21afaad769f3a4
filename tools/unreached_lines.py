"""List the lines of the package that no tier-1 test runs.

    python3 tools/unreached_lines.py [extra pytest arguments]

Runs the tier-1 suite (tests/) in this process through pytest.main,
under a sys.settrace and threading.settrace tracer that records every
line run in src/galaxia.  Then prints `file:line: source` for each line
of src/galaxia that has bytecode and that no test ran.

A line that ends in the comment `# unreached: <reason>` is one that no
in-process test can run: an import only a type checker reads, the
`sys.exit(main())` that runs only in a child process, or a branch no
known input takes.  Those lines are printed apart, under their own
heading, each with its reason.  A marked line that a test did run is
listed with the unreached ones, since its mark is stale.

Exits with pytest's exit code when the suite fails; otherwise 1 when it
lists any line other than the marked ones, and 0 when it lists none.

The `*_leaves_no_cyclic_garbage` tests are deselected: they assert that
a command leaves nothing for the cycle collector, and the frames a
tracer keeps are cyclic garbage.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "galaxia"
MARK = "# unreached: "


def code_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module at `path`, the
    bodies of its functions and classes included (a module's first
    instruction may report line 0, which is no line of the source)."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["--rootdir", str(ROOT), "-q", "-p", "no:cacheprovider",
                            "-k", "not leaves_no_cyclic_garbage",
                            str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached: list[str] = []
    marked: list[str] = []
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(code_lines(path)):
            text, _, reason = source[line - 1].strip().partition(MARK)
            where = f"{path.relative_to(ROOT)}:{line}: {text.rstrip()}"
            if not reason:
                if line not in ran[name]:
                    unreached.append(where)
            elif line in ran[name]:
                unreached.append(f"{where}  (marked unreached, yet a test ran it)")
            else:
                marked.append(f"{where}  ({reason})")
    print("lines no test runs:", *unreached or ["(none)"], sep="\n")
    print("lines no in-process test can run:", *marked or ["(none)"], sep="\n")
    return int(code) or int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
