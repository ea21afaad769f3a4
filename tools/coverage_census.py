"""Count how `galaxia solve` ends on random small valid labelled files.

    python3 tools/coverage_census.py --seed 2026 --count 6000

Draws --count labelled instance files from `random.Random(--seed)`: each
has 2-8 vertices and labels 1..m with m = 1-4, and up to 14 arcs, each
between two distinct random vertices with a random label; a repeated
(tail, head, label) triple is dropped, so parallel arcs with distinct
labels stay.  Runs `solve` with the automatic choice and `solve --fibres
n` for n = 1, 2 and 3 on every file, through `galaxia.cli.main` imported
from --src (default: this tree's src/), without -o.

Prints one line per (command, exit code, reason) with its count, where
the reason is the first line of standard error with every number masked
as N and every list as [...], so calls that fail for one reason share a
line whatever the instance.  Then a total line per command.  Exits 1
when any call exits with a code other than 0 or 3 (or raises), else 0:
every file is valid, so exit 3 (no algorithm covers the instance) is
the only refusal the census expects.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {"solve": [], **{f"solve --fibres {n}": ["--fibres", str(n)] for n in (1, 2, 3)}}


def instance(rng: random.Random) -> str:
    """One valid labelled instance file, as text."""
    n, m = rng.randint(2, 8), rng.randint(1, 4)
    arcs = []
    for _ in range(rng.randint(1, 14)):
        t, h = rng.sample(range(n), 2)
        arc = (t, h, rng.randint(1, m))
        if arc not in arcs:
            arcs.append(arc)
    return "".join([f"p dsa {n} {len(arcs)} {m}\n",
                    *(f"a {t} {h} {label}\n" for t, h, label in arcs)])


def reason(stderr: str) -> str:
    """The first line of `stderr` with its numbers and lists masked."""
    line = stderr.partition("\n")[0]
    line = re.sub(r"(?<![\w+])\d+(?!\w)", "N", line)
    return re.sub(r"\[[N, ]*\]", "[...]", line) or "-"


def call(cli, argv: list[str]) -> tuple[str, str]:
    """(exit code or exception class, reason) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # counted, so one call cannot end the census
            code = type(exc).__name__
            print(exc, file=sys.stderr)
    return code, reason(err.getvalue())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import galaxia.cli as cli

    rng = random.Random(args.seed)
    counts: Counter[tuple[str, str, str]] = Counter()
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "census.dsa")
        for _ in range(args.count):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(instance(rng))
            for command, options in COMMANDS.items():
                counts[(command, *call(cli, ["solve", path, *options]))] += 1
    for (command, code, why), number in sorted(counts.items()):
        print(f"{command}\texit={code}\t{number}\t{why}")
    for command in COMMANDS:
        by_code = Counter()
        for (name, code, _), number in counts.items():
            if name == command:
                by_code[code] += number
        print(f"total {command}\t" + " ".join(
            f"exit={code}:{number}" for code, number in sorted(by_code.items())))
    return 1 if any(code not in ("0", "3") for _, code, _ in counts) else 0


if __name__ == "__main__":
    sys.exit(main())
