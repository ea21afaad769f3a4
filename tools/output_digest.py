"""Print a digest of every benchmark call's output, to compare two trees.

    python3 tools/output_digest.py --workload sweep-small --seed 101 --rounds 515 > new.txt
    python3 tools/output_digest.py --src OLD/src --workload sweep-small --seed 101 --rounds 515 > old.txt
    diff old.txt new.txt

Makes the instances of --rounds rounds of a workload of the benchmark
(`WORKLOADS` in perfbench/run.py, from the generators of perfbench/gen.py
with the benchmark's seeding), and runs each op's `solve`, and on the
workloads whose ops also run `exact`, its `exact`, through
`galaxia.cli.main` imported from --src (default: this tree's src/).  An
`exact` runs even when its `solve` failed.

Prints one line per call: round, kind index, family, command, exit code
(or the class of the exception it raised) and the sha256 of its standard
output, standard error and `-o` bytes (`-` when it wrote no file).  The
last line is the total: the number of calls, how many exited nonzero, and
the sha256 of all lines before it.  Every call runs in one temporary
directory with the same relative file names, so no path differs between
two runs.  Reads perfbench/ without writing there (no bytecode either).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # imports from perfbench/ leave nothing there
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from run import EXACT_WORKLOADS, WORKLOADS  # noqa: E402

INPUT, OUTPUT = "op.dg", "op.out"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call(cli, argv: list[str]) -> str:
    """Run one command; its exit and the digests of what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.suppress(FileNotFoundError):
        os.remove(OUTPUT)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # recorded, so one call cannot end the run
            code = type(exc).__name__
            print(exc, file=sys.stderr)
    written = Path(OUTPUT).read_bytes() if os.path.exists(OUTPUT) else None
    return (f"exit={code} stdout={sha(out.getvalue().encode())}"
            f" stderr={sha(err.getvalue().encode())}"
            f" o={'-' if written is None else sha(written)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import galaxia.cli as cli
    if Path(cli.__file__).resolve().parent != src / "galaxia":
        raise SystemExit(f"error: imported galaxia from {cli.__file__}, not {src}")

    commands = ("solve", "exact") if args.workload in EXACT_WORKLOADS else ("solve",)
    lines = []
    nonzero = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for rnd in range(args.rounds):
                for index, kind in enumerate(WORKLOADS[args.workload]):
                    rng = random.Random(f"{args.seed}/{args.workload}/{rnd}/{index}")
                    gen.write_dg(INPUT, kind.make(rng))
                    extra = [] if kind.fibres is None else ["--fibres", str(kind.fibres)]
                    for command in commands:
                        if command == "solve" and kind.algorithm is not None:
                            options = [*extra, "--algorithm", kind.algorithm]
                        else:
                            options = extra
                        digest = call(cli, [command, INPUT, *options, "-o", OUTPUT])
                        nonzero += not digest.startswith("exit=0 ")
                        lines.append(f"{rnd} {index} {kind.family} {command} {digest}")
                        print(lines[-1])
        finally:
            os.chdir(home)
    total = sha("".join(f"{line}\n" for line in lines).encode())
    print(f"total calls={len(lines)} nonzero={nonzero} sha256={total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
