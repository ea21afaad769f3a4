"""Time what a fresh `galaxia` command pays before its work.

    python3 tools/startup_time.py [--src src] [--runs 30]

The set-up program is the benchmark's: a fresh interpreter puts --src
on its path, imports galaxia.cli and solves a four-vertex instance with
`-o`.  It runs --runs times, each time right after a bare `python -c
pass`, in two modes: with bytecode writing on, where the package's
bytecode is cached by an untimed first run and read back, and with it
off (PYTHONDONTWRITEBYTECODE=1), where every run compiles the package
from source, as in a fresh checkout.  The two modes alternate run by
run, each on its own copy of the package with no bytecode cache.

Prints each mode's median wall time in ms, with lower and upper
quartiles, for the bare interpreter and the set-up, and the set-up's
median excess over the bare interpreter.  Then prints each galaxia
module's median self import time in µs over as many `-X importtime`
runs of the set-up program per mode, largest first.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SET_UP = ("import sys; sys.path.insert(0, sys.argv[1]); import galaxia.cli; "
          "sys.exit(galaxia.cli.main(['solve', sys.argv[2], '-o', sys.argv[2] + '.out']))")
TINY = "p dsa 4 3 1\na 0 1 1\na 2 1 1\na 1 3 1\n"
MODES = {"on": None, "off": "1"}  # PYTHONDONTWRITEBYTECODE


def run(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def wall_ms(argv: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    run(argv, env)
    return (time.perf_counter() - start) * 1000


def self_import_us(argv: list[str], env: dict[str, str]) -> dict[str, int]:
    """Each galaxia module's self time from one `-X importtime` run."""
    times = {}
    for line in run(["-X", "importtime", *argv], env).stderr.splitlines():
        _, self_us, _, name = line.replace("|", ":").split(":")
        if name.strip().startswith("galaxia"):
            times[name.strip()] = int(self_us)
    return times


def quartiles(values: list[float]) -> str:
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{mid:7.2f} ({low:.2f}-{high:.2f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--runs", type=int, default=30, help="runs per mode, at least 2")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        (work / "tiny.dsa").write_text(TINY, encoding="utf-8")
        envs, set_ups = {}, {}
        for mode, no_write in MODES.items():
            src = work / mode
            shutil.copytree(args.src / "galaxia", src / "galaxia",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
            if no_write:
                env["PYTHONDONTWRITEBYTECODE"] = no_write
            envs[mode] = env
            set_ups[mode] = ["-c", SET_UP, str(src), str(work / "tiny.dsa")]
            run(set_ups[mode], env)  # with writing on, this caches the bytecode

        bare = {mode: [] for mode in MODES}
        set_up = {mode: [] for mode in MODES}
        for _ in range(args.runs):
            for mode, env in envs.items():
                bare[mode].append(wall_ms(["-c", "pass"], env))
                set_up[mode].append(wall_ms(set_ups[mode], env))
        imports = {mode: [self_import_us(set_ups[mode], env) for _ in range(args.runs)]
                   for mode, env in envs.items()}

    print(f"{args.runs} interleaved runs, median (quartiles) in ms; {sys.version.split()[0]}")
    print(f"{'bytecode writing':<18}{'python -c pass':<24}{'set-up':<24}excess")
    for mode in MODES:
        excess = statistics.median(s - b for s, b in zip(set_up[mode], bare[mode]))
        print(f"{mode:<18}{quartiles(bare[mode]):<24}{quartiles(set_up[mode]):<24}"
              f"{excess:.2f}")
    print("\nself import time, median µs")
    print(f"{'module':<22}" + "".join(f"{'writing ' + mode:>14}" for mode in MODES))
    medians = {mode: {name: statistics.median(sample[name] for sample in runs)
                      for name in runs[0]} for mode, runs in imports.items()}
    for name in sorted(medians["off"], key=medians["off"].get, reverse=True):
        print(f"{name:<22}" + "".join(f"{medians[mode][name]:>14.0f}" for mode in MODES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
