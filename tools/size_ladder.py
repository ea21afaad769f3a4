"""Time each star theorem per arc on a ladder of sizes.

    python3 tools/size_ladder.py [--src src] [THEOREM ...]

For each theorem named (all five when none is) and each of 16k, 64k and
256k vertices, a fresh interpreter imports galaxia from --src, builds
the instance of seed 1 with the package's own generator, and times the
theorem's call alone, with the cyclic garbage collector paused as the
command line pauses it.  One line per theorem gives the arcs and µs per
arc at each size, the growth of µs per arc from the first size to the
last (near-linear work reads about 1.0), and each cell's peak RSS in MB,
instance generation included.  The cells run one at a time.

    acyclic     star_colouring_acyclic on random_labelled_dag(n, 1, 3)
    2k1         dst_upper_2k1 on random_digraph(n, 3, 3)
    diregular4  dst4_colouring on random_digraph(n, 2, 2)
    subcubic    star_colouring_subcubic on random_subcubic(n)
    acircuitic  acircuitic_colouring on random_oriented_subcubic(n)
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THEOREMS = ("acyclic", "2k1", "diregular4", "subcubic", "acircuitic")
SIZES = (16000, 64000, 256000)
SEED = 1


def cell(theorem: str, n: int) -> dict[str, float]:
    """Build one instance, time the theorem on it and read peak RSS."""
    import galaxia as g
    if theorem == "acyclic":
        d = g.random_labelled_dag(n, 1, 3, SEED).underlying
        solve = g.star_colouring_acyclic
    elif theorem == "2k1":
        d, solve = g.random_digraph(n, 3, 3, SEED), g.dst_upper_2k1
    elif theorem == "diregular4":
        d, solve = g.random_digraph(n, 2, 2, SEED), g.dst4_colouring
    elif theorem == "subcubic":
        d, solve = g.random_subcubic(n, SEED), g.star_colouring_subcubic
    else:
        d, solve = g.random_oriented_subcubic(n, SEED), g.acircuitic_colouring
    gc.disable()
    start = time.perf_counter()
    solve(d)
    seconds = time.perf_counter() - start
    gc.enable()
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"arcs": d.arc_count, "seconds": seconds, "rss_mb": rss_mb}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("theorems", nargs="*", metavar="THEOREM",
                        help=f"any of {', '.join(THEOREMS)}")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding galaxia/")
    parser.add_argument("--cell", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    unknown = set(args.theorems) - set(THEOREMS)
    if unknown:
        parser.error(f"unknown theorem {sorted(unknown)[0]}")
    if args.cell:
        sys.path.insert(0, str(Path(args.src).resolve()))
        print(json.dumps(cell(args.cell[0], int(args.cell[1]))))
        return 0

    for theorem in args.theorems or THEOREMS:
        cells = []
        for n in SIZES:
            out = subprocess.run(
                [sys.executable, __file__, "--src", args.src,
                 "--cell", theorem, str(n)],
                check=True, capture_output=True, text=True).stdout
            cells.append(json.loads(out))
        per_arc = [c["seconds"] * 1e6 / max(c["arcs"], 1) for c in cells]
        arcs = " / ".join(str(c["arcs"]) for c in cells)
        times = " / ".join(f"{u:.2f}" for u in per_arc)
        rss = " / ".join(f"{c['rss_mb']:.0f}" for c in cells)
        print(f"{theorem:10s} arcs {arcs}; us/arc {times}"
              f" (x{per_arc[-1] / per_arc[0]:.2f}); peak RSS MB {rss}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
