"""Compare the exact solvers' values and times between two source trees.

    python3 tools/exact_differential.py run --src OLD/src --seed 1 > old.jsonl
    python3 tools/exact_differential.py run --src NEW/src --seed 1 > new.jsonl
    python3 tools/exact_differential.py compare old.jsonl new.jsonl

`run` imports galaxia from --src and solves a fixed, seeded list of
instances, printing one JSON line per instance: family, index, arcs,
value (null when --cap seconds passed) and seconds.  The instances are

* sweep-small: --per-kind instances of each of the seven kinds of the
  benchmark's sweep-small workload (perfbench/run.py), solved as its
  `exact` step solves them: `exact_lambda_n` with the kind's fibre count,
  else `exact_dst` on the underlying digraph;
* cyclic: --cyclic random labelled digraphs with a circuit, indegree at
  most k <= 3, labels m <= 3, n <= m + 1 fibres and at most 40 arcs,
  solved by `exact_lambda_n`;
* wide-dst-A and wide-lambda-A for A in --wide: --per-wide instances of
  exactly A arcs (the first with every head drawing two tails, the
  second cyclic labelled as above), solved with the arc limit raised to
  A, to show how the exponential tail grows past the default limit.

`compare` counts instances whose values differ (timeouts aside) and
prints, per family, the total and worst seconds on each side.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Cap(BaseException):
    """Raised by the alarm when an instance passes --cap seconds."""


def _alarm(_signum, _frame):
    raise Cap()


def cyclic_labelled(rng: random.Random, arc_count: int | None = None):
    """(vertex_count, m, n, arcs) with a circuit; exactly arc_count arcs
    when given, else at most 40."""
    from galaxia import LabelledDigraph, is_acyclic
    while True:
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        n = rng.randint(1, m + 1)
        if arc_count is None:
            v = rng.randint(3, 40 // k)
        else:  # a head draws k - 1/2 tails on average
            v = rng.randint(2 * arc_count // (2 * k - 1) + 1, 2 * arc_count // k + 1)
        arcs = set()
        for head in range(v):
            for _ in range(rng.randint(max(0, k - 1), k)):
                tail = rng.randrange(v - 1)
                arcs.add((tail + (tail >= head), head, rng.randint(1, m)))
        arcs = sorted(arcs)
        if arc_count is not None and len(arcs) < arc_count:
            continue
        arcs = rng.sample(arcs, min(len(arcs), arc_count or 40))
        if not is_acyclic(LabelledDigraph(v, m, tuple(arcs)).underlying):
            return v, m, n, sorted(arcs)


def heads_two(rng: random.Random, v: int):
    """Every head draws two distinct random tails: 2v arcs, simple."""
    return [(t, h, 1) for h in range(v)
            for t in rng.sample([x for x in range(v) if x != h], 2)]


def instances(args):
    """(family, index, vertex_count, m, fibres or None, arcs, arc limit)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # the benchmark's own kinds and generators
    rng = random.Random(args.seed)
    for kind in run.WORKLOADS["sweep-small"]:
        for i in range(args.per_kind):
            v, m, arcs = kind.make(rng)
            yield f"sweep-{kind.family}", i, v, m, kind.fibres, arcs, None
    for i in range(args.cyclic):
        v, m, n, arcs = cyclic_labelled(rng)
        yield "cyclic", i, v, m, n, arcs, None
    for size in args.wide:
        for i in range(args.per_wide):
            yield f"wide-dst-{size}", i, size // 2, 1, None, heads_two(rng, size // 2), size
            v, m, n, arcs = cyclic_labelled(rng, size)
            yield f"wide-lambda-{size}", i, v, m, n, arcs, size


def cmd_run(args) -> int:
    sys.path.insert(0, str(Path(args.src).resolve()))
    from galaxia import LabelledDigraph, exact_dst, exact_lambda_n
    from galaxia.oracle import DEFAULT_ARC_LIMIT
    signal.signal(signal.SIGALRM, _alarm)
    for family, i, v, m, fibres, arcs, limit in list(instances(args)):
        ld = LabelledDigraph(v, m, tuple(arcs))
        limit = limit or DEFAULT_ARC_LIMIT
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, args.cap)
        try:
            if fibres is None:
                value = exact_dst(ld.underlying, arc_limit=limit)[0]
            else:
                value = exact_lambda_n(ld, fibres, arc_limit=limit)[0]
        except Cap:
            value = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        print(json.dumps({"family": family, "i": i, "arcs": len(arcs),
                          "value": value, "s": round(seconds, 6)}), flush=True)
    return 0


def cmd_compare(args) -> int:
    sides = [[json.loads(line) for line in open(path, encoding="utf-8")]
             for path in (args.old, args.new)]
    if [(r["family"], r["i"]) for r in sides[0]] != [(r["family"], r["i"]) for r in sides[1]]:
        raise SystemExit("error: the two files list different instances")
    compared = mismatched = 0
    for old, new in zip(*sides):
        if old["value"] is not None and new["value"] is not None:
            compared += 1
            mismatched += old["value"] != new["value"]
    print(f"{len(sides[0])} instances, {compared} with both values, "
          f"{mismatched} value mismatches")
    families = dict.fromkeys(r["family"] for r in sides[0])
    for family in families:
        cells = []
        for rows in sides:
            times = [r["s"] for r in rows if r["family"] == family]
            capped = sum(r["value"] is None for r in rows if r["family"] == family)
            cells.append(f"total {sum(times):.3f} s, worst {max(times):.4f} s,"
                         f" capped {capped}")
        print(f"{family} ({len(times)}): old {cells[0]} | new {cells[1]}")
    return 1 if mismatched else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--src", required=True, help="directory holding galaxia/")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--per-kind", type=int, default=1000)
    run_p.add_argument("--cyclic", type=int, default=4000)
    run_p.add_argument("--wide", type=int, nargs="*", default=[50, 60])
    run_p.add_argument("--per-wide", type=int, default=100)
    run_p.add_argument("--cap", type=float, default=30.0,
                       help="seconds per instance before it counts as capped")
    run_p.set_defaults(func=cmd_run)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("old")
    cmp_p.add_argument("new")
    cmp_p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
