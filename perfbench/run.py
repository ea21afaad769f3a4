"""galaxia benchmark: time the `galaxia` command line on generated instances.

    python3 perfbench/run.py --workload star-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Load shape: closed loop, one caller, one process, no threads.
Each op is an in-process call of `galaxia.cli.main` (or, on sweep-small,
a `solve` then `exact` pair on one file), started as soon as the last one
and its untimed output check finished.  Every op gets a fresh instance
made from the seed, so no instance is solved twice in a run.

Ops run in rounds of one op per kind (family and size rung), so every
run weighs the kinds alike.  A run makes round(--seconds / ROUND_S)
rounds: its work is fixed, not its time, so two runs with one seed
attempt the same ops (and fail the same ones) however fast the machine
is at the time, and a faster program is timed on the same instances.
Set-up (a fresh interpreter, `import galaxia.cli`, one tiny `solve`) is
timed SETUP_REPEATS times in child processes, once before the first
round and the rest spread between rounds, and its median reported.
One untimed in-process `solve` of the same tiny instance warms the
caller before the first round.

Workloads (see WORKLOADS for the sizes):

* star-large: the five star-colouring theorems on two rungs, N and 2N,
  with the algorithm named explicitly.  The search-heavy modules
  (galaxy, spanning, acircuitic, intervals/matching) do most of their
  work here and `fibre` does none.
* fibre-large: `solve --fibres` on labelled DAGs with m=2 on 2 fibres
  (the acyclic path) and on cyclic m=1 digraphs on 3 fibres (the small-m
  path), two rungs each.  Expansion and its verifiers are O(V*A) today;
  the star solvers do no work here.
* sweep-small: instances of at most 40 arcs from every family, fibre
  included, each solved with the automatic choice and then by the exact
  solver.  Per-call overhead dominates, so set-up work bought for large
  inputs shows its cost here.

An op fails if it raises, exits nonzero, runs past OP_CAP_S, or its
output fails the independent check in check.py.  Failures are counted in
`failed` and printed on standard error; failed ops add their time but
no arcs to their kind and are left out of the latency percentiles.  An
output that fails the check makes `correct` false and the exit code 1.

Times are scaled to a machine of fixed speed.  A shared host can change
speed by up to a factor of two (the 2-vCPU host of baseline.json does),
in states that last from seconds to minutes and slow every op alike, so
raw times of two runs of the same code differ by more than any bound
worth setting.  A
fixed pure-Python job, `reference()`, is timed between ops at least
every REF_EVERY_S, and each op and set-up time is multiplied by REF_S
over the median of the four reference times nearest it: the figures
read as on a machine where `reference()` takes REF_S.  The reference
is part of the benchmark, so a change to galaxia cannot move it.

The end-to-end times are also medians, so a burst of slow ops or one
hard instance does not move them: arcs_per_s sums each kind's median
arcs over the sum of each kind's median op time (a typical round),
op_ms.p50 and op_ms.p90 are percentiles of all ops that succeeded, and
op_ms.geomean is the geometric mean of the kinds' median op times.

--trace 1 alternates untraced and traced rounds.  Traced rounds wrap the
functions in tracing.TRACED and give each one's calls and self time;
untraced rounds give the per-family times and the trace overhead.  Self
times are raw span times, not scaled.  The spans are written to
perfbench/work/ at the end.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics, or with --trace 1 the
per-layer ones), each metric with its value and unit.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

OP_CAP_S = 60
SETUP_REPEATS = 7
# The yardstick: reference() is timed at least every REF_EVERY_S between
# ops, and every time is scaled to a machine on which it takes REF_S.
REF_EVERY_S = 0.2
REF_S = 0.010
TINY = (4, 1, [(0, 1, 1), (2, 1, 1), (1, 3, 1)])


@dataclass(frozen=True)
class Kind:
    family: str
    rung: int  # 0 for size N, 1 for 2N; sweep-small kinds use 0
    make: Callable[[random.Random], gen.Instance]
    algorithm: str | None  # None: the CLI's automatic choice
    fibres: int | None = None


def _ladder(family, algorithm, make, base, fibres=None):
    return [Kind(family, r, lambda rng, n=base << r: make(rng, n), algorithm, fibres)
            for r in (0, 1)]


# Sizes keep a round to a few seconds, so a run holds several whole rounds,
# and put kinds of similar op time near the median and p90 of each mix, so
# those percentiles do not jump between size groups.  sweep-small stays
# under the exact solvers' 40-arc limit with their exponential tail short.
WORKLOADS: dict[str, list[Kind]] = {
    "star-large": [
        *_ladder("2k1", "2k1", lambda rng, n: gen.capped_digraph(rng, n, 3), 150),
        *_ladder("dst4", "diregular4", lambda rng, n: gen.capped_digraph(rng, n, 2), 120),
        *_ladder("acircuitic", "acircuitic", gen.oriented_subcubic, 600),
        *_ladder("acyclic", "acyclic", lambda rng, n: gen.labelled_dag(rng, n, 1, 3), 4000),
        *_ladder("subcubic", "subcubic", gen.subcubic, 4000),
    ],
    "fibre-large": [
        *_ladder("fibre-acyclic", None, lambda rng, n: gen.labelled_dag(rng, n, 2, 3),
                 700, fibres=2),
        *_ladder("fibre-smallm", None, lambda rng, n: gen.capped_digraph(rng, n, 3),
                 300, fibres=3),
    ],
    "sweep-small": [
        Kind("2k1", 0, lambda rng: gen.capped_digraph(rng, rng.randint(6, 10), 3), None),
        Kind("dst4", 0, lambda rng: gen.capped_digraph(rng, rng.randint(8, 18), 2), None),
        Kind("acircuitic", 0, lambda rng: gen.oriented_subcubic(rng, rng.randint(10, 26)),
             None),
        Kind("acyclic", 0, lambda rng: gen.labelled_dag(rng, rng.randint(8, 16), 1, 3), None),
        Kind("subcubic", 0, lambda rng: gen.subcubic(rng, rng.randint(10, 26)), None),
        Kind("fibre-acyclic", 0, lambda rng: gen.labelled_dag(rng, rng.randint(8, 14), 2, 3),
             None, fibres=2),
        Kind("fibre-smallm", 0, lambda rng: gen.capped_digraph(rng, rng.randint(6, 12), 3),
             None, fibres=3),
    ],
}
# Wall seconds of one round (ops, generation and checks) at the parent
# commit on a 2-vCPU machine: a run makes round(--seconds / ROUND_S)
# rounds, so its work is fixed by --seconds and two runs with one seed
# make the same ops, whatever the machine's speed at the time.
ROUND_S = {"star-large": 2.8, "fibre-large": 1.75, "sweep-small": 0.068}
EXACT_WORKLOADS = {"sweep-small"}
FAMILIES = ("2k1", "dst4", "acircuitic", "acyclic", "subcubic",
            "fibre-acyclic", "fibre-smallm")

END_TO_END_UNITS = {
    "arcs_per_s": "arcs/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
    "op_ms.geomean": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "colours_per_bound": "ratio",
}
RATIOS = {  # derived per-layer ratio -> (numerator calls, denominator)
    "oracle.verify_star_colouring.calls_per_op": ("oracle.verify_star_colouring", None),
    "fibre.verify_fibre_colouring.calls_per_op": ("fibre.verify_fibre_colouring", None),
    "fibre.verify_wavelength_assignment.calls_per_op":
        ("fibre.verify_wavelength_assignment", None),
    "digraph.strong_components.calls_per_op": ("digraph.strong_components", None),
    "matching.perfect_matching.calls_per_sdr":
        ("matching.perfect_matching", "intervals.sdr_in_cyclic_interval"),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in RATIOS:
        units[name] = "calls/op" if name.endswith("_op") else "calls/sdr"
    for family in FAMILIES:
        units[f"solve_s.{family}"] = "s"
        units[f"{family}.doubling"] = "ratio"
    units["solve_s.exact"] = "s"
    units["trace_overhead"] = "ratio"
    return units


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that passed OP_CAP_S."""


def _alarm(_signum, _frame):
    raise OpTimeout


@dataclass
class Op:
    round: int
    kind: Kind
    arcs: int
    traced: bool
    solve_s: float = 0.0
    exact_s: float = 0.0
    colours: int = 0
    bound: int = 0
    start: float = 0.0
    scale: float = 1.0  # REF_S over the reference time measured around the op
    error: str | None = None
    wrong: bool = False  # an output failed the independent check

    @property
    def seconds(self) -> float:
        return (self.solve_s + self.exact_s) * self.scale


def call_cli(cli, argv: list[str]) -> tuple[float, str | None]:
    """Time one `galaxia.cli.main` call; (seconds, failure or None)."""
    sink = io.StringIO()
    elapsed, error = float(OP_CAP_S), None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            error = f"exit code {code}"
    except OpTimeout:
        error = f"passed the {OP_CAP_S} s cap"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception as exc:  # an op boundary: record and keep running
        error = f"raised {exc!r}"
    if error is not None:
        tail = sink.getvalue().strip().splitlines()[-1:]
        error = f"{' '.join(argv[:1])}: {error} {' '.join(tail)}"[:300]
    return elapsed, error


def run_op(cli, op: Op, inst: gen.Instance, work: Path, exact: bool) -> None:
    kind = op.kind
    path = str(work / "op.dg")
    solved, exact_out = path + ".solve", path + ".exact"
    gen.write_dg(path, inst)
    fibre_args = [] if kind.fibres is None else ["--fibres", str(kind.fibres)]
    algo_args = [] if kind.algorithm is None else ["--algorithm", kind.algorithm]
    op.start = time.perf_counter()
    op.solve_s, op.error = call_cli(cli, ["solve", path, *fibre_args, *algo_args,
                                          "-o", solved])
    if exact and op.error is None:
        op.exact_s, op.error = call_cli(cli, ["exact", path, *fibre_args, "-o", exact_out])
    if op.error is not None:
        return
    try:
        if kind.fibres is None:
            op.colours, op.bound = check.check_star(inst, solved, kind.algorithm)
        else:
            op.colours, op.bound = check.check_wavelengths(inst, solved, kind.fibres)
        if exact:
            check.check_exact(inst, exact_out, kind.fibres, op.colours)
    except (check.CheckError, ValueError, OSError) as exc:
        op.error, op.wrong = f"check: {exc}", True


def reference() -> int:
    """A fixed pure-Python graph job of about REF_S: build adjacency
    lists, walk them depth first, sort and intersect.  It never changes,
    so its time measures the machine, not the program."""
    rng = random.Random(7)
    n = 2000
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(3 * n):
        adj[rng.randrange(n)].append(rng.randrange(n))
    seen = set()
    order = []
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    ranked = sorted((len(adj[v]), v) for v in order)
    return len(ranked) + len(seen & {v for row in adj for v in row})


class Yardstick:
    """Times reference() between ops.  The host's speed swings by up to
    a factor of two in states that last seconds to minutes, for every op
    alike; dividing each time by the reference time measured around it
    takes that swing out of the figures."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        self.samples.append((start, time.perf_counter() - start))

    def due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= REF_EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REF_S over the median of the four samples nearest `at` in time."""
        i = bisect.bisect([t for t, _ in self.samples], at)
        return REF_S / statistics.median(s for _, s in self.samples[max(0, i - 2):i + 2])


def set_up(work: Path) -> float:
    """Wall time of a fresh process that imports galaxia.cli and solves a
    four-vertex instance: what every CLI call pays before its work."""
    tiny = str(work / "tiny.dg")
    gen.write_dg(tiny, TINY)
    program = ("import sys; sys.path.insert(0, sys.argv[1]); import galaxia.cli; "
               "sys.exit(galaxia.cli.main(['solve', sys.argv[2], '-o', sys.argv[2] + '.out']))")
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", program, str(SRC), tiny],
                             stdout=subprocess.DEVNULL)
    # A blocking wait returns as the child exits; Popen.wait(timeout)
    # polls with sleeps and would quantise the time.
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        code = child.wait()
    except OpTimeout:
        child.kill()
        child.wait()
        raise SystemExit(f"error: set-up passed the {OP_CAP_S} s cap")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code != 0:
        raise SystemExit(f"error: set-up exited with code {code}")
    return time.perf_counter() - start


def import_galaxia():
    if not (SRC / "galaxia" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'galaxia'} not found; run from a galaxia checkout")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("galaxia.cli")
    if Path(cli.__file__).resolve().parent != SRC / "galaxia":
        raise SystemExit(f"error: imported galaxia from {cli.__file__}, not {SRC}")
    return cli


def _round_median(ops: list[Op], value) -> float:
    by_round: dict[int, list[Op]] = {}
    for op in ops:
        by_round.setdefault(op.round, []).append(op)
    return statistics.median(value(group) for group in by_round.values())


def _by_kind(ops: list[Op]) -> list[list[Op]]:
    groups: dict[tuple[str, int], list[Op]] = {}
    for op in ops:
        groups.setdefault((op.kind.family, op.kind.rung), []).append(op)
    return list(groups.values())


def _throughput(ops: list[Op]) -> float:
    """Arcs per second of a typical round: each kind's median arcs over
    its median op time, summed over kinds.  A failed op counts its time
    and no arcs."""
    groups = _by_kind(ops)
    arcs = sum(statistics.median(op.arcs if op.error is None else 0 for op in g)
               for g in groups)
    return arcs / sum(statistics.median(op.seconds for op in g) for g in groups)


def metrics(ops: list[Op], setup_s: float, exact: bool) -> dict[str, float]:
    plain = [op for op in ops if not op.traced]
    ms = [op.seconds * 1000 for op in plain if op.error is None] or [OP_CAP_S * 1000.0]
    kind_ms = [statistics.median(op.seconds * 1000 for op in g) for g in _by_kind(plain)]
    out = {
        "arcs_per_s": _throughput(plain),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "op_ms.geomean": math.exp(statistics.fmean(math.log(t) for t in kind_ms)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "colours_per_bound": sum(op.colours for op in ops) / max(1, sum(op.bound for op in ops)),
        "solve_s.exact": (_round_median(plain, lambda g: sum(o.exact_s * o.scale for o in g))
                          if exact else 0.0),
    }
    for family in FAMILIES:
        mine = [op for op in plain if op.kind.family == family]
        out[f"solve_s.{family}"] = (
            _round_median(mine, lambda g: sum(o.seconds for o in g)) if mine else 0.0)
        rungs = [[op.seconds / op.arcs for op in mine if op.kind.rung == r] for r in (0, 1)]
        out[f"{family}.doubling"] = (statistics.median(rungs[1]) / statistics.median(rungs[0])
                                     if all(rungs) else 0.0)
    return out


def layer_metrics(tracer: Tracer, ops: list[Op]) -> dict[str, float]:
    traced = [op for op in ops if op.traced]
    totals = tracer.totals()
    out: dict[str, float] = {}
    for name, (calls, own) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    for ratio, (num, den) in RATIOS.items():
        base = len(traced) if den is None else totals[den][0]
        out[ratio] = totals[num][0] / base if base else 0.0
    out["trace_overhead"] = _throughput(traced) / _throughput(
        [op for op in ops if not op.traced])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_galaxia()
    kinds = WORKLOADS[args.workload]
    exact = args.workload in EXACT_WORKLOADS
    work = HERE / "work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer()
    ops: list[Op] = []
    rounds = max(1 + args.trace, round(args.seconds / ROUND_S[args.workload]))
    yard = Yardstick()
    setups: list[tuple[float, float]] = []  # (start, seconds)

    def timed_set_up() -> None:
        yard.sample()
        setups.append((time.perf_counter(), set_up(work)))
        yard.sample()

    try:
        timed_set_up()
        tiny = str(work / "tiny.dg")
        if call_cli(cli, ["solve", tiny, "-o", tiny + ".warm"])[1] is not None:
            raise SystemExit("error: the warm-up solve failed")
        start = time.perf_counter()
        for rnd in range(rounds):
            traced = bool(args.trace) and rnd % 2 == 1
            gc.collect()
            if traced:
                tracer.install()
            for index, kind in enumerate(kinds):
                inst = kind.make(random.Random(f"{args.seed}/{args.workload}/{rnd}/{index}"))
                op = Op(rnd, kind, len(inst[2]), traced)
                tracer.op = len(ops)
                yard.due()
                run_op(cli, op, inst, work, exact)
                ops.append(op)
                if op.error is not None:
                    print(f"op {len(ops) - 1} ({kind.family}) failed: {op.error}",
                          file=sys.stderr)
            if traced:
                tracer.uninstall()
            while len(setups) < SETUP_REPEATS * (rnd + 1) / rounds:
                timed_set_up()
        yard.sample()
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for op in ops:
        op.scale = yard.scale(op.start)
    failed = sum(op.error is not None for op in ops)
    found = metrics(ops, statistics.median(s * yard.scale(t) for t, s in setups), exact)
    found["error_rate"] = failed / len(ops)
    units = {**END_TO_END_UNITS, **per_layer_units(), "error_rate": "ratio"}
    correct = not any(op.wrong for op in ops)
    if args.trace:
        found.update(layer_metrics(tracer, ops))
        if tracer.missing:
            print(f"trace: not found, reported as never called: {tracer.missing}",
                  file=sys.stderr)
        unbalanced = tracer.unbalanced_ops()
        if unbalanced:
            print(f"trace: self times do not sum to op time on ops {unbalanced[:5]}",
                  file=sys.stderr)
            correct = False
        tracer.write(str(HERE / "work" / f"spans-{args.workload}-{args.seed}.tsv"), start)
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {len(ops)} ops, {failed} failed;"
          f" reference median {statistics.median(s for _, s in yard.samples) * 1000:.3f} ms"
          f" over {len(yard.samples)} samples, times scaled to {REF_S * 1000:g} ms")
    for name in sorted(found):
        print(f"  {name:52s} {found[name]:.6g} {units[name]}")
    wanted = per_layer_units() if args.trace else END_TO_END_UNITS
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": found[name], "unit": unit}
                          for name, unit in wanted.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
