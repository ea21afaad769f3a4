"""Independent checks of galaxia's output files.

Nothing here imports galaxia: every rule is re-derived from the instance
the benchmark generated and the text file the CLI wrote, so a change that
weakens the package's own verifiers still fails here.  Each check is
O(arcs) with set and dict buckets keyed on (vertex, colour, ...).

A check returns the number of colours the file uses (its largest colour)
and raises `CheckError` naming the first rule broken.
"""

from __future__ import annotations

import math
from collections import defaultdict

from gen import Instance


class CheckError(Exception):
    pass


def _read(path: str, kind: str, width: int, arc_count: int):
    """Per-arc value tuples from the `kind` lines, the `i` lines and the
    `key=value` tokens of the comment lines."""
    values: list[tuple[int, ...] | None] = [None] * arc_count
    intervals: dict[int, tuple[int, int]] = {}
    tokens: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            fields = raw.split()
            if not fields:
                continue
            if fields[0] == "#":
                for tok in fields[1:]:
                    key, sep, value = tok.partition("=")
                    if sep:
                        tokens.setdefault(key, value)
                continue
            nums = tuple(int(f) for f in fields[1:])
            if fields[0] == kind and len(nums) == width + 1:
                arc = nums[0]
                if not 0 <= arc < arc_count or values[arc] is not None:
                    raise CheckError(f"arc index {arc} out of range or repeated")
                if min(nums[1:]) < 1:
                    raise CheckError(f"non-positive value on arc {arc}")
                values[arc] = nums[1:]
            elif fields[0] == "i" and kind == "c" and len(nums) == 3:
                intervals[nums[0]] = (nums[1], nums[2])
            else:
                raise CheckError(f"unexpected line {raw.strip()!r}")
    if None in values:
        raise CheckError(f"arc {values.index(None)} has no {kind} line")
    return values, intervals, tokens


def _degrees(inst: Instance):
    n, _, arcs = inst
    indeg, outdeg = [0] * n, [0] * n
    for t, h, _ in arcs:
        outdeg[t] += 1
        indeg[h] += 1
    return indeg, outdeg


def _is_acyclic(n: int, arcs) -> bool:
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for t, h in arcs:
        succ[t].append(h)
        indeg[h] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == n


def star_bound(inst: Instance, algorithm: str) -> int:
    """The proven colour bound of `algorithm`, after checking that the
    instance meets the theorem's hypothesis."""
    n, _, arcs = inst
    indeg, outdeg = _degrees(inst)
    k = max(indeg)
    max_degree = max(i + o for i, o in zip(indeg, outdeg))
    pairs = {(t, h) for t, h, _ in arcs}
    if len(pairs) != len(arcs):
        raise CheckError("star instances must be simple")
    if algorithm == "2k1":
        return 2 * k + 1
    if algorithm == "acyclic":
        if not _is_acyclic(n, pairs):
            raise CheckError("acyclic algorithm on a cyclic instance")
        return 2 * k
    if algorithm == "subcubic":
        if max_degree > 3:
            raise CheckError("subcubic algorithm above degree 3")
        return 3
    if algorithm == "diregular4":
        if k > 2 or max(outdeg) > 2:
            raise CheckError("dst4 algorithm above in/outdegree 2")
        return 4
    if algorithm == "acircuitic":
        if max_degree > 3 or any((h, t) in pairs for t, h in pairs):
            raise CheckError("acircuitic algorithm needs an oriented subcubic digraph")
        return 4
    raise CheckError(f"unknown star algorithm {algorithm!r}")


def _star_rules(inst: Instance, colour: list[int]) -> None:
    """Converging arcs differ (no repeated colour into a vertex) and
    consecutive arcs differ (no colour both enters and leaves a vertex)."""
    entering: set[tuple[int, int]] = set()
    leaving: set[tuple[int, int]] = set()
    for arc, (t, h, _) in enumerate(inst[2]):
        c = colour[arc]
        if (h, c) in entering:
            raise CheckError(f"converging arcs share colour {c} at vertex {h}")
        entering.add((h, c))
        leaving.add((t, c))
    both = entering & leaving
    if both:
        v, c = min(both)
        raise CheckError(f"consecutive arcs share colour {c} at vertex {v}")


def _acircuitic_rules(inst: Instance, colour: list[int]) -> None:
    """Colour 4 is a matching and no circuit uses at most two colours."""
    ends = [v for arc, (t, h, _) in enumerate(inst[2]) if colour[arc] == 4
            for v in (t, h)]
    if len(ends) != len(set(ends)):
        raise CheckError("colour 4 is not a matching")
    palette = sorted(set(colour))
    for i, a in enumerate(palette):
        for b in palette[i + 1:]:
            sub = [(t, h) for arc, (t, h, _) in enumerate(inst[2])
                   if colour[arc] in (a, b)]
            if not _is_acyclic(inst[0], sub):
                raise CheckError(f"circuit coloured only {a} and {b}")


def check_star(inst: Instance, path: str, algorithm: str | None) -> tuple[int, int]:
    """(colours, bound) of a solve output; `algorithm` None means auto,
    read from the file's own summary and checked against the instance."""
    rows, intervals, tokens = _read(path, "c", 1, len(inst[2]))
    colour = [r[0] for r in rows]
    used = tokens.get("algorithm")
    if used is None or (algorithm is not None and used != algorithm):
        raise CheckError(f"solved with {used!r}, asked for {algorithm or 'auto'!r}")
    bound = star_bound(inst, used)
    _star_rules(inst, colour)
    colours = max(colour, default=0)
    if colours > bound:
        raise CheckError(f"{colours} colours above the bound {bound}")
    if used == "acircuitic":
        _acircuitic_rules(inst, colour)
    if used == "acyclic":
        k = max(_degrees(inst)[0])
        for arc, (_, h, _) in enumerate(inst[2]):
            if h not in intervals:
                raise CheckError(f"no in-colour interval reported for {h}")
            start, length = intervals[h]
            if length != k or (colour[arc] - start) % (2 * k) >= k:
                raise CheckError(f"in-colours at {h} leave the reported interval")
    return colours, bound


def fibre_bound(inst: Instance, fibres: int, algorithm: str) -> int:
    n, m, arcs = inst
    k = max(_degrees(inst)[0])
    if algorithm == "smallm":
        if m >= fibres:
            raise CheckError("smallm needs fewer labels than fibres")
        return math.ceil(k / (fibres - m))
    if algorithm == "acyclic":
        if m < fibres or not _is_acyclic(n, [(t, h) for t, h, _ in arcs]):
            raise CheckError("fibre acyclic algorithm needs m >= n and a DAG")
        return math.ceil((m * math.ceil(k / fibres) + k) / fibres)
    raise CheckError(f"unknown fibre algorithm {algorithm!r}")


def _wavelength_rules(inst: Instance, rows, fibres: int) -> None:
    """Per (vertex, wavelength): entering arcs plus distinct leaving labels
    fit in `fibres`; per (vertex, wavelength, fibre) conditions (i)-(iii)."""
    load: dict[tuple[int, int], int] = defaultdict(int)
    out_labels: dict[tuple[int, int], set[int]] = defaultdict(set)
    at_head: set[tuple[int, int, int]] = set()
    at_tail: dict[tuple[int, int, int], int] = {}
    for (t, h, label), (w, f_out, f_in) in zip(inst[2], rows):
        if f_out > fibres or f_in > fibres:
            raise CheckError(f"fibre number above {fibres}")
        load[(h, w)] += 1
        out_labels[(t, w)].add(label)
        if (h, w, f_in) in at_head:
            raise CheckError(f"(ii) two arcs enter {h} on wavelength {w} fibre {f_in}")
        at_head.add((h, w, f_in))
        if at_tail.setdefault((t, w, f_out), label) != label:
            raise CheckError(f"(iii) labels clash leaving {t} on wavelength {w}")
    for key, labels in out_labels.items():
        load[key] += len(labels)
    for (v, w), count in load.items():
        if count > fibres:
            raise CheckError(f"vertex {v} wavelength {w} needs {count} > {fibres} fibres")
    if at_head & at_tail.keys():
        v, w, f = min(at_head & at_tail.keys())
        raise CheckError(f"(i) wavelength {w} fibre {f} both enters and leaves {v}")


def check_wavelengths(inst: Instance, path: str, fibres: int) -> tuple[int, int]:
    """(colours, bound) of a `solve --fibres` output."""
    rows, _, tokens = _read(path, "w", 3, len(inst[2]))
    bound = fibre_bound(inst, fibres, tokens.get("algorithm", ""))
    _wavelength_rules(inst, rows, fibres)
    colours = max((r[0] for r in rows), default=0)
    if colours > bound:
        raise CheckError(f"{colours} wavelengths above the bound {bound}")
    return colours, bound


def check_exact(inst: Instance, path: str, fibres: int | None, solved: int) -> None:
    """Check an `exact` output's witness, and that the optimum it claims
    does not exceed the constructive `solved` count."""
    if fibres is None:
        rows, _, tokens = _read(path, "c", 1, len(inst[2]))
        claimed = int(tokens.get("dst", "-1"))
        colour = [r[0] for r in rows]
        _star_rules(inst, colour)
    else:
        rows, _, tokens = _read(path, "w", 3, len(inst[2]))
        claimed = int(tokens.get(f"lambda_{fibres}", "-1"))
        _wavelength_rules(inst, rows, fibres)
        colour = [r[0] for r in rows]
    if not 1 <= max(colour, default=0) <= claimed <= solved:
        raise CheckError(f"exact claims {claimed}, witness uses {max(colour, default=0)},"
                         f" constructive used {solved}")
