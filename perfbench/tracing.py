"""Spans around galaxia's functions, recorded from outside the package.

`Tracer.install` wraps each named function and rebinds the wrapper in
every `galaxia.*` module namespace that holds the original, so calls
from inside the package are seen too (`verify_star_colouring` alone is
bound in seven modules).  A span is (function, start, end, parent span,
op id); spans stay in memory until `write`.  A function's self time is
its span time minus the time of its child spans, so on each op the self
times of all spans sum to the time of the op's root spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = (
    "cli.main",
    "fileio.read_digraph", "fileio.write_colouring", "fileio.write_wavelengths",
    "digraph.degree_profile", "digraph.is_acyclic", "digraph.topological_order",
    "digraph.strong_components",
    "galaxy.dst_upper_2k1", "galaxy.u_suitable_decomposition",
    "galaxy.forest_to_two_galaxies",
    "spanning.dst4_colouring", "spanning.spanning_galaxy",
    "subcubic.star_colouring_subcubic", "subcubic.brooks_three_colouring",
    "acircuitic.acircuitic_colouring", "acircuitic.list_colouring_acyclic",
    "acyclic.star_colouring_acyclic",
    "intervals.sdr_in_cyclic_interval",
    "matching.perfect_matching", "matching.capacitated_assignment",
    "fibre.fibre_colouring_acyclic", "fibre.fibre_colouring_smallm",
    "fibre.verify_fibre_colouring", "fibre.expand_to_wavelength_assignment",
    "fibre.verify_wavelength_assignment",
    "oracle.verify_star_colouring", "oracle.exact_dst", "oracle.exact_lambda_n",
    "oracle.find_bicoloured_circuit",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.op = -1
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []  # (module, attr, original)
        self.missing: list[str] = []

    def _wrap(self, fid: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (fid, start, clock(), parent, self.op)
                stack.pop()
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "galaxia" or name.startswith("galaxia."))]
        self.missing = []
        for fid, name in enumerate(TRACED):
            module, func = name.split(".")
            original = getattr(sys.modules.get(f"galaxia.{module}"), func, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(fid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """Function name -> (calls, self seconds), every traced name."""
        calls: dict[int, int] = defaultdict(int)
        own_s: dict[int, float] = defaultdict(float)
        for (fid, *_), own in zip(self.spans, self.self_times()):
            calls[fid] += 1
            own_s[fid] += own
        return {name: (calls[fid], own_s[fid]) for fid, name in enumerate(TRACED)}

    def unbalanced_ops(self, tolerance: float = 1e-6) -> list[int]:
        """Ops whose self times do not sum to their root spans' time."""
        own_sum: dict[int, float] = defaultdict(float)
        root_sum: dict[int, float] = defaultdict(float)
        for (_, start, end, parent, op), own in zip(self.spans, self.self_times()):
            own_sum[op] += own
            if parent < 0:
                root_sum[op] += end - start
        return [op for op in own_sum if abs(own_sum[op] - root_sum[op]) > tolerance]

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tname\tstart_s\tend_s\tparent\n")
            fh.writelines(f"{i}\t{op}\t{TRACED[fid]}\t{start - origin:.9f}"
                          f"\t{end - origin:.9f}\t{parent}\n"
                          for i, (fid, start, end, parent, op) in enumerate(self.spans))
