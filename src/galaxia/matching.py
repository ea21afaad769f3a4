"""Augmenting-path bipartite assignment with right capacities.

One routine serves both callers: interval SDRs pass unit capacities,
which makes it a plain matching, and per-vertex colour assignment
passes real ones.  Inputs are small, so the classic Kuhn algorithm is
plenty.  Left vertices are processed in ascending order and adjacency
lists are scanned as given, which makes the result a pure function of
the input.
"""

from __future__ import annotations


def capacitated_assignment(adjacency: list[list[int]],
                           capacity: list[int]) -> list[int] | None:
    """Assign every left vertex a right vertex, right j used <= capacity[j].

    Kuhn's augmenting paths, one `seen` list per augment, with per-right
    slot lists.  Returns the assignment or None when some left vertex
    cannot be placed.
    """
    load: list[list[int]] = [[] for _ in capacity]  # right -> left vertices
    assigned = [-1] * len(adjacency)

    def augment(root: int, seen: list[bool]) -> bool:
        # depth-first, one frame [left, next adjacency position, right
        # being emptied, next slot of that right] per level
        stack = [[root, 0, -1, 0]]
        while stack:
            frame = stack[-1]
            left, pos, right, slot = frame
            if right != -1 and slot < len(load[right]):
                frame[3] = slot + 1
                stack.append([load[right][slot], 0, -1, 0])
                continue
            options = adjacency[left]
            while pos < len(options) and seen[options[pos]]:
                pos += 1
            if pos == len(options):
                stack.pop()
                continue
            right = options[pos]
            frame[1:] = [pos + 1, right, 0]
            seen[right] = True
            if len(load[right]) < capacity[right]:
                load[right].append(left)
                assigned[left] = right
                # each frame below takes the slot its child moved out of
                stack.pop()
                for left, _, right, slot in stack:
                    load[right][slot - 1] = left
                    assigned[left] = right
                return True
        return False

    for left in range(len(adjacency)):
        if not augment(left, [False] * len(capacity)):
            return None
    return assigned
