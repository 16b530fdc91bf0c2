"""Seeded sparse G(n, p) inputs for the benchmark, emitted as edge_list text.

Edges are drawn by geometric skipping (Batagelj & Brandes, Phys. Rev. E 71,
036113, 2005), so a graph costs O(n + m) rather than the O(n^2) coin flips of
`critind.graph.gnp`. The benchmark owns this generator so that its inputs stay
fixed whatever the program's own generators do later.
"""

from __future__ import annotations

import math
import random


def sparse_gnp_text(n: int, c: float, seed: int) -> str:
    """G(n, c/(n-1)) as edge_list text; labels v0..v{n-1}, isolated vertices declared."""
    p = c / (n - 1)
    rng = random.Random(seed)
    log_q = math.log(1.0 - p)
    lines: list[str] = []
    touched = bytearray(n)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            lines.append(f"v{v} v{w}")
            touched[v] = touched[w] = 1
    m = len(lines)
    lines.extend(f"v{u}" for u in range(n) if not touched[u])
    return f"{n} {m}\n" + "\n".join(lines) + "\n"
