"""Immutable simple-graph model, text formats, and deterministic generators.

Vertices are referenced internally by index 0..n-1; every index maps to a
stable string label. All set-valued results are plain frozensets of indices;
use :func:`label_set` to render them as sorted label lists for reports.

Construction appends each edge's endpoints to one list per vertex and then
sorts each list; only a list that holds a repeat (a duplicate edge, or a
self-loop) is deduplicated through a set. The range and self-loop checks look
at the whole graph once, and only when they fail are the edges walked again
in order to name the first bad one. So a graph costs two appends per edge and
a sort and a set per vertex, with no Python-level test per edge.

The edge-list parser reads the text in blocks of about 64 KiB that end at a
newline. A block in the canonical layout that to_edge_list writes (lines
"a b", then lines of one label, each ending in a newline) is recognised from
its whitespace and its token count, split once, and interned by mapping one
dict over its tokens, all at C level; its endpoints join two flat int lists,
with no tuple per edge. Every other block, and a canonical one that holds an error, goes
through the per-line loop, which alone names lines; so the graph and every
error message are those of a per-line parse of the whole text.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Iterable, Sequence

__all__ = [
    "Graph",
    "ParseError",
    "GeneratorSpec",
    "FIXTURE_NAMES",
    "parse_graph",
    "to_edge_list",
    "neighborhood",
    "difference",
    "is_independent",
    "induced_subgraph",
    "label_set",
    "generate",
    "gnp",
    "bipartite_gnp",
    "disjoint_union",
    "fixture",
]


# Largest vertex count a DIMACS problem line may declare. Its vertices cost
# memory whether or not any edge names them, so a short header could
# otherwise ask for unbounded memory. The limit is ten times the largest n the
# polynomial path is measured at; an edgeless graph of that size takes about
# 150 MB and 2 s to parse and analyze.
MAX_DIMACS_VERTICES = 200_000

# The edge-list parser tests text for the canonical layout about this many
# characters at a time.
_BLOCK = 1 << 16
# Every ASCII character str.split() does not split at.
_NOT_SPACE = bytes(c for c in range(128) if not chr(c).isspace())


class ParseError(ValueError):
    """Raised for malformed graph text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _Edges:
    """The edges (us[i], vs[i]) as a re-iterable, with no tuple per edge."""

    __slots__ = ("us", "vs")

    def __init__(self, us: list[int], vs: list[int]):
        self.us, self.vs = us, vs

    def __iter__(self):
        return zip(self.us, self.vs)


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    Immutable after construction; all operations in this package are pure
    functions over Graph values, so instances are safe to share.
    """

    __slots__ = ("labels", "adj", "n", "m", "_index", "__weakref__")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        n = len(labels)
        index = dict(zip(labels, range(n)))
        # All labels at once: joined by single spaces they split back into
        # themselves iff none is empty or holds whitespace. Only a failure
        # walks them in order, to name the first bad one.
        joined = " ".join(labels)
        if len(index) != n or "#" in joined or joined.split() != list(labels):
            seen: set[str] = set()
            for name in labels:
                if name.split() != [name] or "#" in name:  # empty, or holds whitespace
                    raise ValueError(f"invalid vertex label {name!r}")
                if name in seen:
                    raise ValueError(f"duplicate vertex label {name!r}")
                seen.add(name)
        if iter(edges) is edges:
            edges = list(edges)  # walked twice when an edge is bad
        nbrs: list[list[int]] = [[] for _ in range(n)]
        bad = False
        try:
            for u, v in edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
        except IndexError:
            bad = True
        # Whole-graph checks in place of per-edge ones. An endpoint in -n..-1
        # indexes from the end without an IndexError, but leaves a negative
        # entry that sorts first. A self-loop (u, u) puts u in its own list
        # twice, so only a list that holds a repeat can hold one.
        for u, lst in enumerate(nbrs):
            if lst:
                lst.sort()
                if lst[0] < 0:
                    bad = True
                if len(set(lst)) != len(lst):
                    if u in lst:
                        bad = True
                    nbrs[u] = sorted(set(lst))
        if bad:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {labels[u]!r}")
        self.labels = labels
        self.n = n
        self.adj = tuple(map(tuple, nbrs))
        self.m = sum(map(len, self.adj)) // 2
        self._index = index

    @classmethod
    def from_label_edges(cls, labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        """Build a graph from labels plus label-pair edges."""
        labels = tuple(labels)
        index = {name: i for i, name in enumerate(labels)}
        return cls(labels, [(index[a], index[b]) for a, b in edges])

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    def indices(self, names: Iterable[str]) -> frozenset[int]:
        return frozenset(self.index_of(name) for name in names)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def check_vertex_set(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Validate indices against g and return them as a frozenset.

    One range test on min and max; only a failure walks the set, to name
    the first bad index in its iteration order.
    """
    fs = frozenset(s)
    if fs and not (0 <= min(fs) and max(fs) < g.n):
        for v in fs:
            if not (0 <= v < g.n):
                raise IndexError(f"vertex index {v} out of range for n={g.n}")
    return fs


def neighborhood(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """N(S): union of neighbor sets of the members of S. May intersect S."""
    fs = check_vertex_set(g, s)
    out: set[int] = set()
    for v in fs:
        out.update(g.adj[v])
    return frozenset(out)


def difference(g: Graph, s: Iterable[int]) -> int:
    """d(S) = |S| - |N(S)|; can be negative."""
    fs = check_vertex_set(g, s)
    return len(fs) - len(neighborhood(g, fs))


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g joins two members of S."""
    fs = check_vertex_set(g, s)
    return not any(w in fs for v in fs for w in g.adj[v])


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by S, labels preserved.

    Returns (subgraph, back_map); back_map[i] is the g-index of subgraph
    vertex i. Vertices keep ascending-index order.
    """
    fs = check_vertex_set(g, s)
    back = tuple(sorted(fs))
    pos = {v: i for i, v in enumerate(back)}
    edges = [
        (pos[u], pos[v])
        for u in back
        for v in g.adj[u]
        if u < v and v in fs
    ]
    sub = Graph([g.labels[v] for v in back], edges)
    return sub, back


def label_set(g: Graph, s: Iterable[int]) -> list[str]:
    """Canonical rendering of a vertex set: sorted list of labels."""
    fs = check_vertex_set(g, s)
    return sorted(g.labels[v] for v in fs)


# ---------------------------------------------------------------------------
# Parsing and serialization


def parse_graph(text: str, format: str = "edge_list") -> Graph:
    """Parse graph text in 'edge_list' or 'dimacs' format.

    Duplicate edges collapse silently; self-loops and count mismatches are
    hard errors that name the offending line.
    """
    if format == "edge_list":
        return _parse_edge_list(text)
    if format == "dimacs":
        return _parse_dimacs(text)
    raise ValueError(f"unknown graph format {format!r}")


def _parse_edge_list(text: str) -> Graph:
    # Label -> index, handed out in first-appearance order; its keys, in
    # insertion order, are the label list.
    index: defaultdict[str, int] = defaultdict(count().__next__)
    get = index.get
    us: list[int] = []  # edge i joins us[i] and vs[i]
    vs: list[int] = []
    n = m = None  # the header's counts, once read

    def intern(name: str, lineno: int) -> int:
        """Index for a label not seen before, if the header leaves room."""
        if len(index) >= n:
            raise ParseError(f"unknown label {name!r}: header declares only {n} vertices", lineno)
        return index[name]

    def per_line(block: str, lineno: int) -> int:
        """Parse block line by line, numbering its lines after the lineno
        before it; return how many lines it holds."""
        nonlocal n, m
        rows = block.splitlines()
        lines = enumerate(rows, start=lineno + 1)
        comments = "#" in block
        if n is None:
            for lineno, raw in lines:
                tokens = (raw.split("#", 1)[0] if comments else raw).split()
                if not tokens:
                    continue
                if len(tokens) != 2:
                    raise ParseError("expected header 'n m'", lineno)
                try:
                    n, m = int(tokens[0]), int(tokens[1])
                except ValueError:
                    raise ParseError("expected header 'n m'", lineno) from None
                if n < 0 or m < 0:
                    raise ParseError("vertex/edge counts must be non-negative", lineno)
                break
        for lineno, raw in lines:
            tokens = (raw.split("#", 1)[0] if comments else raw).split()
            if len(tokens) == 2:
                a, b = tokens
                u = get(a)
                if u is None:
                    u = intern(a, lineno)
                v = get(b)
                if v is None:
                    v = intern(b, lineno)
                if u == v:
                    raise ParseError(f"self-loop at {a!r}", lineno)
                us.append(u)
                vs.append(v)
            elif len(tokens) == 1:
                if tokens[0] not in index:
                    intern(tokens[0], lineno)
            elif tokens:
                raise ParseError("expected 'u v' (edge) or 'u' (isolated vertex)", lineno)
        return len(rows)

    def canonical(block: str) -> int:
        """Parse a block in the canonical layout at C level and return how
        many lines it holds; return 0, with nothing changed, for any other
        block and for one that per_line would reject."""
        if "#" in block or not block.isascii() or block[-1] != "\n":
            return 0
        # ASCII, so one byte per character. Its whitespace, in order, must be
        # that of k lines "a b" and then lines of one label. Since the block
        # ends in whitespace, it holds as many tokens as whitespace characters
        # iff each of those follows a token: no blank line, and no leading or
        # doubled whitespace.
        seps = block.encode().translate(None, _NOT_SPACE)
        k = seps.count(b" ")
        lines = len(seps) - k
        if seps != b" \n" * k + b"\n" * (lines - k):
            return 0
        tokens = block.split()
        if len(tokens) != len(seps):
            return 0
        before = len(index)
        ids = list(map(index.__getitem__, tokens))
        a, b = ids[0 : 2 * k : 2], ids[1 : 2 * k : 2]
        if len(index) > n or any(map(operator.eq, a, b)):
            # Unintern the block's new labels, so that per_line meets them
            # as new and raises at the line that names the first bad one.
            for name in list(islice(reversed(index), len(index) - before)):
                del index[name]
            index.default_factory = count(before).__next__
            return 0
        us.extend(a)
        vs.extend(b)
        return lines

    # Blocks end at a newline, so they split into the same lines as the
    # whole text. The first block is the first line: the header, in the
    # canonical layout.
    pos = lineno = 0
    while pos < len(text):
        end = text.find("\n", pos and pos + _BLOCK) + 1 or len(text)
        block = text[pos:end]
        lineno += (n is not None and canonical(block)) or per_line(block, lineno)
        pos = end

    if n is None:
        raise ParseError("missing header 'n m'", 1)
    if len(index) != n:
        raise ParseError(f"header declares {n} vertices but {len(index)} were named")
    if len(us) != m:
        raise ParseError(f"header declares {m} edges but {len(us)} edge lines found")
    return Graph(index, _Edges(us, vs))


def _parse_dimacs(text: str) -> Graph:
    n = None
    m_declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("c"):
            continue
        if tokens[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("expected 'p edge n m'", lineno)
            try:
                n, m_declared = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError("expected 'p edge n m'", lineno) from None
            if n < 0 or m_declared < 0:
                raise ParseError("counts must be non-negative", lineno)
            if n > MAX_DIMACS_VERTICES:
                raise ParseError(
                    f"problem line declares {n} vertices; the limit is {MAX_DIMACS_VERTICES}", lineno
                )
        elif tokens[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", lineno)
            if len(tokens) != 3:
                raise ParseError("expected 'e i j'", lineno)
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError("expected 'e i j'", lineno) from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"unknown vertex index in edge ({i}, {j})", lineno)
            if i == j:
                raise ParseError(f"self-loop at vertex {i}", lineno)
            edges.append((i - 1, j - 1))
        else:
            raise ParseError(f"unrecognized line type {tokens[0]!r}", lineno)
    if n is None:
        raise ParseError("missing problem line 'p edge n m'", 1)
    if len(edges) != m_declared:
        raise ParseError(f"problem line declares {m_declared} edges but {len(edges)} found")
    return Graph([str(i) for i in range(1, n + 1)], edges)


def to_edge_list(g: Graph) -> str:
    """Serialize to edge_list text: header, edges, then isolated vertices."""
    lines = [f"{g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"{g.labels[u]} {g.labels[v]}")
    for v in range(g.n):
        if not g.adj[v]:
            lines.append(g.labels[v])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fixtures and generators

# Worked examples transcribed from the figures this package is tested against.
_FIXTURE_EDGES: dict[str, tuple[str, list[str]]] = {
    # 7 vertices, 7 edges; Konig-Egervary.
    "G1": ("abcdefg", ["ae", "be", "ce", "cf", "cg", "dg", "fg"]),
    # 10 vertices, 11 edges; not Konig-Egervary.
    "G2": ("abcdefghij", ["ae", "be", "ce", "cf", "dg", "fg", "eh", "gi", "hi", "hj", "ij"]),
    # 10 vertices, 16 edges; unique maximum critical independent set {a,b,c}.
    "GF": (
        "abcdefghij",
        ["ad", "ae", "bd", "be", "cd", "ce", "df", "ej", "fj", "fg", "fi", "gj", "gi", "gh", "ij", "ih"],
    ),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURE_EDGES))


def fixture(name: str) -> Graph:
    """Named worked-example graph (G1, G2, GF)."""
    try:
        labels, edges = _FIXTURE_EDGES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}") from None
    return Graph.from_label_edges(list(labels), [(e[0], e[1]) for e in edges])


def _check_probability(p: float) -> float:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    return p


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), the one-part disjoint_union; same (n, p, seed), same graph."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    return disjoint_union((n,), p, seed)


def bipartite_gnp(n_left: int, n_right: int, p: float, seed: int) -> Graph:
    """Random bipartite graph: left labels u*, right labels w*."""
    if n_left < 0 or n_right < 0:
        raise ValueError("part sizes must be non-negative")
    _check_probability(p)
    rng = random.Random(seed)
    labels = [f"u{i}" for i in range(n_left)] + [f"w{j}" for j in range(n_right)]
    edges = [
        (i, n_left + j)
        for i in range(n_left)
        for j in range(n_right)
        if rng.random() < p
    ]
    return Graph(labels, edges)


def disjoint_union(parts: Sequence[int], p: float, seed: int) -> Graph:
    """Disjoint union of G(size, p) components drawn from one seeded stream."""
    if any(size < 0 for size in parts):
        raise ValueError("part sizes must be non-negative")
    _check_probability(p)
    rng = random.Random(seed)
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    offset = 0
    for size in parts:
        labels.extend(f"v{offset + i}" for i in range(size))
        edges.extend(
            (offset + i, offset + j)
            for i in range(size)
            for j in range(i + 1, size)
            if rng.random() < p
        )
        offset += size
    return Graph(labels, edges)


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for a graph: same spec and seed, same graph."""

    kind: str  # gnp | bipartite_gnp | disjoint_union
    n: int = 0
    p: float = 0.0
    parts: tuple[int, ...] = field(default=())
    seed: int = 0


def generate(spec: GeneratorSpec) -> Graph:
    """Materialize a GeneratorSpec."""
    if spec.kind == "gnp":
        return gnp(spec.n, spec.p, spec.seed)
    if spec.kind == "bipartite_gnp":
        if len(spec.parts) != 2:
            raise ValueError("bipartite_gnp needs exactly two part sizes")
        return bipartite_gnp(spec.parts[0], spec.parts[1], spec.p, spec.seed)
    if spec.kind == "disjoint_union":
        return disjoint_union(spec.parts, spec.p, spec.seed)
    raise ValueError(f"unknown generator kind {spec.kind!r}")
