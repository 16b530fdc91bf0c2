import functools
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critind import (
    GeneratorSpec,
    Graph,
    ParseError,
    bipartite_gnp,
    difference,
    disjoint_union,
    fixture,
    generate,
    gnp,
    induced_subgraph,
    is_independent,
    label_set,
    neighborhood,
    parse_graph,
    to_edge_list,
)
from critind.graph import _BLOCK, MAX_DIMACS_VERTICES
from strategies import dimacs_text, graphs, sparse_graph

G1_TEXT = "7 7\na e\nb e\nc e\nc f\nc g\nd g\nf g"


def per_edge_reference(labels, edges):
    """The Graph constructor as a per-edge loop into one set per vertex,
    checking each edge as it goes. Returns labels, adj and m only."""
    labels = tuple(labels)
    n = len(labels)
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {labels[u]!r}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    return SimpleNamespace(labels=labels, adj=adj, m=sum(len(s) for s in nbrs) // 2)


def per_line_reference(text, format):
    """Both parsers as a per-line loop that strips every line and interns
    every label through one closure; the graph comes from per_edge_reference."""
    return _reference_edge_list(text) if format == "edge_list" else _reference_dimacs(text)


def _reference_edge_list(text):
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    header: tuple[int, int] | None = None
    edge_lines = 0

    def intern(name: str, lineno: int) -> int:
        if name in index:
            return index[name]
        if header is not None and len(labels) >= header[0]:
            raise ParseError(
                f"unknown label {name!r}: header declares only {header[0]} vertices",
                lineno,
            )
        index[name] = len(labels)
        labels.append(name)
        return index[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ParseError("expected header 'n m'", lineno)
            try:
                n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError("expected header 'n m'", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("vertex/edge counts must be non-negative", lineno)
            header = (n, m)
            continue
        if len(tokens) == 1:
            intern(tokens[0], lineno)
        elif len(tokens) == 2:
            u = intern(tokens[0], lineno)
            v = intern(tokens[1], lineno)
            if u == v:
                raise ParseError(f"self-loop at {tokens[0]!r}", lineno)
            edges.append((u, v))
            edge_lines += 1
        else:
            raise ParseError("expected 'u v' (edge) or 'u' (isolated vertex)", lineno)

    if header is None:
        raise ParseError("missing header 'n m'", 1)
    n, m = header
    if len(labels) != n:
        raise ParseError(f"header declares {n} vertices but {len(labels)} were named")
    if edge_lines != m:
        raise ParseError(f"header declares {m} edges but {edge_lines} edge lines found")
    return per_edge_reference(labels, edges)


def _reference_dimacs(text):
    n = None
    m_declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
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
    return per_edge_reference([str(i) for i in range(1, n + 1)], edges)


def _outcome(build):
    """(labels, adj, m) of the graph build() returns, or what it raises."""
    try:
        g = build()
    except ValueError as exc:  # ParseError is a ValueError
        return type(exc).__name__, str(exc)
    return g.labels, g.adj, g.m


# Pieces that move a text between the parsers' cases: comment marks, every
# line break splitlines() knows that str.split() also treats as whitespace,
# a 3-token line, signed and unsigned counts, and DIMACS keywords.
_PIECES = ["a", "b", "c", "1", "2", "0", "-1", "#", "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85",
           " ", "\t", "x y z", "p", "e", "edge", "p edge 2 1", "e 1 2"]


@st.composite
def _piece_text(draw):
    """Random text over _PIECES, sometimes after an edge-list or DIMACS header."""
    body = "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=30)))
    header = draw(st.sampled_from(["", "edge_list", "dimacs"]))
    n, m = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    return {"": "", "edge_list": f"{n} {m}\n", "dimacs": f"p edge {n} {m}\n"}[header] + body


@st.composite
def _mutated_text(draw):
    """Edge-list or DIMACS text of a graph with n <= 8, then up to three
    character replacements, insertions or deletions."""
    g = draw(graphs(max_n=8))
    text = list(to_edge_list(g) if draw(st.booleans()) else dimacs_text(g))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert":
            text.insert(i, draw(st.sampled_from(_PIECES)))
        elif i < len(text):
            if op == "replace":
                text[i] = draw(st.sampled_from(_PIECES))
            else:
                del text[i]
    return "".join(text)


@settings(max_examples=1000, deadline=None)
@given(_piece_text() | _mutated_text())
@example("2 1\na b\na b c\nb b")  # token count before self-loop
@example("1 1\na\nb b")  # a self-loop on a label past the header's count: the count wins
@example("2 1\na b\nc c")
@example("2 2\na b\nb a")  # a reversed duplicate edge
@example("2 2 # two\n# note\na b#x\n\x0bb   a\n")
@example("")  # no header
@example("# only a comment\n\n")
@example("-1 0")
@example("p edge -1 0")
@example("c comment\np edge 3 2\ne 1 2\ne 2 1\n")
@example("p edge 2 1\ne 1 1")
@example("p edge 2 1\n  c an indented comment\ne 1 2")
@example("\t# an indented comment\n1 0\n  a #")
@example("p edge 2 1\np edge 2 1")
def test_parsers_match_per_line_reference(text):
    for format in ("edge_list", "dimacs"):
        expected = _outcome(lambda: per_line_reference(text, format))
        assert _outcome(lambda: parse_graph(text, format)) == expected


def test_parse_peak_memory():
    # About 50k edge lines. The block parse peaks near 2.7 MiB, the line
    # loop it replaced near 6.3 MiB. One set per vertex peaked at 12 MiB, and
    # the token lists of every line, held at once, take 16 MiB by themselves.
    text = to_edge_list(gnp(1000, 0.1, seed=7))
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m > 45_000
    assert peak < 8 * 2**20


@functools.cache
def _multi_block_text():
    """to_edge_list text of a sparse graph with isolated vertices, a little
    over four parse blocks long."""
    text = to_edge_list(sparse_graph(20000, 2, 3))
    assert len(text) > 4 * _BLOCK
    return text


def _line_in_block(text, blocks):
    """Start of the first line at least `blocks` parse blocks into text."""
    return text.index("\n", int(blocks * _BLOCK)) + 1


def _edge_line(text, at):
    return text[at : text.index("\n", at)].split(" ")


def _replace_line(text, at, line):
    return text[:at] + line + text[text.index("\n", at) :]


def _with_header(text, n, m):
    return f"{n} {m}" + text[text.index("\n") :]


def _self_loop(text, at):
    a, _ = _edge_line(text, at)
    return _replace_line(text, at, f"{a} {a}")


def _label_past_count(text, at):
    # The header declares only the labels named before this line, which
    # names a new one.
    a, _ = _edge_line(text, at)
    named = len(set(text[text.index("\n") : at].split()))
    m = text[: text.index("\n")].split()[1]
    return _with_header(_replace_line(text, at, f"{a} fresh"), named, m)


def _three_tokens(text, at):
    a, b = _edge_line(text, at)
    return _replace_line(text, at, f"{a} {b} {a}")


def _tab(text, at):
    a, b = _edge_line(text, at)
    return _replace_line(text, at, f"{a}\t{b}")


def _crlf_from(text, at):
    return text[:at] + text[at:].replace("\n", "\r\n")


def _comment(text, at):
    # No space before the '#': were comments not cut, this line would read
    # as an edge to the label 'b#note'.
    a, b = _edge_line(text, at)
    return _replace_line(text, at, f"{a} {b}#note")


def _isolated_among_edges(text, at):
    a, _ = _edge_line(text, at)
    return text[:at] + f"{a}\n" + text[at:]


def _reversed_duplicate(text, at):
    a, b = _edge_line(text, at)
    n, m = text[: text.index("\n")].split()
    return _with_header(text[:at] + f"{b} {a}\n" + text[at:], n, int(m) + 1)


@pytest.mark.parametrize(
    "defect",
    [_self_loop, _label_past_count, _three_tokens, _tab, _crlf_from, _comment,
     _isolated_among_edges, _reversed_duplicate],
)
def test_multi_block_text_matches_per_line_reference(defect):
    # One defect in the third of the five blocks after the header line; the
    # blocks before and after it are in the canonical layout.
    text = _multi_block_text()
    text = defect(text, _line_in_block(text, 2.5))
    expected = _outcome(lambda: per_line_reference(text, "edge_list"))
    assert _outcome(lambda: parse_graph(text)) == expected


@pytest.mark.parametrize("later", [_three_tokens, _tab, _comment])
@pytest.mark.parametrize("first", [_self_loop, _label_past_count])
def test_block_fault_before_a_per_line_block_matches_per_line_reference(first, later):
    # The first defect, in a canonical block about 1.5 blocks in, is one the
    # block path does not test for; the later one, about 3.5 blocks in, sends
    # its block through the per-line loop, which may raise there first. The
    # error must still be the first one a per-line parse meets.
    text = _multi_block_text()
    text = later(text, _line_in_block(text, 3.5))
    at = _line_in_block(text, 1.5)
    text = first(text, at)
    lineno = text.count("\n", 0, at) + 1
    expected = _outcome(lambda: per_line_reference(text, "edge_list"))
    assert expected[1].startswith(f"line {lineno}: ")
    assert _outcome(lambda: parse_graph(text)) == expected


def test_multi_block_isolated_lines_interleaved_and_trailing():
    text = _multi_block_text()
    header, body = text.split("\n", 1)
    lines = body.splitlines(keepends=True)
    isolated = [i for i, line in enumerate(lines) if " " not in line]
    assert len(isolated) > 100
    # Every second isolated line moves to an evenly spaced place among the
    # edge lines; the rest trail.
    moved = isolated[::2]
    moved_set = set(moved)
    kept = [line for i, line in enumerate(lines) if i not in moved_set]
    step = isolated[0] // len(moved)
    for j, i in enumerate(moved):
        kept.insert(j * (step + 1), lines[i])
    text = header + "\n" + "".join(kept)
    expected = _outcome(lambda: per_line_reference(text, "edge_list"))
    assert _outcome(lambda: parse_graph(text)) == expected
    assert len(expected[0]) == 20000


@pytest.mark.parametrize(
    "text",
    [
        "1 0\n#0\n",  # a comment that would pass for a label
        "2 1\na b#c\n",
        "3 1\na b\nc\n",
        "3 1\nc\na b\n",  # an isolated vertex before an edge
        "2 1\na b",  # no final newline
        "2 0\na \nb",  # no final newline, and its whitespace is that of 'a b\n'
        "3 1\na b\n c\n",  # as many whitespace characters as 'a b\nc d\n'
        "2 1\na b\n\n",
        "2 1\n a b\n",
        "2 1\na  b\n",
        "2 1\na b \n",
        "2 1\na\x1cb\n",
        "2 1\na\u3000b\n",
        "3 1\na b\u2028c\n",
        "3 1\nb a\n\u00e9\n",  # a non-ASCII label
        "2 1\na a\n",
        "1 1\na b\n",
    ],
)
def test_second_block_matches_per_line_reference(text):
    # After the header line, the rest of a short text is one block.
    expected = _outcome(lambda: per_line_reference(text, "edge_list"))
    assert _outcome(lambda: parse_graph(text)) == expected


def assert_canonical_layout(g, text):
    """text is the header, one line 'a b' per edge in g.edges() order, then
    one line per isolated vertex, each line ending in a newline."""
    lines = text.split("\n")
    assert lines.pop() == ""
    assert lines[0] == f"{g.n} {g.m}"
    edge_lines, isolated = lines[1 : g.m + 1], lines[g.m + 1 :]
    assert [line.split(" ") for line in edge_lines] == [[g.labels[u], g.labels[v]] for u, v in g.edges()]
    assert isolated == [g.labels[v] for v in range(g.n) if not g.adj[v]]


@settings(max_examples=200)
@given(graphs())
def test_writer_emits_the_canonical_layout(g):
    assert_canonical_layout(g, to_edge_list(g))


def test_writer_emits_the_canonical_layout_at_scale():
    assert_canonical_layout(sparse_graph(20000, 2, 3), _multi_block_text())


class TestParseEdgeList:
    def test_g1_from_text(self):
        g = parse_graph(G1_TEXT)
        assert g.n == 7
        assert g.m == 7
        # Labels appear in first-appearance order.
        assert g.labels == ("a", "e", "b", "c", "f", "g", "d")

    def test_isolated_vertex_declaration(self):
        g = parse_graph("1 0\nz")
        assert g.n == 1
        assert g.m == 0
        assert g.labels == ("z",)

    def test_duplicate_edge_collapses(self):
        g = parse_graph("2 2\na b\nb a")
        assert g.n == 2
        assert g.m == 1

    def test_empty_graph(self):
        g = parse_graph("0 0")
        assert g.n == 0
        assert g.m == 0

    def test_comments_and_blank_lines(self):
        g = parse_graph("# hi\n\n2 1  # counts\na b # edge\n")
        assert (g.n, g.m) == (2, 1)

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_graph("nope")
        with pytest.raises(ParseError):
            parse_graph("2")
        with pytest.raises(ParseError):
            parse_graph("-1 0")

    def test_self_loop_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("2 2\na b\na a")

    def test_label_beyond_declared_count(self):
        with pytest.raises(ParseError, match="unknown label"):
            parse_graph("2 2\na b\na c")

    def test_vertex_count_mismatch(self):
        with pytest.raises(ParseError, match="vertices"):
            parse_graph("3 1\na b")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="edges"):
            parse_graph("2 2\na b")

    def test_too_many_tokens(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("3 1\na b c")


class TestParseDimacs:
    def test_basic(self):
        g = parse_graph("c comment\np edge 3 2\ne 1 2\ne 2 3", format="dimacs")
        assert g.labels == ("1", "2", "3")
        assert g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("p edge 2 1\ne 1 3", format="dimacs")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("p edge 2 1\ne 2 2", format="dimacs")

    def test_edge_before_header(self):
        with pytest.raises(ParseError):
            parse_graph("e 1 2\np edge 2 1", format="dimacs")

    def test_unknown_line(self):
        with pytest.raises(ParseError):
            parse_graph("p edge 2 1\nq 1 2", format="dimacs")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_graph("0 0", format="csv")


@st.composite
def _sized_edge_lists(draw):
    """n <= 6 with up to 12 edges that may repeat, loop, or leave 0..n-1."""
    n = draw(st.integers(0, 6))
    end = st.integers(0, max(n - 1, 0)) | st.integers(-n - 2, n + 1)
    return n, draw(st.lists(st.tuples(end, end), max_size=12))


class TestGraphConstruction:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Graph(["a", "a"], [])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Graph(["a b"], [])
        with pytest.raises(ValueError):
            Graph([""], [])

    @pytest.mark.parametrize(
        ("labels", "kind", "bad"),
        [
            (["a", "", "b"], "invalid", ""),
            (["a", "b\tc"], "invalid", "b\tc"),
            (["a", "x\u3000y"], "invalid", "x\u3000y"),
            (["#", "a"], "invalid", "#"),
            (["a", "b#c"], "invalid", "b#c"),
            (["a", "b", "a"], "duplicate", "a"),
            # The first bad label in order is the one named.
            (["a", "a", "b c"], "duplicate", "a"),
            (["b c", "a", "a"], "invalid", "b c"),
        ],
    )
    def test_bad_label_messages(self, labels, kind, bad):
        with pytest.raises(ValueError) as info:
            Graph(labels, [])
        assert str(info.value) == f"{kind} vertex label {bad!r}"

    @settings(max_examples=300)
    @given(
        st.text()
        | st.text(st.sampled_from([chr(c) for c in range(0x3001) if chr(c).isspace()] + ["a", "#"]))
    )
    def test_label_check_matches_per_character_whitespace_test(self, name):
        # The reference is the per-character test the constructor once ran.
        bad = not name or any(ch.isspace() for ch in name) or "#" in name
        try:
            Graph([name], [])
        except ValueError:
            assert bad
        else:
            assert not bad

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(["a", "b"], [(0, 0)])

    def test_adjacency_symmetric_and_deduplicated(self):
        g = Graph(["a", "b"], [(0, 1), (1, 0)])
        assert g.m == 1
        assert g.adj[0] == (1,) and g.adj[1] == (0,)

    @pytest.mark.parametrize("edges", [[(-1, 0)], [(0, -1)], [(0, 2)], [(2, 0)], [(0, 1), (-2, 1)]])
    def test_rejects_out_of_range_endpoint(self, edges):
        # A negative index must not wrap around to the last vertices.
        with pytest.raises(ValueError, match="out of range"):
            Graph(["a", "b"], edges)

    def test_self_loop_names_the_vertex(self):
        with pytest.raises(ValueError, match="self-loop at vertex 'b'"):
            Graph(["a", "b"], [(1, 1)])

    def test_reports_the_first_bad_edge(self):
        with pytest.raises(ValueError, match=r"self-loop at vertex 'a'"):
            Graph(["a", "b"], [(0, 1), (0, 0), (5, 1), (-1, 0)])
        with pytest.raises(ValueError, match=r"edge \(-1, 0\) out of range for n=2"):
            Graph(["a", "b"], [(0, 1), (-1, 0), (1, 1), (0, 7)])

    def test_edges_from_a_generator(self):
        edges = [(0, 3), (2, 1), (3, 2), (1, 3)]
        from_gen = Graph("abcd", (e for e in edges))
        from_list = Graph("abcd", edges)
        assert (from_gen.adj, from_gen.m) == (from_list.adj, from_list.m)
        with pytest.raises(ValueError, match="self-loop at vertex 'c'"):
            Graph("abcd", (e for e in edges + [(2, 2)]))

    def test_repeated_edges_count_once(self):
        g = Graph(["a", "b"], [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.adj == ((1,), (0,))

    @settings(max_examples=300)
    @given(_sized_edge_lists(), st.booleans())
    def test_matches_per_edge_reference(self, case, one_shot):
        n, edges = case
        labels = [f"v{i}" for i in range(n)]
        expected = _outcome(lambda: per_edge_reference(labels, edges))
        assert _outcome(lambda: Graph(labels, iter(edges) if one_shot else edges)) == expected


class TestSetPrimitives:
    def test_neighborhood_g1(self, g1):
        assert neighborhood(g1, g1.indices("ab")) == g1.indices("e")

    def test_neighborhood_empty(self, g1):
        assert neighborhood(g1, []) == frozenset()

    def test_neighborhood_gf(self, gf):
        assert neighborhood(gf, gf.indices("abc")) == gf.indices("de")

    def test_neighborhood_out_of_range(self, g1):
        with pytest.raises(IndexError):
            neighborhood(g1, [99])

    @pytest.mark.parametrize("bad", [[0, -1, 3], [7, 2], [1, 120, 5], [-3, 2, 9], [8, -2, -9, 40]])
    def test_out_of_range_message(self, g1, bad):
        # g1 has n = 7. The error names the first bad index in the set's
        # own iteration order, whether it is negative or too large.
        first = next(v for v in frozenset(bad) if not 0 <= v < 7)
        message = rf"^vertex index {first} out of range for n=7$"
        for fn in (neighborhood, difference, is_independent, label_set, induced_subgraph):
            with pytest.raises(IndexError, match=message):
                fn(g1, bad)

    def test_difference(self, gf, g2):
        assert difference(gf, gf.indices("abc")) == 1
        assert difference(gf, []) == 0
        assert difference(g2, g2.indices("abcd")) == 1

    def test_difference_negative(self, k3):
        assert difference(k3, [0]) == -1

    def test_is_independent(self, g1):
        assert is_independent(g1, g1.indices("abdf"))
        assert not is_independent(g1, g1.indices("fg"))
        assert is_independent(g1, [])

    def test_induced_gf_xc(self, gf):
        sub, back = induced_subgraph(gf, gf.indices("fghij"))
        assert sub.n == 5
        assert sub.m == 8
        assert [gf.labels[v] for v in back] == sorted("fghij")

    def test_induced_full_is_identity(self, g1):
        sub, back = induced_subgraph(g1, range(g1.n))
        assert sub.n == g1.n and sub.m == g1.m
        assert back == tuple(range(g1.n))

    def test_induced_empty_is_k0(self, g1):
        sub, _ = induced_subgraph(g1, [])
        assert sub.n == 0 and sub.m == 0

    def test_label_set_sorted(self, g1):
        assert label_set(g1, g1.indices("gcb")) == ["b", "c", "g"]


@settings(max_examples=60)
@given(graphs(max_n=14))
def test_induced_subgraph_exhaustive_pair_scan(g):
    keep = frozenset(v for v in range(g.n) if v % 2 == 0)
    sub, back = induced_subgraph(g, keep)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(back[i], back[j])


@settings(max_examples=60)
@given(graphs(max_n=12))
def test_difference_matches_definition(g):
    rng = random.Random(g.n * 31 + g.m)
    s = frozenset(v for v in range(g.n) if rng.random() < 0.5)
    assert difference(g, s) == len(s) - len(neighborhood(g, s))


@settings(max_examples=60)
@given(graphs(max_n=12))
def test_edge_list_round_trip(g):
    back = parse_graph(to_edge_list(g))
    assert set(back.labels) == set(g.labels)
    original = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
    reparsed = {frozenset((back.labels[u], back.labels[v])) for u, v in back.edges()}
    assert original == reparsed


class TestGenerators:
    def test_fixture_g2(self):
        g = fixture("G2")
        assert g.n == 10 and g.m == 11

    def test_fixture_unknown(self):
        with pytest.raises(ValueError):
            fixture("G9")

    def test_gnp_zero_probability(self):
        g = gnp(5, 0.0, seed=1)
        assert g.n == 5 and g.m == 0

    def test_gnp_full_probability(self):
        g = gnp(5, 1.0, seed=1)
        assert g.m == 10

    def test_gnp_deterministic(self):
        a = gnp(20, 0.3, seed=7)
        b = gnp(20, 0.3, seed=7)
        assert a.edges() == b.edges()

    def test_gnp_seed_changes_graph(self):
        a = gnp(20, 0.5, seed=1)
        b = gnp(20, 0.5, seed=2)
        assert a.edges() != b.edges()

    def test_gnp_invalid_probability(self):
        with pytest.raises(ValueError):
            gnp(5, 1.5, seed=1)
        with pytest.raises(ValueError):
            gnp(-1, 0.5, seed=1)

    @pytest.mark.parametrize(
        "n, p, seed", [(0, 0.5, 1), (1, 0.5, 2), (9, 0.3, 7), (12, 0.8, 2**62 + 5)]
    )
    def test_gnp_is_one_part_disjoint_union(self, n, p, seed):
        # The verify corpus draws its G(n, p) graphs here: pin the stream to
        # one rng.random() per pair i < j, in row order.
        rng = random.Random(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        reference = Graph([f"v{i}" for i in range(n)], edges)
        g, u = gnp(n, p, seed), disjoint_union((n,), p, seed)
        assert g.labels == u.labels == reference.labels
        assert g.adj == u.adj == reference.adj

    def test_gnp_negative_vertex_count_message(self):
        with pytest.raises(ValueError, match="vertex count must be non-negative, got -3"):
            gnp(-3, 0.5, seed=1)

    def test_bipartite_complete(self):
        g = bipartite_gnp(3, 3, 1.0, seed=1)
        assert g.n == 6 and g.m == 9

    def test_disjoint_union_sizes(self):
        g = disjoint_union([3, 4], 1.0, seed=1)
        assert g.n == 7
        assert g.m == 3 + 6  # two cliques

    def test_generate_spec_determinism(self):
        spec = GeneratorSpec("disjoint_union", parts=(4, 5), p=0.4, seed=11)
        assert generate(spec).edges() == generate(spec).edges()

    def test_generate_bad_kind(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("ladder", n=3))
