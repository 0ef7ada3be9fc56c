"""Test graphs built from rows, a clique search at any target, the renumbering of class rows,
induced subgraphs re-indexed, a census by subset enumeration, product leaves re-targeted to
another t, and a reader of graph files that shares no code with ramseycert."""

import re
from operator import itemgetter
from pathlib import Path

from ramseycert.coloring import ColoringSpec, _decide_leaves
from ramseycert.graphs import BitGraph


def graph_from_edges(n, edges):
    """The BitGraph on n vertices with these edges, each setting a bit in both rows."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return BitGraph(adj)


def complete_graph(n):
    full = (1 << n) - 1
    return BitGraph([full ^ 1 << v for v in range(n)])


def find_mono_clique(coloring, t):
    """The first monochromatic t-clique, t any target, or None when every class is free of one."""
    return _decide_leaves(coloring, t)[-1].witness


def uniform_at(leaves, t):
    """The leaves with each uniform one written at t, as a product decided at t must hold them."""
    return tuple(ColoringSpec(**{**vars(f), "t": t}) if f.kind == "erdos" else f for f in leaves)


def pair_loop_classes(coloring, colors):
    """The rows of the classes `colors`, numbered upward, from one color_of call per pair.

    The reference for color_class_graphs, which numbers the same rows from the top.
    """
    rows = {c: [0] * coloring.N for c in colors}
    for x in range(coloring.N):
        for y in range(x + 1, coloring.N):
            row = rows.get(coloring.color_of(x, y))
            if row is not None:
                row[x] |= 1 << y
                row[y] |= 1 << x
    return rows


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def from_top(rows):
    """The rows renumbered v -> n-1-v, n = len(rows): the list reversed, and each row's n bits.

    Class rows numbered from the top, as color_class_graphs and coin_rows give them, become
    the rows numbered upward, as the color_of pair loop gives them; and the other way round.
    A row's bytes, little-endian, each bit-reversed and read big-endian, hold bit v at
    8 * size - 1 - v; the shift by the padding puts it at n-1-v.
    """
    n = len(rows)
    size = (n + 7) // 8
    pad = 8 * size - n
    return [
        int.from_bytes(row.to_bytes(size, "little").translate(_REVERSED_BYTE), "big") >> pad
        for row in reversed(rows)
    ]


def bits_to_list(mask):
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def induced_rows(g, vertices):
    """The rows of g restricted to the ascending `vertices`, re-indexed 0, 1, ...

    The oracle of the clique search from a candidate mask, which searches the same
    subgraph without re-indexing it.
    """
    if not vertices:
        return []
    width = f"0{g.n}b"
    # bit v of a row is character n-1-v of its binary string; picked
    # highest vertex first, those characters spell the re-indexed row
    pick = itemgetter(*[g.n - 1 - v for v in reversed(vertices)])
    return [int("".join(pick(format(g.adj[v], width))), 2) for v in vertices]


def adjacent(g, u, v):
    return bool(g.adj[u] >> v & 1)


def enumerated_census(g, cap):
    """Counts of independent sets by size up to cap, by enumerating every subset.

    Independent of the search kernel: a subset is independent when no row
    of its vertices meets it.
    """
    counts = [0] * (cap + 1)
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= cap and all(not g.adj[v] & mask for v in range(g.n) if mask >> v & 1):
            counts[size] += 1
    return counts


def graph_edges(g):
    """The edges (i, j) of g with i < j, in ascending order."""
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.adj[i] >> j & 1]


def parse_graph_file(path):
    """(t, n, m, edges) of a graph file, read line by line; fails on any other layout."""
    header, *lines = Path(path).read_bytes().decode("ascii").split("\n")
    assert lines.pop() == ""  # the last line ends in a newline too
    t, n, m = map(int, re.fullmatch(r"g0 t=(\d+) n=(\d+) m=(\d+)", header).groups())
    edges = [tuple(map(int, re.fullmatch(r"(\d+) (\d+)", line).groups())) for line in lines]
    return t, n, m, edges
