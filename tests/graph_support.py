"""Test graphs built from rows, a clique search at any target, and a reader of graph files
that shares no code with ramseycert."""

import re
from pathlib import Path

from ramseycert.coloring import _decide_leaves
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


def adjacent(g, u, v):
    return bool(g.adj[u] >> v & 1)


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
