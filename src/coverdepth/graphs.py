"""Simple undirected graphs on vertices 1..r: parsing, generators, predicates.

Conventions used throughout the package:
  * vertices are the contiguous integers 1..r,
  * an edge is a tuple (u, v) with u < v,
  * every graph has at least one edge: the cover ideal, its symbolic powers
    and the ordered matching number nu0 >= 1 all need one, so ``Graph``
    refuses an empty edge set when it is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    """Parse failure; carries the 1-based line number of the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


Edge = tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _add_edge(u: int, v: int, vertex_count: int, seen: set[Edge]) -> None:
    """Add the normalized edge to ``seen`` once it passes the loop, range and
    duplicate checks; the one edge check of ``Graph.make`` and ``parse_graph``."""
    if u == v:
        raise GraphError(f"loop edge ({u},{v})")
    if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
        raise GraphError(f"edge ({u},{v}) out of range 1..{vertex_count}")
    e = _normalize_edge(u, v)
    if e in seen:
        raise GraphError(f"duplicate edge {e}")
    seen.add(e)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with at least one edge. Build through
    :meth:`make` or the helpers below."""

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if not self.edges:
            raise GraphError("a graph needs at least one edge")

    @staticmethod
    def make(vertex_count: int, edges: Iterable[Sequence[int]]) -> "Graph":
        if vertex_count < 1:
            raise GraphError(f"vertex count must be positive, got {vertex_count}")
        seen: set[Edge] = set()
        for raw in edges:
            _add_edge(int(raw[0]), int(raw[1]), vertex_count, seen)
        return Graph(vertex_count, frozenset(seen))

    # -- basic accessors -------------------------------------------------

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def neighbors(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Bitmask adjacency; index v holds the mask of neighbors of v (bit w-1)."""
        masks = [0] * (self.vertex_count + 1)
        for u, v in self.edges:
            masks[u] |= 1 << (v - 1)
            masks[v] |= 1 << (u - 1)
        return tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def to_json(self) -> dict:
        return {"r": self.vertex_count, "edges": [list(e) for e in self.edge_list]}


# -- parsing -------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the line-oriented edge-list format.

    Header ``p <r> <m>`` (m >= 1) followed by m lines ``e <u> <v>``; ``#`` starts a
    comment, blank lines are ignored.  Each malformed construct raises a
    :class:`GraphParseError` naming its line.
    """
    header: Optional[tuple[int, int, int]] = None  # (line_no, r, m)
    seen: set[Edge] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise GraphParseError(line_no, "duplicate header")
            if len(parts) != 3:
                raise GraphParseError(line_no, f"malformed header {line!r}")
            try:
                r, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(line_no, f"malformed header {line!r}") from None
            if r < 1 or m < 0:
                raise GraphParseError(line_no, f"malformed header {line!r}")
            if m == 0:
                raise GraphParseError(line_no, "header announces no edges; a graph needs at least one")
            header = (line_no, r, m)
        elif parts[0] == "e":
            if header is None:
                raise GraphParseError(line_no, "edge before header")
            if len(parts) != 3:
                raise GraphParseError(line_no, f"malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(line_no, f"malformed edge line {line!r}") from None
            try:
                _add_edge(u, v, header[1], seen)
            except GraphError as exc:
                raise GraphParseError(line_no, str(exc)) from None
        else:
            raise GraphParseError(line_no, f"unrecognized line {line!r}")
    if header is None:
        raise GraphParseError(1, "missing header")
    line_no, r, m = header
    if len(seen) != m:
        raise GraphParseError(line_no, f"header announced {m} edges, found {len(seen)}")
    return Graph(r, frozenset(seen))


# -- generators ----------------------------------------------------------

def path_graph(r: int) -> Graph:
    if r < 2:
        raise GraphError(f"a path needs at least 2 vertices, got {r}")
    return Graph.make(r, [(i, i + 1) for i in range(1, r)])


def cycle_graph(r: int) -> Graph:
    if r < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {r}")
    return Graph.make(r, [(i, i + 1) for i in range(1, r)] + [(1, r)])


# -- builtin corpus ------------------------------------------------------

_FIG1_EDGES = [(1, 5), (2, 6), (3, 7), (4, 8), (1, 6), (2, 7), (3, 8), (5, 6)]
_FIG2_EDGES = [(1, 5), (1, 6), (2, 6), (3, 7), (3, 8), (4, 8), (5, 7), (4, 9)]
_FIG3_EDGES = [(1, 5), (2, 6), (3, 7), (4, 8), (1, 7), (2, 7), (3, 8)]

# 10x6 bipartite graph whose depth function depends on the base field; the
# algebraic oracle refuses it at this size, so it ships for combinatorial
# analysis only.
_CHAR16_PAIRS = [
    (1, 1), (2, 1), (3, 1), (7, 1), (9, 1),
    (1, 2), (2, 2), (4, 2), (6, 2), (10, 2),
    (1, 3), (3, 3), (5, 3), (6, 3), (8, 3),
    (2, 4), (4, 4), (5, 4), (7, 4), (8, 4),
    (3, 5), (4, 5), (5, 5), (9, 5), (10, 5),
    (6, 6), (7, 6), (8, 6), (9, 6), (10, 6),
]


def family_graph(s: int) -> Graph:
    """Two overlapping half-blocks joined by a single bridge edge, on 4s vertices."""
    if s < 1:
        raise GraphError(f"family parameter must be >= 1, got {s}")
    edges: set[Edge] = set()
    for i in range(1, s + 1):
        for j in range(i, s + 1):
            edges.add((i, 2 * s + j))
    for p in range(2 * s + 1, 3 * s + 1):
        for q in range(p + 1, 3 * s + 1):
            edges.add((p, q))
    for i in range(s + 1, 2 * s + 1):
        for j in range(i, 2 * s + 1):
            edges.add((i, 2 * s + j))
    for p in range(3 * s + 1, 4 * s + 1):
        for q in range(p + 1, 4 * s + 1):
            edges.add((p, q))
    edges.add((2 * s + 1, 3 * s + 1))
    return Graph.make(4 * s, sorted(edges))


_FAM_RE = re.compile(r"^FAM\((\d+)\)$")


def builtin_graph(name: str) -> Graph:
    """Corpus lookup: FIG1, FIG2, FIG3, FAM(s), CHAR16."""
    key = name.strip().upper()
    if key == "FIG1":
        return Graph.make(8, _FIG1_EDGES)
    if key == "FIG2":
        return Graph.make(9, _FIG2_EDGES)
    if key == "FIG3":
        return Graph.make(8, _FIG3_EDGES)
    if key == "CHAR16":
        return Graph.make(16, [(x, 10 + y) for x, y in _CHAR16_PAIRS])
    m = _FAM_RE.match(key)
    if m:
        return family_graph(int(m.group(1)))
    raise GraphError(f"unknown builtin graph {name!r}")


# -- predicates ----------------------------------------------------------

def is_bipartite(G: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two-coloring if one exists, as a pair of sorted vertex tuples."""
    color: dict[int, int] = {}
    for start in G.vertices():
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in G.neighbors[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    left = tuple(sorted(v for v, c in color.items() if c == 0))
    right = tuple(sorted(v for v, c in color.items() if c == 1))
    return left, right


def connected_components(G: Graph) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in G.vertices():
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in G.neighbors[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def is_forest(G: Graph) -> bool:
    comps = connected_components(G)
    edge_count = len(G.edges)
    return edge_count == G.vertex_count - len(comps)


def has_cycle_of_length(G: Graph, k: int) -> bool:
    """True when some k vertices carry a k-cycle as a subgraph (not necessarily induced)."""
    if k < 3 or k > G.vertex_count:
        return False
    nbrs = G.neighbors

    def extend(path: list[int], visited: set[int]) -> bool:
        if len(path) == k:
            return path[0] in nbrs[path[-1]]
        for w in sorted(nbrs[path[-1]]):
            # canonical start at the cycle's minimum breaks rotations
            if w in visited or w < path[0]:
                continue
            if len(path) == k - 1 and len(path) > 1 and w < path[1]:
                continue  # orientation break: second vertex below last
            path.append(w)
            visited.add(w)
            if extend(path, visited):
                return True
            visited.remove(w)
            path.pop()
        return False

    for start in G.vertices():
        if extend([start], {start}):
            return True
    return False
