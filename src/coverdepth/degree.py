"""Cover-ideal combinatorics: independence complexes and qualifying edges.

For a graph G the cover ideal is the intersection of the edge primes
(x_u, x_v); a monomial x^a lies in the n-th symbolic power exactly when
a_u + a_v >= n on every edge.  The degree complex of (n, a) records, for
supports away from the negative part of a, which localizations miss x^a:
its facets are the complements of the "qualifying" edges, those with
exponent sum at most n - 1 inside the subgraph induced away from the
negative support.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .complexes import SimplicialComplex
from .graphs import Graph, GraphError


def _check_alpha(G: Graph, alpha: Sequence[int]) -> tuple[int, ...]:
    a = tuple(int(x) for x in alpha)
    if len(a) != G.vertex_count:
        raise GraphError(f"exponent vector has length {len(a)}, expected {G.vertex_count}")
    return a


def negative_support(alpha: Sequence[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i, x in enumerate(alpha) if x < 0)


def _independence_complex(vertices: tuple[int, ...], edges: Iterable[tuple[int, int]]) -> SimplicialComplex:
    verts = tuple(sorted(vertices))
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for u, v in edges:
        nbr[idx[u]] |= 1 << idx[v]
        nbr[idx[v]] |= 1 << idx[u]
    full = (1 << n) - 1
    facets: list[frozenset[int]] = []

    def rec(i: int, chosen: int, dominated: int) -> None:
        if i == n:
            if chosen | dominated == full:  # maximal: everything else has a chosen neighbor
                facets.append(frozenset(verts[j] for j in range(n) if chosen >> j & 1))
            return
        bit = 1 << i
        if not (nbr[i] & chosen):
            rec(i + 1, chosen | bit, dominated | nbr[i])
        rec(i + 1, chosen, dominated)

    rec(0, 0, 0)
    return SimplicialComplex.make(verts, facets)


def qualifying_edges(G: Graph, n: int, alpha: Sequence[int]) -> list[tuple[int, int]]:
    """Edges avoiding the negative support whose exponent sum is at most n - 1."""
    a = _check_alpha(G, alpha)
    neg = set(negative_support(a))
    return [
        (u, v)
        for u, v in G.edge_list
        if u not in neg and v not in neg and a[u - 1] + a[v - 1] <= n - 1
    ]
