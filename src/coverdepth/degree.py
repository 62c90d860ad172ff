"""Cover-ideal combinatorics: the independence complex of a qualifying graph.

For a graph G the cover ideal is the intersection of the edge primes
(x_u, x_v); a monomial x^a lies in the n-th symbolic power exactly when
a_u + a_v >= n on every edge.  The degree complex of (n, a) records, for
supports away from the negative part of a, which localizations miss x^a:
its facets are the complements of the "qualifying" edges, those with
exponent sum at most n - 1 inside the subgraph induced away from the
negative support.
"""

from __future__ import annotations

from typing import Iterable


def _independence_complex(nbrs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Ind of the graph given as (vertex, neighbour mask) pairs, bit v - 1
    for vertex v, in the face format of ``complexes``; a vertex with mask 0
    is a cone point.  Each independent set is extended only by a vertex
    above its largest one and outside its closed neighbourhood, so every set
    is listed once, each degree in lexicographic order."""
    nbr = {1 << (v - 1): mask for v, mask in nbrs}  # vertex bit -> neighbour mask
    level = [(0, sum(nbr))]  # (independent set, the vertices that may extend it)
    faces = []
    while level:
        faces.append([face for face, _ in level])
        grown = []
        for face, free in level:
            while free:
                low = free & -free
                free ^= low
                grown.append((face | low, free & ~nbr[low]))
        level = grown
    return faces
