"""Matching invariants: plain, induced and ordered matching numbers.

An ordered matching is an indexed list of oriented pairs (u_i, v_i) whose
free side {u_1..u_s} is independent and whose cross edges {u_i, v_j} only
run forward (i <= j).  Orientation + pair set determine the object; a
canonical (lexicographically smallest) valid index order is stored.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

from .graphs import Graph, _normalize_edge

Edge = tuple[int, int]
Pair = tuple[int, int]  # oriented: (free, partner)


@dataclass(frozen=True)
class OrderedMatching:
    """Oriented pairs in a valid index order."""

    pairs: tuple[Pair, ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def partner_side(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.pairs)

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(_normalize_edge(u, v) for u, v in self.pairs)

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(v for p in self.pairs for v in p)


# -- enumeration of plain matchings ---------------------------------------

def _lowest_active(G: Graph, avail: int) -> int:
    """Lowest available vertex with an available neighbor; 0 if none."""
    masks = G.neighbor_masks
    m = avail
    while m:
        bit = m & -m
        v = bit.bit_length()
        if masks[v] & avail:
            return v
        m ^= bit
    return 0


@lru_cache(maxsize=64)
def _matching_number_on(G: Graph, induced: bool = False) -> Callable[[int], int]:
    """Matching number of the subgraph on an available-vertex mask, or its
    induced matching number, where taking an edge (v, w) also evicts
    N(v) and N(w); the per-mask memo lives with the graph, so it goes when
    the graph does."""
    masks = G.neighbor_masks

    @lru_cache(maxsize=None)
    def best(avail: int) -> int:
        v = _lowest_active(G, avail)
        if v == 0:
            return 0
        vbit = 1 << (v - 1)
        out = best(avail ^ vbit)  # leave v unmatched
        nbrs = masks[v] & avail
        while nbrs:
            wbit = nbrs & -nbrs
            nbrs ^= wbit
            evict = vbit | wbit
            if induced:
                evict |= masks[v] | masks[wbit.bit_length()]
            out = max(out, 1 + best(avail & ~evict))
        return out

    return best


def matching_number(G: Graph) -> int:
    return _matching_number_on(G)((1 << G.vertex_count) - 1)


def iter_matchings(G: Graph, size: int) -> Iterator[frozenset[Edge]]:
    """All matchings with exactly ``size`` edges, each yielded once."""
    if size == 0:
        yield frozenset()
        return
    full = (1 << G.vertex_count) - 1
    matching_number_on = _matching_number_on(G)

    def rec(avail: int, chosen: list[Edge]) -> Iterator[frozenset[Edge]]:
        need = size - len(chosen)
        if need == 0:
            yield frozenset(chosen)
            return
        if matching_number_on(avail) < need:
            return
        v = _lowest_active(G, avail)
        vbit = 1 << (v - 1)
        nbrs = G.neighbor_masks[v] & avail
        while nbrs:
            wbit = nbrs & -nbrs
            nbrs ^= wbit
            w = wbit.bit_length()
            chosen.append(_normalize_edge(v, w))
            yield from rec(avail ^ vbit ^ wbit, chosen)
            chosen.pop()
        yield from rec(avail ^ vbit, chosen)  # leave v unmatched

    yield from rec(full, [])


def perfect_matchings(G: Graph) -> list[frozenset[Edge]]:
    if G.vertex_count % 2:
        return []
    return sorted(iter_matchings(G, G.vertex_count // 2), key=sorted)


def induced_matching_number(G: Graph) -> int:
    return _matching_number_on(G, induced=True)((1 << G.vertex_count) - 1)


# -- ordered matchings -----------------------------------------------------

def ordered_matching_violation(G: Graph, pairs: Sequence[Sequence[int]]) -> Optional[str]:
    """None when ``pairs`` is a valid ordered matching, else the violated clause."""
    ps: list[Pair] = [(int(p[0]), int(p[1])) for p in pairs]
    seen: set[int] = set()
    for u, v in ps:
        if not G.has_edge(u, v):
            return f"pair ({u},{v}) is not an edge"
        if u in seen or v in seen or u == v:
            return f"pair ({u},{v}) reuses a covered vertex"
        seen.update((u, v))
    free = [u for u, _ in ps]
    for i in range(len(free)):
        for j in range(i + 1, len(free)):
            if G.has_edge(free[i], free[j]):
                return f"free side not independent: edge ({free[i]},{free[j]})"
    partners = [v for _, v in ps]
    for i, u in enumerate(free):
        for j, v in enumerate(partners):
            if i > j and G.has_edge(u, v):
                return f"index condition fails on edge ({u},{v}): pair {i + 1} > {j + 1}"
    return None


def is_ordered_matching(G: Graph, pairs: Sequence[Sequence[int]]) -> bool:
    return ordered_matching_violation(G, pairs) is None


def _canonical_order(G: Graph, oriented: tuple[Pair, ...]) -> Optional[tuple[Pair, ...]]:
    """Lexicographically smallest topological order of the pair digraph, or None."""
    n = len(oriented)
    succ: list[set[int]] = [set() for _ in range(n)]
    indeg = [0] * n
    for a, (u, _) in enumerate(oriented):
        for b, (_, w) in enumerate(oriented):
            if a != b and G.has_edge(u, w):
                if b not in succ[a]:
                    succ[a].add(b)
                    indeg[b] += 1
    heap = [(oriented[i], i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[Pair] = []
    while heap:
        pair, i = heapq.heappop(heap)
        out.append(pair)
        for b in succ[i]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (oriented[b], b))
    if len(out) != n:
        return None
    return tuple(out)


def _ordered_matchings_of_pair_set(G: Graph, edges: frozenset[Edge]) -> tuple[OrderedMatching, ...]:
    """All valid orientations of one matching, each with its canonical order."""
    edge_list = sorted(edges)
    masks = G.neighbor_masks
    found: list[OrderedMatching] = []

    def rec(idx: int, free_mask: int, oriented: list[Pair]) -> None:
        if idx == len(edge_list):
            order = _canonical_order(G, tuple(sorted(oriented)))
            if order is not None:
                found.append(OrderedMatching(order))
            return
        u, v = edge_list[idx]
        for f, p in ((u, v), (v, u)):
            fbit = 1 << (f - 1)
            if masks[f] & free_mask:
                continue  # f adjacent to an already chosen free vertex
            oriented.append((f, p))
            rec(idx + 1, free_mask | fbit, oriented)
            oriented.pop()

    rec(0, 0, [])
    return tuple(sorted(found, key=lambda om: om.pairs))


# The analyzer, the path bound, the certificate, the oracle and the stability
# policy all read the maximum ordered matchings of the same graph; one
# bounded memo enumerates them once per graph for all of them.
@lru_cache(maxsize=64)
def _max_ordered(G: Graph) -> tuple[tuple[frozenset[Edge], tuple[OrderedMatching, ...]], ...]:
    """Every maximum pair set that has a valid orientation, in ``sorted``
    order, each with its valid orientations.  The scan always returns by
    size 1, since a lone edge is an ordered matching."""
    for s in range(matching_number(G), 0, -1):
        found = []
        for m in iter_matchings(G, s):
            oms = _ordered_matchings_of_pair_set(G, m)
            if oms:
                found.append((m, oms))
        if found:
            return tuple(sorted(found, key=lambda item: sorted(item[0])))


def ordered_matching_number(G: Graph) -> int:
    return len(_max_ordered(G)[0][0])


def enumerate_max_ordered_matchings(G: Graph) -> tuple[OrderedMatching, ...]:
    """Every maximum ordered matching as a (pair set, orientation) object.

    Distinct valid orders of one oriented pair set are the same object; the
    canonical order is stored.  Output is sorted for determinism.
    """
    return tuple(sorted((om for _, oms in _max_ordered(G) for om in oms), key=lambda om: om.pairs))


def max_ordered_pair_sets(G: Graph) -> tuple[frozenset[Edge], ...]:
    """Pair sets (ignoring orientation) of the maximum ordered matchings."""
    return tuple(m for m, _ in _max_ordered(G))


def has_perfect_ordered_matching(G: Graph) -> Optional[OrderedMatching]:
    """A perfect ordered matching when 2 * ordered_matching_number == r: the
    first orientation of the first perfect pair set in ``sorted`` order."""
    m, oms = _max_ordered(G)[0]
    return oms[0] if 2 * len(m) == G.vertex_count else None


def unique_perfect_matching_check(G: Graph) -> bool:
    return len(perfect_matchings(G)) == 1
