"""Alternating-path statistics of an ordered matching and the exponent
certificates built from them.

For an ordered matching with pairs (u_i, v_i) in a valid index order, the
longest alternating path that starts at partner v_i, begins and ends with a
matching edge and stays between the two sides has length 2*k_i - 1, where

    k_i = 1 + max(k_j : {u_i, v_j} is an edge, j > i)        (k_i = 1 if none)

which is a longest-chain computation over the acyclic pair digraph.  The
operative matching invariant is

    length = max(base_max, bridged_max)

with base_max the largest per-partner value and bridged_max the best join of
two such paths through an edge between partners (0 when no such edge exists).
A separate exhaustive walk search is kept as a diagnostic: it also counts
alternating walks that revisit vertices or end at uncovered vertices, so it
can exceed the operative value when the matching does not cover the graph.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph
from .matchings import OrderedMatching, _max_ordered


class WalkCutoffError(RuntimeError):
    """An alternating walk reached the safety cutoff; finiteness is in doubt."""


class CertificateConstructionError(RuntimeError):
    """A constructed exponent vector failed its own constraints."""


class AltPathProfile(NamedTuple):
    partner_lengths: dict[int, int]
    base_max: int
    bridged_max: int
    length: int


class ExponentCertificate(NamedTuple):
    """Exponents ``witness`` at power ``value``: each matching pair sums to at
    most value - 1, every other edge of the covered subgraph to at least value."""

    value: int
    witness: dict[int, int]
    pairs: tuple[tuple[int, int], ...]

    def vector(self) -> tuple[int, ...]:
        return tuple(self.witness[v] for v in sorted(self.witness))

    def to_json(self) -> dict:
        return {"sdstab": self.value, "alpha": {str(v): a for v, a in sorted(self.witness.items())},
                "pairs": [list(p) for p in self.pairs]}


def _pair_depths(G: Graph, om: OrderedMatching) -> list[int]:
    """k_i per pair, by the longest-chain recursion in reverse index order."""
    pairs, masks = om.pairs, G.neighbor_masks
    k = [1] * len(pairs)
    for i in range(len(pairs) - 1, -1, -1):
        seen, best = masks[pairs[i][0]], 0
        for j in range(i + 1, len(pairs)):
            if seen >> (pairs[j][1] - 1) & 1 and k[j] > best:
                best = k[j]
        k[i] = 1 + best
    return k


def _bridged_length(G: Graph, lengths: dict[int, int]) -> int:
    """Best join of two partner paths through a partner-partner edge; 0 if none."""
    partners, masks = list(lengths), G.neighbor_masks
    best = 0
    for i, v in enumerate(partners):
        for w in partners[i + 1:]:
            if masks[v] >> (w - 1) & 1:
                best = max(best, lengths[v] + lengths[w] + 1)
    return best


def profile(G: Graph, om: OrderedMatching) -> AltPathProfile:
    """The one pass over a matching: each partner's longest admissible path
    (always odd), the base and bridged maxima and the operative length."""
    k = _pair_depths(G, om)
    lengths = {om.pairs[i][1]: 2 * k[i] - 1 for i in range(len(k))}
    b0 = max(lengths.values())
    b1 = _bridged_length(G, lengths)
    return AltPathProfile(lengths, b0, b1, max(b0, b1))


def alt_path_length(G: Graph, om: OrderedMatching) -> int:
    """The operative alternating-path length of the matching."""
    return profile(G, om).length


def walk_length(G: Graph, om: OrderedMatching) -> int:
    """Length of a longest alternating walk (diagnostic, exhaustive search).

    Walks may revisit vertices and edges; membership in the matching must
    strictly alternate along the walk.  Raises :class:`WalkCutoffError` if any
    walk reaches the safety cutoff 4s + 2, above the provable maximum.
    """
    s = om.size
    limit = 4 * s + 2
    masks = G.neighbor_masks
    partner_of: dict[int, int] = {}
    for u, v in om.pairs:
        partner_of[u] = v
        partner_of[v] = u
    best = 0

    def extend(v: int, need_matching: bool, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
            if best >= limit:
                raise WalkCutoffError(
                    f"alternating walk reached cutoff {limit}; matching invariants violated"
                )
        mate = partner_of.get(v)
        if need_matching:
            if mate is not None:  # every pair of a valid matching is an edge
                extend(mate, False, length + 1)
        else:
            rest = masks[v] if mate is None else masks[v] & ~(1 << (mate - 1))
            while rest:
                low = rest & -rest
                extend(low.bit_length(), True, length + 1)
                rest ^= low

    for v in G.vertices():
        extend(v, True, 0)
        extend(v, False, 0)
    return best


@lru_cache(maxsize=64)
def _shortest_max_ordered(G: Graph) -> tuple[int, OrderedMatching]:
    """(length, matching): the first maximum pair set, in sorted order, whose
    first orientation has the least operative length, with that length.

    The length is orientation-independent per pair set (property-tested), so
    one orientation per pair set is evaluated.  Memoized like ``_max_ordered``:
    the bound, the oracle's witness and the report read the same matching and
    its length, computed once.
    """
    return min(((alt_path_length(G, oms[0]), oms[0]) for _, oms in _max_ordered(G)), key=lambda entry: entry[0])


def min_alt_path_length(G: Graph) -> int:
    """Minimum operative length over all maximum ordered matchings."""
    return _shortest_max_ordered(G)[0]


def stability_bound(G: Graph) -> int:
    """(length + 1) // 2 for the graph invariant: the upper bound on the
    stability index of the symbolic depth function."""
    return (min_alt_path_length(G) + 1) // 2


# -- exponent certificates -------------------------------------------------

def path_exponents(G: Graph, om: OrderedMatching) -> ExponentCertificate:
    """Exponents from pair depths: free side gets k_i - 1, partner side k - k_i.

    Only edges between the two sides are consulted; pair sums equal k - 1 and
    forward cross edges sum to at least k, where 2k - 1 is the base length.
    """
    k = _pair_depths(G, om)
    kmax = max(k)
    values: dict[int, int] = {}
    for i, (u, v) in enumerate(om.pairs):
        values[u] = k[i] - 1
        values[v] = kmax - k[i]
    cert = ExponentCertificate(kmax, values, om.pairs)
    _check_cross_edges(G, om, cert)
    return cert


def _check_cross_edges(G: Graph, om: OrderedMatching, cert: ExponentCertificate) -> None:
    values, n, masks = cert.witness, cert.value, G.neighbor_masks
    for i, (u, _) in enumerate(om.pairs):
        for _, w in om.pairs[i + 1:]:
            if masks[u] >> (w - 1) & 1 and values[u] + values[w] < n:
                raise CertificateConstructionError(
                    f"cross edge ({u},{w}) sums to {values[u] + values[w]} < {n}"
                )


def shifted_exponents(G: Graph, om: OrderedMatching, power: int) -> ExponentCertificate:
    """Shift the path exponents to a target power n: partners gain n - k.

    Verifies, on every edge of the covered subgraph, that pair sums equal
    n - 1 and all other sums are at least n; a failure here would contradict
    the bound's construction and raises loudly.
    """
    base = path_exponents(G, om)
    if power < base.value:
        raise ValueError(f"power {power} below the base value {base.value}")
    shift = power - base.value
    values = dict(base.witness)
    for _, v in om.pairs:
        values[v] += shift
    cert = ExponentCertificate(power, values, om.pairs)
    covered = om.covered
    pair_edges = om.edge_set
    for u, v in G.edge_list:
        if u not in covered or v not in covered:
            continue
        total = values[u] + values[v]
        if (u, v) in pair_edges:
            if total != power - 1:
                raise CertificateConstructionError(
                    f"pair ({u},{v}) sums to {total}, expected {power - 1}"
                )
        elif total < power:
            raise CertificateConstructionError(
                f"edge ({u},{v}) sums to {total} < {power}"
            )
    return cert
