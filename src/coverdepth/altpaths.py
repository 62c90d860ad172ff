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

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph
from .matchings import OrderedMatching, _max_ordered, ordered_matching_violation


class WalkCutoffError(RuntimeError):
    """An alternating walk reached the safety cutoff; finiteness is in doubt."""


class CertificateConstructionError(RuntimeError):
    """A constructed exponent vector failed its own constraints."""


@dataclass
class AltPathProfile:
    partner_lengths: dict[int, int]
    base_max: int
    bridged_max: int
    length: int


@dataclass
class ExponentCertificate:
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


def _require_valid(G: Graph, om: OrderedMatching) -> None:
    reason = ordered_matching_violation(G, om.pairs)
    if reason is not None:
        raise ValueError(f"not a valid ordered matching: {reason}")


def _pair_depths(G: Graph, om: OrderedMatching) -> list[int]:
    """k_i per pair, by the longest-chain recursion in reverse index order."""
    pairs = om.pairs
    s = len(pairs)
    k = [1] * s
    for i in range(s - 1, -1, -1):
        u = pairs[i][0]
        best = 0
        for j in range(i + 1, s):
            if G.has_edge(u, pairs[j][1]):
                best = max(best, k[j])
        k[i] = 1 + best
    return k


def partner_path_lengths(G: Graph, om: OrderedMatching) -> dict[int, int]:
    """Map partner vertex -> length of its longest admissible path (always odd)."""
    _require_valid(G, om)
    k = _pair_depths(G, om)
    return {om.pairs[i][1]: 2 * k[i] - 1 for i in range(len(k))}


def _bridged_length(G: Graph, om: OrderedMatching, lengths: dict[int, int]) -> int:
    """Best join of two partner paths through a partner-partner edge; 0 if none."""
    partners = om.partner_side
    best = 0
    for i in range(len(partners)):
        for j in range(i + 1, len(partners)):
            if G.has_edge(partners[i], partners[j]):
                best = max(best, lengths[partners[i]] + lengths[partners[j]] + 1)
    return best


def alt_path_length(G: Graph, om: OrderedMatching) -> int:
    """The operative alternating-path length of the matching."""
    lengths = partner_path_lengths(G, om)
    return max(max(lengths.values()), _bridged_length(G, om, lengths))


def profile(G: Graph, om: OrderedMatching) -> AltPathProfile:
    lengths = partner_path_lengths(G, om)
    b0 = max(lengths.values())
    b1 = _bridged_length(G, om, lengths)
    return AltPathProfile(lengths, b0, b1, max(b0, b1))


def walk_length(G: Graph, om: OrderedMatching) -> int:
    """Length of a longest alternating walk (diagnostic, exhaustive search).

    Walks may revisit vertices and edges; membership in the matching must
    strictly alternate along the walk.  Raises :class:`WalkCutoffError` if any
    walk reaches the safety cutoff 4s + 2, above the provable maximum.
    """
    _require_valid(G, om)
    s = om.size
    limit = 4 * s + 2
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
        if need_matching:
            w = partner_of.get(v)
            if w is not None and G.has_edge(v, w):
                extend(w, False, length + 1)
        else:
            mate = partner_of.get(v)
            for w in G.neighbors[v]:
                if w != mate:
                    extend(w, True, length + 1)

    for v in G.vertices():
        extend(v, True, 0)
        extend(v, False, 0)
    return best


def _shortest_max_ordered(G: Graph) -> OrderedMatching:
    """The first maximum pair set, in sorted order, whose first orientation
    has the least operative length.

    The length is orientation-independent per pair set (property-tested), so
    one orientation per pair set is evaluated.
    """
    return min((oms[0] for _, oms in _max_ordered(G)), key=lambda om: alt_path_length(G, om))


def min_alt_path_length(G: Graph) -> int:
    """Minimum operative length over all maximum ordered matchings."""
    return alt_path_length(G, _shortest_max_ordered(G))


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
    _require_valid(G, om)
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
    values, n = cert.witness, cert.value
    for i, (u, _) in enumerate(om.pairs):
        for j, (_, w) in enumerate(om.pairs):
            if i < j and G.has_edge(u, w) and values[u] + values[w] < n:
                raise CertificateConstructionError(
                    f"cross edge ({u},{w}) sums to {values[u] + values[w]} < {n}"
                )


def shifted_exponents(G: Graph, om: OrderedMatching, power: Optional[int] = None) -> ExponentCertificate:
    """Shift the path exponents to a target power n: partners gain n - k.

    Verifies, on every edge of the covered subgraph, that pair sums equal
    n - 1 and all other sums are at least n; a failure here would contradict
    the bound's construction and raises loudly.
    """
    base = path_exponents(G, om)
    if power is None:
        power = (alt_path_length(G, om) + 1) // 2
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
