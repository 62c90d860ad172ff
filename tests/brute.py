"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own code paths: matchings by subset
scan, ordered matchings by trying every orientation and permutation against
the raw definition, alternating walks by unpruned recursion, matrix rank
by Fraction-based elimination on dense matrices, regularity by Hochster's
formula over induced subgraphs, symbolic depth by one grid scan per negative
support, and the top homology degree of an independence complex by the facet
pipeline (every facet by recursion, every face from the facets, every
boundary rank) with no reduction and no memo.

It also holds the reference side of the algebra that the library itself no
longer needs: complexes as facet antichains of frozensets, the cover
complex, Alexander duality, degree complexes, membership in symbolic powers,
the independence complex of a whole graph and induced subgraphs, the
set-based greedy order that the grid search's bit-mask order must reproduce,
and the in-order maximal matching that the oracle's visit reads off a code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import FrozenSet, Iterable

from coverdepth.complexes import ComplexError, nonzero_degrees, reduced_homology
from coverdepth.degree import _check_alpha, negative_support, qualifying_edges
from coverdepth.graphs import Graph, GraphError
from coverdepth.linalg import Rationals, rank

Face = FrozenSet[int]


def _canonical_facets(facets: Iterable[Iterable[int]]) -> tuple[Face, ...]:
    sets = {frozenset(int(v) for v in f) for f in facets}
    maximal = [f for f in sets if not any(f < g for g in sets)]
    return tuple(sorted(maximal, key=lambda f: (len(f), sorted(f))))


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex as (ground set, facet antichain): no facet at all is the
    void complex, and the one facet {} is the irrelevant complex {{}}."""
    ground: tuple[int, ...]
    facets: tuple[Face, ...]

    @staticmethod
    def make(ground: Iterable[int], facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        gtuple = tuple(sorted(set(int(v) for v in ground)))
        gset = set(gtuple)
        canon = _canonical_facets(facets)
        for f in canon:
            if not f <= gset:
                raise ComplexError(f"facet {sorted(f)} not inside the ground set")
        return SimplicialComplex(gtuple, canon)

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension; -1 for the irrelevant complex.  Undefined (raises) on void."""
        if self.is_void:
            raise ComplexError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def faces_of_dim(self, d: int) -> list[Face]:
        """d-faces, enumerated from facets on demand (no global face table)."""
        if self.is_void or d < -1 or d > self.dim:
            return []
        out: set[Face] = set()
        for f in self.facets:
            if len(f) >= d + 1:
                out.update(frozenset(c) for c in combinations(sorted(f), d + 1))
        return sorted(out, key=sorted)


def face_masks(cx: SimplicialComplex) -> list[list[int]]:
    """``cx`` in the library's face format: faces[d + 1] lists the d-faces as
    vertex masks, bit v - 1 for vertex v, in the order of ``faces_of_dim``."""
    if cx.is_void:
        return []
    return [[sum(1 << (v - 1) for v in f) for f in cx.faces_of_dim(d)] for d in range(-1, cx.dim + 1)]


def facet_independence_complex(vertices, edges) -> SimplicialComplex:
    """Ind by its facets: a recursion over the vertices that keeps a chosen
    set when every other vertex has a chosen neighbour."""
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


def facet_homology(cx: SimplicialComplex, field=None) -> dict[int, int]:
    """Reduced homology dimensions by degree from the faces that
    ``faces_of_dim`` derives from the facets, one sparse boundary row
    {index of F - v: +-1} per d-face F; {} on the void complex."""
    field = field or Rationals()
    if cx.is_void:
        return {}
    top = cx.dim
    faces = {d: cx.faces_of_dim(d) for d in range(-1, top + 1)}
    ranks = {d: 0 for d in range(-1, top + 2)}
    for d in range(0, top + 1):
        index = {f: i for i, f in enumerate(faces[d - 1])}
        rows = [{index[f - {v}]: -1 if pos % 2 else 1 for pos, v in enumerate(sorted(f))}
                for f in faces[d]]
        ranks[d] = rank(rows, field)
    profile = {d: len(faces[d]) - ranks[d] - ranks[d + 1] for d in range(-1, top + 1)}
    assert min(profile.values()) >= 0, profile
    return profile


def edges_disjoint(edges) -> bool:
    seen = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def bit_order_matching(edges) -> list[tuple[int, int]]:
    """The maximal matching that takes the edges in the given order and keeps
    each one whose two ends are still free, on vertex sets."""
    matched: set[int] = set()
    kept = []
    for u, v in edges:
        if u not in matched and v not in matched:
            matched.update((u, v))
            kept.append((u, v))
    return kept


def brute_matchings(G: Graph, size: int):
    for combo in combinations(G.edge_list, size):
        if edges_disjoint(combo):
            yield combo


def brute_matching_number(G: Graph) -> int:
    for s in range(len(G.edges), 0, -1):
        if any(True for _ in brute_matchings(G, s)):
            return s
    return 0


def brute_induced_matching_number(G: Graph) -> int:
    best = 0
    for s in range(1, len(G.edges) + 1):
        for combo in brute_matchings(G, s):
            covered = {v for e in combo for v in e}
            inside = [e for e in G.edge_list if e[0] in covered and e[1] in covered]
            if len(inside) == s:
                best = s
    return best


def is_ordered_by_definition(G: Graph, pairs) -> bool:
    """Direct transcription of the ordered-matching conditions."""
    if not edges_disjoint(pairs):
        return False
    if not all(G.has_edge(u, v) for u, v in pairs):
        return False
    free = [u for u, _ in pairs]
    partners = [v for _, v in pairs]
    for a, b in combinations(free, 2):
        if G.has_edge(a, b):
            return False
    for i, u in enumerate(free):
        for j, v in enumerate(partners):
            if G.has_edge(u, v) and i > j:
                return False
    return True


def brute_ordered_matching_number(G: Graph) -> int:
    best = 0
    for s in range(1, brute_matching_number(G) + 1):
        for combo in brute_matchings(G, s):
            for orient in product((0, 1), repeat=s):
                oriented = [
                    (e[o], e[1 - o]) for e, o in zip(combo, orient)
                ]
                if any(
                    is_ordered_by_definition(G, list(perm))
                    for perm in permutations(oriented)
                ):
                    best = max(best, s)
                    break
            else:
                continue
    return best


def brute_max_ordered_matchings(G: Graph) -> set:
    """Every maximum ordered matching as (pair set, free side): the matchings
    of the largest size that have an orientation for which some index order
    satisfies the definition, one entry per such orientation."""
    for s in range(brute_matching_number(G), 0, -1):
        found = set()
        for combo in brute_matchings(G, s):
            for orient in product((0, 1), repeat=s):
                oriented = [(e[o], e[1 - o]) for e, o in zip(combo, orient)]
                if any(is_ordered_by_definition(G, list(perm)) for perm in permutations(oriented)):
                    found.add((frozenset(combo), frozenset(u for u, _ in oriented)))
        if found:
            return found
    return set()


def brute_walk_length(G: Graph, pairs, cap: int = 200) -> int:
    """Longest strictly alternating walk, plain recursion without pruning."""
    matched = {}
    for u, v in pairs:
        matched[u] = v
        matched[v] = u
    best = 0

    def go(v: int, want_matching: bool, length: int) -> None:
        nonlocal best
        best = max(best, length)
        if length >= cap:
            raise RuntimeError("walk exceeded the brute cap")
        for w in G.neighbors[v]:
            in_matching = matched.get(v) == w
            if in_matching == want_matching:
                go(w, not want_matching, length + 1)

    for v in G.vertices():
        go(v, True, 0)
        go(v, False, 0)
    return best


def naive_rank(rows) -> int:
    """Fraction-based Gaussian elimination, the reference for exact ranks."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nr):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_rank_mod(rows, p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(nr):
            if i != rank and m[i][col] % p:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_boundary(cx: SimplicialComplex, d: int) -> list[list[int]]:
    """The boundary map from d-chains to (d-1)-chains of ``cx`` as a dense
    f_{d-1} x f_d matrix, one row per (d-1)-face and one column per d-face,
    built apart from the library's sparse rows (one per d-face)."""
    faces_d, faces_dm1 = cx.faces_of_dim(d), cx.faces_of_dim(d - 1)
    index = {f: i for i, f in enumerate(faces_dm1)}
    rows = [[0] * len(faces_d) for _ in faces_dm1]
    for j, f in enumerate(faces_d):
        for pos, v in enumerate(sorted(f)):
            rows[index[f - {v}]][j] = -1 if pos % 2 else 1
    return rows


def sparse_rows(dense) -> list[dict[int, int]]:
    """A dense matrix as the sparse rows ``linalg.rank`` takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def brute_independent_sets(G: Graph):
    verts = list(G.vertices())
    for size in range(0, len(verts) + 1):
        for combo in combinations(verts, size):
            if all(not G.has_edge(a, b) for a, b in combinations(combo, 2)):
                yield frozenset(combo)


def brute_frontier_order(G: Graph) -> tuple[int, ...]:
    """Greedy vertex order from Python sets: each step places the vertex that
    leaves the fewest placed vertices with an unplaced neighbour, the least
    such vertex on a tie."""
    order: list[int] = []
    while len(order) < G.vertex_count:
        left = set(G.vertices()).difference(order)
        order.append(min(left, key=lambda v: (sum(1 for u in (*order, v) if G.neighbors[u] & (left - {v})), v)))
    return tuple(order)


def brute_qualifying_subsets(rest, induced, n: int, cap: int) -> set:
    """Every distinct nonempty qualifying edge set, by visiting each point of
    the grid {0..cap}^rest; an edge qualifies when its exponents sum to at
    most n - 1.  Edges keep their order in ``induced``."""
    ends = [(rest.index(u), rest.index(v)) for u, v in induced]
    found = set()
    for point in product(range(cap + 1), repeat=len(rest)):
        chosen = tuple(e for e, (a, b) in zip(induced, ends) if point[a] + point[b] <= n - 1)
        if chosen:
            found.add(chosen)
    return found


def cover_complex(G: Graph) -> SimplicialComplex:
    """Facets are the edge complements V minus {u, v}."""
    full = set(G.vertices())
    return SimplicialComplex.make(full, [full - set(e) for e in G.edge_list])


def symbolic_membership(G: Graph, n: int, alpha) -> bool:
    """x^alpha lies in the n-th symbolic power iff every edge sum reaches n."""
    a = _check_alpha(G, alpha)
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if any(x < 0 for x in a):
        raise GraphError("membership expects a nonnegative exponent vector")
    return all(a[u - 1] + a[v - 1] >= n for u, v in G.edges)


def degree_complex(G: Graph, n: int, alpha) -> SimplicialComplex:
    """Degree complex on the host labels V minus the negative support.

    Void exactly when the restricted exponent vector lies in the localized
    ideal (no qualifying edge); otherwise the facets are the complements of
    the qualifying edges.  Only the negative support matters below zero.
    """
    a = _check_alpha(G, alpha)
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    neg = set(negative_support(a))
    rest = [v for v in G.vertices() if v not in neg]
    rest_set = set(rest)
    return SimplicialComplex.make(rest, [rest_set - set(e) for e in qualifying_edges(G, n, a)])


def _minimal_non_faces(cx: SimplicialComplex) -> list:
    if cx.is_void:
        # every subset is a non-face; the empty set is the minimal one
        return [frozenset()]
    minimal: list = []
    for size in range(1, len(cx.ground) + 1):
        for sub in combinations(cx.ground, size):
            fs = frozenset(sub)
            if any(fs <= f for f in cx.facets) or any(nf <= fs for nf in minimal):
                continue
            minimal.append(fs)
    return minimal


def alexander_dual(cx: SimplicialComplex) -> SimplicialComplex:
    """Complements of the non-faces, over the same ground set."""
    gset = set(cx.ground)
    return SimplicialComplex.make(cx.ground, [gset - nf for nf in _minimal_non_faces(cx)])


def dual_homology_check(cx: SimplicialComplex, field=None) -> bool:
    """Dimension identity H_{i-1}(dual) = H_{m-2-i}(complex) across all i,
    both sides read by the library's ``reduced_homology``."""
    field = field or Rationals()
    m = len(cx.ground)
    prof = reduced_homology(face_masks(cx), field)
    dual_prof = reduced_homology(face_masks(alexander_dual(cx)), field)
    degrees = set(prof) | {m - 3 - d for d in dual_prof}
    return all(prof.get(d, 0) == dual_prof.get(m - 3 - d, 0) for d in degrees)


def dense_max_nonzero_degree(edges, field=None):
    """Top degree of nonzero reduced homology of Ind on the covered vertices
    of ``edges``, from the full complex and its boundary ranks; None when
    acyclic.  No fold, no component split, no memo."""
    verts = tuple(sorted({v for e in edges for v in e}))
    nz = nonzero_degrees(facet_homology(facet_independence_complex(verts, sorted(edges)), field))
    return max(nz) if nz else None


def brute_symbolic_depth(G: Graph, n: int, field=None) -> int:
    """Depth by direct degree-complex homology: every support, every grid,
    no dual shortcut, no cone pruning, no deduplication."""
    field = field or Rationals()
    r = G.vertex_count
    verts = list(G.vertices())
    best = None
    for mask in range(2 ** r):
        support = [v for v in verts if mask >> (v - 1) & 1]
        rest = [v for v in verts if v not in support]
        for grid in product(range(n), repeat=len(rest)):
            alpha = [0] * r
            for v in support:
                alpha[v - 1] = -1
            for v, val in zip(rest, grid):
                alpha[v - 1] = val
            cx = degree_complex(G, n, alpha)
            if cx.is_void:
                continue
            for d, h in facet_homology(cx, field).items():
                if h:
                    i = d + len(support) + 1
                    best = i if best is None else min(best, i)
    return best


def brute_support_depth(G: Graph, n: int, field=None) -> int:
    """Depth support by support: for every negative support S, every
    qualifying edge set of the grid {0..n-1}^(V - S) that covers V - S (any
    other is a cone), read r - 2 - j off the homology of its independence
    complex, computed afresh.  No memo, no early exit."""

    field = field or Rationals()
    r = G.vertex_count
    best = None
    for size in range(r):
        for support in combinations(G.vertices(), size):
            rest = [v for v in G.vertices() if v not in support]
            induced = [e for e in G.edge_list if not set(support).intersection(e)]
            pos = {v: k + 1 for k, v in enumerate(rest)}
            for subset in brute_qualifying_subsets(rest, induced, n, n - 1):
                if {v for e in subset for v in e} != set(rest):
                    continue
                Q = Graph.make(len(rest), [(pos[u], pos[v]) for u, v in subset])
                for j in nonzero_degrees(facet_homology(independence_complex(Q), field)):
                    best = r - 2 - j if best is None else min(best, r - 2 - j)
    return best


def independence_complex(G: Graph) -> SimplicialComplex:
    """Faces are the independent sets; Alexander dual of the cover complex."""
    return facet_independence_complex(G.vertices(), G.edge_list)


def vertex_set(subset, vertex_count: int) -> tuple[int, ...]:
    """Validate and canonicalize a vertex subset as a sorted tuple."""
    out = sorted(set(int(v) for v in subset))
    for v in out:
        if not (1 <= v <= vertex_count):
            raise GraphError(f"vertex {v} out of range 1..{vertex_count}")
    return tuple(out)


def induced_subgraph(G: Graph, subset) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``subset``, relabeled 1..|subset| preserving order.

    Returns (graph, labels) where labels[i-1] is the original vertex now
    called i.  A subset that holds no edge raises, like any graph without one.
    """
    labels = vertex_set(subset, G.vertex_count)
    if not labels:
        raise GraphError("empty vertex subset")
    pos = {v: i + 1 for i, v in enumerate(labels)}
    keep = set(labels)
    edges = [(pos[u], pos[v]) for u, v in G.edge_list if u in keep and v in keep]
    return Graph.make(len(labels), edges), labels


def brute_reg_edge_ideal(G: Graph, field=None) -> int:
    """Regularity by Hochster's formula: 2 plus the top degree of nonzero
    homology of Ind(G[W]) over every vertex subset W with |W| >= 2.  A W
    that holds no edge is skipped: Ind of an edgeless graph is a full
    simplex, which is acyclic.  No links, no cone pruning, no memo."""

    field = field or Rationals()
    best = None
    for size in range(2, G.vertex_count + 1):
        for W in combinations(G.vertices(), size):
            if not any(u in W and v in W for u, v in G.edges):
                continue
            H, _ = induced_subgraph(G, W)
            for j in nonzero_degrees(facet_homology(independence_complex(H), field)):
                best = j if best is None else max(best, j)
    return 2 + best


def seeded_gnp(seed: int, r: int, p: float) -> Graph:
    """G(r, p) from ``random.Random(seed)``: each pair u < v, in ascending
    order, is kept when ``rng.random() < p``."""
    rng = random.Random(seed)
    return Graph.make(r, [(u, v) for u in range(1, r + 1) for v in range(u + 1, r + 1)
                          if rng.random() < p])


def random_small_graph(rng, max_r: int = 6) -> Graph:
    r = rng.randint(2, max_r)
    edges = [(u, v) for u in range(1, r + 1) for v in range(u + 1, r + 1)
             if rng.random() < 0.5]
    if not edges:
        edges = [(1, 2)]
    return Graph.make(r, edges)
