"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own code paths: matchings by subset
scan, ordered matchings by trying every orientation and permutation against
the raw definition, alternating walks by unpruned recursion, matrix rank
by Fraction-based elimination, regularity by Hochster's formula over
induced subgraphs, symbolic depth by one grid scan per negative support, and
the top homology degree of an independence complex by the dense engine with
no reduction and no memo.

It also holds the reference side of the algebra that the library itself no
longer needs: the cover complex, Alexander duality, degree complexes,
membership in symbolic powers, the independence complex of a whole graph and
induced subgraphs, and the set-based greedy order that the grid search's
bit-mask order must reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from coverdepth.complexes import SimplicialComplex, nonzero_degrees, reduced_homology
from coverdepth.degree import (
    _check_alpha,
    _independence_complex,
    negative_support,
    qualifying_edges,
)
from coverdepth.graphs import Graph, GraphError
from coverdepth.linalg import Rationals


def edges_disjoint(edges) -> bool:
    seen = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


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
    """Dimension identity H_{i-1}(dual) = H_{m-2-i}(complex) across all i."""
    field = field or Rationals()
    m = len(cx.ground)
    prof = reduced_homology(cx, field)
    dual_prof = reduced_homology(alexander_dual(cx), field)
    degrees = set(prof) | {m - 3 - d for d in dual_prof}
    return all(prof.get(d, 0) == dual_prof.get(m - 3 - d, 0) for d in degrees)


def dense_max_nonzero_degree(edges, field=None):
    """Top degree of nonzero reduced homology of Ind on the covered vertices
    of ``edges``, from the full complex and its boundary ranks; None when
    acyclic.  No fold, no component split, no memo."""
    verts = tuple(sorted({v for e in edges for v in e}))
    nz = nonzero_degrees(reduced_homology(_independence_complex(verts, sorted(edges)), field or Rationals()))
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
            for d, h in reduced_homology(cx, field).items():
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
                for j in nonzero_degrees(reduced_homology(independence_complex(Q), field)):
                    best = r - 2 - j if best is None else min(best, r - 2 - j)
    return best


def independence_complex(G: Graph) -> SimplicialComplex:
    """Faces are the independent sets; Alexander dual of the cover complex."""
    return _independence_complex(tuple(G.vertices()), G.edge_list)


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
            for j in nonzero_degrees(reduced_homology(independence_complex(H), field)):
                best = j if best is None else max(best, j)
    return 2 + best


def random_small_graph(rng, max_r: int = 6) -> Graph:
    r = rng.randint(2, max_r)
    edges = [(u, v) for u in range(1, r + 1) for v in range(u + 1, r + 1)
             if rng.random() < 0.5]
    if not edges:
        edges = [(1, 2)]
    return Graph.make(r, edges)
