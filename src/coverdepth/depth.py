"""Ground-truth algebra for cover ideals: depth of symbolic powers through
the graded local-cohomology criterion, edge-ideal regularity through link
homology, stability indices, and the fast perfect-matching certificate.
``stability_index`` is the one policy that picks among closed forms, the
certificate, the oracle and the class equalities; its docstring gives the
order.

Oracle layout.  depth R/J^(n) is the least i with a nonvanishing graded
piece of the i-th local cohomology.  Gradings split into a negative support
S (only the support matters, entries normalized to -1) and a nonnegative
rest vector a' on V - S; an edge qualifies when it misses S and its
exponents sum to at most n - 1.  Each (S, a') yields the degree complex
whose facets are complements of the qualifying edges; its homology is read
off the Alexander-dual side, the independence complex of the qualifying
graph Q.  With m' = r - |S| and nonzero dual homology in degree j, the
contribution is

    i = (m' - 3 - j) + |S| + 1 = r - 2 - j,

so the depth is r - 2 - max(j) over all supports, grids and degrees.  One
search over {0..n}^V per power stands for every support S with its grid
{0..n-1}^(V - S), and it is exact because (1) the value n kills every edge
at its vertex, exactly as membership in S does; (2) a set E from (S, a')
that leaves a vertex of V - S uncovered (a cone) is the set that
(V - V(E), a' restricted to V(E)) yields with every vertex covered, so each
distinct E stands for the support V - V(E) and cones need no filter; (3)
i = r - 2 - j >= |S| = r - |V(E)|, since Ind(E) on V(E) has dimension at
most |V(E)| - 2; (4) a tighter ceiling holds over every field: j + 2 <=
reg I(E) by Hochster's formula (1977), and reg I(E) <= nu(E) + 1 <=
floor(|V(E)|/2) + 1 (Ha and Van Tuyl, J. Algebraic Combin. 2008), so
i >= r - 1 - floor(|V(E)|/2).  Neither bound falls as |V(E)| falls, so
visiting E by descending |V(E)| and stopping once (4) reaches the best
value loses nothing.  The grid is searched vertex by vertex.  A state is
the tuple of values of the frontier (placed vertices with an unplaced
neighbour) and holds the distinct bit codes of the edges decided so far;
equal states merge.  Placing a vertex, each state buckets the edges it
closes by the earlier end's value, and a running OR gives the mask of edges
each value adds.  The search returns bit codes; |V(E)| is read from a table
per byte of code, and an edge set is built only when the visit reaches it.
Each distinct edge set is reduced before its homology:
(a) fold, deleting v while N(u) lies in N(v) for some u != v, which keeps
the homotopy type; (b) cone, a vertex left with no neighbour makes the set
acyclic; (c) components, what is left splits into connected parts; (d)
join, a disjoint union gives the join of the parts' complexes, so over a
field their top degrees add, plus one per extra part.  A lone edge has top
0, and only a part that no rule shrinks reaches the dense engine.  Edge
sets and parts share one bounded memo with ``reg_edge_ideal``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

from .altpaths import ExponentCertificate, alt_path_length, stability_bound
from .complexes import nonzero_degrees, reduced_homology
from .degree import _independence_complex
from .graphs import Graph, connected_components, has_cycle_of_length, is_forest
from .linalg import FieldSpec, Rationals
from .matchings import (
    OrderedMatching,
    has_perfect_ordered_matching,
    matching_number,
    ordered_matching_number,
)

DEFAULT_BUDGET = 1_000_000_000
HARD_VERTEX_LIMIT = 13
CROSS_CHECK_ESTIMATE_LIMIT = 10_000_000


class BudgetRefusal(RuntimeError):
    """The oracle declined an instance; the message gives the vertex cap or the cost estimate."""


class CertificateInapplicableError(ValueError):
    """The perfect-matching certificate cannot decide this graph."""


class DepthEngineError(RuntimeError):
    """An internal cross-check failed; something believed proven did not hold."""


def _check_budget(G: Graph, n: int, budget: int, force: bool) -> None:
    """The one admission rule for every oracle call; ``force`` waives it."""
    if force:
        return
    r = G.vertex_count
    if r >= HARD_VERTEX_LIMIT:
        raise BudgetRefusal(f"refusing r={r} >= {HARD_VERTEX_LIMIT} vertices (pass force=True to override)")
    est = (2 * n) ** r
    if est > budget:
        raise BudgetRefusal(f"estimated cost {est} exceeds budget {budget} (r={r}, n={n})")


# -- memoized homology of qualifying graphs --------------------------------

_MAX_DEGREE_CACHE_SIZE = 1 << 16
_MAX_DEGREE_CACHE: OrderedDict[tuple[frozenset, FieldSpec], Optional[int]] = OrderedDict()


def _folded_components(edge_key: frozenset) -> Optional[list[frozenset]]:
    """The edge sets of the connected components left once every fold is
    made (while N(u) is inside N(v) for some u != v, delete v); None when a
    vertex is left with no neighbour, which makes the complex a cone."""
    nbr: dict[int, int] = {}
    for u, v in edge_key:
        nbr[u] = nbr.get(u, 0) | 1 << v
        nbr[v] = nbr.get(v, 0) | 1 << u
    folded = True
    while folded:
        folded = False
        for v in list(nbr):
            Nv = nbr[v]
            for u, Nu in nbr.items():
                if not Nu & ~Nv and u != v:
                    break
            else:
                continue
            del nbr[v]
            folded = True
            for w in nbr:
                if Nv >> w & 1:
                    nbr[w] &= ~(1 << v)
                    if not nbr[w]:
                        return None
    parts: list[frozenset] = []
    left = sum(1 << v for v in nbr)
    while left:
        part, grown = 0, left & -left
        while grown != part:
            part = grown
            for w, Nw in nbr.items():
                if part >> w & 1:
                    grown |= Nw
        left &= ~part
        parts.append(frozenset(e for e in edge_key if part >> e[0] & part >> e[1] & 1))
    return parts


def _max_nonzero_degree(edge_key: frozenset, field: FieldSpec) -> Optional[int]:
    """Largest degree with nonzero homology of the independence complex of the
    given edge set (vertices = covered vertices); None when acyclic.

    Exact reductions come first: a fold keeps the homotopy type (Engstrom
    2008), a vertex left without neighbours makes a cone, and a disjoint
    union gives a join of complexes (Adamaszek 2012), whose top degree over
    a field is the sum of the parts' plus one per extra part.  Components
    are read through this memo; a lone edge has top 0, and a component that
    no rule shrinks goes to the dense engine."""
    key = (edge_key, field)
    if key in _MAX_DEGREE_CACHE:
        return _MAX_DEGREE_CACHE[key]
    parts = _folded_components(edge_key)
    if parts is None:
        top = None
    elif parts == [edge_key]:
        verts = tuple(sorted({v for e in edge_key for v in e}))
        nz = nonzero_degrees(reduced_homology(_independence_complex(verts, sorted(edge_key)), field))
        top = max(nz) if nz else None
    else:
        top = len(parts) - 1
        for part in parts:
            j = 0 if len(part) == 1 else _max_nonzero_degree(part, field)
            if j is None:
                top = None
                break
            top += j
    if len(_MAX_DEGREE_CACHE) >= _MAX_DEGREE_CACHE_SIZE:
        _MAX_DEGREE_CACHE.popitem(last=False)  # oldest first
    _MAX_DEGREE_CACHE[key] = top
    return top


def _frontier_order(G: Graph) -> tuple[int, ...]:
    """Greedy vertex order for the grid search: each step places the vertex
    that leaves the fewest placed vertices with an unplaced neighbour, the
    least such vertex on a tie.  Placing v adds v when it has an unplaced
    neighbour and retires each placed vertex whose one unplaced neighbour is
    v; the rest of the count is the same for every candidate."""
    masks = G.neighbor_masks
    order: list[int] = []
    left = (1 << G.vertex_count) - 1  # bit v - 1 for each unplaced v
    while left:
        retired: dict[int, int] = {}  # bit of v -> placed vertices whose one unplaced neighbour is v
        for u in order:
            m = masks[u] & left
            if m and not m & (m - 1):
                retired[m] = retired.get(m, 0) + 1
        v = min((v for v in G.vertices() if left >> (v - 1) & 1),
                key=lambda v: ((masks[v] & left != 0) - retired.get(1 << (v - 1), 0), v))
        order.append(v)
        left &= ~(1 << (v - 1))
    return tuple(order)


def _qualifying_subsets(rest: list[int], induced: list[tuple[int, int]],
                        n: int, cap: int) -> list[int]:
    """Distinct nonempty qualifying edge sets (exponent sum <= n - 1) over the
    grid {0..cap}^rest, as ascending bit codes (bit i stands for induced[i]).

    Vertices take values in the order of ``rest``; values >= n count as one.
    A state is the tuple of values of the frontier (placed vertices with an
    unplaced neighbour) and holds the distinct codes of the edges decided so
    far, so equal states merge and the work follows the distinct states, not
    the grid points.  Placing a vertex decides its edges to earlier vertices:
    such an edge qualifies for the values x <= n - 1 - (its earlier end's
    value).  Per state the edges are bucketed by that threshold, and a running
    OR from the top value down gives the mask of edges each x adds.  Only a
    value where the mask grows builds a new code list; every other value
    shares the list before it.  A vertex with no later neighbour sends every
    value to one state, which takes each distinct mask once.  A new state
    that receives more than one list merges them through a set when the step
    ends; a list stays compact where most states hold one code."""
    closing: list[list[tuple[int, int]]] = [[] for _ in rest]  # (1 << edge bit, earlier step)
    last = list(range(len(rest)))  # step of each vertex's last neighbour, its own if none later
    for bit, (u, v) in enumerate(induced):
        a, b = sorted((rest.index(u), rest.index(v)))
        closing[b].append((1 << bit, a))
        last[a] = max(last[a], b)
    top = min(cap, n)
    frontier: list[int] = []
    states: dict[tuple[int, ...], list[int]] = {(): [0]}  # frontier values -> distinct edge codes
    for i in range(len(rest)):
        checks = [(w, frontier.index(a)) for w, a in closing[i]]
        keep = [k for k, a in enumerate(frontier) if last[a] > i]
        grow = last[i] > i
        nxt: dict[tuple[int, ...], list[list[int]]] = {}  # new state -> the code lists it receives
        while states:  # consume the old states as the new ones grow
            vals, codes = states.popitem()
            kept = tuple([vals[k] for k in keep])
            closes = [0] * (top + 1)  # closes[t]: edges whose earlier end has value n - 1 - t
            for w, k in checks:
                t = n - 1 - vals[k]
                if t >= 0:
                    closes[min(t, top)] |= w
            mask, coded = 0, codes
            for x in range(top, -1, -1):
                if closes[x]:
                    mask |= closes[x]
                    coded = [c | mask for c in codes]  # mask bits are new, so codes stay distinct
                elif not grow and x < top:
                    continue  # the same mask into the same state
                key = kept + (x,) if grow else kept
                got = nxt.get(key)
                if got is None:
                    nxt[key] = [coded]
                else:
                    got.append(coded)
        states = {key: got[0] if len(got) == 1 else list(set().union(*got)) for key, got in nxt.items()}
        frontier = [frontier[k] for k in keep] + [i] * grow
    codes = set().union(*states.values())
    codes.discard(0)
    return sorted(codes)


def depth_symbolic(G: Graph, n: int, field: FieldSpec = Rationals(), *,
                   budget: int = DEFAULT_BUDGET, force: bool = False) -> int:
    """depth of R modulo the n-th symbolic power of the cover ideal.

    One search over the grid {0..n}^V stands for every negative support;
    the module's "Oracle layout" gives the argument (1)-(4) that makes it
    exact.  The grid gives bit codes; |V(E)| is read per code from a table,
    per byte of the code, of the vertices that byte's edges cover.  The
    distinct edge sets E are visited by ascending support size r - |V(E)|,
    in ascending bit code within one size, and an edge set is built only
    when it is visited.  The one stop rule is the ceiling (4): the visit
    ends once r - 1 - floor(|V(E)|/2) reaches the best value, since no later
    edge set can lower it.  The least possible depth needs no rule of its
    own: once the best is 1 (0 when r = 2), the ceiling is at least the best
    for every edge set.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    _check_budget(G, n, budget, force)
    r = G.vertex_count
    edges = G.edge_list
    tables = []  # tables[b][byte]: the vertices covered by the edges that byte b of a code holds
    for lo in range(0, len(edges), 8):
        table = [0]
        for u, v in edges[lo:lo + 8]:
            table += [m | 1 << u | 1 << v for m in table]
        tables.append(table)
    visits = []  # (|V(E)|, code of E)
    for code in _qualifying_subsets(list(_frontier_order(G)), list(edges), n, n):
        covered, byte = 0, code
        for table in tables:
            covered |= table[byte & 255]
            byte >>= 8
        visits.append((covered.bit_count(), code))
    visits.sort(key=lambda visit: -visit[0])  # stable, so ascending bit code within one size
    best: Optional[int] = None
    for covered, code in visits:
        if best is not None and r - 1 - covered // 2 >= best:
            break
        jmax = _max_nonzero_degree(frozenset([e for bit, e in enumerate(edges) if code >> bit & 1]), field)
        if jmax is None:
            continue
        i = r - 2 - jmax
        if best is None or i < best:
            best = i
    if best is None:
        raise DepthEngineError("no local cohomology contribution found")
    return best


def reg_edge_ideal(G: Graph, field: FieldSpec = Rationals(), *,
                   budget: int = DEFAULT_BUDGET, force: bool = False) -> int:
    """Regularity of the edge ideal: 2 + the top degree of homology over the
    links of Ind(G).  The link of a face F is Ind(G - N[F]), so each distinct
    closed neighbourhood N[F] is read once; the link is a cone when some
    vertex of W = V - N[F] has no neighbour in W, and any other link's top
    degree comes from the oracle's memo.

    The distinct N[F] are generated directly as bit masks (bit v - 1 for v),
    in one pass over the vertices: N[F + v] = N[F] | N[v], and F + v is
    independent exactly when v lies outside N[F], so each vertex v adds
    c | N[v] for every mask c so far that does not hold v.  No face of
    Ind(G) is listed."""
    _check_budget(G, 1, budget, force)  # the link scan costs what the n = 1 oracle does
    # Unlike depth_symbolic's visit, the scan is not cut by the ceiling
    # reg I(H) <= nu(H) + 1: it is the independent reference for the n = 1
    # duality, and the analyzer's regularity-upper check tests that ceiling.
    masks = G.neighbor_masks
    closed_masks = {0}  # N[{}] is empty
    for v in G.vertices():
        bit = 1 << (v - 1)
        closed_masks |= {c | bit | masks[v] for c in closed_masks if not c & bit}
    top = -1  # the link of a facet is {{}}, with homology in degree -1
    for closed in closed_masks:
        edges = frozenset(e for e in G.edge_list if not (closed >> (e[0] - 1) | closed >> (e[1] - 1)) & 1)
        if edges and closed.bit_count() + len({v for e in edges for v in e}) == G.vertex_count:
            jmax = _max_nonzero_degree(edges, field)
            top = top if jmax is None else max(top, jmax)
    return top + 2


# -- stability index --------------------------------------------------------

@dataclass
class DepthReport:
    nu0: int
    limit_depth: int
    profile: dict[int, int]
    stability_index: int


def limit_depth(G: Graph) -> int:
    return G.vertex_count - ordered_matching_number(G) - 1


def _power_scan(G: Graph, field: FieldSpec, budget: int, force: bool) -> Iterator[tuple[int, int]]:
    """(n, depth R/J^(n)) for n = 1 .. 2*nu0 - 1, by which the depth has
    reached its limit."""
    for n in range(1, 2 * ordered_matching_number(G)):
        yield n, depth_symbolic(G, n, field, budget=budget, force=force)


def depth_profile(G: Graph, field: FieldSpec = Rationals(), *,
                  budget: int = DEFAULT_BUDGET, force: bool = False) -> DepthReport:
    """Symbolic depth values for n = 1 .. 2*nu0 - 1, their limit and the
    first index at which the limit is reached.

    The profile must be non-increasing and end at r - nu0 - 1; a violation
    would contradict known behavior of these depth functions and raises.
    On bipartite graphs symbolic and ordinary powers coincide, so the same
    report describes the ordinary depth function as well.
    """
    profile = dict(_power_scan(G, field, budget, force))
    limit = limit_depth(G)
    values = list(profile.values())
    if any(a < b for a, b in zip(values, values[1:])):
        raise DepthEngineError(f"profile {profile} is not non-increasing")
    if values[-1] != limit:
        raise DepthEngineError(f"profile ends at {values[-1]}, expected {limit}")
    stab = min(n for n, d in profile.items() if d <= limit)
    return DepthReport(ordered_matching_number(G), limit, profile, stab)


def stability_index_oracle(G: Graph, field: FieldSpec = Rationals(), *,
                           budget: int = DEFAULT_BUDGET, force: bool = False) -> int:
    """Least n with depth R/J^(n) <= r - nu0 - 1, scanning n upward."""
    limit = limit_depth(G)
    for n, d in _power_scan(G, field, budget, force):
        if d <= limit:
            return n
    raise DepthEngineError(f"depth never reached its limit {limit} by n = {n}")


# -- perfect-matching certificate -------------------------------------------

def feasible_exponents(G: Graph, om: OrderedMatching, n: int) -> Optional[dict[int, int]]:
    """A nonnegative vector with pair sums <= n - 1 and all other covered-edge
    sums >= n, or None.  Deterministic: pairs are assigned in reverse index
    order with lexicographic value choices, so cross constraints to already
    assigned pairs check immediately."""
    pairs = om.pairs
    covered = om.covered
    # per pair: edges from its endpoints into later pairs (assigned before it)
    later_edges: list[list[tuple[int, int]]] = []
    position = {}
    for i, (u, v) in enumerate(pairs):
        position[u] = i
        position[v] = i
    for i, (u, v) in enumerate(pairs):
        lst = []
        for x in (u, v):
            for w in G.neighbors[x]:
                if w in covered and position[w] > i:
                    lst.append((x, w))
        later_edges.append(lst)
    values: dict[int, int] = {}

    def assign(i: int) -> bool:
        if i < 0:
            return True
        u, v = pairs[i]
        for total in range(0, n):
            for au in range(0, total + 1):
                values[u] = au
                values[v] = total - au
                if all(values[x] + values[w] >= n for x, w in later_edges[i]):
                    if assign(i - 1):
                        return True
        values.pop(u, None)
        values.pop(v, None)
        return False

    if assign(len(pairs) - 1):
        return dict(values)
    return None


def stability_certificate(G: Graph) -> ExponentCertificate:
    """Stability index of a graph with a perfect ordered matching, by integer
    feasibility search over exponent vectors.

    Feasibility at n holds exactly when the ordered matching number equals
    half the vertex count and n is at least the stability index, so the
    least feasible n is the index itself; the search is capped by the
    alternating-path bound, which is always feasible.
    """
    om = has_perfect_ordered_matching(G)
    if om is None:
        if 2 * matching_number(G) != G.vertex_count:
            raise CertificateInapplicableError("graph has no perfect matching")
        raise CertificateInapplicableError(
            "graph has a perfect matching but no perfect ordered matching; "
            "the exponent search would never become feasible"
        )
    upper = (alt_path_length(G, om) + 1) // 2
    for n in range(1, upper + 1):
        witness = feasible_exponents(G, om, n)
        if witness is not None:
            return ExponentCertificate(n, witness, om.pairs)
    raise DepthEngineError(
        f"no feasible exponent vector up to the path bound {upper}; "
        "this contradicts the bound's construction"
    )


# -- resolution policy ------------------------------------------------------

def _structural_path_or_cycle(G: Graph) -> Optional[str]:
    """A connected graph of maximum degree at most 2 is a path when it has
    r - 1 edges and a cycle otherwise (it then has r)."""
    if len(connected_components(G)) != 1 or any(len(G.neighbors[v]) > 2 for v in G.vertices()):
        return None
    return "path" if len(G.edges) == G.vertex_count - 1 else "cycle"


def path_stability_closed_form(r: int) -> int:
    if r % 2 == 0:
        return r // 2
    return -((r - 1) // -4)  # ceil((r-1)/4)


def cycle_stability_closed_form(r: int) -> int:
    if r % 2 == 1:
        return 1 if r == 5 else (r - 1) // 2
    return 1 if r == 8 else -((r - 2) // -4)  # ceil((r-2)/4)


MODES = ("auto", "oracle", "certificate", "combinatorial")


@dataclass
class StabilityResult:
    value: Optional[int]
    method: str
    witness: Optional[ExponentCertificate] = None


def stability_index(G: Graph, field: FieldSpec = Rationals(), mode: str = "auto", *,
                    budget: int = DEFAULT_BUDGET, force: bool = False) -> StabilityResult:
    """Stability index of the symbolic depth function, from the cheapest
    trustworthy source; ``method`` records which one answered.

    The ladder, in order:

    1. ``auto`` and ``combinatorial``: the closed forms for structural paths
       and cycles (``closed-form``).
    2. Every mode but ``oracle``: the perfect-ordered-matching certificate,
       with the exponent vector as ``witness``.  ``auto`` cross-checks it
       against the oracle if ``_check_budget`` admits CROSS_CHECK_ESTIMATE_LIMIT
       (``certificate+oracle``; a disagreement raises DepthEngineError); on
       any refusal the value stands alone (``certificate``).  ``certificate``
       mode raises CertificateInapplicableError when no perfect ordered
       matching exists.
    3. ``auto`` and ``oracle``: the homology oracle (``oracle``).  A budget
       refusal propagates in ``oracle`` mode and falls through in ``auto``.
    4. The class equalities, where the index attains the alternating-path
       bound: forests, and graphs with matching number equal to ordered
       matching number and no pentagon (``equality-class``).
    5. Otherwise no value: ``None``.  ``auto`` gets here only after a budget
       refusal, so its method is ``not computed (budget)``; ``combinatorial``
       consults no budget and says ``not computed (combinatorial)``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (choose from {MODES})")
    r = G.vertex_count
    if mode in ("auto", "combinatorial"):
        shape = _structural_path_or_cycle(G)
        if shape == "path":
            return StabilityResult(path_stability_closed_form(r), "closed-form")
        if shape == "cycle":
            return StabilityResult(cycle_stability_closed_form(r), "closed-form")
    if mode != "oracle":
        try:
            out = stability_certificate(G)
        except CertificateInapplicableError:
            if mode == "certificate":
                raise
            out = None
        if out is not None:
            if mode == "auto":
                try:
                    _check_budget(G, out.value, CROSS_CHECK_ESTIMATE_LIMIT, False)
                    oracle_value = stability_index_oracle(G, field, budget=budget, force=force)
                except BudgetRefusal:
                    return StabilityResult(out.value, "certificate", out)
                if oracle_value != out.value:
                    raise DepthEngineError(f"certificate {out.value} != oracle {oracle_value}")
                return StabilityResult(out.value, "certificate+oracle", out)
            return StabilityResult(out.value, "certificate", out)
    if mode in ("auto", "oracle"):
        try:
            return StabilityResult(stability_index_oracle(G, field, budget=budget, force=force), "oracle")
        except BudgetRefusal:
            if mode == "oracle":
                raise
    if is_forest(G) or (
        matching_number(G) == ordered_matching_number(G) and not has_cycle_of_length(G, 5)
    ):
        return StabilityResult(stability_bound(G), "equality-class")
    return StabilityResult(None, f"not computed ({'budget' if mode == 'auto' else mode})")
