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
most |V(E)| - 2; (4) a tighter ceiling holds over every field, by
Hochster's formula and Woodroofe's bound (``_top_over`` states both and
the stop rule they give): j <= |M| - 1 for every maximal matching M, so
i >= r - 1 - |M|.  M is read off the bit code: the edge bits are numbered
by descending degree sum in G, and the lowest edge bit left is kept while
every edge that meets it is dropped.  The grid is searched vertex by
vertex.  A state is the tuple of values of the frontier (placed vertices
with an unplaced neighbour) and holds the distinct bit codes of the edges
decided so far; equal states merge.  Placing a vertex, each state buckets
the edges it closes by the earlier end's value, and a running OR gives the
mask of edges each value adds.  The search returns bit codes.  A visited
set is held as bit masks, vertex -> mask of its neighbours, read straight
from the code; every mask in this module puts vertex v at bit v - 1, as
``Graph.neighbor_masks`` does.  ``_top_degree`` reduces the masks before
any homology: (a) fold, deleting v while N(u) lies in N(v) for some
u != v, which keeps the homotopy type; (b) cone, a vertex left with no
neighbour makes the set acyclic; (c) components, ``graphs.components``
splits what is left into connected parts; (d) join, a disjoint union gives
the join of the parts' complexes, so over a field their top degrees add,
plus one per extra part.  ``reg_edge_ideal`` hands each link to the same
reduction, as the masks of G cut to W': V - N[F] less each vertex v whose
N(v) holds the N(u) of another vertex u of V - N[F] (the greater label
goes where the two are equal), a cut by folds that ``_link_scan`` makes
before the visit, with the ceiling floor(|W'|/2) - 1 of Woodroofe's bound
on W'.  Fold before the memo; the memo holds parts: a cone reaches no
homology, a lone edge has top 0, and only a connected part with more than
one edge that no fold shrinks is read through the bounded memo, keyed on
the frozenset of its (vertex, neighbour mask) pairs, in front of the exact
homology, whose faces are listed straight from those pairs.

(5) The witness lemma.  If the edges that qualify at one grid point of
power n are exactly the nu0 pairs of a maximum ordered matching, then E is
nu0 disjoint edges, Ind(E) on V(E) is the join of nu0 copies of S^0, the
sphere S^(nu0 - 1), whose homology is nonzero in degree nu0 - 1 over every
field, and so depth R/J^(n) <= r - 2 - (nu0 - 1) = r - nu0 - 1, the limit
(Katzman's reg I(H) >= im(H) + 1, JCTA 2006, read through this layout).
At the paper's bound B = ceil(l/2) the shifted path exponents of the
shortest maximum ordered matching give such a point: uncovered vertices
take the value B, which puts them in S, covered ones their exponent, so
each pair sums to B - 1 and every other edge is killed or sums to >= B.
``shifted_exponents`` checks exactly that on every covered edge, so when it
returns, the qualifying edges at the point are the nu0 pairs.
``stability_index_oracle`` decides the index in this order: the admission
rule at n = 1, then at B; the witness at B, which is that call, so no grid
runs at B and a construction failure raises CertificateConstructionError;
then one exact depth per power from B - 1 down by ``depth_symbolic``, which
reads r - reg I(G_n) from the memo of (6); the first depth above the limit
at n gives the index n + 1.

(6) Polarization and the engine choice.  The polarized graph G_n has the
vertices (i, p), i in V and 1 <= p <= n, and an edge (i, p)(j, q) when ij
is an edge of G and p + q <= n + 1; ``_polarized_masks`` puts (i, p) at bit
(p - 1) * r + i - 1.  J(G)^(n) polarizes to J(G_n) (Seyed Fakhari, Proc.
AMS 2018), polarization keeps the projective dimension, and pd S/J(H) =
reg I(H) (Terai 1999), so depth R/J^(n) = r - reg I(G_n); at n = 1 this is
criterion 5's duality.  In this layout the qualifying graph at (S, a') is
the induced subgraph of G_n on {(i, a_i + 1) : i not in S}, since a_i + a_j
<= n - 1 is (a_i + 1) + (a_j + 1) <= n + 1.  ``_link_scan`` reads
reg I(G_n) from the distinct closed neighbourhoods N[F] whose link is no
cone, which ``_link_masks`` lists in one pass per vertex with the cones
pruned as they appear.  It reads each link through W', the set V - N[F]
cut by folds to the vertices that no other lies below; in G_n,
N((i, q)) lies in N((i, p)) for p < q, so each column keeps at most one
layer, |W'| <= r where |V - N[F]| can reach r * n, and the ceiling
floor(|W'|/2) - 1 stops the visit far sooner.
``_reg`` is the one memo of reg I(G_n), for every power, and the one
engine choice, which ``depth_symbolic`` and ``reg_edge_ideal`` (n = 1,
G_1 = G) both read.  It takes the link scan when r * floor(n/2) <= |E|
and the scan completes holding at most 2^|E| masks, and ``_grid_depth``
otherwise.  The listing starts from the mask of G_n's isolated vertices,
the copies of G's, since a link that misses one is a cone on it.  The
layer bound, which the rule still rests on: the layers p > (n + 1)/2 hold
no edge among them, since p + q > n + 1 there, so they form one
independent set; N[F] meets it in F and the isolated vertices alone, so
with r' the number of vertices of G that are not isolated, its
r' * floor(n/2) other vertices give distinct N[F] and the unpruned listing
has at least 2^(r' * floor(n/2)) masks, while the grid returns at most
2^|E| codes.  It bounds the unpruned listing only: the pruned scan holds
far fewer masks, and it completes past the layer bound (C5 at n = 2).
The rule keeps r, which only skips more scans than it must where G has
isolated vertices.  At n = 1 the scan never reaches the cap: each held
mask less the isolated vertices is N[F] for an F without them, which is
the vertex set of the edges of G inside it, so there are at most 2^|E|;
were the cap ever reached, the grid would give the same value.  The rule
bounds the scan by the grid's worst case, 2^|E|, not by the codes the
grid actually returns, so it says nothing of either engine's time or
memory on a given graph: where the cap stops a scan, its time is lost,
and where a scan completes, it can take longer than the grid would.
``depth_profile`` and the n = 1 depths of criteria 5, 10 and 13 call
``_grid_depth`` by name, so each of those checks compares two engines.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional

from .altpaths import (
    ExponentCertificate,
    _shortest_max_ordered,
    alt_path_length,
    shifted_exponents,
    stability_bound,
)
from .complexes import reduced_homology
from .degree import _independence_complex
from .graphs import Graph, components, has_cycle_of_length, is_forest
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


def _fold(nbr: dict[int, int]) -> Optional[list[int]]:
    """Fold the graph given as vertex -> neighbour mask (bit v - 1 for vertex
    v, as in ``Graph.neighbor_masks``) in place, and return the vertex masks
    of the connected components left; None when a vertex has or is left with
    no neighbour, which makes a cone.

    A fold deletes v when N(u) lies in N(v) for some u != v.  For each u in
    turn, every such v is deleted in one step: they are the bits of the AND
    of nbr[w] over w in N(u), less u.  None of them lies in N(u) (it would
    be its own neighbour), so each deletion leaves N(u) and the other
    inclusions intact, and the step is a sequence of single folds.  Passes
    repeat until one deletes nothing; ``graphs.components`` then splits what
    is left."""
    if 0 in nbr.values():
        return None
    folded = True
    while folded:
        folded = False
        for u in list(nbr):
            Nu = nbr.get(u)
            if Nu is None:  # deleted earlier in this pass
                continue
            gone, rest = -1, Nu
            while rest:
                low = rest & -rest
                gone &= nbr[low.bit_length()]
                rest ^= low
            gone &= ~(1 << (u - 1))
            if not gone:
                continue
            folded = True
            touched, rest = 0, gone
            while rest:
                low = rest & -rest
                touched |= nbr.pop(low.bit_length())
                rest ^= low
            touched &= ~gone
            while touched:
                low = touched & -touched
                w = low.bit_length()
                nbr[w] &= ~gone
                if not nbr[w]:
                    return None
                touched ^= low
    return components(nbr, sum(1 << (v - 1) for v in nbr))


def _max_nonzero_degree(edge_key: frozenset, field: FieldSpec) -> Optional[int]:
    """Largest degree with nonzero homology of Ind of the graph whose edge set
    ``edge_key`` names as its (vertex, neighbour mask) pairs, from the
    boundary ranks of the faces that ``_independence_complex`` lists, behind a
    bounded memo; None when acyclic.  ``_top_degree`` hands it only connected
    parts with more than one edge that no fold shrinks; every mask lies
    inside its part, so one key stands for one labelled edge set."""
    key = (edge_key, field)
    if key in _MAX_DEGREE_CACHE:
        return _MAX_DEGREE_CACHE[key]
    homology = reduced_homology(_independence_complex(edge_key), field)
    top = max((d for d, h in homology.items() if h), default=None)
    if len(_MAX_DEGREE_CACHE) >= _MAX_DEGREE_CACHE_SIZE:
        _MAX_DEGREE_CACHE.popitem(last=False)  # oldest first
    _MAX_DEGREE_CACHE[key] = top
    return top


def _top_degree(nbr: dict[int, int], field: FieldSpec) -> Optional[int]:
    """Largest degree with nonzero homology of Ind of the graph given as
    vertex -> neighbour mask, which the fold consumes; None when acyclic.

    A fold keeps the homotopy type (Engstrom 2008) and a vertex without
    neighbours makes a cone; a disjoint union gives a join of complexes
    (Adamaszek 2012), whose top degree over a field is the sum of the
    parts' plus one per extra part.  A lone edge has top 0, and every other
    part goes through ``_max_nonzero_degree`` as the frozenset of its
    (vertex, neighbour mask) pairs.  The graph with no vertex has
    Ind = {{}}, top -1."""
    parts = _fold(nbr)
    if parts is None:
        return None
    top = len(parts) - 1
    for part in parts:
        if part.bit_count() > 2:
            key = frozenset([(v, Nv) for v, Nv in nbr.items() if part >> (v - 1) & 1])
            j = _max_nonzero_degree(key, field)
            if j is None:
                return None
            top += j
    return top


def _top_over(pairs: Iterable[tuple[int, int]], build: Callable[[int], dict[int, int]], field: FieldSpec) -> int:
    """Largest ``_top_degree`` over the graphs ``build(key)`` for the
    (ceiling, key) ``pairs``, taken by non-increasing ceiling; -1 when none
    has homology.  The one stop rule of both engines: a ceiling bounds the
    top degree of its graph and, as the ceilings do not rise, of every
    later one, so the visit stops at the first ceiling at most the top so
    far, before building that graph or taking the next pair.  Both
    engines' ceilings hold over every field: the top degree j of Ind(E)
    obeys j + 2 <= reg I(E) by Hochster's formula (1977), and
    reg I(E) <= |M| + 1 for every maximal matching M of E (Woodroofe,
    J. Commut. Algebra 2014), so j <= |M| - 1, the grid's ceiling;
    |M| <= floor(|W'|/2) gives the link scan's, floor(|W'|/2) - 1 for the
    fold-reduced vertex set W' of a link (``_link_scan``)."""
    top = -1
    for ceiling, key in pairs:
        if ceiling <= top:
            break
        j = _top_degree(build(key), field)
        if j is not None and j > top:
            top = j
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


def _grid_depth(G: Graph, n: int, field: FieldSpec = Rationals()) -> int:
    """depth R/J^(n) by the grid engine, with no admission check.

    One search over the grid {0..n}^V stands for every negative support;
    the module's "Oracle layout" gives the argument (1)-(4) that makes it
    exact.  Each bit code from the grid is read once, for the size of its
    bit-order maximal matching M, into the bucket for |M|; the codes come
    ascending, so the distinct edge sets E are visited by descending |M|,
    from floor(r/2), in ascending bit code within one size.  Each is
    decoded into neighbour masks and handed to ``_top_over`` with the
    ceiling (4), |M| - 1, and the depth is r - 2 - the top it returns.
    """
    r = G.vertex_count
    # edge bits by descending degree sum in G, so the bit-order greedy takes
    # the edges that cover most first
    masks = G.neighbor_masks
    edges = sorted(G.edge_list, key=lambda e: -masks[e[0]].bit_count() - masks[e[1]].bit_count())
    ends = [1 << (u - 1) | 1 << (v - 1) for u, v in edges]
    meets = [sum(1 << i for i, other in enumerate(ends) if other & end) for end in ends]
    # by_size[s]: the codes with |M| = s for the bit-order maximal matching M
    by_size: list[list[int]] = [[] for _ in range(r // 2 + 1)]
    for code in _qualifying_subsets(list(_frontier_order(G)), edges, n, n):
        size, rest = 0, code
        while rest:  # the lowest edge left has two free ends
            size += 1
            rest &= ~meets[(rest & -rest).bit_length() - 1]
        by_size[size].append(code)

    def decoded(code: int) -> dict[int, int]:
        nbr: dict[int, int] = {}
        while code:
            low = code & -code
            u, v = edges[low.bit_length() - 1]
            nbr[u] = nbr.get(u, 0) | 1 << (v - 1)
            nbr[v] = nbr.get(v, 0) | 1 << (u - 1)
            code ^= low
        return nbr

    top = _top_over(((size - 1, code) for size in range(r // 2, 0, -1) for code in by_size[size]), decoded, field)
    if top < 0:
        raise DepthEngineError("no local cohomology contribution found")
    return r - 2 - top


def _polarized_masks(G: Graph, n: int) -> tuple[int, ...]:
    """The polarized graph G_n as neighbour masks, indexed from 1 as in
    ``Graph.neighbor_masks``: vertex (i, p) sits at bit (p - 1) * r + i - 1,
    and it meets (j, q) when ij is an edge of G and p + q <= n + 1.  N(i) in
    G copied into the layers q = 1 .. n + 1 - p is N((i, p))."""
    r, masks = G.vertex_count, G.neighbor_masks
    layers = [sum(1 << (q * r) for q in range(n + 1 - p)) for p in range(1, n + 1)]
    return (0,) + tuple(masks[i] * layer for layer in layers for i in G.vertices())


def _link_masks(masks: tuple[int, ...], cap: int) -> Optional[set[int]]:
    """The distinct closed neighbourhoods N[F] of the graph H given as
    neighbour masks indexed from 1 (as ``Graph.neighbor_masks``) whose link
    Ind(H - N[F]) is no cone; None once more than ``cap`` masks are held.

    The link of F is a cone on v when v lies outside N[F] and every
    neighbour of v inside it: N[F] & N[v] == N(v).  An isolated vertex is
    such a v for every F that misses it, so the listing starts from the one
    mask of the isolated vertices, not from N[{}] = {}.  The vertices are
    processed fewest neighbours first, each in one pass over the held masks:
    N[F + v] = N[F] | N[v], and F + v is independent exactly when v lies
    outside N[F], so v grows c | N[v] from every held mask c that misses v.
    The pass keeps each c that is no cone on v: each later vertex u that
    joins a cone on v lies outside N(v) and is not v, so N[u] misses v,
    every extension stays a cone on v, and a final N[F] that is no cone has
    no prefix that is one.  A grown mask is checked only against the
    processed w whose N(w) meets N(v), listed once per vertex: every other
    processed w is a neighbour of v, which the mask holds, or has N(w) apart
    from N[v], where the mask answers as the one it grew from.  No face of
    Ind(H) is listed."""
    held = {sum(1 << (v - 1) for v in range(1, len(masks)) if not masks[v])}
    done: list[tuple[int, int]] = []  # N[w], N(w) of each processed vertex w
    for v in sorted(range(1, len(masks)), key=lambda v: masks[v].bit_count()):
        Nv, bit = masks[v], 1 << (v - 1)
        closed_v = bit | Nv
        checks = [(closed_w, Nw) for closed_w, Nw in done if Nw & Nv]  # the w whose N(w) meets N(v)
        held, before = set(), held
        for c in before:
            if c & closed_v != Nv:  # no cone on v
                held.add(c)
            if not c & bit:
                grown = c | closed_v
                for closed_w, Nw in checks:
                    if grown & closed_w == Nw:
                        break
                else:
                    held.add(grown)
        if len(held) > cap:
            return None
        done.append((closed_v, Nv))
    return held


def _link_scan(masks: tuple[int, ...], field: FieldSpec, cap: int) -> Optional[int]:
    """reg I(H) for the graph H given as neighbour masks indexed from 1 (as
    ``Graph.neighbor_masks``): 2 + the top degree of homology over the links
    of Ind(H); None once ``_link_masks`` holds more than ``cap`` masks.

    The link of a face F is Ind(H[W]) for W = V - N[F], and a cone is
    acyclic, so only the masks of ``_link_masks`` are read.  Each W is cut
    first to W', the vertices of W that no vertex of W lies below, where u
    lies below v when N(u) is a proper subset of N(v), or N(u) = N(v) and
    u < v as labels, a strict partial order.  N(u) in N(v) holds in every
    induced subgraph, and each deleted v has a minimal u* below it in W,
    which stays in W', so the cut is a sequence of single folds (Engstrom
    2008) and Ind(H[W']) has the homotopy type of Ind(H[W]) over every
    field.  The distinct W' go to ``_top_over`` by descending |W'|, then
    ascending mask, with the ceiling floor(|W'|/2) - 1, and each is built
    into the masks N(v) & W' for v in W' only when read.  On G_n,
    N((i, q)) is a proper subset of N((i, p)) for p < q when i has a
    neighbour, so each column keeps at most its top layer and |W'| <= r."""
    held = _link_masks(masks, cap)
    if held is None:
        return None
    above = [sum(1 << (v - 1) for v, Nv in enumerate(masks) if not Nu & ~Nv and (Nu != Nv or u < v))
             for u, Nu in enumerate(masks)]  # above[u]: the vertices v that u lies below
    everything, reduced = (1 << (len(masks) - 1)) - 1, set()
    for closed in held:
        w = rest = everything & ~closed  # the mask of W, cut to that of W'
        while rest:  # highest v first; what lies above a vertex above v lies above v, so it is skipped
            w &= ~above[rest.bit_length()]
            rest = w & ((1 << (rest.bit_length() - 1)) - 1)
        reduced.add(w)
    # by descending |W'|, then ascending mask, as the sort by size is stable
    return 2 + _top_over(((w.bit_count() // 2 - 1, w)
                          for w in sorted(sorted(reduced), key=int.bit_count, reverse=True)),
                         lambda w: {v: masks[v] & w for v in range(1, len(masks)) if w >> (v - 1) & 1}, field)


@lru_cache(maxsize=64)
def _reg(G: Graph, n: int, field: FieldSpec) -> int:
    """reg I(G_n), memoized like ``_shortest_max_ordered``: by the link scan
    on G_n when the layer bound allows it and the scan completes holding
    at most 2^|E| masks, and as r - ``_grid_depth`` otherwise (the module's
    "Oracle layout" (6)).  Callers ask ``_check_budget`` first."""
    r, m = G.vertex_count, len(G.edges)
    if r * (n // 2) <= m:  # else the layer bound puts more than 2^|E| sets in the unpruned listing
        reg = _link_scan(_polarized_masks(G, n), field, 1 << m)
        if reg is not None:
            return reg
    return r - _grid_depth(G, n, field)


def depth_symbolic(G: Graph, n: int, field: FieldSpec = Rationals(), *,
                   budget: int = DEFAULT_BUDGET, force: bool = False) -> int:
    """depth of R modulo the n-th symbolic power of the cover ideal, read as
    r - reg I(G_n) from ``_reg``."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    _check_budget(G, n, budget, force)
    return G.vertex_count - _reg(G, n, field)


def reg_edge_ideal(G: Graph, field: FieldSpec = Rationals(), *,
                   budget: int = DEFAULT_BUDGET, force: bool = False) -> int:
    """Regularity of the edge ideal, reg I(G_1) = reg I(G) from ``_reg``: at
    n = 1 its link scan on G always completes (the "Oracle layout" (6)), and
    each link is folded, cone-checked and split into parts before the memo,
    exactly as the grid's visit does."""
    _check_budget(G, 1, budget, force)  # the link scan costs what the n = 1 oracle does
    return _reg(G, 1, field)


# -- stability index --------------------------------------------------------

class DepthReport(NamedTuple):
    nu0: int
    limit_depth: int
    profile: dict[int, int]
    stability_index: int


def limit_depth(G: Graph) -> int:
    """r - nu0 - 1, the limit of the symbolic depth function, for the
    profile, the oracle, the report and verify alike."""
    return G.vertex_count - ordered_matching_number(G) - 1


def depth_profile(G: Graph, field: FieldSpec = Rationals(), *,
                  budget: int = DEFAULT_BUDGET, force: bool = False) -> DepthReport:
    """Symbolic depth values for n = 1 .. 2*nu0 - 1, their limit and the
    first index at which the limit is reached.

    The profile must be non-increasing and end at r - nu0 - 1; a violation
    would contradict known behavior of these depth functions and raises.
    On bipartite graphs symbolic and ordinary powers coincide, so the same
    report describes the ordinary depth function as well.  The budget is
    asked at the last power before any depth is computed: the cost estimate
    grows with n, so a profile that would be refused is refused before any
    work.
    """
    nu0 = ordered_matching_number(G)
    _check_budget(G, 2 * nu0 - 1, budget, force)
    profile = {n: _grid_depth(G, n, field) for n in range(1, 2 * nu0)}
    limit = limit_depth(G)
    values = list(profile.values())
    if any(a < b for a, b in zip(values, values[1:])):
        raise DepthEngineError(f"profile {profile} is not non-increasing")
    if values[-1] != limit:
        raise DepthEngineError(f"profile ends at {values[-1]}, expected {limit}")
    stab = min(n for n, d in profile.items() if d <= limit)
    return DepthReport(nu0, limit, profile, stab)


def stability_index_oracle(G: Graph, field: FieldSpec = Rationals(), *,
                           budget: int = DEFAULT_BUDGET, force: bool = False) -> int:
    """Least n with depth R/J^(n) <= r - nu0 - 1, decided from the paper's
    bound B down.

    The symbolic depth function of a cover ideal is non-increasing with
    limit r - nu0 - 1 (Hoa, Kimura, Terai and Trung, J. Algebra 2017), so
    once depth(B) is at the limit the index is n + 1 for the largest n < B
    whose depth is above the limit, or 1.  The witness at B (the layout's
    point (5)) shows that with no grid: it is ``shifted_exponents`` at B on
    the shortest maximum ordered matching, whose own edge check makes the
    qualifying edges exactly the pairs, and a construction failure raises
    CertificateConstructionError.  Below B each power gets one exact depth,
    from B - 1 down.

    Admission is asked at n = 1 before the bound is computed, then at B.
    The cost estimate grows with n, so admission at B admits every power
    below it; a graph refused at B is scanned upward from n = 1 instead,
    which returns the index or is refused by n = B.  Either way
    ``BudgetRefusal`` is raised exactly when, and as, the plain upward scan
    over ``depth_symbolic`` raises it.
    """
    _check_budget(G, 1, budget, force)
    limit, bound = limit_depth(G), stability_bound(G)

    def above(n: int) -> bool:
        return depth_symbolic(G, n, field, budget=budget, force=force) > limit

    try:
        _check_budget(G, bound, budget, force)
    except BudgetRefusal:
        return next(n for n in range(1, bound + 1) if not above(n))
    shifted_exponents(G, _shortest_max_ordered(G)[1], bound)  # the witness at B, or it raises
    return next((n + 1 for n in range(bound - 1, 0, -1) if above(n)), 1)


# -- perfect-matching certificate -------------------------------------------

def feasible_exponents(G: Graph, om: OrderedMatching, n: int) -> Optional[dict[int, int]]:
    """A nonnegative vector with pair sums <= n - 1 and all other covered-edge
    sums >= n, or None.  Deterministic: pairs are assigned in reverse index
    order with lexicographic value choices, so cross constraints to already
    assigned pairs check immediately."""
    pairs = om.pairs
    masks = G.neighbor_masks
    # per pair: edges from its endpoints into later pairs (assigned before it)
    later_edges: list[list[tuple[int, int]]] = []
    position = {}  # covered vertex -> index of its pair
    for i, (u, v) in enumerate(pairs):
        position[u] = i
        position[v] = i
    for i, (u, v) in enumerate(pairs):
        lst = []
        for x in (u, v):
            rest = masks[x]
            while rest:
                low = rest & -rest
                w = low.bit_length()
                if position.get(w, -1) > i:
                    lst.append((x, w))
                rest ^= low
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
    masks = G.neighbor_masks
    if len(components(masks, (1 << G.vertex_count) - 1)) != 1 or any(m.bit_count() > 2 for m in masks):
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


class StabilityResult(NamedTuple):
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

    if mode in ("auto", "combinatorial"):
        shape = _structural_path_or_cycle(G)
        if shape == "path":
            return StabilityResult(path_stability_closed_form(G.vertex_count), "closed-form")
        if shape == "cycle":
            return StabilityResult(cycle_stability_closed_form(G.vertex_count), "closed-form")
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
