import random

import pytest

from coverdepth.complexes import reduced_homology
from coverdepth.degree import _independence_complex
from coverdepth.graphs import Graph, GraphError, builtin_graph, cycle_graph, path_graph
from brute import (
    alexander_dual,
    brute_independent_sets,
    cover_complex,
    degree_complex,
    dual_homology_check,
    face_masks,
    facet_independence_complex,
    independence_complex,
    negative_support,
    neighbour_pairs,
    qualifying_edges,
    random_small_graph,
    symbolic_membership,
)

FIG3_ALPHA = (2, 2, 1, 0, 0, 0, 1, 2)


def test_cover_complex_examples():
    assert cover_complex(path_graph(2)).facets == (frozenset(),)
    assert cover_complex(path_graph(3)).facets == (frozenset({1}), frozenset({3}))
    assert cover_complex(cycle_graph(3)).facets == (
        frozenset({1}), frozenset({2}), frozenset({3})
    )
    with pytest.raises(GraphError):
        cover_complex(Graph.make(2, []))


def test_independence_complex_examples():
    sq = independence_complex(Graph.make(4, [(1, 2), (3, 4)]))
    assert sq.facets == (
        frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 3}), frozenset({2, 4})
    )
    c5 = independence_complex(cycle_graph(5))
    assert set(c5.facets) == {
        frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 4}),
        frozenset({2, 5}), frozenset({3, 5}),
    }


def test_independence_complex_faces_are_independent_sets():
    # the reference derives the faces from its facets; the library lists
    # them from masks, each independent set exactly once
    rng = random.Random(13)
    for _ in range(15):
        G = random_small_graph(rng, max_r=6)
        cx = independence_complex(G)
        faces = {f for d in range(-1, cx.dim + 1) for f in cx.faces_of_dim(d)}
        assert faces == set(brute_independent_sets(G))
        faces_by_degree = _independence_complex(neighbour_pairs(G.vertices(), G.edge_list))
        listed = [m for level in faces_by_degree for m in level]
        assert len(listed) == len(set(listed))
        assert {frozenset(v for v in G.vertices() if m >> (v - 1) & 1) for m in listed} == faces


def test_cover_dual_is_independence_complex():
    rng = random.Random(19)
    for _ in range(15):
        G = random_small_graph(rng, max_r=6)
        assert alexander_dual(cover_complex(G)) == independence_complex(G)


def test_cover_complex_dual_homology_fig3():
    assert dual_homology_check(cover_complex(builtin_graph("FIG3")))


def test_symbolic_membership_examples():
    p2 = path_graph(2)
    assert symbolic_membership(p2, 2, (1, 1))
    assert not symbolic_membership(p2, 2, (1, 0))
    assert not symbolic_membership(cycle_graph(3), 1, (1, 0, 0))


def test_symbolic_membership_rejects_negative():
    with pytest.raises(GraphError):
        symbolic_membership(path_graph(2), 1, (-1, 0))


def test_degree_complex_examples():
    assert degree_complex(path_graph(2), 1, (0, 0)).facets == (frozenset(),)
    fig3 = degree_complex(builtin_graph("FIG3"), 3, FIG3_ALPHA)
    full = set(range(1, 9))
    assert set(fig3.facets) == {
        frozenset(full - {u, v}) for u, v in ((1, 5), (2, 6), (3, 7), (4, 8))
    }
    assert degree_complex(cycle_graph(3), 1, (1, 1, 1)).is_void
    with pytest.raises(ValueError):
        degree_complex(path_graph(2), 0, (0, 0))


def test_degree_complex_negative_support():
    # dropping vertex 9 of FIG2 leaves its 8-vertex restriction
    G = builtin_graph("FIG2")
    alpha = (0,) * 8 + (-2,)
    cx = degree_complex(G, 1, alpha)
    assert cx.ground == tuple(range(1, 9))
    rest = set(range(1, 9))
    assert set(cx.facets) == {frozenset(rest - set(e)) for e in G.edges if 9 not in e}


def test_qualifying_graph_examples():
    # the qualifying graph: the qualifying edges on V minus the negative support,
    # pinned on worked examples because brute's degree complex is built from them
    assert negative_support(FIG3_ALPHA) == ()
    assert set(qualifying_edges(builtin_graph("FIG3"), 3, FIG3_ALPHA)) == {(1, 5), (2, 6), (3, 7), (4, 8)}
    G = cycle_graph(5)
    assert qualifying_edges(G, 1, (0,) * 5) == list(G.edge_list)
    assert qualifying_edges(G, 1, (1,) * 5) == []
    assert negative_support((0, -1, 2, -3)) == (2, 4)
    assert qualifying_edges(G, 2, (0, -1, 0, 1, 0)) == [(1, 5), (3, 4), (4, 5)]


def test_void_iff_membership_property():
    rng = random.Random(37)
    for _ in range(40):
        G = random_small_graph(rng, max_r=6)
        n = rng.randint(1, 3)
        alpha = tuple(rng.randint(0, n) for _ in G.vertices())
        assert degree_complex(G, n, alpha).is_void == symbolic_membership(G, n, alpha)


def test_degree_complex_dual_is_qualifying_independence_property():
    rng = random.Random(47)
    for _ in range(30):
        G = random_small_graph(rng, max_r=6)
        n = rng.randint(1, 3)
        alpha = tuple(rng.randint(0, n) for _ in G.vertices())
        cx = degree_complex(G, n, alpha)
        if cx.is_void:
            continue
        rest = tuple(v for v in G.vertices() if v not in negative_support(alpha))
        dual = facet_independence_complex(rest, qualifying_edges(G, n, alpha))
        assert alexander_dual(cx) == dual


def test_cone_iff_uncovered_vertex_property():
    rng = random.Random(53)
    for _ in range(40):
        G = random_small_graph(rng, max_r=6)
        n = rng.randint(1, 3)
        alpha = tuple(rng.randint(0, n) for _ in G.vertices())
        cx = degree_complex(G, n, alpha)
        if cx.is_void:
            continue
        covered = {v for e in qualifying_edges(G, n, alpha) for v in e}
        lonely = set(cx.ground) - covered
        assert bool(frozenset.intersection(*cx.facets)) == bool(lonely)  # a vertex in every facet


def test_raising_exponents_shrinks_qualifying_set():
    rng = random.Random(59)
    for _ in range(30):
        G = random_small_graph(rng, max_r=6)
        n = rng.randint(1, 3)
        alpha = [rng.randint(0, n) for _ in G.vertices()]
        before = set(qualifying_edges(G, n, alpha))
        v = rng.randint(1, G.vertex_count)
        alpha[v - 1] += 1
        after = set(qualifying_edges(G, n, alpha))
        assert after <= before


def test_takayama_degree_shift_identity():
    # homology of the degree complex (faces from the reference's facets)
    # matches the dual independence complex (faces listed by the library
    # from masks) after the ground-size shift, in every degree
    rng = random.Random(67)
    for _ in range(15):
        G = random_small_graph(rng, max_r=5)
        n = rng.randint(1, 2)
        alpha = tuple(rng.randint(0, n) for _ in G.vertices())
        cx = degree_complex(G, n, alpha)
        if cx.is_void:
            continue
        rest = tuple(v for v in G.vertices() if v not in negative_support(alpha))
        dual = _independence_complex(neighbour_pairs(rest, qualifying_edges(G, n, alpha)))
        m = len(cx.ground)
        prof = reduced_homology(face_masks(cx))
        dual_prof = reduced_homology(dual)
        for d in range(-1, m):
            assert prof.get(d, 0) == dual_prof.get(m - 3 - d, 0)
