import random

import pytest

from coverdepth.graphs import (
    Graph,
    GraphError,
    GraphParseError,
    builtin_graph,
    components,
    cycle_graph,
    has_cycle_of_length,
    is_bipartite,
    is_forest,
    parse_graph,
    path_graph,
)
from brute import (
    brute_components,
    brute_has_cycle_of_length,
    brute_is_bipartite,
    brute_is_forest,
    independence_complex,
    induced_subgraph,
    random_small_graph,
    vertex_set,
)


def _vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1)


def _seeded_graphs(count: int, seed: int):
    """Graphs on r <= 9 vertices, from sparse to dense, so that isolated
    vertices and several components with edges are common."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(2, 9)
        p = rng.choice((0.12, 0.25, 0.5, 0.8))
        edges = [(u, v) for u in range(1, r + 1) for v in range(u + 1, r + 1) if rng.random() < p]
        yield Graph.make(r, edges or [(1, r)])


def test_parse_path4():
    G = parse_graph("p 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    assert G == path_graph(4)


def test_parse_comments_and_blanks():
    G = parse_graph("# a path\np 2 1\n\ne 1 2  # the only edge\n")
    assert G.edge_list == ((1, 2),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p 2 1\ne 1 1\n", "loop"),
        ("p 3 1\ne 1 4\n", "out of range"),
        ("p 3 2\ne 1 2\ne 1 2\n", "duplicate"),
        ("p x 1\ne 1 2\n", "malformed header"),
        ("p 3 2\ne 1 2\n", "announced 2 edges"),
        ("p 3 0\n", "announces no edges"),
        ("e 1 2\n", "before header"),
        ("p 3 1\ne \u0661 2\n", "malformed edge line"),
        ("p 1_0 1\ne 1 2\n", "malformed header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_error_names_line():
    with pytest.raises(GraphParseError) as err:
        parse_graph("p 4 2\ne 1 2\ne 3 3\n")
    assert err.value.line_no == 3


def test_make_rejects_empty_edges_unless_flagged():
    with pytest.raises(GraphError, match="at least one edge"):
        Graph.make(3, [])
    with pytest.raises(GraphError, match="at least one edge"):
        Graph(3, frozenset())


@pytest.mark.parametrize("edges", [{(2, 1)}, {(1, 1), (1, 2)}, {(1, 9)}, {(0, 1)}])
def test_direct_constructor_checks_edges(edges):
    with pytest.raises(GraphError, match="1 <= u < v <= 3"):
        Graph(3, frozenset(edges))


def test_parse_keeps_signed_ascii_integers():
    G = parse_graph("p +3 1\ne 1 +2\n")
    assert (G.vertex_count, G.edges) == (3, {(1, 2)})


def test_builtin_family_s1():
    G = builtin_graph("FAM(1)")
    assert G.vertex_count == 4
    assert G.edges == {(1, 3), (2, 4), (3, 4)}


def test_builtin_fig_sizes():
    assert len(builtin_graph("FIG1").edges) == 8
    assert len(builtin_graph("FIG2").edges) == 8
    assert builtin_graph("FIG3").edges == {
        (1, 5), (2, 6), (3, 7), (4, 8), (1, 7), (2, 7), (3, 8)
    }


def test_builtin_char16():
    G = builtin_graph("CHAR16")
    assert G.vertex_count == 16
    assert len(G.edges) == 30
    parts = is_bipartite(G)
    assert parts is not None
    assert set(parts[0]) | set(parts[1]) == set(range(1, 17))


def test_builtin_unknown():
    with pytest.raises(GraphError):
        builtin_graph("FIG9")
    with pytest.raises(GraphError, match="unknown builtin"):
        builtin_graph("FAM(\u0662)")  # Arabic-Indic two, not FAM(2)


def test_generators():
    assert path_graph(2).edge_list == ((1, 2),)
    assert cycle_graph(5).edges == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        path_graph(1)


def test_induced_subgraph_c4_to_p3():
    sub, labels = induced_subgraph(cycle_graph(4), [1, 2, 3])
    assert labels == (1, 2, 3)
    assert sub == path_graph(3)


def test_induced_subgraph_fig2_drop_9():
    G = builtin_graph("FIG2")
    sub, labels = induced_subgraph(G, range(1, 9))
    assert labels == tuple(range(1, 9))
    assert sub.edges == G.edges - {(4, 9)}


def test_induced_subgraph_edgeless():
    with pytest.raises(GraphError, match="at least one edge"):
        induced_subgraph(path_graph(4), [1, 4])


def test_induced_subgraph_identity():
    G = builtin_graph("FIG1")
    sub, labels = induced_subgraph(G, G.vertices())
    assert sub == G
    assert labels == tuple(G.vertices())


def test_induced_subgraph_empty_subset():
    with pytest.raises(GraphError):
        induced_subgraph(path_graph(3), [])


def test_bipartite_and_cycles():
    assert is_bipartite(cycle_graph(5)) is None
    assert is_bipartite(cycle_graph(6)) is not None
    assert has_cycle_of_length(cycle_graph(5), 5)
    assert not has_cycle_of_length(path_graph(6), 5)


def test_pentagon_subgraph_not_induced():
    # C6 plus one chord carries a 5-cycle through the chord
    G = Graph.make(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 6)])
    assert has_cycle_of_length(G, 5)
    assert has_cycle_of_length(G, 6)
    assert not has_cycle_of_length(G, 4)


def test_independent_set_fig3():
    # the independent sets are the faces of the independence complex
    assert frozenset({1, 2, 3, 4}) in independence_complex(builtin_graph("FIG3")).faces_of_dim(3)
    assert frozenset({1, 2}) not in independence_complex(cycle_graph(4)).faces_of_dim(1)


def test_vertex_set_validation():
    assert vertex_set([3, 1, 1], 4) == (1, 3)
    with pytest.raises(GraphError):
        vertex_set([0], 4)


def test_components_partition_property():
    rng = random.Random(7)
    for _ in range(25):
        G = random_small_graph(rng, max_r=8)
        comps = [_vertices_of(part) for part in components(G.neighbor_masks, (1 << G.vertex_count) - 1)]
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == list(G.vertices())
        owner = {v: i for i, comp in enumerate(comps) for v in comp}
        for u, v in G.edges:
            assert owner[u] == owner[v]


def test_forest_implies_bipartition_property():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(2, 10)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, r + 1) if rng.random() < 0.7]
        G = Graph.make(r, edges or [(1, 2)])
        assert is_forest(G)
        assert is_bipartite(G) is not None


def test_mask_predicates_match_set_references():
    # components, two-colouring, forest and k-cycles on neighbour masks
    # against set-based searches that read only G.edges
    isolated = split = 0
    for G in _seeded_graphs(400, seed=30):
        full = (1 << G.vertex_count) - 1
        comps = [_vertices_of(part) for part in components(G.neighbor_masks, full)]
        assert comps == brute_components(G), G.edge_list
        isolated += any(len(comp) == 1 for comp in comps)
        split += sum(len(comp) > 1 for comp in comps) > 1
        # the fold's form: a vertex -> mask dict over part of the vertex set
        keep = [v for v in G.vertices() if v % 3]
        W = sum(1 << (v - 1) for v in keep)
        cut = [_vertices_of(part) for part in components({v: G.neighbor_masks[v] & W for v in keep}, W)]
        assert cut == brute_components(G, keep), (G.edge_list, keep)
        sides = is_bipartite(G)
        assert sides == brute_is_bipartite(G), G.edge_list
        if sides is not None:
            assert sorted(sides[0] + sides[1]) == list(G.vertices())
            assert all((u in sides[0]) != (v in sides[0]) for u, v in G.edges)
        assert is_forest(G) == brute_is_forest(G), G.edge_list
        for k in range(3, 8):
            assert has_cycle_of_length(G, k) == brute_has_cycle_of_length(G, k), (G.edge_list, k)
    assert isolated > 50 and split > 20, (isolated, split)

