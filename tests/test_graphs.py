import random

import pytest

from coverdepth.graphs import (
    Graph,
    GraphError,
    GraphParseError,
    builtin_graph,
    connected_components,
    cycle_graph,
    has_cycle_of_length,
    is_bipartite,
    is_forest,
    parse_graph,
    path_graph,
)
from brute import independence_complex, induced_subgraph, random_small_graph, vertex_set


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
    with pytest.raises(GraphError):
        Graph.make(3, [])
    G = Graph.make(3, [], allow_edgeless=True)
    assert G.is_edgeless


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
    sub, labels = induced_subgraph(path_graph(4), [1, 4])
    assert sub.is_edgeless and sub.vertex_count == 2
    assert labels == (1, 4)


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
        comps = connected_components(G)
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
