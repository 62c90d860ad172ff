import random
from itertools import permutations

from coverdepth.graphs import Graph, builtin_graph, cycle_graph, path_graph
from coverdepth.matchings import (
    _canonical_order,
    enumerate_max_ordered_matchings,
    has_perfect_ordered_matching,
    induced_matching_number,
    is_ordered_matching,
    matching_number,
    max_ordered_pair_sets,
    ordered_matching_number,
    ordered_matching_violation,
    perfect_matchings,
    unique_perfect_matching_check,
)
from brute import (
    brute_induced_matching_number,
    brute_matching_number,
    brute_max_ordered_matchings,
    brute_ordered_matching_number,
    is_ordered_by_definition,
    random_small_graph,
    seeded_gnp,
)

STAR3 = Graph.make(4, [(1, 2), (1, 3), (1, 4)])
TWO_EDGES = Graph.make(4, [(1, 2), (3, 4)])


def test_matching_number_examples():
    assert matching_number(path_graph(4)) == 2
    assert matching_number(cycle_graph(5)) == 2
    assert matching_number(cycle_graph(8)) == 4


def test_induced_matching_examples():
    assert induced_matching_number(path_graph(4)) == 1
    assert induced_matching_number(TWO_EDGES) == 2
    assert induced_matching_number(path_graph(6)) == 2


def test_cameron_walker_examples():
    # Cameron-Walker: the induced matching number equals the matching number
    def cameron_walker(G):
        return induced_matching_number(G) == matching_number(G)

    assert cameron_walker(STAR3)
    assert not cameron_walker(path_graph(4))
    assert cameron_walker(Graph.make(6, [(1, 2), (3, 4), (5, 6)]))


def test_is_ordered_matching_examples():
    fig3 = builtin_graph("FIG3")
    assert is_ordered_matching(fig3, [(1, 5), (2, 6), (3, 7), (4, 8)])
    assert not is_ordered_matching(cycle_graph(4), [(1, 2), (3, 4)])
    assert is_ordered_matching(path_graph(2), [(2, 1)])


def test_violation_messages():
    c4 = cycle_graph(4)
    assert "index condition" in ordered_matching_violation(c4, [(1, 2), (3, 4)])
    assert "not independent" in ordered_matching_violation(c4, [(2, 1), (3, 4)])
    assert "not an edge" in ordered_matching_violation(c4, [(1, 3)])


def test_ordering_feasibility_fig1():
    # a valid index order of an oriented pair set is a topological order of
    # its pair digraph; the canonical one is the least
    fig1 = builtin_graph("FIG1")
    order = _canonical_order(fig1, ((1, 5), (2, 6), (3, 7), (4, 8)))
    assert order == ((1, 5), (2, 6), (3, 7), (4, 8))


def test_ordering_feasibility_c4_all_orientations():
    c4 = cycle_graph(4)
    assert _canonical_order(c4, ((1, 2), (3, 4))) is None
    assert _canonical_order(c4, ((2, 1), (4, 3))) is None
    for pairs in (((1, 2), (4, 3)), ((2, 1), (3, 4))):
        assert "not independent" in ordered_matching_violation(c4, pairs)


def test_ordering_feasibility_single_edge():
    assert _canonical_order(path_graph(2), ((1, 2),)) == ((1, 2),)


def test_ordered_matching_number_examples():
    assert ordered_matching_number(cycle_graph(4)) == 1
    assert ordered_matching_number(path_graph(5)) == 2
    assert ordered_matching_number(builtin_graph("FAM(2)")) == 4


def test_ordered_matching_number_against_brute():
    rng = random.Random(23)
    for _ in range(20):
        G = random_small_graph(rng, max_r=6)
        assert ordered_matching_number(G) == brute_ordered_matching_number(G)
        assert matching_number(G) == brute_matching_number(G)
        assert induced_matching_number(G) == brute_induced_matching_number(G)


def test_sandwich_property():
    rng = random.Random(5)
    for _ in range(30):
        G = random_small_graph(rng, max_r=7)
        nu_p, nu_0, nu = induced_matching_number(G), ordered_matching_number(G), matching_number(G)
        assert nu_p <= nu_0 <= nu


def test_enumeration_revalidates():
    rng = random.Random(31)
    for _ in range(15):
        G = random_small_graph(rng, max_r=7)
        oms = enumerate_max_ordered_matchings(G)
        assert oms == tuple(sorted(oms, key=lambda om: om.pairs))
        for om in oms:
            assert is_ordered_matching(G, om.pairs)
            assert om.size == ordered_matching_number(G)


def test_max_ordered_matchings_against_brute():
    rng = random.Random(73)
    graphs = [random_small_graph(rng, max_r=7) for _ in range(40)]
    graphs += [builtin_graph("FIG1"), builtin_graph("FIG3"), builtin_graph("FAM(1)"),
               cycle_graph(4), path_graph(5)]
    # dense graphs, where most orientations die on the free side's independence
    graphs += [seeded_gnp(seed, 8, p) for p in (0.5, 0.6, 0.7) for seed in range(3)]
    perfect = 0
    for G in graphs:
        want = brute_max_ordered_matchings(G)
        oms = enumerate_max_ordered_matchings(G)
        assert len(oms) == len(want)
        assert {(om.edge_set, frozenset(u for u, _ in om.pairs)) for om in oms} == want
        pair_sets = sorted({pair_set for pair_set, _ in want}, key=sorted)
        assert list(max_ordered_pair_sets(G)) == pair_sets
        om = has_perfect_ordered_matching(G)
        if 2 * len(pair_sets[0]) != G.vertex_count:
            assert om is None
            continue
        perfect += 1
        # the first orientation of the first pair set: the least valid index
        # order over all of its orientations
        first = min(
            perm
            for pair_set, free in want if pair_set == pair_sets[0]
            for perm in permutations(tuple(e) if e[0] in free else e[::-1] for e in pair_set)
            if is_ordered_by_definition(G, list(perm))
        )
        assert om is not None and om.pairs == first
    assert perfect >= 3  # the sweep actually exercised the perfect case


def test_enumeration_dedup_by_orientation():
    oms = enumerate_max_ordered_matchings(TWO_EDGES)
    # one pair set, independent sides everywhere: 4 orientations survive
    assert len(oms) == 4
    assert len({om.edge_set for om in oms}) == 1


def test_perfect_ordered_matching_examples():
    fig1 = builtin_graph("FIG1")
    om = has_perfect_ordered_matching(fig1)
    assert om is not None and om.size == 4
    assert has_perfect_ordered_matching(path_graph(5)) is None
    assert has_perfect_ordered_matching(cycle_graph(4)) is None  # matched but not orderable


def test_perfect_ordered_matching_forces_unique_pm():
    rng = random.Random(41)
    hits = 0
    for _ in range(40):
        G = random_small_graph(rng, max_r=8)
        if has_perfect_ordered_matching(G) is not None:
            hits += 1
            assert unique_perfect_matching_check(G)
    assert hits >= 3  # the sweep actually exercised the implication


def test_forest_nu_equals_nu0():
    rng = random.Random(97)
    for _ in range(25):
        r = rng.randint(2, 10)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, r + 1) if rng.random() < 0.75]
        G = Graph.make(r, edges or [(1, 2)])
        assert ordered_matching_number(G) == matching_number(G)


def test_perfect_matchings_c4():
    assert len(perfect_matchings(cycle_graph(4))) == 2
    assert not unique_perfect_matching_check(cycle_graph(4))
