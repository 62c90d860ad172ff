import random

import pytest

from coverdepth.altpaths import (
    alt_path_length,
    min_alt_path_length,
    partner_path_lengths,
    path_exponents,
    profile,
    shifted_exponents,
    stability_bound,
    walk_length,
)
from coverdepth.graphs import builtin_graph, cycle_graph, is_bipartite, path_graph
from coverdepth.matchings import (
    OrderedMatching,
    enumerate_max_ordered_matchings,
    has_perfect_ordered_matching,
    _max_ordered,
)
from brute import brute_walk_length, random_small_graph

M_1234 = OrderedMatching(((1, 5), (2, 6), (3, 7), (4, 8)))
FIG2_ALT = OrderedMatching(((1, 5), (2, 6), (4, 9), (3, 8)))


def test_partner_lengths_fig2():
    assert partner_path_lengths(builtin_graph("FIG2"), M_1234) == {5: 3, 6: 1, 7: 3, 8: 1}


def test_partner_lengths_fig3():
    assert partner_path_lengths(builtin_graph("FIG3"), M_1234) == {5: 5, 6: 5, 7: 3, 8: 1}


def test_partner_lengths_single_edge():
    assert partner_path_lengths(path_graph(2), OrderedMatching(((1, 2),))) == {2: 1}


def test_profile_fig2():
    p = profile(builtin_graph("FIG2"), M_1234)
    assert (p.base_max, p.bridged_max, p.length) == (3, 7, 7)


def test_profile_fig1():
    p = profile(builtin_graph("FIG1"), M_1234)
    assert (p.base_max, p.bridged_max, p.length) == (7, 13, 13)


def test_independent_partner_side_means_base_only():
    p = profile(builtin_graph("FIG3"), M_1234)
    assert p.bridged_max == 0 and p.length == p.base_max == 5


def test_walk_lengths_paper_values():
    assert walk_length(builtin_graph("FIG1"), M_1234) == 13
    assert walk_length(builtin_graph("FIG2"), FIG2_ALT) == 4
    assert walk_length(path_graph(2), OrderedMatching(((1, 2),))) == 1


def test_walk_exceeds_operative_value_on_uncovered_vertex():
    # vertex 9 is uncovered; walks may end there, the operative value ignores it
    G = builtin_graph("FIG2")
    assert alt_path_length(G, M_1234) == 7
    assert walk_length(G, M_1234) == 8


def test_walk_against_brute_enumeration():
    rng = random.Random(61)
    checked = 0
    for _ in range(30):
        G = random_small_graph(rng, max_r=6)
        groups = _max_ordered(G)
        if not groups:
            continue
        om = groups[0][1][0]  # first orientation of the first pair set
        checked += 1
        assert walk_length(G, om) == brute_walk_length(G, om.pairs)
    assert checked >= 20


def test_invalid_matching_rejected():
    with pytest.raises(ValueError, match="index condition"):
        partner_path_lengths(cycle_graph(4), OrderedMatching(((1, 2), (3, 4))))
    with pytest.raises(ValueError):
        walk_length(cycle_graph(4), OrderedMatching(((1, 2), (3, 4))))


def test_all_partner_lengths_odd_property():
    rng = random.Random(71)
    for _ in range(30):
        G = random_small_graph(rng, max_r=7)
        for om in enumerate_max_ordered_matchings(G)[:6]:
            lengths = partner_path_lengths(G, om)
            assert all(l % 2 == 1 for l in lengths.values())
            p = profile(G, om)
            assert p.base_max % 2 == 1
            assert p.bridged_max == 0 or p.bridged_max % 2 == 1


def test_length_invariant_across_orientations():
    rng = random.Random(83)
    for _ in range(25):
        G = random_small_graph(rng, max_r=7)
        for _, oms in _max_ordered(G):
            values = {alt_path_length(G, om) for om in oms}
            assert len(values) == 1


def test_length_caps_property():
    rng = random.Random(89)
    for _ in range(25):
        G = random_small_graph(rng, max_r=7)
        bip = is_bipartite(G) is not None
        for om in enumerate_max_ordered_matchings(G)[:8]:
            val = alt_path_length(G, om)
            assert val <= 4 * om.size - 3
            if bip:
                assert val <= 2 * om.size - 1


def test_walk_equals_length_when_covering():
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        G = random_small_graph(rng, max_r=8)
        om = has_perfect_ordered_matching(G)
        if om is None:
            continue
        checked += 1
        assert walk_length(G, om) == alt_path_length(G, om)
    assert checked >= 3


def test_perfect_matchings_share_the_length():
    # with a perfect ordered matching the graph invariant is its length
    for name in ("FIG1", "FIG3", "FAM(1)", "FAM(2)"):
        G = builtin_graph(name)
        om = has_perfect_ordered_matching(G)
        assert om is not None
        assert min_alt_path_length(G) == alt_path_length(G, om)


@pytest.mark.parametrize("r, expected", [(2, 1), (3, 1), (4, 3), (5, 1), (6, 5), (7, 3), (8, 7)])
def test_min_length_paths_closed_form(r, expected):
    assert min_alt_path_length(path_graph(r)) == expected


@pytest.mark.parametrize("r, expected", [(4, 1), (6, 1), (8, 3)])
def test_min_length_even_cycles(r, expected):
    assert min_alt_path_length(cycle_graph(r)) == expected


def test_min_length_family():
    for s in (1, 2, 3):
        assert min_alt_path_length(builtin_graph(f"FAM({s})")) == 4 * s - 1


def test_path_exponents_fig3():
    cert = path_exponents(builtin_graph("FIG3"), M_1234)
    assert cert.vector() == (2, 2, 1, 0, 0, 0, 1, 2)
    assert cert.value == 3


def test_path_exponents_fig1_cross_edges_only():
    cert = path_exponents(builtin_graph("FIG1"), M_1234)
    assert cert.vector() == (3, 2, 1, 0, 0, 1, 2, 3)
    assert cert.value == 4


def test_path_exponents_single_edge():
    cert = path_exponents(path_graph(2), OrderedMatching(((1, 2),)))
    assert cert.vector() == (0, 0) and cert.value == 1


def test_shifted_exponents_fig1():
    cert = shifted_exponents(builtin_graph("FIG1"), M_1234, 7)
    assert cert.vector() == (3, 2, 1, 0, 3, 4, 5, 6)


def test_shifted_exponents_fig3_defaults_to_alpha():
    cert = shifted_exponents(builtin_graph("FIG3"), M_1234, 3)
    assert cert.vector() == (2, 2, 1, 0, 0, 0, 1, 2)


def test_shifted_exponents_single_edge():
    cert = shifted_exponents(path_graph(2), OrderedMatching(((1, 2),)), 1)
    assert cert.vector() == (0, 0)


def test_shifted_exponents_validate_on_random_perfect_matchings():
    rng = random.Random(113)
    checked = 0
    for _ in range(40):
        G = random_small_graph(rng, max_r=8)
        om = has_perfect_ordered_matching(G)
        if om is None:
            continue
        checked += 1
        n = (alt_path_length(G, om) + 1) // 2
        cert = shifted_exponents(G, om)  # verifies its own constraints
        assert cert.value == n
        pair_edges = om.edge_set
        for u, v in G.edge_list:
            total = cert.witness[u] + cert.witness[v]
            if (u, v) in pair_edges:
                assert total == n - 1
            else:
                assert total >= n
    assert checked >= 3


def test_shifted_exponents_power_below_base_rejected():
    with pytest.raises(ValueError):
        shifted_exponents(builtin_graph("FIG1"), M_1234, 3)  # base value is 4


def test_stability_bound():
    assert stability_bound(builtin_graph("FIG1")) == 7
    assert stability_bound(path_graph(8)) == 4
