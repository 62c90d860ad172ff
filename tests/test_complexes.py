import random
from itertools import combinations

import pytest

from coverdepth import complexes
from coverdepth.complexes import (
    ComplexError,
    SimplicialComplex,
    from_facets,
    nonzero_degrees,
    reduced_homology,
)
from coverdepth.linalg import PrimeField, Rationals, parse_field, rank, rank_mod, rank_rational
from brute import alexander_dual, dual_homology_check, naive_rank, naive_rank_mod

RP2 = from_facets(6, [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
])

TRIANGLE = from_facets(3, [(1, 2), (2, 3), (1, 3)])


def random_complex(rng, m=5):
    facets = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, m)
        facets.append(tuple(rng.sample(range(1, m + 1), size)))
    return from_facets(m, facets)


def test_from_facets_domination():
    cx = from_facets(3, [(1, 2), (2, 3), (1, 3), (1,)])
    assert cx.facets == TRIANGLE.facets


def test_void_and_irrelevant_distinct():
    void = from_facets(2, [])
    irr = from_facets(2, [()])
    assert void.is_void and not irr.is_void
    assert void != irr
    assert void.facets == () and irr.facets == (frozenset(),)


def test_from_facets_range_check():
    with pytest.raises(ComplexError):
        from_facets(2, [(1, 3)])


def test_alexander_dual_involution():
    rng = random.Random(3)
    for _ in range(20):
        cx = random_complex(rng, m=5)
        assert alexander_dual(alexander_dual(cx)) == cx


def test_alexander_dual_full_simplex_is_void():
    full = from_facets(3, [(1, 2, 3)])
    assert alexander_dual(full).is_void
    assert alexander_dual(from_facets(3, [])) == full


def test_homology_circle():
    assert nonzero_degrees(reduced_homology(TRIANGLE)) == [1]


def test_homology_hollow_square():
    sq = from_facets(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    prof = reduced_homology(sq)
    assert prof[1] == 1 and prof[0] == 0


def test_homology_conventions():
    assert reduced_homology(from_facets(2, [])) == {}
    irr = reduced_homology(from_facets(2, [()]))
    assert irr == {-1: 1}
    two_points = reduced_homology(from_facets(2, [(1,), (2,)]))
    assert two_points == {-1: 0, 0: 1}


def test_overstated_rank_trips_the_dimension_check(monkeypatch):
    # one more than the true rank of each boundary map makes some homology
    # dimension negative, which is the one check reduced_homology keeps
    monkeypatch.setattr(complexes, "rank", lambda rows, field: rank(rows, field) + 1)
    with pytest.raises(AssertionError, match="negative homology dimension"):
        reduced_homology(TRIANGLE)


def test_homology_rp2_by_field():
    assert nonzero_degrees(reduced_homology(RP2, Rationals())) == []
    gf2 = reduced_homology(RP2, PrimeField(2))
    assert gf2[1] == 1 and gf2[2] == 1
    assert nonzero_degrees(reduced_homology(RP2, PrimeField(3))) == []


def test_rp2_is_a_closed_surface():
    triangles = RP2.faces_of_dim(2)
    assert len(triangles) == 10
    for e in combinations(range(1, 7), 2):
        count = sum(1 for t in triangles if set(e) <= t)
        assert count == 2


def test_rp2_ranks_against_naive_oracle():
    # rebuild the boundary matrices independently and rank them both ways
    for d in (1, 2):
        faces_d = RP2.faces_of_dim(d)
        faces_dm1 = RP2.faces_of_dim(d - 1)
        index = {f: i for i, f in enumerate(faces_dm1)}
        rows = [[0] * len(faces_d) for _ in faces_dm1]
        for j, f in enumerate(faces_d):
            for pos, v in enumerate(sorted(f)):
                rows[index[frozenset(f - {v})]][j] = -1 if pos % 2 else 1
        assert rank_rational(rows) == naive_rank(rows)
        assert rank_mod(rows, 2) == naive_rank_mod(rows, 2)


def test_cones_are_acyclic_property():
    rng = random.Random(17)
    for _ in range(15):
        cx = random_complex(rng, m=5)
        if not frozenset.intersection(*cx.facets):  # no vertex lies in every facet
            cone = SimplicialComplex.make(
                tuple(cx.ground) + (9,), [set(f) | {9} for f in cx.facets]
            )
        else:
            cone = cx
        assert nonzero_degrees(reduced_homology(cone)) == []


def test_dual_homology_identity_property():
    rng = random.Random(29)
    assert dual_homology_check(TRIANGLE)
    for _ in range(20):
        cx = random_complex(rng, m=6)
        assert dual_homology_check(cx)
        assert dual_homology_check(cx, PrimeField(2))


def test_rank_routines_against_naive():
    rng = random.Random(43)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        assert rank_rational(rows) == naive_rank(rows)
        for p in (2, 3, 5):
            assert rank_mod(rows, p) == naive_rank_mod(rows, p)


def test_rank_dispatch():
    rows = [[2, 0], [0, 2]]
    assert rank(rows, Rationals()) == 2
    assert rank(rows, PrimeField(2)) == 0


def test_field_parsing():
    assert parse_field("q") == Rationals()
    assert parse_field("gf:5") == PrimeField(5)
    with pytest.raises(ValueError):
        parse_field("gf:4")
    with pytest.raises(ValueError):
        parse_field("complex")
