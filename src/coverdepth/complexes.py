"""Simplicial complexes given by facets, and their reduced homology over an
exact field.

A complex is stored as (ground set, facet antichain).  Two degenerate values
are kept distinct: the void complex (no faces at all, empty facet tuple) and
the irrelevant complex {{}} whose single facet is the empty face.  The empty
face is a first-class chain generator in degree -1, so the irrelevant complex
has one-dimensional homology there; the void complex has none anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable

from .linalg import FieldSpec, Rationals, rank

Face = FrozenSet[int]


class ComplexError(ValueError):
    pass


def _canonical_facets(facets: Iterable[Iterable[int]]) -> tuple[Face, ...]:
    sets = {frozenset(int(v) for v in f) for f in facets}
    maximal = [f for f in sets if not any(f < g for g in sets)]
    return tuple(sorted(maximal, key=lambda f: (len(f), sorted(f))))


@dataclass(frozen=True)
class SimplicialComplex:
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


def from_facets(ground_size: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Classic constructor on ground set {1..m}; [] is void, [[]] is {{}}."""
    return SimplicialComplex.make(range(1, ground_size + 1), facets)


def _boundary_rank(field: FieldSpec, faces_d: list[Face], faces_dm1: list[Face]) -> int:
    """Rank of the boundary map from d-chains to (d-1)-chains; both face
    lists are nonempty for the degrees 0..dim that ``reduced_homology`` asks
    for, since the empty face sits in degree -1."""
    index = {f: i for i, f in enumerate(faces_dm1)}
    rows = [[0] * len(faces_d) for _ in faces_dm1]
    for j, f in enumerate(faces_d):
        verts = sorted(f)
        for pos, v in enumerate(verts):
            sub = frozenset(f - {v})
            rows[index[sub]][j] = -1 if pos % 2 else 1
    return rank(rows, field)


def reduced_homology(cx: SimplicialComplex, field: FieldSpec = Rationals()) -> dict[int, int]:
    """Reduced homology dimensions by degree, from boundary-matrix ranks.

    dim H_d = (#d-faces) - rank(boundary_d) - rank(boundary_{d+1}); the empty
    face sits in degree -1.  A negative dimension means an overstated rank
    and raises.
    """
    if cx.is_void:
        return {}
    top = cx.dim
    faces = {d: cx.faces_of_dim(d) for d in range(-1, top + 1)}
    ranks = {d: 0 for d in range(-1, top + 2)}
    for d in range(0, top + 1):
        ranks[d] = _boundary_rank(field, faces[d], faces[d - 1])
    profile = {}
    for d in range(-1, top + 1):
        profile[d] = len(faces[d]) - ranks[d] - ranks[d + 1]
        if profile[d] < 0:
            raise AssertionError(f"negative homology dimension in degree {d}")
    return profile


def nonzero_degrees(profile: dict[int, int]) -> list[int]:
    return sorted(d for d, h in profile.items() if h)
