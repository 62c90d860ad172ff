"""Simplicial complexes as face masks, and their reduced homology over an
exact field.

A complex is the list ``faces`` with ``faces[d + 1]`` the d-faces, each a
vertex mask with bit v - 1 for vertex v.  Two degenerate values are kept
distinct: the void complex ``[]`` (no faces at all) and the irrelevant
complex ``[[0]]`` whose one face is the empty face.  The empty face is a
first-class chain generator in degree -1, so the irrelevant complex has
one-dimensional homology there; the void complex has none anywhere.  The
listers here and in ``degree`` give each degree's faces in lexicographic
order of their vertex lists, which is where ``rank``'s pivots fill in least.
"""

from __future__ import annotations

from typing import Iterable

from .linalg import FieldSpec, Rationals, rank


class ComplexError(ValueError):
    pass


def from_facets(ground_size: int, facets: Iterable[Iterable[int]]) -> list[list[int]]:
    """Every face of the complex on {1..m} with the given facets, which need
    not be maximal; [] is void, [[]] is {{}}."""
    faces: set[int] = set()
    for facet in facets:
        facet = sorted(int(v) for v in facet)
        if facet and not 1 <= facet[0] <= facet[-1] <= ground_size:
            raise ComplexError(f"facet {facet} not inside the ground set")
        mask = sum(1 << (v - 1) for v in set(facet))
        sub = mask
        while True:  # every subset of the facet, down to the empty face
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & mask
    levels: list[list[int]] = [[] for _ in range(max((f.bit_count() for f in faces), default=-1) + 1)]
    for f in sorted(faces, key=lambda f: [v for v in range(ground_size) if f >> v & 1]):
        levels[f.bit_count()].append(f)
    return levels


def _boundary_rank(field: FieldSpec, faces_d: list[int], faces_dm1: list[int]) -> int:
    """Rank of the boundary map from d-chains to (d-1)-chains, one sparse row
    {index of F - v: +-1} per d-face F, the sign alternating with v's place
    in F; both face lists are nonempty for the degrees 0..dim that
    ``reduced_homology`` asks for, since the empty face sits in degree -1."""
    index = {f: i for i, f in enumerate(faces_dm1)}
    rows = []
    for f in faces_d:
        row, rest, sign = {}, f, 1
        while rest:
            low = rest & -rest
            row[index[f ^ low]] = sign
            sign = -sign
            rest ^= low
        rows.append(row)
    return rank(rows, field)


def reduced_homology(faces: list[list[int]], field: FieldSpec = Rationals()) -> dict[int, int]:
    """Reduced homology dimensions by degree of the complex whose d-faces are
    ``faces[d + 1]``, from boundary-matrix ranks.

    dim H_d = (#d-faces) - rank(boundary_d) - rank(boundary_{d+1}); the empty
    face sits in degree -1.  A negative dimension means an overstated rank
    and raises.
    """
    ranks = [0] + [_boundary_rank(field, faces[k], faces[k - 1]) for k in range(1, len(faces))] + [0]
    profile = {}
    for k, level in enumerate(faces):
        profile[k - 1] = len(level) - ranks[k] - ranks[k + 1]
        if profile[k - 1] < 0:
            raise AssertionError(f"negative homology dimension in degree {k - 1}")
    return profile
