"""Exact rank computation over the rationals and prime fields.

Boundary matrices here are small integer matrices; exactness is mandatory
because homology dimensions are the end product.  Rational ranks use
fraction-free (Bareiss) elimination, prime-field ranks use standard
elimination with modular inverses, with a bitset fast path for GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Rationals:
    @property
    def label(self) -> str:
        return "q"


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def label(self) -> str:
        return f"gf:{self.p}"


FieldSpec = Union[Rationals, PrimeField]


def parse_field(text: str) -> FieldSpec:
    t = text.strip().lower()
    if t in ("q", "qq", "0", "rationals"):
        return Rationals()
    if t.startswith("gf:"):
        return PrimeField(int(t[3:]))
    raise ValueError(f"unrecognized field {text!r} (use 'q' or 'gf:<p>')")


Matrix = Sequence[Sequence[int]]


def rank_rational(rows: Matrix) -> int:
    """Rank over the rationals by fraction-free elimination (exact divisions)."""
    m = [list(map(int, row)) for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    prev = 1
    pr = 0
    for pc in range(nc):
        piv = next((i for i in range(pr, nr) if m[i][pc] != 0), None)
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        pivot = m[pr][pc]
        for i in range(pr + 1, nr):
            row_i, row_p = m[i], m[pr]
            factor = row_i[pc]
            for j in range(pc + 1, nc):
                row_i[j] = (row_i[j] * pivot - factor * row_p[j]) // prev
            row_i[pc] = 0
        prev = pivot
        pr += 1
        if pr == nr:
            break
    return pr


def rank_mod(rows: Matrix, p: int) -> int:
    if p == 2:
        return _rank_gf2(rows)
    m = [[x % p for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    pr = 0
    for pc in range(nc):
        piv = next((i for i in range(pr, nr) if m[i][pc]), None)
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        inv = pow(m[pr][pc], -1, p)
        row_p = m[pr]
        for j in range(pc, nc):
            row_p[j] = row_p[j] * inv % p
        for i in range(pr + 1, nr):
            f = m[i][pc]
            if f:
                row_i = m[i]
                for j in range(pc, nc):
                    row_i[j] = (row_i[j] - f * row_p[j]) % p
        pr += 1
        if pr == nr:
            break
    return pr


def _rank_gf2(rows: Matrix) -> int:
    """GF(2) rank with rows packed into Python ints."""
    packed = []
    for row in rows:
        acc = 0
        for j, x in enumerate(row):
            if x & 1:
                acc |= 1 << j
        if acc:
            packed.append(acc)
    rank = 0
    while packed:
        pivot_row = min(packed, key=lambda r: r & -r)
        low = pivot_row & -pivot_row
        rank += 1
        packed = [r ^ pivot_row if r & low else r for r in packed if r != pivot_row]
        packed = [r for r in packed if r]
    return rank


def rank(rows: Matrix, field: FieldSpec) -> int:
    if isinstance(field, Rationals):
        return rank_rational(rows)
    return rank_mod(rows, field.p)
