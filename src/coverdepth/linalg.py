"""Exact rank over the rationals and prime fields, by one sparse elimination.

Boundary matrices here are sparse integer matrices (each boundary row has
d + 1 entries, all +-1); exactness is mandatory because homology dimensions
are the end product.  A row is a mapping column -> nonzero integer.  Each
row is reduced against pivot rows kept by their leading (largest) column,
and the rank is the number of pivot rows.  Over GF(p) entries are kept mod
p and a pivot row is scaled so its lead is 1.  Over Q rows stay integral:
r <- b*r - a*pivot with the leads a, b made coprime, and a row so scaled is
divided by the gcd of its entries, so no fraction ever appears."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Union

# trial division up to sqrt(p) stays around 46,000 steps below this bound
_PRIME_BOUND = 2 ** 31


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
        if self.p >= _PRIME_BOUND:
            raise ValueError(f"prime field size {self.p} is not below the bound 2^31")
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
    if t.startswith("gf:") and t[3:].isdecimal():
        return PrimeField(int(t[3:]))
    raise ValueError(f"unrecognized field {text!r} (use 'q' or 'gf:<p>')")


def rank(rows: list[Mapping[int, int]], field: FieldSpec) -> int:
    """Rank of the matrix whose rows are the sparse ``rows``, over ``field``.
    The rows are not modified."""
    p = field.p if isinstance(field, PrimeField) else 0
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        row = {c: x % p for c, x in given.items() if x % p} if p else dict(given)
        while row:
            # leading at the largest column fills in less than at the least
            # on boundary rows, whose columns are faces in lexicographic order
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if p and row[lead] != 1:
                    inv = pow(row[lead], -1, p)
                    row = {c: x * inv % p for c, x in row.items()}
                pivots[lead] = row
                break
            a, b = row[lead], pivot[lead]
            if p:
                for c, y in pivot.items():
                    x = (row.get(c, 0) - a * y) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                continue
            scaled = b != 1 and b != -1
            if scaled:
                g = gcd(a, b)
                a, b = a // g, b // g
                row = {c: b * x for c, x in row.items()}
            else:
                a *= b  # a / b, as b = +-1
            for c, y in pivot.items():
                x = row.get(c, 0) - a * y
                if x:
                    row[c] = x
                else:
                    del row[c]
            if scaled and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: x // g for c, x in row.items()}
    return len(pivots)
