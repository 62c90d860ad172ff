"""Seeded graph generators and the batch family mini-language.

Family specs accepted by the batch runner:
    "paths 2..8"
    "cycles 3..8"
    "forests seed=1 count=50 maxr=9"
    "graphs seed=7 count=100 maxr=8"
Generators are deterministic for the spec's ``seed=`` (default 0); the seed
travels with every generated instance so reports are reproducible.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import Graph, GraphError, cycle_graph, path_graph


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    graph: Graph
    seed: Optional[int] = None


def random_graph(rng: random.Random, max_r: int) -> Graph:
    r = rng.randint(2, max_r)
    p = rng.uniform(0.2, 0.6)
    edges = [
        (u, v)
        for u in range(1, r + 1)
        for v in range(u + 1, r + 1)
        if rng.random() < p
    ]
    if not edges:
        u = rng.randint(1, r - 1)
        edges = [(u, u + 1)]
    return Graph.make(r, edges)


def random_forest(rng: random.Random, max_r: int) -> Graph:
    r = rng.randint(2, max_r)
    edges = []
    for v in range(2, r + 1):
        if rng.random() < 0.8:
            edges.append((rng.randint(1, v - 1), v))
    if not edges:
        edges = [(1, 2)]
    return Graph.make(r, edges)


def random_graphs(seed: int, count: int, max_r: int) -> Iterator[FamilyInstance]:
    rng = random.Random(seed)
    for i in range(count):
        yield FamilyInstance(f"graph-seed{seed}-{i}", random_graph(rng, max_r), seed)


def random_forests(seed: int, count: int, max_r: int) -> Iterator[FamilyInstance]:
    rng = random.Random(seed)
    for i in range(count):
        yield FamilyInstance(f"forest-seed{seed}-{i}", random_forest(rng, max_r), seed)


_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _parse_kv(tokens: list[str], required: tuple[str, ...]) -> dict[str, int]:
    out: dict[str, int] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k != "seed" and k not in required:
            raise ValueError(f"unknown key {k!r} in family spec")
        if k in out:
            raise ValueError(f"repeated key {k!r} in family spec")
        try:
            out[k] = int(v)
        except ValueError:
            raise ValueError(f"value of {k!r} must be an integer in family spec, got {v!r}") from None
    missing = [k for k in required if k not in out]
    if missing:
        raise ValueError(f"missing {', '.join(missing)} in family spec")
    return out


def parse_family_spec(spec: str) -> list[FamilyInstance]:
    tokens = spec.split()
    if not tokens:
        raise ValueError("empty family spec")
    kind, rest = tokens[0].lower(), tokens[1:]
    if kind in ("paths", "cycles"):
        if len(rest) != 1 or not _RANGE_RE.match(rest[0]):
            raise ValueError(f"expected '{kind} A..B'")
        lo, hi = map(int, _RANGE_RE.match(rest[0]).groups())
        if lo > hi:
            raise ValueError(f"empty range {lo}..{hi}")
        make = path_graph if kind == "paths" else cycle_graph
        prefix = "P" if kind == "paths" else "C"
        try:
            return [FamilyInstance(f"{prefix}{r}", make(r)) for r in range(lo, hi + 1)]
        except GraphError as exc:
            raise ValueError(str(exc)) from exc
    if kind in ("forests", "graphs"):
        kv = _parse_kv(rest, ("count", "maxr"))
        if kv["count"] < 0:
            raise ValueError(f"count must be >= 0 in family spec, got {kv['count']}")
        if kv["maxr"] < 2:
            raise ValueError(f"maxr must be >= 2 in family spec (a graph needs two vertices), got {kv['maxr']}")
        seed = kv.get("seed", 0)
        gen = random_forests if kind == "forests" else random_graphs
        return list(gen(seed, kv["count"], kv["maxr"]))
    raise ValueError(f"unknown family kind {kind!r}")
