"""Outside-in layer tracing for the coverdepth package.

The tracer wraps the package's layer entry points from outside: each hook
names a module and an attribute, and the wrapper replaces that function in
every ``coverdepth`` module namespace that holds the same object, so calls
through ``from .x import f`` copies are seen too.  Nothing under ``src/`` is
edited.

Each wrapped call is a span on a per-thread stack.  A span's self time is
its duration minus the time covered by its child spans; self time, calls
and the computed counts (grid points, edge sets, rank entries, cache bytes)
are aggregated per metric.  A hook whose module or attribute no longer
exists makes its metrics absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Hook:
    module: str             # where the function is defined
    attr: str
    metric: str             # span metric prefix, e.g. "linalg.rank"
    extra: Optional[Callable] = None   # (stats, args, kwargs, result) -> None
    generator: bool = False  # count yielded items instead of spanning


def _grid_counts(stats, args, kwargs, result):
    rest, _induced, _n, cap = args[:4]
    stats.add("depth.grid.points", (cap + 1) ** len(rest))
    stats.add("depth.grid.edge_sets", len(result))


def _rank_entries(stats, args, kwargs, result):
    rows = args[0]
    stats.add("linalg.rank.entries", len(rows) * (len(rows[0]) if rows else 0))


def _cache_get_hit(stats, args, kwargs, result):
    stats.add("cache.get.hits", result is not None)


def _cache_put_bytes(stats, args, kwargs, result):
    value = args[1] if len(args) > 1 else kwargs["value"]
    stats.add("cache.put.bytes", len(json.dumps(value, sort_keys=True).encode("utf-8")))


HOOKS = (
    Hook("coverdepth.depth", "_qualifying_subsets", "depth.grid", _grid_counts),
    Hook("coverdepth.depth", "depth_symbolic", "depth.depth_symbolic"),
    Hook("coverdepth.depth", "reg_edge_ideal", "depth.reg_edge_ideal"),
    Hook("coverdepth.depth", "stability_certificate", "depth.certificate"),
    Hook("coverdepth.depth", "feasible_exponents", "depth.certificate.feasible"),
    Hook("coverdepth.degree", "_independence_complex", "degree.independence_complex"),
    Hook("coverdepth.complexes", "reduced_homology", "complexes.reduced_homology"),
    Hook("coverdepth.linalg", "rank", "linalg.rank", _rank_entries),
    Hook("coverdepth.matchings", "ordered_matching_number", "matchings.ordered_matching_number"),
    Hook("coverdepth.matchings", "max_ordered_pair_sets", "matchings.max_ordered_pair_sets"),
    Hook("coverdepth.matchings", "iter_matchings", "matchings.iter_matchings", generator=True),
    Hook("coverdepth.matchings", "matching_number", "matchings.other"),
    Hook("coverdepth.matchings", "induced_matching_number", "matchings.other"),
    Hook("coverdepth.matchings", "perfect_matchings", "matchings.other"),
    Hook("coverdepth.matchings", "has_perfect_ordered_matching", "matchings.other"),
    Hook("coverdepth.altpaths", "min_alt_path_length", "altpaths.min_alt_path_length"),
    Hook("coverdepth.altpaths", "walk_length", "altpaths.walk_length"),
    Hook("coverdepth.altpaths", "alt_path_length", "altpaths.other"),
    Hook("coverdepth.altpaths", "profile", "altpaths.other"),
    Hook("coverdepth.analyzer", "analyze", "analyzer.analyze"),
    Hook("coverdepth.analyzer", "batch", "analyzer.batch"),
    Hook("coverdepth.cache", "get", "cache.get", _cache_get_hit),
    Hook("coverdepth.cache", "put", "cache.put", _cache_put_bytes),
)

# The _max_nonzero_degree memo is counted, not spanned: its lookups belong
# to the oracle driver's self time.
MEMO_MODULE, MEMO_FUNC, MEMO_TABLE = "coverdepth.depth", "_max_nonzero_degree", "_MAX_DEGREE_CACHE"
LATENCY_METRICS = {"analyzer.analyze"}  # spans whose every duration is kept, for percentiles


class Stats:
    """Span stack per thread plus aggregated self times, calls and counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(amount)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, metric: str, fn: Callable, args, kwargs):
        stack = self._stack()
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.self_s[metric] = self.self_s.get(metric, 0.0) + duration - frame[0]
                self.calls[metric] = self.calls.get(metric, 0) + 1
                if metric in LATENCY_METRICS:
                    self.durations.setdefault(metric, []).append(duration)


def _package_modules() -> list:
    import coverdepth

    mods = [coverdepth]
    for info in pkgutil.iter_modules(coverdepth.__path__, "coverdepth."):
        mods.append(importlib.import_module(info.name))
    return mods


def _wrap(stats: Stats, hook: Hook, fn: Callable) -> Callable:
    if hook.generator:
        def counting(*args, **kwargs):
            for item in fn(*args, **kwargs):
                stats.add(hook.metric + ".yielded", 1)
                yield item
        wrapper = counting
    else:
        def wrapper(*args, **kwargs):
            result = stats.span(hook.metric, fn, args, kwargs)
            if hook.extra is not None:
                hook.extra(stats, args, kwargs, result)
            return result
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", hook.attr)
    return wrapper


def _wrap_memo(stats: Stats, table: dict, fn: Callable) -> Callable:
    def memo(edge_key, field):
        stats.add("depth.memo.calls", 1)
        stats.add("depth.memo.hits", (edge_key, field) in table)
        return fn(edge_key, field)
    memo.__wrapped__ = fn
    return memo


def _replace_everywhere(modules: list, original: Any, replacement: Any) -> None:
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def _lookup(module: str, attr: str) -> Any:
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def install(stats: Stats) -> list[str]:
    """Wrap every hook that exists; return the metric prefixes left absent."""
    modules = _package_modules()
    absent: list[str] = []
    for hook in HOOKS:
        fn = _lookup(hook.module, hook.attr)
        if callable(fn):
            _replace_everywhere(modules, fn, _wrap(stats, hook, fn))
        else:
            absent.append(hook.metric)
    fn, table = _lookup(MEMO_MODULE, MEMO_FUNC), _lookup(MEMO_MODULE, MEMO_TABLE)
    if callable(fn) and isinstance(table, dict):
        _replace_everywhere(modules, fn, _wrap_memo(stats, table, fn))
    else:
        absent.append("depth.memo")
    return absent


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


TAIL_LEVELS = (0.999, 0.99, 0.95, 0.9, 0.75)


def layer_metrics(stats: Stats) -> dict[str, float]:
    """Flatten the aggregates into the benchmark's per-layer metric names."""
    s, c, n = stats.self_s, stats.calls, stats.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "depth.grid.self_s": s.get("depth.grid", 0.0),
        "depth.grid.calls": c.get("depth.grid", 0),
        "depth.grid.points": n.get("depth.grid.points", 0),
        "depth.grid.edge_sets": n.get("depth.grid.edge_sets", 0),
        "depth.grid.yield_ratio": ratio(n.get("depth.grid.edge_sets", 0), n.get("depth.grid.points", 0)),
        "depth.memo.hits": n.get("depth.memo.hits", 0),
        "depth.memo.hit_ratio": ratio(n.get("depth.memo.hits", 0), n.get("depth.memo.calls", 0)),
        "depth.depth_symbolic.self_s": s.get("depth.depth_symbolic", 0.0),
        "depth.depth_symbolic.calls": c.get("depth.depth_symbolic", 0),
        "depth.reg_edge_ideal.self_s": s.get("depth.reg_edge_ideal", 0.0),
        "depth.reg_edge_ideal.calls": c.get("depth.reg_edge_ideal", 0),
        "depth.certificate.self_s": s.get("depth.certificate", 0.0) + s.get("depth.certificate.feasible", 0.0),
        "depth.certificate.feasible_calls": c.get("depth.certificate.feasible", 0),
        "degree.independence_complex.self_s": s.get("degree.independence_complex", 0.0),
        "degree.independence_complex.calls": c.get("degree.independence_complex", 0),
        "complexes.reduced_homology.self_s": s.get("complexes.reduced_homology", 0.0),
        "complexes.reduced_homology.calls": c.get("complexes.reduced_homology", 0),
        "linalg.rank.self_s": s.get("linalg.rank", 0.0),
        "linalg.rank.calls": c.get("linalg.rank", 0),
        "linalg.rank.entries": n.get("linalg.rank.entries", 0),
        "matchings.ordered_matching_number.self_s": s.get("matchings.ordered_matching_number", 0.0),
        "matchings.max_ordered_pair_sets.self_s": s.get("matchings.max_ordered_pair_sets", 0.0),
        "matchings.iter_matchings.yielded": n.get("matchings.iter_matchings.yielded", 0),
        "matchings.other.self_s": s.get("matchings.other", 0.0),
        "altpaths.min_alt_path_length.self_s": s.get("altpaths.min_alt_path_length", 0.0),
        "altpaths.walk_length.self_s": s.get("altpaths.walk_length", 0.0),
        "altpaths.other.self_s": s.get("altpaths.other", 0.0),
        "analyzer.analyze.calls": c.get("analyzer.analyze", 0),
        "analyzer.analyze.self_s": s.get("analyzer.analyze", 0.0),
        "analyzer.batch.self_s": s.get("analyzer.batch", 0.0),
        "cache.get.calls": c.get("cache.get", 0),
        "cache.get.hits": n.get("cache.get.hits", 0),
        "cache.get.hit_ratio": ratio(n.get("cache.get.hits", 0), c.get("cache.get", 0)),
        "cache.get.self_s": s.get("cache.get", 0.0),
        "cache.put.calls": c.get("cache.put", 0),
        "cache.put.bytes": n.get("cache.put.bytes", 0),
        "cache.put.self_s": s.get("cache.put", 0.0),
    }
    # analyze latency: the median and the highest percentile that still has
    # at least ten samples beyond it
    lat = stats.durations.get("analyzer.analyze", [])
    out["analyzer.analyze.p50_ms"] = 1000 * _percentile(lat, 0.5) if lat else 0.0
    level = next((q for q in TAIL_LEVELS if len(lat) * (1 - q) >= 10), None)
    out["analyzer.analyze.tail_pct"] = 100 * level if level else 0.0
    out["analyzer.analyze.tail_ms"] = 1000 * _percentile(lat, level) if level else 0.0
    return out


def is_absent(metric: str, absent: set[str]) -> bool:
    """Whether a metric draws on a hook prefix in ``absent`` (the certificate
    self time, for one, includes ``depth.certificate.feasible``)."""
    layer = metric.rsplit(".", 1)[0]
    return any(layer == p or p.startswith(layer + ".") or layer.startswith(p + ".") for p in absent)
