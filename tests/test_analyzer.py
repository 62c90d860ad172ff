import ast
import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import coverdepth
from coverdepth import cache
from coverdepth.analyzer import AnalyzeOptions, analyze, batch
from coverdepth.depth import cycle_stability_closed_form, path_stability_closed_form
from coverdepth.families import parse_family_spec
from coverdepth.graphs import Graph, builtin_graph, cycle_graph, path_graph
from coverdepth.linalg import PrimeField
from coverdepth.matchings import _max_ordered


def test_closed_forms():
    assert [path_stability_closed_form(r) for r in range(2, 9)] == [1, 1, 2, 1, 3, 2, 4]
    assert [cycle_stability_closed_form(r) for r in (3, 5, 7, 9)] == [1, 1, 3, 4]
    assert [cycle_stability_closed_form(r) for r in (4, 6, 8, 10)] == [1, 1, 1, 2]


def test_analyze_c5():
    report = analyze(cycle_graph(5), name="C5")
    assert report.stability_index == 1
    assert report.method == "closed-form"
    # the bound is 2 here, so the verdict is strict and no equality class applies
    assert report.bound == 2 and report.equality == "strict"
    assert not report.flags["pentagon_free_fully_ordered"]
    checks = {c.name: c.status for c in report.checks}
    assert checks["bound"] == "pass"
    assert checks["constant-depth-iff"] == "pass"
    assert checks["equality-classes"] == "skipped"


def test_analyze_p7():
    report = analyze(path_graph(7), name="P7")
    assert report.flags["forest"]
    assert report.alt_path_length == 3
    assert report.stability_index == 2
    assert report.equality == "attained"


def test_analyze_fam2():
    report = analyze(builtin_graph("FAM(2)"), name="FAM(2)")
    assert (report.nu0, report.alt_path_length, report.bound) == (4, 7, 4)
    assert report.stability_index == 4
    assert report.method == "certificate"
    assert report.equality == "attained"
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["equality-classes"] == "pass"
    assert statuses["unique-perfect-matching"] == "pass"


def test_analyze_with_profile():
    report = analyze(cycle_graph(5), options=AnalyzeOptions(with_profile=True))
    assert report.profile == {1: 2, 2: 2, 3: 2}
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["profile-monotone"] == "pass"
    assert statuses["profile-stabilizes"] == "pass"


def test_analyze_profile_refused_by_budget():
    # the index comes from the closed form; the profile's oracle refuses the
    # budget, so the report carries no profile and no profile checks
    report = analyze(path_graph(4), options=AnalyzeOptions(with_profile=True, budget=10))
    assert report.profile is None
    assert not [c.name for c in report.checks if c.name.startswith("profile-")]
    assert (report.stability_index, report.method) == (2, "closed-form")
    # the link scan asks the same budget, so its checks are left out too
    checks = {c.name: c.status for c in report.checks}
    assert checks["constant-depth-iff"] == "skipped"
    assert "regularity-upper" not in checks


def test_analyze_force_reaches_the_link_scan():
    # r = 13 is refused by the vertex cap unless forced; P13's links are cheap
    checks = {c.name: c.status for c in analyze(path_graph(13), options=AnalyzeOptions(force=True)).checks}
    assert checks["regularity-upper"] == "pass"
    checks = {c.name: c.status for c in analyze(path_graph(13)).checks}
    assert checks["constant-depth-iff"] == "skipped" and "regularity-upper" not in checks


def test_refused_link_scan_gives_the_refusal():
    # in auto a refused link scan says what refused it; the modes that never
    # run the algebra say so instead
    def constant_depth(G, **options):
        checks = {c.name: c for c in analyze(G, options=AnalyzeOptions(**options)).checks}
        return checks["constant-depth-iff"].status, checks["constant-depth-iff"].detail

    char16 = builtin_graph("CHAR16")
    assert constant_depth(char16) == ("skipped", "refusing r=16 >= 13 vertices (pass force=True to override)")
    assert constant_depth(path_graph(4), budget=10) == ("skipped", "estimated cost 16 exceeds budget 10 (r=4, n=1)")
    for mode in ("combinatorial", "certificate"):
        assert constant_depth(path_graph(4), mode=mode) == ("skipped", "algebra disabled in this mode")


def test_analyze_char16_combinatorial():
    report = analyze(
        builtin_graph("CHAR16"),
        options=AnalyzeOptions(mode="combinatorial"),
        name="CHAR16",
    )
    assert report.stability_index is None
    assert report.method == "not computed (combinatorial)"
    assert report.nu == 6
    assert any("field" in note for note in report.notes)
    assert report.equality == "unknown"


def test_analyze_single_edge():
    report = analyze(path_graph(2), name="P2")
    assert (report.nu0, report.alt_path_length, report.bound) == (1, 1, 1)
    assert report.stability_index == 1 and report.equality == "attained"
    assert report.limit_depth == 0
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["constant-depth-iff"] == "pass"


def test_analyze_enumerates_ordered_matchings_once():
    # the equality-class step, the path bound, the walk diagnostic and the
    # report all read the maximum ordered matchings of the same graph
    spider = Graph.make(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    _max_ordered.cache_clear()
    report = analyze(spider, options=AnalyzeOptions(mode="combinatorial"))
    assert report.method == "equality-class"
    assert report.walk_length is not None
    assert _max_ordered.cache_info().misses == 1


def test_module_level_memos_are_bounded():
    # a memo that lives across calls must not grow without limit in a batch:
    # every lru_cache has a maxsize, and every module-level dict named
    # *_CACHE has a *_CACHE_SIZE cap beside it
    unbounded = []
    for info in pkgutil.iter_modules(coverdepth.__path__, "coverdepth."):
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.cache_parameters()["maxsize"] is None:
                unbounded.append(f"{info.name}.{name}")
            if isinstance(obj, dict) and name.endswith("_CACHE") and not hasattr(mod, name + "_SIZE"):
                unbounded.append(f"{info.name}.{name}")
    assert unbounded == []


def test_module_level_imports_are_used():
    # no lint tool is required, so an ast scan stands in for an unused-import check
    unused = []
    for path in sorted(Path(coverdepth.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__":
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_oracle_admission_lives_in_check_budget():
    # depth._check_budget is the one admission rule for the oracle: the
    # vertex cap is read, and BudgetRefusal is raised, nowhere else under the
    # package (imports count as reads)
    guarded = {"HARD_VERTEX_LIMIT"}
    places = set()

    def scan(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id in guarded and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.alias) and child.name in guarded
                    or isinstance(child, ast.Raise) and child.exc is not None
                    and any(isinstance(n, ast.Name) and n.id == "BudgetRefusal" for n in ast.walk(child.exc))):
                places.add(where)
            inner = f"{where}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            scan(child, inner)

    for path in sorted(Path(coverdepth.__file__).parent.glob("*.py")):
        scan(ast.parse(path.read_text()), path.stem)
    assert places == {"depth._check_budget"}


REPO = Path(__file__).resolve().parents[1]


def _program_trees():
    """The parsed files of the package and the benchmark, except the
    package's __init__.py, which only re-exports."""
    for path in sorted(p for root in ("src", "perfbench") for p in (REPO / root).rglob("*.py")
                       if p.name != "__init__.py" or p.parent.name != "coverdepth"):
        yield ast.parse(path.read_text())


def test_module_level_names_are_referenced():
    # every function, class and constant a module defines, and every method
    # and property of its classes, is read somewhere in the package or the
    # benchmark: as a loaded name, an attribute, an imported name or a string
    # (the benchmark's tracer names its targets); dunders are exempt, and so
    # are dataclass fields, which asdict reads without naming them.  A name
    # read only by the tests, or only re-exported by __init__.py, does not
    # count: such code belongs in tests/brute.py.  The check is by name, so a
    # method is covered by any read of the same name: an unread to_json
    # passes while another class's to_json is read
    referenced = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    unreferenced = []
    for path in sorted((REPO / "src" / "coverdepth").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                names = [stmt.name] + [f"{stmt.name}.{node.name}" for node in stmt.body
                                       if isinstance(node, ast.FunctionDef)]
            elif isinstance(stmt, ast.FunctionDef):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]
            else:
                continue
            for name in names:
                short = name.split(".")[-1]
                if short not in referenced and not (short.startswith("__") and short.endswith("__")):
                    unreferenced.append(f"{path.name}: {name}")
    assert unreferenced == []


def test_keyword_only_parameters_are_passed():
    # a keyword-only parameter of a package function that no call in the
    # package or the benchmark passes by name is a switch nothing sets; like
    # the guard above, the check is by name, so a call that passes the same
    # name to any function covers it
    passed = {kw.arg for tree in _program_trees() for node in ast.walk(tree)
              if isinstance(node, ast.Call) for kw in node.keywords}
    unpassed = [f"{path.name}: {node.name}({arg.arg}=)"
                for path in sorted((REPO / "src" / "coverdepth").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for arg in node.args.kwonlyargs if arg.arg not in passed]
    assert unpassed == []


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/tracer.py wraps these package functions by name and reports
    # a missing one as absent metrics, not as an error; load the tracer by
    # path and resolve each target without installing a wrapper (its
    # dataclasses need the module registered while it loads)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    unresolved = [(hook.module, hook.attr) for hook in tracer.HOOKS
                  if not callable(tracer._lookup(hook.module, hook.attr))]
    assert unresolved == []
    assert callable(tracer._lookup(tracer.MEMO_MODULE, tracer.MEMO_FUNC))
    assert isinstance(tracer._lookup(tracer.MEMO_MODULE, tracer.MEMO_TABLE), dict)


def test_analyze_deterministic():
    a = analyze(builtin_graph("FIG3"), name="FIG3").to_json()
    b = analyze(builtin_graph("FIG3"), name="FIG3").to_json()
    assert a == b


def test_analyze_gf2():
    report = analyze(cycle_graph(5), PrimeField(2))
    assert report.field == "gf:2"
    assert report.stability_index == 1


def test_equality_verdict_has_justification():
    for g, name in ((cycle_graph(6), "C6"), (path_graph(6), "P6"), (builtin_graph("FIG1"), "FIG1")):
        report = analyze(g, name=name)
        if report.equality == "attained":
            assert report.equality_source in (
                "closed-form", "certificate", "certificate+oracle", "oracle", "equality-class"
            )


def test_family_spec_parsing():
    paths = parse_family_spec("paths 2..5")
    assert [inst.name for inst in paths] == ["P2", "P3", "P4", "P5"]
    cycles = parse_family_spec("cycles 3..4")
    assert [inst.graph.vertex_count for inst in cycles] == [3, 4]
    forests = parse_family_spec("forests seed=1 count=5 maxr=6")
    assert len(forests) == 5
    assert forests == parse_family_spec("forests seed=1 count=5 maxr=6")
    with pytest.raises(ValueError):
        parse_family_spec("paths 5")
    with pytest.raises(ValueError):
        parse_family_spec("forests count=5")
    with pytest.raises(ValueError):
        parse_family_spec("widgets 1..2")
    with pytest.raises(ValueError):
        parse_family_spec("cycles 1..4")
    with pytest.raises(ValueError, match="unknown key 'sed'"):
        parse_family_spec("graphs sed=5 count=2 maxr=4")
    with pytest.raises(ValueError, match="repeated key 'seed'"):
        parse_family_spec("graphs seed=1 seed=5 count=2 maxr=4")
    with pytest.raises(ValueError, match="maxr must be >= 2"):
        parse_family_spec("graphs count=2 maxr=1")
    with pytest.raises(ValueError, match="value of 'seed' must be an integer in family spec, got 'x'"):
        parse_family_spec("graphs seed=x count=3 maxr=5")
    with pytest.raises(ValueError, match="value of 'count' must be an integer"):
        parse_family_spec("forests count=3.5 maxr=5")
    with pytest.raises(ValueError, match="count must be >= 0"):
        parse_family_spec("graphs count=-3 maxr=5")
    assert parse_family_spec("forests count=0 maxr=2") == []
    assert {inst.graph.vertex_count for inst in parse_family_spec("graphs count=5 maxr=2")} == {2}


def test_batch_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "paths.jsonl"
    count = batch("paths 2..8", out)
    assert count == 7
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    reports = [json.loads(line) for line in lines]
    assert [r["stability_index"] for r in reports] == [1, 1, 2, 1, 3, 2, 4]
    assert all(r["method"] == "closed-form" for r in reports)


def test_batch_small_budget_falls_back(tmp_path):
    # a refused cross-check or oracle never ends an auto batch
    out = tmp_path / "graphs.jsonl"
    assert batch("graphs seed=0 count=8 maxr=6", out, options=AnalyzeOptions(budget=1000)) == 8
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(reports) == 8
    assert {r["method"] for r in reports} == {"equality-class", "oracle", "certificate"}


def test_batch_cache_resume(tmp_path, monkeypatch):
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    opts = AnalyzeOptions(use_cache=True)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    batch("cycles 3..6", out1, options=opts)
    assert (tmp_path / "cache").exists()
    batch("cycles 3..6", out2, options=opts)
    assert out1.read_text() == out2.read_text()


def test_batch_forests_deterministic(tmp_path):
    out1, out2 = tmp_path / "f1.jsonl", tmp_path / "f2.jsonl"
    batch("forests seed=3 count=6 maxr=7", out1)
    batch("forests seed=3 count=6 maxr=7", out2)
    assert out1.read_text() == out2.read_text()
    first = json.loads(out1.read_text().splitlines()[0])
    assert first["seed"] == 3


def test_cache_missing_or_corrupt_blob_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    key = {"op": "analyze", "graph": "P2"}
    assert cache.get(key) is None
    cache.put(key, {"stability_index": 1})
    assert cache.get(key) == {"stability_index": 1}
    cache._blob_path(cache.key_hash(key)).write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None


def test_batch_cache_hit_keeps_instance_name(tmp_path, monkeypatch):
    # repeated graphs share a cache entry; each line still names its own instance
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    spec = "graphs seed=1 count=12 maxr=3"
    out = tmp_path / "g.jsonl"
    batch(spec, out, options=AnalyzeOptions(use_cache=True))
    names = [json.loads(line)["name"] for line in out.read_text().splitlines()]
    assert names == [inst.name for inst in parse_family_spec(spec)]
    fresh = tmp_path / "fresh.jsonl"
    batch(spec, fresh)
    assert out.read_text() == fresh.read_text()


def test_batch_cache_key_covers_report_options(tmp_path, monkeypatch):
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "p.jsonl"
    batch("paths 4..5", out, options=AnalyzeOptions(use_cache=True))
    assert [json.loads(line)["profile"] for line in out.read_text().splitlines()] == [None, None]
    batch("paths 4..5", out, options=AnalyzeOptions(use_cache=True, with_profile=True))
    assert [json.loads(line)["profile"] for line in out.read_text().splitlines()] == [
        {"1": 2, "2": 1, "3": 1}, {"1": 2, "2": 2, "3": 2}]
