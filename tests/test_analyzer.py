import ast
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import coverdepth
from coverdepth import cache, depth, matchings
from coverdepth.analyzer import CORPUS_NOTES, AnalyzeOptions, analyze, batch
from coverdepth.depth import cycle_stability_closed_form, path_stability_closed_form
from coverdepth.families import FamilyInstance, parse_family_spec
from coverdepth.graphs import Graph, GraphError, builtin_graph, cycle_graph, path_graph
from coverdepth.linalg import PrimeField, Rationals
from coverdepth.matchings import OrderedMatching, _max_ordered
from brute import seeded_gnp


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
    # budget at n = 2 nu0 - 1 = 3, so the report carries no profile and both
    # profile checks are skipped with the refusal as their detail
    report = analyze(path_graph(4), options=AnalyzeOptions(with_profile=True, budget=10))
    assert report.profile is None
    refusal = "estimated cost 1296 exceeds budget 10 (r=4, n=3)"
    assert [(c.name, c.status, c.detail) for c in report.checks if c.name.startswith("profile-")] == [
        ("profile-monotone", "skipped", refusal), ("profile-stabilizes", "skipped", refusal)]
    assert (report.stability_index, report.method) == (2, "closed-form")
    # the link scan asks the same budget, so its checks are left out too
    checks = {c.name: c.status for c in report.checks}
    assert checks["constant-depth-iff"] == "skipped"
    assert "regularity-upper" not in checks


def test_analyze_profile_skipped_without_algebra():
    # modes that run no oracle say why the asked-for profile is missing
    for mode in ("combinatorial", "certificate"):
        report = analyze(builtin_graph("FIG3"), options=AnalyzeOptions(with_profile=True, mode=mode))
        assert report.profile is None
        assert [(c.name, c.status, c.detail) for c in report.checks if c.name.startswith("profile-")] == [
            ("profile-monotone", "skipped", "algebra disabled in this mode"),
            ("profile-stabilizes", "skipped", "algebra disabled in this mode")], mode


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


def test_corpus_note_follows_the_graph_not_the_name():
    # C4 named after FIG2 is not FIG2, so it gets none of FIG2's note
    assert analyze(cycle_graph(4), name="fig2").notes == []
    report = analyze(builtin_graph("FIG2"), options=AnalyzeOptions(mode="combinatorial"), name=" fig2 ")
    assert CORPUS_NOTES["FIG2"] in report.notes


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


def test_dense_g16_combinatorial_pins():
    # seeded G(16, 0.6): nu = 8 with a small nu0, so nearly every matching of
    # each size from nu down has no valid orientation
    for seed, edges, invariants, sets, orientations in ((0, 62, (8, 4, 5), 453, 1241),
                                                       (1, 76, (8, 3, 3), 778, 1913)):
        G = seeded_gnp(seed, 16, 0.6)
        assert len(G.edges) == edges
        report = analyze(G, options=AnalyzeOptions(mode="combinatorial"))
        assert (report.nu, report.nu0, report.alt_path_length) == invariants
        assert report.method == "not computed (combinatorial)"
        groups = _max_ordered(G)
        assert (len(groups), sum(len(oms) for _, oms in groups)) == (sets, orientations)


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
    # (the benchmark's tracer names its targets); dunders are exempt.  The
    # fields of a record are not collected, since _asdict reads them without
    # naming them.  A name read only by the tests, or only re-exported by
    # __init__.py, does not count: such code belongs in tests/brute.py.  The
    # check is by name, so a method is covered by any read of the same name:
    # an unread to_json passes while another class's to_json is read
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


def test_import_generates_no_dataclasses_and_loads_no_openssl():
    # the records are NamedTuples or plain classes, and cache.key_hash imports
    # hashlib at its first call; compared with a bare interpreter, since site
    # may preload modules
    env = {**os.environ, "PYTHONPATH": str(Path(coverdepth.__file__).parents[1])}

    def modules(statement):
        code = f"import sys; {statement}; print(' '.join(sys.modules))"
        return set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True, timeout=60).stdout.split())

    added = modules("import coverdepth") - modules("pass")
    assert "coverdepth.analyzer" in added
    assert added & {"dataclasses", "inspect", "hashlib", "_hashlib"} == set()


def test_records_are_immutable_values():
    # "Graphs are immutable values", and so are the other records that serve
    # as dict and memo keys: no field can be set, equal values hash equal,
    # and a field spec equals only a spec of its own kind, never a tuple
    g = Graph.make(3, [(1, 2), (2, 3)])
    values = [g, OrderedMatching(((1, 2),)), FamilyInstance("P3", g, 0), Rationals(), PrimeField(2)]
    twins = [path_graph(3), OrderedMatching(((1, 2),)), FamilyInstance("P3", path_graph(3), 0),
             Rationals(), PrimeField(2)]
    for value, twin in zip(values, twins):
        assert value is not twin and value == twin and hash(value) == hash(twin)
    assert hash(g) == hash((3, g.edges))
    for value, name in [(g, "vertex_count"), (g, "edges"), (g, "edge_list"), (values[1], "pairs"),
                        (values[2], "graph"), (values[3], "label"), (values[4], "p")]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert g.edge_list == ((1, 2), (2, 3)) and g.neighbor_masks == (0, 2, 5, 2)
    with pytest.raises(GraphError):
        Graph(3, frozenset())
    with pytest.raises(ValueError):
        PrimeField(4)
    assert Rationals() != PrimeField(2) and not Rationals() == PrimeField(2)
    for spec, bare in [(Rationals(), ()), (PrimeField(2), (2,))]:
        assert spec != bare and not spec == bare


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
    with pytest.raises(ValueError, match="expected 'paths A..B'"):
        parse_family_spec("paths \u0662..\u0664")  # Arabic-Indic digits
    for seed in ("\u0661", "1_0"):
        with pytest.raises(ValueError, match="value of 'seed' must be an integer"):
            parse_family_spec(f"graphs seed={seed} count=2 maxr=4")
    assert parse_family_spec("graphs seed=-1 count=+2 maxr=4") == parse_family_spec("graphs seed=-1 count=2 maxr=4")
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


def test_cache_missing_or_corrupt_line_is_a_miss(tmp_path, monkeypatch):
    # a corrupt log line reads as a miss: never an error, never a stale value
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    keys = [cache.key_hash({"op": "analyze", "graph": f"P{r}"}) for r in range(2, 7)]
    digests = [key.encode() for key in keys]
    entries = cache.load()
    assert entries == {} and cache.get(keys[0], entries) is None
    cache.put(keys[0], {"stability_index": 1}, entries)
    entries.close()
    log = cache.log_path()
    with log.open("ab") as handle:
        handle.write(b"{not json\n\xff\xfe\n" + b'"' + digests[1] + b'"\n')
        handle.write(b'["' + digests[1] + b'"]\n["' + digests[1] + b'", {"stability_index": 2]\n')
        handle.write(b'["' + digests[0] + b'", {"stability_index": 7}, 0]\n["' + digests[1] + b'", [2]]\n')
        handle.write(b'["' + digests[2] + b'", {"stability_index": 3}')  # torn: no newline
    entries = cache.load()
    assert [cache.get(key, entries) for key in keys[:3]] == [{"stability_index": 1}, None, None]
    cache.put(keys[3], {"stability_index": 4}, entries)  # glued to the torn line
    assert cache.get(keys[3], entries) == {"stability_index": 4}
    cache.put(keys[4], {"stability_index": 5}, entries)
    entries.close()
    entries = cache.load()
    assert [cache.get(key, entries) for key in keys] == [
        {"stability_index": 1}, None, None, None, {"stability_index": 5}]


def test_cache_concurrent_appends_keep_every_line(tmp_path, monkeypatch):
    # two writers append to one log at once; lines past 4 KB must stay whole too
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    script = (
        "import sys\n"
        "from coverdepth import cache\n"
        "writer, entries = sys.argv[1], cache.load()\n"
        "sys.stdin.read()\n"
        "for i in range(200):\n"
        "    cache.put(cache.key_hash({'writer': writer, 'i': i}), {'pad': 'x' * (50 * i)}, entries)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(coverdepth.__file__).parents[1])}
    writers = [subprocess.Popen([sys.executable, "-c", script, name], stdin=subprocess.PIPE, env=env)
               for name in ("a", "b")]
    for proc in writers:  # both have started; release them together
        proc.stdin.close()
    assert [proc.wait(timeout=60) for proc in writers] == [0, 0]
    lines = cache.log_path().read_bytes().splitlines()
    assert len(lines) == 400 and sum(len(line) > 4096 for line in lines) > 200
    entries = cache.load()
    assert len(entries) == 400
    assert all(cache.get(cache.key_hash({"writer": name, "i": i}), entries) == {"pad": "x" * (50 * i)}
               for name in ("a", "b") for i in range(200))


def test_batch_resumes_from_the_log_and_reads_it_once(tmp_path, monkeypatch):
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    spec, k = "graphs seed=0 count=12 maxr=5", 3
    firsts: dict[str, str] = {}  # first instance name of each distinct graph
    for inst in parse_family_spec(spec):
        firsts.setdefault(json.dumps(inst.graph.to_json()), inst.name)
    assert len(firsts) > k + 2 and len(firsts) < 12  # the family repeats graphs
    analyzed: list[str] = []
    limit = k  # analyze calls allowed before the batch is cut

    def counting(*args, name, **kwargs):
        if len(analyzed) == limit:
            raise RuntimeError("interrupted")
        analyzed.append(name)
        return analyze(*args, name=name, **kwargs)

    monkeypatch.setattr("coverdepth.analyzer.analyze", counting)
    opts = AnalyzeOptions(use_cache=True)
    with pytest.raises(RuntimeError, match="interrupted"):
        batch(spec, tmp_path / "cut.jsonl", options=opts)
    assert len(cache.log_path().read_bytes().splitlines()) == len(cache.load()) == k

    loads = []
    load = cache.load
    monkeypatch.setattr(cache, "load", lambda: loads.append(1) or load())
    analyzed.clear()
    limit = float("inf")
    batch(spec, tmp_path / "resume.jsonl", options=opts)
    assert analyzed == list(firsts.values())[k:]
    assert loads == [1]
    batch(spec, tmp_path / "fresh.jsonl")
    assert loads == [1]
    assert (tmp_path / "resume.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()


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


def _count_calls(monkeypatch, fn, counts: dict, key: str) -> None:
    """Replace ``fn`` under every name a package module holds it by, counting
    its calls in ``counts[key]``."""
    def counting(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    for info in pkgutil.iter_modules(coverdepth.__path__, "coverdepth."):
        mod = importlib.import_module(info.name)
        for name, obj in list(vars(mod).items()):
            if obj is fn:
                monkeypatch.setattr(mod, name, counting)


def test_uncached_batch_scans_links_once_per_analysis_and_validates_no_matching(tmp_path, monkeypatch):
    # the oracle's depth(1) and analyze's checks read reg I(G) from one memo,
    # so an analysis scans the links of G at most once, and exactly once the
    # first time it meets G (r <= 6: no scan is refused); every matching comes
    # from _max_ordered, which builds only valid ones, so none is checked again
    counts = {"violation": 0}
    _count_calls(monkeypatch, matchings.ordered_matching_violation, counts, "violation")
    scanned: list[tuple[int, ...]] = []
    link_scan = depth._link_scan
    monkeypatch.setattr(depth, "_link_scan", lambda masks, *args: scanned.append(masks) or link_scan(masks, *args))
    depth._reg.cache_clear()
    seen: set[Graph] = set()
    scans = []  # per analysis: (link scans of G, whether it is G's first analysis)

    def counting(G, *args, **kwargs):
        scanned.clear()
        report = analyze(G, *args, **kwargs)
        scans.append((scanned.count(G.neighbor_masks), G not in seen))
        seen.add(G)
        return report

    monkeypatch.setattr("coverdepth.analyzer.analyze", counting)
    assert batch("graphs seed=0 count=300 maxr=6", tmp_path / "g.jsonl") == 300
    assert len(scans) == 300 and max(count for count, _ in scans) == 1
    assert all(count == 1 for count, first in scans if first)
    assert len(seen) < 300  # some graph repeats, so the memo is read
    assert counts["violation"] == 0


def test_cache_line_and_batch_line_share_one_encoding(tmp_path, monkeypatch):
    # put encodes a value once: its log line is the former json.dumps of the
    # [digest, value] pair, byte for byte, and it returns the value's text
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    values = [{"name": "Käse → \U0001d53e", "b": [1, None, True], "a": {"z": 1.5, "y": "\"q\"\n\t"}},
              "plain", 3, [], {}]
    entries, expected = cache.load(), b""
    for i, value in enumerate(values):
        digest = cache.key_hash({"i": i})
        assert cache.put(digest, value, entries) == json.dumps(value, sort_keys=True)
        expected += (json.dumps([digest, value], sort_keys=True) + "\n").encode()
    entries.close()
    assert cache.log_path().read_bytes() == expected
    # a line written the former way reads back as a hit
    former = cache.key_hash({"i": "former"})
    with cache.log_path().open("ab") as handle:
        handle.write((json.dumps([former, values[0]], sort_keys=True) + "\n").encode())
    assert cache.get(former, cache.load()) == values[0]
    # a miss's output line is json.dumps of its report; resumed and uncached lines match it
    reports = []
    monkeypatch.setattr("coverdepth.analyzer.analyze",
                        lambda *args, **kwargs: reports.append(analyze(*args, **kwargs)) or reports[-1])
    opts = AnalyzeOptions(use_cache=True)
    batch("cycles 3..6", tmp_path / "cold.jsonl", options=opts)
    assert len(reports) == 4
    cold = (tmp_path / "cold.jsonl").read_text(encoding="utf-8")
    assert cold == "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in reports)
    batch("cycles 3..6", tmp_path / "resume.jsonl", options=opts)
    batch("cycles 3..6", tmp_path / "fresh.jsonl")
    assert len(reports) == 8  # the resume hit every line; the uncached run analyzed each
    assert (tmp_path / "resume.jsonl").read_text(encoding="utf-8") == cold
    assert (tmp_path / "fresh.jsonl").read_text(encoding="utf-8") == cold


def test_key_hash_keeps_the_former_digests():
    # key_hash's one module-level encoder hashes the same bytes as the former
    # json.dumps(key, sort_keys=True, separators=(",", ":")), so logs hit
    def former(key):
        canon = json.dumps(key, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    keys = [{"é": [1.5, None, True], "a": 'q"\\'}, {"op": "analyze", "graph": "P4"}, [], "plain", 7]
    assert [cache.key_hash(key) for key in keys] == [former(key) for key in keys]
    assert cache.key_hash(keys[0]) == "0d3738a0173468003ff5befe883dd67c60a1ed33f7a7c5b3a5dbdbe9fa3d9ff6"
    p4 = {"op": "analyze", "graph": {"r": 4, "edges": [[1, 2], [2, 3], [3, 4]]}, "field": "q",
          "options": {"mode": "auto", "budget": 1000000000, "force": False, "with_profile": False},
          "version": 2}
    assert cache.key_hash(p4) == "d5e39385d024741d8847b5b2ba49f7218b679b57ce85b8a408fda55a04ba66ad"


def test_batch_writes_the_pinned_digest(tmp_path, monkeypatch):
    # the options dict that batch builds from AnalyzeOptions gives P4 the
    # digest pinned above for a hand-built key
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    batch("paths 4..4", tmp_path / "out.jsonl", options=AnalyzeOptions(use_cache=True))
    [line] = cache.log_path().read_text(encoding="utf-8").splitlines()
    assert json.loads(line)[0] == "d5e39385d024741d8847b5b2ba49f7218b679b57ce85b8a408fda55a04ba66ad"


ODD_NAMES = ['he said "hi"', "back\\slash\\", "Käse → \U0001d53e", '"name": "x", "seed": 1', "", "\x00\n"]


def test_report_text_splices_name_and_seed_byte_for_byte():
    # a hit's line is head + name + middle + seed + tail, whatever the name,
    # the seed, and the report's keys on either side of "name" and "seed"
    reports = [
        analyze(cycle_graph(5), name="C5").to_json(),
        {"name": "old", "seed": 3, "a": [1, {"name": "nested", "seed": 0}], "nu": 2.5, "z": None},
        {"name": 'q"', "seed": None},
        {"nz": "→", "s": "\\"},
        {},
    ]
    for report in reports:
        text = cache.ReportText.of(report)
        for name in ODD_NAMES:
            for seed in (None, 0, 17):
                assert text.line(name, seed) == json.dumps({**report, "name": name, "seed": seed}, sort_keys=True)


def test_batch_hit_lines_splice_odd_names_and_seeds(tmp_path, monkeypatch):
    # one graph under many odd names and both kinds of seed: the first line is
    # the analyzed report's own encoding, every later line a splice of it,
    # and a log line written the former way, json.dumps([digest, value]), hits
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    G = cycle_graph(5)
    instances = [FamilyInstance(name, G, seed) for seed in (None, 4) for name in ODD_NAMES]
    monkeypatch.setattr("coverdepth.analyzer.parse_family_spec", lambda spec: instances)
    opts = AnalyzeOptions(use_cache=True)
    report = analyze(G, name=instances[0].name, seed=instances[0].seed).to_json()
    want = "".join(json.dumps({**report, "name": inst.name, "seed": inst.seed}, sort_keys=True) + "\n"
                   for inst in instances)
    batch("odd", tmp_path / "cold.jsonl", options=opts)
    assert (tmp_path / "cold.jsonl").read_text(encoding="utf-8") == want
    (digest,) = cache.load()
    stored = {**report, "name": "stored \"name\": 1", "seed": 99}
    cache.log_path().write_bytes((json.dumps([digest, stored], sort_keys=True) + "\n").encode())
    monkeypatch.setattr("coverdepth.analyzer.analyze", lambda *args, **kwargs: pytest.fail("analyzed a hit"))
    batch("odd", tmp_path / "former.jsonl", options=opts)
    assert (tmp_path / "former.jsonl").read_text(encoding="utf-8") == want


def test_batch_opens_the_log_once_and_encodes_each_graph_once(tmp_path, monkeypatch):
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    spec = "graphs seed=0 count=300 maxr=6"
    distinct = len({inst.graph for inst in parse_family_spec(spec)})
    assert distinct < 300  # the family repeats graphs
    opened, encoded = [], []

    class CountingFileIO(io.FileIO):
        def __init__(self, file, *args, **kwargs):
            opened.append(Path(file))
            super().__init__(file, *args, **kwargs)

    of = cache.ReportText.of
    monkeypatch.setattr(cache.io, "FileIO", CountingFileIO)
    monkeypatch.setattr(cache.ReportText, "of", classmethod(lambda cls, report: encoded.append(1) or of(report)))
    opts = AnalyzeOptions(use_cache=True)
    batch(spec, tmp_path / "cold.jsonl", options=opts)
    assert opened == [cache.log_path()] and len(encoded) == distinct
    opened.clear(), encoded.clear()
    batch(spec, tmp_path / "resume.jsonl", options=opts)
    assert opened == [] and len(encoded) == distinct  # every line hits: nothing to append
    assert (tmp_path / "resume.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
