import json

from coverdepth import graphs
from coverdepth.analyzer import AnalyzeOptions, analyze
from coverdepth.depth import stability_index
from coverdepth.graphs import builtin_graph, cycle_graph, path_graph
from coverdepth.verification import run_verification, verify_corpus


def test_stability_op_examples():
    assert stability_index(cycle_graph(7)).value == 3
    res = stability_index(path_graph(8), mode="certificate")
    assert res.value == 4 and res.method == "certificate"
    assert stability_index(cycle_graph(5)).value == 1


def test_analyze_oracle_mode_really_uses_oracle():
    report = analyze(path_graph(5), options=AnalyzeOptions(mode="oracle"))
    assert report.method == "oracle"
    assert report.stability_index == 1


def test_quick_level_skips_heavy_criteria():
    quick = {r.criterion for r in run_verification("quick")}
    assert 10 not in quick and 11 not in quick and 13 not in quick
    assert {1, 2, 3, 4, 5, 6, 7, 8, 9, 12} <= quick


def test_single_criterion_selection():
    results = run_verification("quick", criteria=[6])
    assert len(results) == 1 and results[0].criterion == 6 and results[0].passed


def test_corrupted_corpus_fails_self_check(monkeypatch):
    # drop the partner-partner edge of FIG1; the stated invariants cannot hold
    monkeypatch.setattr(
        graphs, "_FIG1_EDGES",
        [(1, 5), (2, 6), (3, 7), (4, 8), (1, 6), (2, 7), (3, 8)],
    )
    results = run_verification("quick", criteria=[6])
    assert not results[0].passed
    assert "13" in results[0].detail


def test_verify_corpus_prints_and_reports(capsys):
    ok = verify_corpus("quick")
    out = capsys.readouterr().out
    assert ok
    assert out.count("[PASS]") == 10


def test_verify_corpus_failure_path(monkeypatch, capsys):
    monkeypatch.setattr(graphs, "_FIG3_EDGES", [(1, 5), (2, 6), (3, 7), (4, 8)])
    ok = verify_corpus("quick")
    out = capsys.readouterr().out
    assert not ok
    assert "[FAIL]" in out


def test_char16_report_documents_walk_and_oracle_gates():
    report = analyze(
        builtin_graph("CHAR16"),
        options=AnalyzeOptions(mode="auto", with_walk=True),
        name="CHAR16",
    )
    # walk diagnostic is size-gated, algebra is budget-gated
    assert report.walk_length is None
    assert report.stability_index is None and "budget" in report.method
