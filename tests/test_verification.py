import pytest

from coverdepth import graphs, verification
from coverdepth.analyzer import AnalyzeOptions, analyze
from coverdepth.cli import EXIT_VERIFY_FAILED, main
from coverdepth.depth import DepthEngineError, stability_index
from coverdepth.graphs import builtin_graph, cycle_graph, path_graph
from coverdepth.verification import CRITERIA, check_fig1, run_verification, verify_corpus


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


def test_corrupted_corpus_fails_self_check(monkeypatch):
    # drop the partner-partner edge of FIG1; the stated invariants cannot hold
    monkeypatch.setattr(
        graphs, "_FIG1_EDGES",
        [(1, 5), (2, 6), (3, 7), (4, 8), (1, 6), (2, 7), (3, 8)],
    )
    passed, detail = check_fig1("quick")
    assert not passed
    assert "13" in detail


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
        options=AnalyzeOptions(mode="auto"),
        name="CHAR16",
    )
    # walk diagnostic is size-gated, algebra is budget-gated
    assert report.walk_length is None
    assert report.stability_index is None and "budget" in report.method


@pytest.mark.parametrize("error", [DepthEngineError("a proven statement failed"), ValueError("bad value")])
def test_raising_criterion_is_one_failed_line(monkeypatch, capsys, error):
    # an exception inside a criterion is that criterion's failure: not a
    # traceback, and not the input-error exit code
    def raising(level):
        raise error

    monkeypatch.setattr(verification, "CRITERIA", [(num, name, min_level, raising if num == 6 else fn)
                                                   for num, name, min_level, fn in CRITERIA])
    assert not verify_corpus("quick")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    failed = [line for line in lines if not line.startswith("[PASS]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL]  6 FIG1 self-check")
    assert failed[0].endswith(f": {type(error).__name__}: {error}")
    assert main(["verify", "--level", "quick"]) == EXIT_VERIFY_FAILED
