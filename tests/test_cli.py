import json

from coverdepth.cli import main


def test_analyze_builtin_to_file(tmp_path, capsys):
    out = tmp_path / "fig3.json"
    code = main(["analyze", "--graph", "builtin:FIG3", "--mode", "combinatorial",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["nu0"] == 4
    assert report["alt_path_length"] == 5
    assert report["name"] == "FIG3"


def test_analyze_graph_file(tmp_path, capsys):
    gfile = tmp_path / "p4.graph"
    gfile.write_text("p 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    code = main(["analyze", "--graph", str(gfile)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stability_index"] == 2
    assert report["method"] == "closed-form"


def test_analyze_missing_file_is_input_error(capsys):
    assert main(["analyze", "--graph", "nowhere.graph"]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_bad_builtin_is_input_error(capsys):
    assert main(["analyze", "--graph", "builtin:FIG9"]) == 2


def test_analyze_malformed_file(tmp_path, capsys):
    gfile = tmp_path / "bad.graph"
    gfile.write_text("p 2 1\ne 1 1\n")
    assert main(["analyze", "--graph", str(gfile)]) == 2
    assert "loop" in capsys.readouterr().err


def test_oracle_mode_on_char16_refuses(capsys):
    code = main(["analyze", "--graph", "builtin:CHAR16", "--mode", "oracle"])
    assert code == 3
    assert "budget" in capsys.readouterr().err.lower()


def test_tiny_budget_refusal_via_cli(capsys):
    code = main(["analyze", "--graph", "builtin:FIG3", "--mode", "oracle",
                 "--budget", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert "exceeds budget 10" in err


def test_small_budget_auto_falls_back_to_certificate(capsys):
    code = main(["analyze", "--graph", "builtin:FIG3", "--budget", "1000"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["stability_index"], report["method"]) == (3, "certificate")


def test_batch_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COVERDEPTH_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "cycles.jsonl"
    code = main(["batch", "--family", "cycles 3..6", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 4


def test_batch_bad_family(tmp_path, capsys):
    assert main(["batch", "--family", "nonsense", "--out", str(tmp_path / "x.jsonl")]) == 2


def test_verify_quick(capsys):
    code = main(["verify", "--level", "quick"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.out.splitlines() if l.startswith("[")]
    assert all(l.startswith("[PASS]") for l in lines)
    assert len(lines) == 10
