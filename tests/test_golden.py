"""Byte-for-byte comparison of CLI output against recorded reports.

``golden_reports.json`` holds one entry per command line: the argv, the exit
code, stdout, stderr and, for ``batch``, the JSONL file it wrote, with the
output path written as ``{out}``.  The cases are every corpus graph (FIG1,
FIG2, FIG3, FAM(1), FAM(2), CHAR16) in every mode, FIG3 with
``--profile --field gf:2``, and ``batch --no-cache`` over ``cycles 3..10``.
To record a case again, run ``coverdepth.cli.main(argv)`` with stdout and
stderr captured and store what it printed.
"""

import json
from pathlib import Path

import pytest

from coverdepth.cli import main

CASES = json.loads((Path(__file__).parent / "golden_reports.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=["-".join(arg.strip("-").replace(" ", "_") for arg in c["argv"])
                                             for c in CASES])
def test_cli_output_matches_recording(case, tmp_path, capsys):
    out = str(tmp_path / "batch.jsonl")
    code = main([arg.replace("{out}", out) for arg in case["argv"]])
    captured = capsys.readouterr()
    assert captured.out == case["stdout"].replace("{out}", out)
    assert captured.err == case["stderr"]
    assert code == case["exit"]
    if "out_file" in case:
        assert Path(out).read_text(encoding="utf-8") == case["out_file"]
