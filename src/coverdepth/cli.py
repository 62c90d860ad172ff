"""Command-line surface: analyze one graph, verify the corpus, run batches.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analyzer import AnalyzeOptions, analyze, batch
from .cache import CACHE_ENV
from .depth import DEFAULT_BUDGET, MODES, BudgetRefusal
from .graphs import GraphError, builtin_graph, parse_graph
from .linalg import parse_field
from .verification import verify_corpus

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _load_graph(spec: str):
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        return builtin_graph(name), name
    path = Path(spec)
    if not path.exists():
        raise GraphError(f"graph file {spec!r} not found")
    return parse_graph(path.read_text(encoding="utf-8")), path.stem


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverdepth",
        description="Stability index of symbolic depth functions of graph cover ideals",
        epilog=f"Environment: {CACHE_ENV} sets the cache directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze one graph")
    an.add_argument("--graph", required=True, help="graph file or builtin:NAME")
    an.add_argument("--field", default="q", help="q or gf:<p> (default q)")
    an.add_argument("--mode", default="auto", choices=MODES)
    an.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="oracle operation budget")
    an.add_argument("--force", action="store_true",
                    help="skip the vertex cap and the budget for every oracle call "
                         "(large instances may run for a very long time)")
    an.add_argument("--profile", action="store_true", help="also compute the full depth profile")
    an.add_argument("--out", help="write the JSON report here instead of stdout")

    ve = sub.add_parser("verify", help="run the corpus verification suite")
    ve.add_argument("--level", default="quick", choices=("quick", "full"))

    ba = sub.add_parser("batch", help="analyze a family of graphs into a JSONL report")
    ba.add_argument("--family", required=True, help='e.g. "paths 2..8" or "forests seed=1 count=50 maxr=9"')
    ba.add_argument("--out", required=True)
    ba.add_argument("--field", default="q")
    ba.add_argument("--mode", default="auto", choices=MODES)
    ba.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ba.add_argument("--no-cache", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            graph, name = _load_graph(args.graph)
            opts = AnalyzeOptions(
                mode=args.mode,
                budget=args.budget,
                force=args.force,
                with_profile=args.profile,
            )
            report = analyze(graph, parse_field(args.field), opts, name=name)
            payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
            if args.out:
                Path(args.out).write_text(payload + "\n", encoding="utf-8")
            else:
                print(payload)
            return EXIT_OK
        if args.command == "verify":
            return EXIT_OK if verify_corpus(args.level) else EXIT_VERIFY_FAILED
        # argparse requires one of the three commands, so this one is batch
        opts = AnalyzeOptions(mode=args.mode, budget=args.budget,
                              use_cache=not args.no_cache)
        count = batch(args.family, args.out, parse_field(args.field), opts)
        print(f"wrote {count} reports to {args.out}")
        return EXIT_OK
    except BudgetRefusal as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
