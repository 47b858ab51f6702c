"""The ``autcert`` command line: ``python -m autcert`` or the ``autcert`` script.

It parses the options, runs the chosen stages through the pipeline,
prints one line per stage with each failed claim and its witness, and
exits 0 when every check passes, 1 on a verification failure and 2 on
a usage error.  The parser lives here, not in the pipeline, so a
library import of :mod:`autcert.pipeline` loads no ``argparse``.
"""

import argparse
import sys
from pathlib import Path

from .pipeline import STAGE_ORDER, PipelineOptions, _run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autcert",
        description="Exact-arithmetic certificates for a non-finitely "
        "generated automorphism group construction.",
    )
    parser.add_argument(
        "--stage-list", action="store_true", help="print the stage names and exit"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write the JSON report here")
    common.add_argument(
        "--max-gens", type=int, default=5, metavar="K",
        help="number of escape stages in the final certificate (default 5)",
    )
    common.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="seed for the specialization search (default 0)",
    )
    common.add_argument(
        "--corrupt-pair", metavar="A,B", default=None,
        help="fault injection: zero one intersection entry of the shared "
        "curve configuration that every stage reads",
    )
    sub = parser.add_subparsers(dest="command", metavar="STAGE")
    sub.add_parser("all", parents=[common], help="run every stage in order")
    for name in STAGE_ORDER:
        sub.add_parser(name, parents=[common], help=f"run only the {name} stage")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry: 0 all pass, 1 verification failure, 2 usage error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.stage_list:
        for name in STAGE_ORDER:
            print(name)
        return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2

    corrupt = None
    if args.corrupt_pair is not None:
        parts = tuple(p.strip() for p in args.corrupt_pair.split(","))
        if len(parts) != 2 or not all(parts):
            print("autcert: --corrupt-pair takes two labels as A,B", file=sys.stderr)
            return 2
        corrupt = parts
    try:
        options = PipelineOptions(
            max_gens=args.max_gens, seed=args.seed, corrupt_pair=corrupt
        )
    except ValueError as exc:
        print(f"autcert: {exc}", file=sys.stderr)
        return 2

    report = _run(STAGE_ORDER if args.command == "all" else (args.command,), options)

    for stage in report.stages:
        print(f"stage {stage.name}: {stage.status}")
        if stage.status == "fail":
            for check in stage.evidence["checks"]:
                if check["status"] == "fail":
                    print(f"  failed: {check['claim']}")
                    print(f"    witness: {check['witness']}")
    print(f"verdict: {report.verdict}")
    if args.out:
        try:
            Path(args.out).write_text(report.to_json(), encoding="utf-8")
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"autcert: cannot write {args.out}: {reason}", file=sys.stderr)
            return 2
    return 0 if report.verdict == "pass" else 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
