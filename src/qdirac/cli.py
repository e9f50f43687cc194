"""Command-line front end: normalize, check, bench."""

from __future__ import annotations

import argparse
import json
import sys

from .bench import CASES, bench_case, render_table
from .corpus import NESTED_TOO_DEEPLY, RunConfig, run_file
from .errors import QDiracError
from .oracle import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL
from .parser import parse
from .rewrite import RewriteTrace, Rewriter, render_nf

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdirac",
        description="Symbolic rewriting and equivalence checking for Dirac-notation "
                    "circuit expressions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="normalize an expression")
    p_norm.add_argument("expr", help="expression in the surface syntax")
    p_norm.add_argument("--trace", action="store_true", help="print rewrite steps")
    p_norm.add_argument("--json", action="store_true", help="structured output")

    p_check = sub.add_parser("check", help="run assertion files")
    p_check.add_argument("files", nargs="+", help="corpus .qd files")
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_check.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_check.add_argument("--oracle", choices=("on", "off"), default="on",
                         help="cross-check symbolic verdicts numerically")
    p_check.add_argument("--json", action="store_true", help="structured report")
    p_check.add_argument("--timings", action="store_true",
                         help="include wall-time fields in the structured report "
                              "(off by default to keep reports byte-reproducible)")

    p_bench = sub.add_parser("bench", help="time symbolic vs dense evaluation")
    p_bench.add_argument("cases", nargs="+", help=f"case names: {', '.join(CASES)}")
    p_bench.add_argument("--repeat", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_bench.add_argument("--json", action="store_true")
    return ap


def cmd_normalize(args) -> int:
    trace = RewriteTrace() if args.trace else None
    rw = Rewriter(trace=trace)
    t = parse(args.expr)
    nf = rw.normalize(t)
    if args.json:
        doc = {
            "input": args.expr,
            "normal_form": render_nf(nf),
            "dims": list(nf.dims),
            "steps": rw.steps,
        }
        if trace is not None:
            doc["trace"] = trace.as_dicts()
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        if trace is not None:
            for line in trace.as_lines():
                print(line)
        print(render_nf(nf))
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = RunConfig(tol=args.tol, samples=args.samples, seed=args.seed,
                    oracle=args.oracle == "on")
    reports = [run_file(path, cfg) for path in args.files]
    if args.json:
        doc = {
            "files": [
                {
                    "path": r.path,
                    "results": [a.as_json_dict(args.timings) for a in r.results],
                }
                for r in reports
            ],
            "seed": args.seed,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for r in reports:
            print(f"== {r.path}")
            for a in r.results:
                line = f"  {a.verdict.upper():5s} {a.name} [{a.kind}] steps={a.steps}"
                if args.timings:
                    line += f" sym={a.ms_symbolic:.1f}ms oracle={a.ms_oracle:.1f}ms"
                if a.oracle_note:
                    line += f" oracle={a.oracle_note}"
                print(line)
                if a.witness:
                    print(f"        witness: {a.witness}")
            p, f, e = r.counts()
            print(f"  {p} passed, {f} failed, {e} errors")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_bench(args) -> int:
    rows = [bench_case(name, repeat=args.repeat, seed=args.seed) for name in args.cases]
    if args.json:
        doc = [
            {
                "case": r.case,
                "ms_symbolic": round(r.ms_symbolic, 1),
                "ms_dense": None if r.ms_dense is None else round(r.ms_dense, 1),
                "dense_note": r.dense_note,
            }
            for r in rows
        ]
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(render_table(rows))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.command == "normalize":
            return cmd_normalize(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_bench(args)
    except (QDiracError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print(f"error: {NESTED_TOO_DEEPLY}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
