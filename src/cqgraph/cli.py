"""Command-line front end.

Subcommands: check, eval, translate, export-dot, axioms-verify.
Query files are UTF-8; a leading ``signature: <path>`` line names the
signature file (relative to the query file), and the ``--sig`` flag wins
over the header.  Files containing ``|-`` are judgments, anything else is
a diagram term.

Exit codes: 0 the requested relation holds / success, 1 it fails to hold
(for ``translate --verify``, ``decide_equivalence`` finds the translation
not equivalent to the query), 2 parse, usage or internal error (a crash
never reads as "does not hold").
Exit 2 reports on stderr; stdout keeps only what was printed before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .axioms import axiom_catalog, verify_axiom_graphical, verify_axiom_semantic
from .ccq import CcqJudgment, eval_ccq, parse_ccq
from .containment import decide_equivalence, decide_inclusion
from .cospan import compile_nodes, cospan_to_dot, term_to_cospan
from .errors import CqError
# eval_gcq and random_model are not called here, but perfbench/tracing.py spans them
# at these names, and tests/test_perfbench_spans.py checks that every traced name resolves
from .gcq import build_term, eval_gcq, parse_gcq, print_gcq  # noqa: F401
from .hypergraph import join_plan
from .sigmodel import Signature, dump_model, load_model, load_signature, random_model  # noqa: F401
from .translate import lambda_term, relational_cospan, theta


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_query_file(path: str, sig_flag: str | None):
    text = _read(path)
    lines = text.splitlines()
    sig_path = None
    if lines and lines[0].strip().startswith("signature:"):
        sig_path = lines[0].split(":", 1)[1].strip()
        lines = lines[1:]
    body = "\n".join(lines).strip()
    if sig_flag:
        sig = load_signature(_read(sig_flag))
    elif sig_path:
        sig = load_signature(_read(str(Path(path).parent / sig_path)))
    else:
        raise CqError(f"no signature for {path}: pass --sig or add a signature: header")
    return body, sig


def _parse_query(body: str, sig: Signature, into=compile_nodes):
    """A judgment if the body holds ``|-``; otherwise a term, folded by
    ``into``: by default compiled straight to its cospan, no tree built."""
    return parse_ccq(body, sig) if "|-" in body else parse_gcq(body, sig, into=into)


def cmd_check(args) -> int:
    body_a, sig = _load_query_file(args.lhs, args.sig)
    body_b, sig_b = _load_query_file(args.rhs, args.sig)
    sig = sig.merged(sig_b)
    qa, qb = _parse_query(body_a, sig), _parse_query(body_b, sig)
    if args.mode == "equivalence":
        verdict = decide_equivalence(qa, qb, budget=args.budget)
        holds = verdict.holds
        doc = {"holds": holds,
               "forward": verdict.forward.to_json_dict(),
               "backward": verdict.backward.to_json_dict()}
    else:
        inc = decide_inclusion(qa, qb, budget=args.budget)
        holds = inc.holds
        doc = inc.to_json_dict()
    if args.format == "json":
        print(json.dumps(doc))
    else:
        rel = "equivalent to" if args.mode == "equivalence" else "included in"
        print(f"{'HOLDS' if holds else 'FAILS'}: lhs {rel} rhs")
        sides = ([("forward ", doc["forward"]), ("backward ", doc["backward"])]
                 if args.mode == "equivalence" else [("", doc)])
        for prefix, side in sides:
            for key in ("witness", "countermodel"):  # a verdict has exactly one
                if key in side:
                    print(f"{prefix}{key}:", json.dumps(side[key]))
    return 0 if holds else 1


def cmd_eval(args) -> int:
    body, sig = _load_query_file(args.query, args.sig)
    model = load_model(_read(args.model), sig)
    q = _parse_query(body, sig)
    names = model.carrier
    if isinstance(q, CcqJudgment):
        doc = [[names[x] for x in row] for row in sorted(eval_ccq(q, model))]
    else:
        rows = sorted(join_plan(q.apex, q.iota + q.omega)(model))
        doc = [[[names[x] for x in row[:q.n]], [names[x] for x in row[q.n:]]]
               for row in rows]
    if args.format == "json":
        print(json.dumps(doc))
    elif isinstance(q, CcqJudgment):
        for row in doc:
            print(", ".join(row))
    else:
        for a, b in doc:
            print(f"({', '.join(a)}) -> ({', '.join(b)})")
    return 0


def cmd_translate(args) -> int:
    body, sig = _load_query_file(args.query, args.sig)
    q = _parse_query(body, sig, build_term)
    if isinstance(q, CcqJudgment):
        term = theta(q)
        print(print_gcq(term))
        if not args.verify:
            return 0
        verdict = decide_equivalence(term, q)
    else:
        tsj = lambda_term(q)
        print(str(tsj))
        if not args.verify:
            return 0
        verdict = decide_equivalence(relational_cospan(term_to_cospan(q)), tsj.as_judgment())
    if not verdict.holds:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def cmd_export_dot(args) -> int:
    body, sig = _load_query_file(args.query, args.sig)
    dot = cospan_to_dot(term_to_cospan(_parse_query(body, sig)))
    if args.output:
        Path(args.output).write_text(dot + "\n", encoding="utf-8")
    else:
        print(dot)
    return 0


def cmd_axioms_verify(args) -> int:
    sig = load_signature(_read(args.sig)) if args.sig else Signature({"R": (1, 1)})
    entries = axiom_catalog(sig)
    all_passed = True
    for entry in entries:
        semantic = verify_axiom_semantic(entry, trials=args.trials,
                                         max_carrier=args.max_carrier,
                                         seed=args.seed, sig=sig)
        graphical = verify_axiom_graphical(entry)
        passed = semantic.passed and graphical.passed
        all_passed &= passed
        line = f"{entry.name}: {'PASS' if passed else 'FAIL'}"
        if not semantic.passed and semantic.countermodel is not None:
            line += " countermodel " + dump_model(semantic.countermodel)
        if not graphical.passed:
            line += " (graphical check failed)"
        print(line)
    return 0 if all_passed else 1


@functools.cache  # parsing leaves the parser as it was, so in-process callers share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqgraph",
                                     description="conjunctive query toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide inclusion or equivalence of two queries")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--sig")
    p.add_argument("--mode", choices=["inclusion", "equivalence"], default="inclusion")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--budget", type=int, default=None,
                   help="cancel the search (exit 2) after this many steps; a step is one "
                        "vertex image that passes every edge checkable at its vertex, or "
                        "one edge map emitted")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate a query over a model")
    p.add_argument("query")
    p.add_argument("model")
    p.add_argument("--sig")
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("translate", help="translate between formulas and terms")
    p.add_argument("query")
    p.add_argument("--sig")
    p.add_argument("--verify", action="store_true",
                   help="decide that the translation is equivalent to the query")
    ignored = "ignored: --verify decides exactly and samples no models"
    p.add_argument("--trials", type=int, default=20, help=ignored)
    p.add_argument("--seed", type=int, default=0, help=ignored)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("export-dot", help="export the compiled cospan as DOT")
    p.add_argument("query")
    p.add_argument("--sig")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("axioms-verify", help="verify the whole law catalog")
    p.add_argument("--sig")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-carrier", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_axioms_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("budget", "trials", "max_carrier"):
            value = getattr(args, flag, None)
            if value is not None and value <= 0:
                raise CqError(f"--{flag.replace('_', '-')} must be positive")
        return args.func(args)
    except (CqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is not a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
