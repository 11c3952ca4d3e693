"""Command line front end.

Exit codes: 0 for a positive verdict (or plain success), 1 for a negative
verdict, 2 for errors of any kind (bad input, bad instance, internal
self-check failures).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .counting import DEFAULT_BUDGET, cardinality_formula, enumerate_products
from .errors import MatSpanError
from .instances import (
    Instance,
    _dump_entry,
    _dump_field,
    dump_instance,
    irreducible_pair_instance,
    parse_instance,
    random_cyclic_instance,
    random_instance,
    shift_instance,
)
from .errors import InvalidKind
from .matrices import minpoly
from .polys import canonical_field
from .span import pbh_test, span_dimension, span_verdict, spans_full
from .verify import run_suites


def _use_color(stream) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, code: str, stream) -> str:
    if _use_color(stream):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _load_instance(path: str) -> Instance:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MatSpanError(f"not valid JSON: {exc}") from exc
    return parse_instance(obj)


def _fmt_elem(e) -> str:
    return str(_dump_entry(e))


def _witness_obj(wit) -> dict:
    return {
        "field": _dump_field(wit.u.field),
        "alpha": _dump_entry(wit.alpha),
        "beta": _dump_entry(wit.beta),
        "u": [_dump_entry(e) for e in wit.u.entries],
        "v": [_dump_entry(e) for e in wit.v.entries],
        "value_uSv": _dump_entry(wit.value_uSv),
    }


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _cmd_analyze(args) -> int:
    inst = _load_instance(args.instance)
    rep = span_verdict(inst.a, inst.b, inst.s)
    if args.json:
        obj = {
            "field": _dump_field(inst.field),
            "m": rep.m,
            "n": rep.n,
            "span_dim": rep.span_dim,
            "spans_full": rep.spans_full,
            "a_cyclic": rep.a_cyclic,
            "b_cyclic": rep.b_cyclic,
            "condition_c": rep.condition_c,
            "consistency_ok": rep.consistency_ok,
            "witness": None if rep.witness is None else _witness_obj(rep.witness),
        }
        _print_json(obj)
    else:
        out = sys.stdout
        print(f"field: {inst.field.describe()}")
        print(f"sizes: m={rep.m} n={rep.n}")
        print(f"span dimension: {rep.span_dim} of {rep.m * rep.n}")
        verdict = "SPANS" if rep.spans_full else "DOES NOT SPAN"
        code = "32" if rep.spans_full else "31"
        print(f"verdict: {_paint(verdict, code, out)}")
        print(f"a cyclic: {rep.a_cyclic}")
        print(f"b cyclic: {rep.b_cyclic}")
        print(f"eigenvector coupling: {rep.condition_c}")
        if rep.witness is not None:
            wit = rep.witness
            print(f"witness over {wit.u.field.describe()}:")
            print(f"  alpha = {_fmt_elem(wit.alpha)}  beta = {_fmt_elem(wit.beta)}")
            print(f"  u = [{', '.join(_fmt_elem(e) for e in wit.u.entries)}]")
            print(f"  v = [{', '.join(_fmt_elem(e) for e in wit.v.entries)}]")
            print(f"  u S v = {_fmt_elem(wit.value_uSv)}")
        if not rep.consistency_ok:
            print(_paint("INTERNAL DISAGREEMENT between rank and criterion",
                         "31", out))
    if not rep.consistency_ok:
        return 2
    return 0 if rep.spans_full else 1


def _cmd_span_dim(args) -> int:
    inst = _load_instance(args.instance)
    dim = span_dimension(inst.a, inst.b, inst.s)
    full = inst.a.rows * inst.b.rows
    if args.json:
        _print_json({"span_dim": dim, "full_dim": full,
                     "spans_full": dim == full})
    else:
        print(dim)
    return 0


def _cmd_pbh(args) -> int:
    inst = _load_instance(args.instance)
    # the pair under test is (a, s): a drives the recursion, s injects
    reachable = pbh_test(inst.a, inst.s, args.d)
    if args.json:
        _print_json({
            "reachable": reachable,
            "dim": inst.a.rows,
            "d": args.d if args.d is not None else inst.a.rows,
            "minpoly_degree": minpoly(inst.a).degree,
        })
    else:
        print("reachable" if reachable else "not reachable")
    return 0 if reachable else 1


def _cmd_cardinality(args) -> int:
    inst = _load_instance(args.instance)
    q = inst.field.order
    m, n = inst.a.rows, inst.b.rows
    h_eff = min(args.h, m)
    k_eff = min(args.k, n)
    value = cardinality_formula(q, h_eff, k_eff)
    clamped = (h_eff, k_eff) != (args.h, args.k)
    if not args.enumerate:
        if args.json:
            _print_json({"q": q, "h": args.h, "k": args.k,
                         "effective_h": h_eff, "effective_k": k_eff,
                         "formula": value})
        else:
            if clamped:
                print(f"exponents clamped to h={h_eff} k={k_eff}")
            print(value)
        return 0
    counted = enumerate_products(inst.a, inst.b, inst.s, args.h, args.k,
                                 budget=args.budget)
    # the closed form is guaranteed only when the whole family spans
    hypothesis = spans_full(inst.a, inst.b, inst.s)
    if not hypothesis:
        verdict = "HYPOTHESIS-FAILED"
        rc = 1
    elif counted == value:
        verdict = "AGREE"
        rc = 0
    else:
        # the family spans, so the counts must match; this is a defect
        verdict = "DISAGREE"
        rc = 2
    if args.json:
        _print_json({
            "q": q, "h": args.h, "k": args.k,
            "effective_h": h_eff, "effective_k": k_eff,
            "formula": value,
            "enumerated": counted,
            "spans_full": hypothesis,
            "verdict": verdict,
        })
    else:
        out = sys.stdout
        if clamped:
            print(f"exponents clamped to h={h_eff} k={k_eff}")
        print(f"formula: {value}")
        print(f"enumerated: {counted}")
        print(f"family spans: {hypothesis}")
        code = {"AGREE": "32", "HYPOTHESIS-FAILED": "33", "DISAGREE": "31"}[verdict]
        print(f"verdict: {_paint(verdict, code, out)}")
    return rc


_KINDS = ("shift-example", "random-cyclic", "irreducible-pair", "random")


def _cmd_generate(args) -> int:
    if args.degree < 1:
        raise MatSpanError("--degree must be at least 1")
    if args.m < 1 or args.n < 1:
        raise MatSpanError("--m and --n must be at least 1")
    field = canonical_field(args.p, args.degree)
    if args.kind == "shift-example":
        inst = shift_instance(field, args.m, args.n)
    elif args.kind == "random-cyclic":
        inst = random_cyclic_instance(field, args.m, args.n, args.seed)
    elif args.kind == "irreducible-pair":
        inst = irreducible_pair_instance(field, args.m, args.n, args.seed)
    elif args.kind == "random":
        inst = random_instance(field, args.m, args.n, args.seed)
    else:
        raise InvalidKind(f"unknown kind {args.kind!r}")
    text = json.dumps(dump_instance(inst), sort_keys=True, indent=2)
    if args.out is None or args.out == "-":
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_selftest(args) -> int:
    results = run_suites(args.level, seed=args.seed)
    out = sys.stdout
    if args.json:
        _print_json([
            {"name": r.name, "passed": r.passed, "gating": r.gating,
             "elapsed": round(r.elapsed, 3), "detail": r.detail}
            for r in results
        ])
    else:
        for r in results:
            tag = _paint("PASS", "32", out) if r.passed else _paint("FAIL", "31", out)
            extra = "" if r.gating else " [informational]"
            print(f"{tag} {r.name}{extra} ({r.elapsed:.2f}s): {r.detail}")
    gate_ok = all(r.passed for r in results if r.gating)
    if not args.json:
        print("all gating suites passed" if gate_ok
              else _paint("gating suite failures", "31", out))
    return 0 if gate_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matspan",
        description="Exact span analysis for two-sided matrix families "
                    "over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full span verdict for an instance")
    p_an.add_argument("instance", help="instance JSON file, or - for stdin")
    p_an.add_argument("--json", action="store_true", help="machine output")
    p_an.set_defaults(fn=_cmd_analyze)

    p_sd = sub.add_parser("span-dim", help="span dimension only")
    p_sd.add_argument("instance")
    p_sd.add_argument("--json", action="store_true")
    p_sd.set_defaults(fn=_cmd_span_dim)

    p_pbh = sub.add_parser(
        "pbh", help="reachability of the pair (a, s) of an instance")
    p_pbh.add_argument("instance")
    p_pbh.add_argument("--d", type=int, default=None,
                       help="Krylov depth, default is the dimension")
    p_pbh.add_argument("--json", action="store_true")
    p_pbh.set_defaults(fn=_cmd_pbh)

    p_card = sub.add_parser(
        "cardinality", help="closed-form product count for an instance, "
                            "optionally checked by enumeration")
    p_card.add_argument("instance", help="instance JSON file, or - for stdin")
    p_card.add_argument("--h", type=int, required=True)
    p_card.add_argument("--k", type=int, required=True)
    p_card.add_argument("--enumerate", action="store_true",
                        help="also count by brute-force enumeration")
    p_card.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help=f"enumeration budget, default {DEFAULT_BUDGET}")
    p_card.add_argument("--json", action="store_true")
    p_card.set_defaults(fn=_cmd_cardinality)

    p_gen = sub.add_parser("generate", help="emit an instance as JSON")
    p_gen.add_argument("--kind", choices=_KINDS, required=True)
    p_gen.add_argument("--p", type=int, required=True, help="characteristic")
    p_gen.add_argument("--degree", type=int, default=1,
                       help="extension degree, default 1")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None,
                       help="output file, default stdout")
    p_gen.set_defaults(fn=_cmd_generate)

    p_st = sub.add_parser("selftest", help="run the built-in check suites")
    p_st.add_argument("--level", choices=("quick", "full"), default="quick")
    p_st.add_argument("--seed", type=int, default=None,
                      help="override the fixed default seeds of the "
                           "randomized suites")
    p_st.add_argument("--json", action="store_true")
    p_st.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MatSpanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
