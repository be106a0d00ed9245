"""Command-line front end.

Subcommands: classify a curve, generate a square-discriminant family
member, run verification suites, and search points on C_N / X_N.  Every
invocation prints a single JSON document (deterministic for a fixed
command line; pass --human for a readable rendering, --timing to include
wall-clock time) and exits 0 exactly when no counterexample was found.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .classify import (
    curve_from_j,
    is_cm_j,
    square_disc_by_j,
    square_disc_direct,
)
from .families import family, theorem1_j
from .curve_search import search_C, search_X
from .isogeny import chain_check, modular_poly_check
from .polynomials import PoleError
from .rationals import FactorizationError, as_fraction, sqrt_rational, squarefree_part
from .verify import DEFAULT_HEIGHT, DEFAULT_SAMPLES, DEFAULT_SEED, SUITES, run_suite
from .weierstrass import (
    ShortModel,
    SingularModelError,
    as_general,
    model_to_strings,
    parse_curve,
)


def _report(command: str, inputs: dict, verdicts: list, counterexamples: list, elapsed):
    return {
        "command": command,
        "inputs": inputs,
        "verdicts": verdicts,
        "counterexamples": counterexamples,
        "timing": elapsed,
    }


def cmd_classify(args) -> dict:
    model = parse_curve(args.curve)
    general = as_general(model)
    general.assert_nonsingular()
    inv = general.invariants()
    direct = square_disc_direct(general)
    routed = square_disc_by_j(general)
    try:
        disc_class = squarefree_part(inv.disc)
    except FactorizationError:
        disc_class = None
    verdicts = [
        {"name": "disc", "value": str(inv.disc)},
        {"name": "disc_squarefree_part", "value": None if disc_class is None else str(disc_class)},
        {"name": "j", "value": str(inv.j)},
        {"name": "square_disc_direct", "ok": True, "value": direct},
        {"name": "square_disc_by_j", "ok": routed.is_square == direct, "value": routed.as_dict()},
        {"name": "cm", "value": is_cm_j(inv.j)},
    ]
    counterexamples = []
    if routed.is_square != direct:
        counterexamples.append({"reason": "classifier disagreement", "curve": args.curve})
    if is_cm_j(inv.j):
        # CM curves have square discriminant only on the j = 1728 branch
        consistent = (not direct) or (inv.j == 1728)
        verdicts.append({"name": "cm_square_disc_only_at_1728", "ok": consistent, "value": consistent})
        if not consistent:
            counterexamples.append({"reason": "CM square-disc rule violated", "curve": args.curve})
    return _report("classify", {"curve": model_to_strings(model)}, verdicts, counterexamples, None)


def cmd_family(args) -> dict:
    n = args.N
    t = as_fraction(args.t)
    j = theorem1_j(n, t, args.data_dir)  # PoleError -> cusp, reported below
    fam = family(n, args.data_dir)
    h0 = fam.h_param_C(t)
    counterexamples = []
    if j == 1728:
        model = ShortModel(-1, 0)  # the square-disc member of the j = 1728 class
        branch = "j-1728"
    else:
        model = curve_from_j(j)
        branch = "generic-j"
    disc = model.discriminant
    certificate = sqrt_rational(disc)
    if certificate is None:
        counterexamples.append({"reason": "no square-root certificate for disc", "j": str(j)})
    if n in (2, 3, 7):
        oracle: Optional[bool] = modular_poly_check(n, fam.j_map(h0), fam.jprime_map(h0), args.data_dir)
        oracle_kind = "modular-polynomial"
    elif j in (0, 1728):
        oracle = None  # chain start twist ambiguous at exceptional j
        oracle_kind = "skipped-exceptional-j"
    else:
        oracle = chain_check(n, h0, args.data_dir)
        oracle_kind = "velu-chain"
    if oracle is False:
        counterexamples.append({"reason": "isogeny oracle rejected the member", "h": str(h0)})
    verdicts = [
        {"name": "j", "value": str(j)},
        {"name": "h", "value": str(h0)},
        {"name": "branch", "value": branch},
        {"name": "model", "value": model_to_strings(model)},
        {"name": "disc", "value": str(disc)},
        {"name": "disc_sqrt", "ok": certificate is not None,
         "value": None if certificate is None else str(certificate)},
        {"name": "isogeny_oracle", "ok": oracle is not False, "value": oracle, "kind": oracle_kind},
    ]
    return _report("family", {"N": n, "t": str(t)}, verdicts, counterexamples, None)


def cmd_verify(args) -> dict:
    verdicts, counterexamples = run_suite(
        args.suite, height=args.height, samples=args.samples, seed=args.seed, data_dir=args.data_dir
    )
    return _report(
        "verify",
        {"suite": args.suite, "height": args.height, "samples": args.samples, "seed": args.seed},
        verdicts,
        counterexamples,
        None,
    )


def cmd_search(args) -> dict:
    if args.which == "C":
        points = [[str(p.h), str(p.y)] for p in search_C(args.N, args.height, args.data_dir)]
    else:
        points = [[str(p.h), str(p.y), str(p.z)] for p in search_X(args.N, args.height, args.data_dir)]
    verdicts = [
        {"name": f"{args.which}_{args.N} points at height {args.height}", "count": len(points), "points": points},
        {"name": "points at infinity", "value": "not searched (affine box only)"},
    ]
    return _report(
        "search", {"N": args.N, "which": args.which, "height": args.height}, verdicts, [], None
    )


def _render_human(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for key, value in report["inputs"].items():
        lines.append(f"  {key} = {value}")
    lines.append("verdicts:")
    for v in report["verdicts"]:
        mark = ""
        if "ok" in v:
            mark = "PASS " if v["ok"] else "FAIL "
        body = {k: val for k, val in v.items() if k not in ("name", "ok")}
        lines.append(f"  {mark}{v.get('name', '?')} {body if body else ''}".rstrip())
    if report["counterexamples"]:
        lines.append(f"counterexamples: {len(report['counterexamples'])}")
        for c in report["counterexamples"]:
            lines.append(f"  {c}")
    else:
        lines.append("counterexamples: none")
    if report.get("timing") is not None:
        lines.append(f"timing: {report['timing']}s")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data-dir", default=None, help="override the bundled data directory")
    common.add_argument("--human", action="store_true", help="render a readable report instead of JSON")
    common.add_argument("--timing", action="store_true", help="include wall-clock seconds in the report")

    parser = argparse.ArgumentParser(
        prog="squaredisc",
        description="Exact classification of square-discriminant elliptic curves over Q "
        "and their isogeny families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a curve given by [a1,a2,a3,a4,a6] or [A,B]")
    p.add_argument("curve", help='e.g. "[-1, 0]" or "[0,-1,1,0,0]"; entries may be "p/q"')
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("family", parents=[common], help="emit a square-discriminant family member")
    p.add_argument("--N", type=int, required=True, choices=(2, 3, 4, 6, 7, 8))
    p.add_argument("--t", required=True, help='parameter value, e.g. "3" or "-5/7"')
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--height", type=int, default=DEFAULT_HEIGHT)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", parents=[common], help="bounded-height point search on C_N or X_N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--which", choices=("C", "X"), default="C")
    p.add_argument("--height", type=int, default=DEFAULT_HEIGHT)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except (PoleError, SingularModelError, ValueError, KeyError, OSError) as exc:
        report = _report(args.command, {}, [], [{"reason": f"error: {exc}"}], None)
    if args.timing:
        report["timing"] = round(time.perf_counter() - start, 6)
    if args.human:
        print(_render_human(report))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if not report["counterexamples"] else 1


if __name__ == "__main__":
    sys.exit(main())
