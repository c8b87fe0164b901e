"""Batch driver: run verification targets, dump pages, emit series.

Exit codes: 0 all checks pass, 1 a mathematical mismatch (a failed check
or a structural VerificationError), 2 usage error, 3 internal error (any
other exception, reported as such).
Output is deterministic: identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import sys

from .comodule import (RingId, eq_classes, is_primitive,
                       primitive_lift_coefficients, v1_smash_thh_table)
from .graded import Algebra, Generator, Kind, poincare_series
from .numerics import is_prime
from .report import Check, Report
from .specseq import Region, VerificationError, dump_page
from .tc import (fixed_point_check, k_Lp_checks, k_lp_presentation,
                 k_presentation, k_presentation_module, rh_map_check,
                 tc_presentation, tc_presentation_module)
from .thh.bokstedt import (bokstedt_e2_page, bokstedt_einf_page, bokstedt_run)
from .thh.circle import (blocks_meeting, comparison_region, lemma_78_check,
                         lemma_79_check, s1_einf, s1_limits)
from .thh.hochschild import hh_bruteforce
from .thh.tate import TOWERS, instance_region, run_instance, tower_instance
from .thh.v1 import poincare_identity_check, v1_thh_presentation

USAGE_ERROR, MISMATCH, INTERNAL_ERROR = 2, 1, 3

TOWER_TARGETS = {"thm-7.1", "cor-7.2", "thm-7.4", "cor-7.5"}
LEMMA_TARGETS = {"lemma-7.8", "lemma-7.9"}
MIN_PRIME_RELAXED = {"oracle-hh", "bokstedt", "bokstedt:zp", "bokstedt:zlocal",
                     "bokstedt:ell", "bokstedt:ellmodp"}


def _tower_check(report: Report, conv: str, p: int, n: int, lo: int, hi: int,
                 label: str) -> None:
    for cmp_ in run_instance(tower_instance(p, n, conv), lo, hi):
        details = [str(m) for m in cmp_.mismatches[:10]]
        report.add(Check(f"{label}:{cmp_.label}", cmp_.passed, details))


def _primitivity_check(report: Report, p: int) -> None:
    want = {
        RingId.HZP_MOD: ("eps0", "eps1", "mu0"),
        RingId.HZ_LOCAL: ("lambda1", "mu1"),
        RingId.ELL: ("lambda2", "mu2"),
        RingId.ELL_MOD_P: ("eps1bar",),
    }
    for ring, names in want.items():
        table = v1_smash_thh_table(p, ring)
        classes = eq_classes(p, ring)
        for name in names:
            ok = is_primitive(table, classes[name])
            report.add(Check(f"primitive:{name}:{ring.value}", ok))
    winners = primitive_lift_coefficients(p)
    report.add(Check("primitive-lift-coefficient", winners == [p - 1],
                     [f"coefficients passing: {winners} (expect [{p - 1}])"]))


def _oracle_check(report: Report, p: int) -> None:
    ex = Algebra(p, (Generator("x", 0, 2 * p - 1, Kind.EXTERIOR),))
    want = poincare_series(Algebra(p, (
        Generator("x", 0, 2 * p - 1, Kind.EXTERIOR),
        Generator("sx", 0, 2 * p, Kind.DIVIDED))), 0, 12)
    got = hh_bruteforce(ex, 12)
    report.add(Check("oracle-hh:exterior", got == want,
                     [f"dims {[got.get(d) for d in range(13)]}"]))
    px = Algebra(p, (Generator("x", 0, 2, Kind.POLYNOMIAL),))
    want = poincare_series(Algebra(p, (
        Generator("x", 0, 2, Kind.POLYNOMIAL),
        Generator("sx", 0, 3, Kind.EXTERIOR))), 0, 12)
    got = hh_bruteforce(px, 12)
    report.add(Check("oracle-hh:polynomial", got == want,
                     [f"dims {[got.get(d) for d in range(13)]}"]))


def run_verify_target(target: str, p: int, n: int, lo: int, hi: int) -> Report:
    report = Report()
    if target == "prop-6.8":
        _tower_check(report, "tate", p, 1, lo, hi, target)
    elif target in ("thm-7.1", "cor-7.2"):
        _tower_check(report, "tate", p, n, lo, hi, target)
    elif target in ("thm-7.4", "cor-7.5"):
        _tower_check(report, "hofix", p, n, lo, hi, target)
    elif target == "thm-7.12":
        for conv in ("tate", "hofix"):
            ok, details = s1_limits(p, lo, hi, conv)
            report.add(Check(f"thm-7.12:{conv}-stabilization", ok,
                             details[:10]))
    elif target == "lemma-7.8":
        ok, details = lemma_78_check(p, n, lo, hi)
        report.add(Check(f"lemma-7.8:n={n}", ok, details[:10]))
    elif target == "lemma-7.9":
        ok, details = lemma_79_check(p, n, lo, hi)
        report.add(Check(f"lemma-7.9:n={n}", ok, details[:10]))
    elif target == "prop-8.2":
        wlo = max(lo, 2 * p - 1)
        ok, details = rh_map_check(p, wlo, hi)
        report.add(Check("prop-8.2", ok, details[:10]))
    elif target == "prop-8.6":
        wlo = max(lo, 2 * p - 1)
        ok, details = fixed_point_check(p, wlo, hi)
        report.add(Check("prop-8.6", ok, details[:10]))
    elif target == "thm-8.8":
        mod, problems = tc_presentation(p)
        report.add(Check("thm-8.8", not problems,
                         problems[:10] or [f"rank={mod.rank}"]))
    elif target == "thm-8.10":
        mod, problems = k_presentation(p)
        report.add(Check("thm-8.10", not problems,
                         problems[:10] or [f"rank={mod.rank}, euler={mod.euler}"]))
    elif target == "cor-k-lp":
        ok, details = k_Lp_checks(p)
        report.add(Check("cor-k-lp", ok, details[:10], conditional=True))
    elif target == "primitivity":
        _primitivity_check(report, p)
    elif target == "poincare-identity":
        for ring in RingId:
            ok, problems = poincare_identity_check(p, ring, 30)
            report.add(Check(f"poincare-identity:{ring.value}", ok,
                             problems[:5]))
    elif target == "oracle-hh":
        _oracle_check(report, p)
    elif target == "bokstedt" or target.startswith("bokstedt:"):
        rings = list(RingId) if target == "bokstedt" else \
            [RingId.parse(target.split(":", 1)[1])]
        blo, bhi = max(lo, 0), hi
        for ring in rings:
            cmp_ = bokstedt_run(p, ring, blo, bhi)
            report.add(Check(f"bokstedt:{ring.value}", cmp_.passed,
                             [str(m) for m in cmp_.mismatches[:10]]))
    else:
        raise KeyError(target)
    return report


VERIFY_TARGETS = [
    "prop-6.8", "thm-7.1", "cor-7.2", "thm-7.4", "cor-7.5", "thm-7.12",
    "lemma-7.8", "lemma-7.9", "prop-8.2", "prop-8.6", "thm-8.8", "thm-8.10",
    "cor-k-lp", "primitivity", "poincare-identity", "oracle-hh", "bokstedt",
    "bokstedt:zp", "bokstedt:zlocal", "bokstedt:ell", "bokstedt:ellmodp",
]


def _parse_window(text: str, p: int) -> tuple[int, int]:
    if text is None:
        return -2 * p * p, 5 * p * p
    lo_s, _, hi_s = text.partition(":")
    lo, hi = int(lo_s), int(hi_s)
    if lo > hi:
        raise ValueError(f"empty window {text}")
    return lo, hi


def _parse_page(text: str):
    if text == "inf":
        return "inf"
    return int(text)


def cmd_verify(args) -> int:
    p = args.prime
    if args.id not in VERIFY_TARGETS:
        print(f"unknown verification target {args.id!r}", file=sys.stderr)
        return USAGE_ERROR
    min_p = 3 if args.id in MIN_PRIME_RELAXED else 5
    if not is_prime(p) or p < min_p:
        print(f"prime >= {min_p} required, got {p}", file=sys.stderr)
        return USAGE_ERROR
    try:
        lo, hi = _parse_window(args.window, p)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return USAGE_ERROR
    if args.id in TOWER_TARGETS | LEMMA_TARGETS and args.n < 1:
        print(f"--n >= 1 required for {args.id}, got {args.n}", file=sys.stderr)
        return USAGE_ERROR
    if args.id in ("prop-8.2", "prop-8.6") and hi < 2 * p - 1:
        print(f"empty window {lo}:{hi}: {args.id} starts in degree "
              f"{2 * p - 1}", file=sys.stderr)
        return USAGE_ERROR
    report = run_verify_target(args.id, p, args.n, lo, hi)
    config = {"command": "verify", "id": args.id, "prime": p, "n": args.n,
              "window": [lo, hi]}
    _emit(args, report, config)
    return 0 if report.passed else MISMATCH


def _instance_page(args, p: int, lo: int, hi: int):
    parts = args.id.split(":")
    page = _parse_page(args.page)
    if parts[0] == "bokstedt" and len(parts) == 2:
        ring = RingId.parse(parts[1])
        region = Region(max(lo, 0), hi, 0, hi + 1)
        if isinstance(page, int) and page < 2:
            raise ValueError(f"no page {page} for {args.id}")
        if page == "inf" or (isinstance(page, int) and page >= p):
            return bokstedt_einf_page(p, ring, hi + 1), region
        return bokstedt_e2_page(p, ring, hi + 1), region
    conv = parts[0]
    if conv in TOWERS and len(parts) == 3 and parts[1] == "cp":
        n = int(parts[2])
        if n < 1:
            raise ValueError(f"tower height {n} < 1")
        region = instance_region(p, n, lo, hi, conv)
        return tower_instance(p, n, conv).form_at(page), region
    if conv in TOWERS and parts[1:] == ["s1"]:
        if page != "inf":
            raise KeyError("only the final page exists for circle instances")
        region = comparison_region(p, lo, hi, conv)
        return s1_einf(p, blocks_meeting(p, region), conv), region
    raise KeyError(args.id)


def cmd_tables(args) -> int:
    p = args.prime
    min_p = 3 if args.id.startswith("bokstedt") else 5
    if not is_prime(p) or p < min_p:
        print(f"prime >= {min_p} required, got {p}", file=sys.stderr)
        return USAGE_ERROR
    try:
        lo, hi = _parse_window(args.window, p)
        form, region = _instance_page(args, p, lo, hi)
    except (KeyError, ValueError) as err:
        print(f"unknown instance or page: {err}", file=sys.stderr)
        return USAGE_ERROR
    header = f"# {args.id} page={args.page} prime={p} window={lo}:{hi}"
    body = dump_page(form, region)
    if args.format == "structured":
        import json
        lines = body.splitlines()
        doc = {"schema_version": 1,
               "config": {"command": "tables", "id": args.id,
                          "page": args.page, "prime": p, "window": [lo, hi]},
               "results": [{"id": args.id, "status": "ok", "details": lines}]}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(header)
        if body:
            print(body)
    return 0


PRESENTATION_IDS = ("thh:v1:zp", "thh:v1:zlocal", "thh:v1:ell",
                    "thh:v1:ellmodp", "tc", "k", "k-lp-conditional")


def cmd_poincare(args) -> int:
    p = args.prime
    if args.id not in PRESENTATION_IDS:
        print(f"unknown presentation {args.id!r}", file=sys.stderr)
        return USAGE_ERROR
    if not is_prime(p) or p < 5:
        print(f"prime >= 5 required, got {p}", file=sys.stderr)
        return USAGE_ERROR
    try:
        lo, hi = _parse_window(args.window, p)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return USAGE_ERROR
    if args.id.startswith("thh:v1:"):
        ring = RingId.parse(args.id.rsplit(":", 1)[1])
        pres = v1_thh_presentation(p, ring)
        series = pres.series(max(hi, 0)).restrict(max(lo, 0), max(hi, 0))
        extra = {}
    else:
        mod = {"tc": tc_presentation_module, "k": k_presentation_module,
               "k-lp-conditional": k_lp_presentation}[args.id](p)
        series = mod.series(lo, hi)
        extra = mod.export()
    # the v1 series holds degree 0 even when the window ends below it
    pairs = [[d, v] for d, v in series.items() if d <= hi]
    if args.format == "structured":
        import json
        doc = {"schema_version": 1,
               "config": {"command": "poincare", "id": args.id, "prime": p,
                          "window": [lo, hi]},
               "results": [{"id": args.id, "status": "ok",
                            "series": pairs, "presentation": extra}]}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"# {args.id} prime={p} window={lo}:{hi}")
        for d, v in pairs:
            print(f"{d} {v}")
    return 0


def _emit(args, report: Report, config: dict) -> None:
    if args.format == "structured":
        import json
        print(json.dumps(report.to_json_dict(config), sort_keys=True))
    else:
        print(report.to_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpss",
        description="exact verification of F_p spectral sequence computations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--prime", type=int, default=5)
        sp.add_argument("--window", default=None, metavar="lo:hi")
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text")

    sp = sub.add_parser("verify", help="run a verification target")
    sp.add_argument("id", help="target id, e.g. prop-6.8 or thm-8.10")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("tables", help="dump a page in text form")
    sp.add_argument("id", help="instance id, e.g. tate:cp:1 or bokstedt:zp")
    sp.add_argument("--page", default="inf", metavar="r|inf")
    common(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("poincare", help="emit a presentation's series")
    sp.add_argument("id", help="presentation id, e.g. tc or thh:v1:ellmodp")
    common(sp)
    sp.set_defaults(func=cmd_poincare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    merged: list[str] = []
    it = iter(argv)
    for arg in it:
        # windows like -20:120 start with a dash; keep argparse out of it
        if arg == "--window":
            value = next(it, None)
            merged.append(arg if value is None else f"--window={value}")
        else:
            merged.append(arg)
    try:
        args = parser.parse_args(merged)
    except SystemExit as err:
        return USAGE_ERROR if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except VerificationError as err:  # structural failures are mismatches
        print(f"verification error: {err}", file=sys.stderr)
        return MISMATCH
    except Exception as err:  # a crash is not a mathematical result
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
