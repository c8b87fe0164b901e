"""Batch driver: run verification targets, dump pages, emit series.

Each verify target is a row of TARGETS: its smallest prime, whether it
reads --n, and the degree it starts in.  The three commands share one
front door, which checks the id, the prime and the window, and one
emitter of --format structured output.

Exit codes: 0 all checks pass, 1 a mathematical mismatch (a failed check
or a structural VerificationError), 2 usage error, 3 internal error (any
other exception, reported as such).
Output is deterministic: identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

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


class UsageError(Exception):
    """Bad input: the front door prints it on stderr and exits 2."""


class Target(NamedTuple):
    min_prime: int = 5
    reads_n: bool = False           # reads --n, which must then be >= 1
    first: Callable[[int], int] | None = None  # its first degree at prime p
    tower: str | None = None        # the convention of a tower target


# the rules of each verify target, in the order VERIFY_TARGETS keeps
TARGETS = {
    "prop-6.8": Target(tower="tate"),
    "thm-7.1": Target(reads_n=True, tower="tate"),
    "cor-7.2": Target(reads_n=True, tower="tate"),
    "thm-7.4": Target(reads_n=True, tower="hofix"),
    "cor-7.5": Target(reads_n=True, tower="hofix"),
    "thm-7.12": Target(),
    "lemma-7.8": Target(reads_n=True),
    "lemma-7.9": Target(reads_n=True),
    "prop-8.2": Target(first=lambda p: 2 * p - 1),
    "prop-8.6": Target(first=lambda p: 2 * p - 1),
    "thm-8.8": Target(),
    "thm-8.10": Target(),
    "cor-k-lp": Target(),
    "primitivity": Target(),
    "poincare-identity": Target(),
    "oracle-hh": Target(min_prime=3),
    "bokstedt": Target(min_prime=3, first=lambda p: 0),
    **{f"bokstedt:{ring.value}": Target(min_prime=3, first=lambda p: 0)
       for ring in RingId},
}
VERIFY_TARGETS = list(TARGETS)


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
    # HH of E(x) is E(x) (x) Gamma(sx), and HH of P(x) is P(x) (x) E(sx)
    for kind, degree, s_kind in ((Kind.EXTERIOR, 2 * p - 1, Kind.DIVIDED),
                                 (Kind.POLYNOMIAL, 2, Kind.EXTERIOR)):
        x = Generator("x", 0, degree, kind)
        want = poincare_series(Algebra(p, (
            x, Generator("sx", 0, degree + 1, s_kind))), 0, 12)
        got = hh_bruteforce(Algebra(p, (x,)), 12)
        report.add(Check(f"oracle-hh:{kind.value}", got == want,
                         [f"dims {[got.get(d) for d in range(13)]}"]))


def run_verify_target(target: str, p: int, n: int, lo: int, hi: int) -> Report:
    row = TARGETS[target]
    if row.first is not None:
        lo = max(lo, row.first(p))
    report = Report()
    if row.tower is not None:  # prop-6.8 is the tower of height 1
        height = n if row.reads_n else 1
        for cmp_ in run_instance(tower_instance(p, height, row.tower), lo, hi):
            report.add(Check(f"{target}:{cmp_.label}", cmp_.passed,
                             [str(m) for m in cmp_.mismatches[:10]]))
    elif target == "thm-7.12":
        for conv in ("tate", "hofix"):
            ok, details = s1_limits(p, lo, hi, conv)
            report.add(Check(f"thm-7.12:{conv}-stabilization", ok,
                             details[:10]))
    elif target in ("lemma-7.8", "lemma-7.9"):
        check = lemma_78_check if target == "lemma-7.8" else lemma_79_check
        ok, details = check(p, n, lo, hi)
        report.add(Check(f"{target}:n={n}", ok, details[:10]))
    elif target in ("prop-8.2", "prop-8.6"):
        check = rh_map_check if target == "prop-8.2" else fixed_point_check
        ok, details = check(p, lo, hi)
        report.add(Check(target, ok, details[:10]))
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
    else:  # bokstedt, or bokstedt:<ring>
        _, _, name = target.partition(":")
        for ring in [RingId.parse(name)] if name else RingId:
            cmp_ = bokstedt_run(p, ring, lo, hi)
            report.add(Check(f"bokstedt:{ring.value}", cmp_.passed,
                             [str(m) for m in cmp_.mismatches[:10]]))
    return report


def cmd_verify(args, p: int, lo: int, hi: int) -> int:
    row = TARGETS[args.id]
    if row.reads_n and args.n < 1:
        raise UsageError(f"--n >= 1 required for {args.id}, got {args.n}")
    if row.first is not None and hi < row.first(p):
        raise UsageError(f"empty window {lo}:{hi}: {args.id} starts in degree "
                         f"{row.first(p)}")
    report = run_verify_target(args.id, p, args.n, lo, hi)
    _emit(args, p, lo, hi, report.to_json_dict, lambda: [report.to_text()],
          n=args.n)
    return 0 if report.passed else MISMATCH


def _instance_page(args, p: int, lo: int, hi: int):
    parts = args.id.split(":")
    page = args.page if args.page == "inf" else int(args.page)
    if parts[0] == "bokstedt" and len(parts) == 2:
        ring = RingId.parse(parts[1])
        if page != "inf" and page < 2:
            raise ValueError(f"no page {page} for {args.id}")
        build = bokstedt_einf_page if page == "inf" or page >= p \
            else bokstedt_e2_page
        return build(p, ring, hi + 1), Region(max(lo, 0), hi, 0, hi + 1)
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


def cmd_tables(args, p: int, lo: int, hi: int) -> int:
    try:
        form, region = _instance_page(args, p, lo, hi)
    except (KeyError, ValueError) as err:
        raise UsageError(f"unknown instance or page: {err}") from None
    header = f"# {args.id} page={args.page} prime={p} window={lo}:{hi}"
    body = dump_page(form, region)
    _emit(args, p, lo, hi, lambda: [{"id": args.id, "status": "ok",
                                     "details": body.splitlines()}],
          lambda: [header, body] if body else [header], page=args.page)
    return 0


MODULES = {"tc": tc_presentation_module, "k": k_presentation_module,
           "k-lp-conditional": k_lp_presentation}
PRESENTATION_IDS = tuple(f"thh:v1:{ring.value}" for ring in RingId) + \
    tuple(MODULES)


def cmd_poincare(args, p: int, lo: int, hi: int) -> int:
    if args.id in MODULES:
        mod = MODULES[args.id](p)
        series, extra = mod.series(lo, hi), mod.export()
    else:
        pres = v1_thh_presentation(p, RingId.parse(args.id.rsplit(":", 1)[1]))
        series = pres.series(max(hi, 0)).restrict(max(lo, 0), max(hi, 0))
        extra = {}
    # the v1 series holds degree 0 even when the window ends below it
    pairs = [[d, v] for d, v in series.items() if d <= hi]
    _emit(args, p, lo, hi, lambda: [{"id": args.id, "status": "ok",
                                     "series": pairs, "presentation": extra}],
          lambda: [f"# {args.id} prime={p} window={lo}:{hi}"]
          + [f"{d} {v}" for d, v in pairs])
    return 0


# command -> (its ids with their smallest primes, or None where any id is
# taken and read with the page; what an id names; the command)
COMMANDS = {
    "verify": ({t: row.min_prime for t, row in TARGETS.items()},
               "verification target", cmd_verify),
    "tables": (None, "instance or page", cmd_tables),
    "poincare": (dict.fromkeys(PRESENTATION_IDS, 5), "presentation",
                 cmd_poincare),
}


def _front_door(args) -> int:
    """The one way into the three commands: the id, the prime, the window,
    then the command.  `tables` reads its id with the page, after the
    window, and names both in its errors.  A usage error prints one line on
    stderr and exits 2."""
    ids, what, command = COMMANDS[args.command]
    p = args.prime
    try:
        if ids is None:
            min_p = 3 if args.id.startswith("bokstedt") else 5
        elif args.id not in ids:
            raise UsageError(f"unknown {what} {args.id!r}")
        else:
            min_p = ids[args.id]
        if not is_prime(p) or p < min_p:
            raise UsageError(f"prime >= {min_p} required, got {p}")
        lo, hi = -2 * p * p, 5 * p * p  # the default window
        try:
            if args.window is not None:
                lo_s, _, hi_s = args.window.partition(":")
                lo, hi = int(lo_s), int(hi_s)
                if lo > hi:
                    raise ValueError(f"empty window {args.window}")
        except ValueError as err:
            raise UsageError(f"unknown {what}: {err}" if ids is None
                             else str(err)) from None
        return command(args, p, lo, hi)
    except UsageError as err:
        print(err, file=sys.stderr)
        return USAGE_ERROR


def _emit(args, p: int, lo: int, hi: int, results, text, **config) -> None:
    """Print the lines text() lists one by one, unjoined (a page dump runs
    to megabytes), or under --format structured the config and results()."""
    if args.format == "structured":
        import json
        config.update(command=args.command, id=args.id, prime=p,
                      window=[lo, hi])
        print(json.dumps({"schema_version": 1, "config": config,
                          "results": results()}, sort_keys=True))
    else:
        print(*text(), sep="\n")


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

    sp = sub.add_parser("tables", help="dump a page in text form")
    sp.add_argument("id", help="instance id, e.g. tate:cp:1 or bokstedt:zp")
    sp.add_argument("--page", default="inf", metavar="r|inf")
    common(sp)

    sp = sub.add_parser("poincare", help="emit a presentation's series")
    sp.add_argument("id", help="presentation id, e.g. tc or thh:v1:ellmodp")
    common(sp)
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
        return _front_door(args)
    except VerificationError as err:  # structural failures are mismatches
        print(f"verification error: {err}", file=sys.stderr)
        return MISMATCH
    except Exception as err:  # a crash is not a mathematical result
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
