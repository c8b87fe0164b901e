"""End-to-end and per-layer benchmark of the fpss command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command of a workload runs in a fresh interpreter (`bench/child.py`),
one at a time, as a CLI user runs it: closed loop, one client, no threads,
no parallel children.  A fresh interpreter per command means no
`lru_cache` or per-page `_cache` carries over between commands or passes;
CLI users pay those costs on every invocation.

The seed fixes the order of a workload's commands.  A pass runs every
command once; the run repeats passes while the next one fits in S seconds
(at least one).  Each command's stdout and exit code must equal the golden
captured by `bench/capture.py`; any difference counts as a failed command.

--trace 0 reports, as medians over the run:
  wall_s       seconds inside `fpss.cli.main` (or `hh_bruteforce`) summed
               over a pass's commands; interpreter start and import excluded
  setup_s      seconds from starting an interpreter to `fpss.cli` imported,
               summed over a pass's commands (median per-command sample,
               from the passes and from extra import-only interpreters,
               times the number of commands)
  peak_rss_mb  the largest resident set of any command in a pass
Times are seconds at a fixed reference speed: the host's speed drifts by up
to 1.7x, so each child measures it with a timed reference loop (child.py)
and its times are scaled by that measurement.  The raw medians are printed
above the result line.

--trace 1 runs one untraced pass, then two passes with layer
spans (`bench/spans.py`), and reports per-layer metrics
`<module>.<function>.<stat>`: `busy_s` is inclusive time, `self_s` busy
time minus the time covered by child spans, and `trace.overhead_ratio` the
traced pass time over the untraced one, minus one.  The exact counts
(calls, bidegrees, monomials, terms, nnz_in, pivots, cache hits) of every
command must repeat exactly between the traced passes; a count that
differs is reported as nondeterminism and makes the run incorrect.

The last line of stdout is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden")
CHILD = os.path.join(BENCH, "child.py")

# Every run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
# Import-only interpreters per run, so setup_s has samples beyond the
# one-import-per-command of a single towers pass.
SETUP_PROBES = 15


def cli(*args: str) -> tuple[str, ...]:
    return ("cli",) + args


WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    # The paper's core towers: thh.tate closed forms, both rule kinds in
    # specseq.verify_turn, Echelon on one-nonzero columns; no graded.basis_in_bidegree.
    "towers": [
        cli("verify", "thm-7.1", "--n", "2"),
        cli("verify", "thm-7.4", "--n", "2"),
    ],
    # Bokstedt starting pages: per-bidegree enumeration in graded dominates.
    # The p=3 ell command is the one where the ell differential fires.
    "bokstedt": [
        cli("verify", "bokstedt:zp", "--window", "0:60"),
        cli("verify", "bokstedt:zlocal", "--window", "0:60"),
        cli("verify", "bokstedt:ell", "--window", "0:60"),
        cli("verify", "bokstedt:ellmodp", "--window", "0:60"),
        cli("verify", "bokstedt:ell", "--prime", "3", "--window", "0:60"),
    ],
    # Hochschild oracle: the only general elimination in fp_linalg.Echelon.
    "oracle": [
        ("hh", "5", "24"),
    ],
    # Many short commands: tc, circle, comodule, v1, report formatting and
    # the thh.tate.iter_region read path; fixed per-command cost matters.
    "endgame": [
        cli("verify", "thm-7.12"),
        cli("verify", "lemma-7.8", "--n", "2"),
        cli("verify", "lemma-7.9", "--n", "2"),
        cli("verify", "prop-8.2"),
        cli("verify", "prop-8.6"),
        cli("verify", "thm-8.8"),
        cli("verify", "thm-8.10"),
        cli("verify", "cor-k-lp"),
        cli("verify", "primitivity"),
        cli("verify", "poincare-identity"),
        cli("verify", "oracle-hh"),
        cli("verify", "thm-7.12", "--prime", "7"),
        cli("verify", "prop-8.6", "--prime", "7"),
        cli("verify", "thm-8.8", "--prime", "7"),
        cli("verify", "thm-7.12", "--format", "structured"),
        cli("tables", "tate:cp:1", "--page", "3"),
        cli("tables", "hofix:cp:2", "--page", "inf"),
        cli("tables", "tate:s1", "--page", "inf"),
        cli("poincare", "tc"),
        cli("poincare", "k", "--format", "structured"),
        cli("poincare", "thh:v1:ellmodp"),
    ],
}

STAGES = ["d2", "tate-odd-1", "tate-even-1", "tate-odd-2", "tate-even-2",
          "tate-final-2", "hofix-odd-1", "hofix-even-1", "hofix-odd-2",
          "hofix-even-2", "hofix-final-2", "bokstedt-d4", "bokstedt-d2"]
FUNCTIONS = ["tc.r_fixed_points", "tc.tc_presentation", "tc.k_presentation",
             "tc.rh_map_check", "thh.circle.s1_limits",
             "thh.circle.s1_hofix_limits", "thh.circle.lemma_78_check",
             "thh.circle.lemma_79_check", "comodule.v1_smash_thh_table",
             "comodule.is_primitive", "thh.v1.poincare_identity_check",
             "report.format"]


def slug(command: tuple[str, ...]) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", " ".join(command)).strip("_")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Runs commands in fresh interpreters and checks them against goldens."""

    def __init__(self, workdir: str, deadline: float, exit_codes: dict):
        self.workdir = workdir
        self.deadline = deadline
        self.exit_codes = exit_codes
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, command: tuple[str, ...], trace: bool) -> tuple[int, bytes, dict]:
        report_path = os.path.join(self.workdir, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        spawned = now()
        argv = [sys.executable, "-I", CHILD, SRC, report_path,
                "1" if trace else "0", repr(spawned), *command]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return proc.returncode, out, {"error": "timed out"}
        if not os.path.exists(report_path):
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            return proc.returncode, out, {"error": " ".join(tail) or "no report"}
        with open(report_path) as fh:
            report = json.load(fh)
        # seconds at the reference speed (see child.py)
        report["wall"] = report["main_s"] * report["speed"]
        return proc.returncode, out, report

    def run(self, command: tuple[str, ...], trace: bool = False) -> dict:
        """One command checked against its golden; returns the child's report."""
        rc, out, report = self.spawn(command, trace)
        if command[0] == "import":
            if rc != 0 or "error" in report:
                raise RuntimeError(f"importing fpss failed: {report.get('error')}")
            return report
        self.attempted += 1
        name = slug(command)
        with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
            golden = fh.read()
        want_rc = self.exit_codes[name]
        if "error" in report:
            self.failures.append(f"{name}: exit {rc}, {report['error']}")
            report = {"main_s": 0.0, "wall": 0.0, "import_s": 0.0,
                      "speed": 1.0, "rss_kb": 0}
        elif rc != want_rc:
            self.failures.append(f"{name}: exit {rc}, golden exit {want_rc}")
        elif out != golden:
            self.failures.append(f"{name}: stdout differs from golden "
                                 f"({len(out)} bytes, golden {len(golden)})")
        return report


def run_pass(runner: Runner, commands, trace: bool) -> dict:
    reports = {}
    started = now()
    for command in commands:
        if now() >= runner.deadline:
            raise TimeoutError("run exceeded its time limit")
        reports[slug(command)] = runner.run(command, trace)
    return {
        "wall_s": sum(r["wall"] for r in reports.values()),
        "raw_wall_s": sum(r["main_s"] for r in reports.values()),
        "import_s": [r["import_s"] for r in reports.values()],
        "speeds": [r["speed"] for r in reports.values()],
        "peak_rss_mb": max(r["rss_kb"] for r in reports.values()) / 1024.0,
        "elapsed": now() - started,
        "reports": reports,
    }


def layer_totals(reports: dict) -> tuple[dict, dict]:
    """Per span name over a pass: calls, outermost busy, self and counts;
    plus inclusive seconds per verify_turn stage."""
    totals: dict[str, dict] = {}
    stages: dict[str, float] = {}
    for report in reports.values():
        nodes = report.get("nodes", [])
        speed = report.get("speed", 1.0)
        ancestors: list[frozenset] = []
        for node in nodes:
            parent = node["parent"]
            above = frozenset() if parent < 0 else \
                ancestors[parent] | {nodes[parent]["name"]}
            ancestors.append(above)
            t = totals.setdefault(node["name"], {"calls": 0, "busy_s": 0.0,
                                                 "self_s": 0.0, "counts": {}})
            t["calls"] += node["calls"]
            t["self_s"] += node["self"] * speed
            if node["name"] not in above:  # recursion: count the outer span
                t["busy_s"] += node["busy"] * speed
            for key, value in node["counts"].items():
                t["counts"][key] = t["counts"].get(key, 0) + value
        for key, value in report.get("stages", {}).items():
            stages[key] = stages.get(key, 0.0) + value * speed
    return totals, stages


def exact_counts(report: dict) -> list:
    return [(n["name"], n["parent"], n["calls"], sorted(n["counts"].items()))
            for n in report.get("nodes", [])]


def nondeterminism(passes: list[dict]) -> list[str]:
    first = passes[0]["reports"]
    out = []
    for other in passes[1:]:
        for name, report in other["reports"].items():
            a, b = exact_counts(first[name]), exact_counts(report)
            if a != b:
                spans = sorted({x[0] for x in a if x not in b}
                               | {x[0] for x in b if x not in a})
                out.append(f"{name}: exact counts differ between traced "
                           f"passes in {', '.join(spans) or 'span order'}")
    return out


def per_layer(passes: list[dict], untraced_wall: float) -> dict:
    summaries = [layer_totals(p["reports"]) for p in passes]

    def med(fn) -> float:
        return statistics.median(fn(totals, stages) for totals, stages in summaries)

    totals0 = summaries[0][0]

    def count(name: str, key: str) -> int:
        t = totals0.get(name)
        if t is None:
            return 0
        return t["calls"] if key == "calls" else t["counts"].get(key, 0)

    def busy(name: str, stat: str = "busy_s"):
        return med(lambda totals, _: totals.get(name, {}).get(stat, 0.0))

    def ratio(name: str, key: str) -> float:
        calls = count(name, "calls")
        return count(name, key) / calls if calls else 0.0

    traced_wall = statistics.median(p["wall_s"] for p in passes)
    m: dict[str, tuple[float, str]] = {
        "cli.import_s": (statistics.median(sum(p["import_s"]) for p in passes)
                         * run_speed(passes), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    for name, stats in [
        ("graded.basis_in_bidegree", ["calls", "busy_s", "monomials"]),
        ("graded.mono_mul", ["calls", "busy_s"]),
        ("thh.bokstedt.basis_at", ["calls", "busy_s", "hit_ratio"]),
        ("thh.tate.basis_at", ["calls", "busy_s", "hit_ratio"]),
        ("thh.tate.iter_region", ["monomials", "busy_s"]),
        ("thh.tate.instance", ["busy_s"]),
        ("specseq.verify_turn", ["calls", "busy_s", "self_s", "bidegrees"]),
        ("specseq.rule_apply", ["calls", "busy_s", "terms"]),
        ("specseq.dd_check", ["busy_s"]),
        ("fp_linalg.echelon_insert", ["calls", "busy_s", "nnz_in", "pivot_ratio"]),
        ("thh.hochschild.hh_bruteforce", ["calls", "busy_s"]),
        ("thh.hochschild.boundary", ["calls", "busy_s"]),
    ] + [(name, ["busy_s"]) for name in FUNCTIONS]:
        for stat in stats:
            key = f"{name}.{stat}"
            if stat in ("busy_s", "self_s"):
                m[key] = (busy(name, stat), "s")
            elif stat == "hit_ratio":
                m[key] = (ratio(name, "hits"), "ratio")
            elif stat == "pivot_ratio":
                m[key] = (ratio(name, "pivots"), "ratio")
            else:
                m[key] = (count(name, stat), "count")
    for stage in STAGES:
        key = f"specseq.stage.{stage}"
        m[key + ".busy_s"] = (med(lambda _, stages: stages.get(key, 0.0)), "s")
    return m


def run_speed(passes: list[dict]) -> float:
    """Median speed over a run's commands.  An import is too short for its
    own probes to measure the host's speed well, so setup times are
    converted to reference seconds with this instead."""
    return statistics.median(s for p in passes for s in p["speeds"])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fpss", "cli.py")):
        print(f"no fpss sources under {SRC}", file=sys.stderr)
        return 2
    commands = list(WORKLOADS[args.workload])
    try:
        with open(os.path.join(GOLDEN, "index.json")) as fh:
            exit_codes = json.load(fh)
    except FileNotFoundError:
        exit_codes = {}
    missing = [slug(c) for c in commands if slug(c) not in exit_codes
               or not os.path.isfile(os.path.join(GOLDEN, slug(c) + ".out"))]
    if missing:
        print(f"no golden output for {', '.join(missing)}", file=sys.stderr)
        return 2
    random.Random(args.seed).shuffle(commands)

    start = now()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        runner = Runner(workdir, start + HARD_LIMIT_S, exit_codes)
        try:
            runner.run(("import",))  # compiles bytecode; not measured
            setup = [runner.run(("import",))["import_s"]
                     for _ in range(SETUP_PROBES)]
            untraced = [run_pass(runner, commands, trace=False)]
            traced: list[dict] = []
            if args.trace:
                traced = [run_pass(runner, commands, trace=True)
                          for _ in range(2)]
            else:
                while now() - start + untraced[-1]["elapsed"] <= args.seconds:
                    untraced.append(run_pass(runner, commands, trace=False))
        except (RuntimeError, TimeoutError) as err:
            print(f"benchmark aborted: {err}", file=sys.stderr)
            return 1

    problems = runner.failures + (nondeterminism(traced) if args.trace else [])
    for line in problems:
        print(f"FAIL {line}")
    if args.trace:
        metrics = per_layer(traced, statistics.median(p["wall_s"] for p in untraced))
    else:
        setup += [s for p in untraced for s in p["import_s"]]
        walls = [p["wall_s"] for p in untraced]
        rss = [p["peak_rss_mb"] for p in untraced]
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setup) * run_speed(untraced)
                               * len(commands), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
        for name, values, what in [
                ("wall_s", walls, "passes"),
                ("raw wall_s", [p["raw_wall_s"] for p in untraced], "passes"),
                ("raw setup_s per command", setup, "interpreters"),
                ("peak_rss_mb", rss, "passes")]:
            q1, q3 = quartiles(values)
            print(f"{args.workload} {name}: median {statistics.median(values):.4f} "
                  f"q1 {q1:.4f} q3 {q3:.4f} n={len(values)} {what}")
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
