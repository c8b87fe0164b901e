"""Run one fpss command in this fresh interpreter and report its cost.

    python3 -I bench/child.py SRC REPORT TRACE SPAWNED KIND [ARG...]

SRC is the source tree holding the `fpss` package; REPORT is the JSON file
this process writes when it ends; TRACE is 1 to record layer spans;
SPAWNED is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process.  KIND `cli` runs `fpss.cli.main(ARGS)`, `hh` runs
`hh_bruteforce` on P(x) (x) E(y), |x| = 2 and |y| = 3, at prime ARG[0] up to
total degree ARG[1] and prints the series, and `import` only imports.
The command's stdout goes to this process's stdout; its exit code is ours.

The host's speed drifts by up to 1.7x over seconds to minutes, so the process
also measures it: every PROBE_INTERVAL_S a timer signal runs a fixed
reference loop and records how long it took.  `speed` is the mean of
REFERENCE_PROBE_S / duration over the probes of a phase; a time multiplied
by it is in seconds at the reference speed.  Averaging the reciprocal weighs
every probe by the stretch of work it stands for, and a probe stretched by
preemption then counts near zero instead of dominating.  The probes' own
time is subtracted from the phase it fell in.
"""
import os
import signal
import sys
import time

PROBE_INTERVAL_S = 0.01
REFERENCE_PROBE_S = 7.5e-5  # about one probe's duration on this host
BIG = 7 ** 23
probes: list[tuple[float, float]] = []  # (start, duration), perf_counter


def _pair(x: int, y: int) -> tuple[int, int]:
    return x + y, x * 3


def probe(signum, frame) -> None:
    # a mix like fpss's own code: calls, tuples, big integers, dict stores
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(100):
        a, b = _pair(i, acc)
        j = BIG * (i + 1)
        acc = (acc + (j * 49 - a) % 1000003 + b) & 0xffff
        table[(a & 15, b & 7)] = j
    probes.append((t0, time.perf_counter() - t0))


def phase(lo: float, hi: float) -> tuple[float, float]:
    """(seconds the probes took, speed) over probes started in [lo, hi)."""
    inside = [d for t, d in probes if lo <= t < hi] or [d for _, d in probes]
    speed = sum(REFERENCE_PROBE_S / d for d in inside) / len(inside)
    return sum(d for t, d in probes if lo <= t < hi), speed


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_hh(p: int, degree: int) -> int:
    from fpss.graded import Algebra, Generator, Kind
    from fpss.thh import hochschild
    alg = Algebra(p, (Generator("x", 0, 2, Kind.POLYNOMIAL),
                      Generator("y", 0, 3, Kind.EXTERIOR)))
    series = hochschild.hh_bruteforce(alg, degree)
    for d, dim in series.items():
        print(d, dim)
    return 0


def main() -> int:
    start = time.perf_counter()
    probe(None, None)  # at least one sample, however short the process
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    src, report_path, trace, spawned, kind = sys.argv[1:6]
    args = sys.argv[6:]
    sys.path.insert(0, src)
    import fpss.cli
    imported, t_imported = now(), time.perf_counter()
    if not os.path.abspath(fpss.cli.__file__).startswith(
            os.path.join(os.path.abspath(src), "")):
        print(f"fpss imported from {fpss.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if trace == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    rc = 0
    t0 = time.perf_counter()
    if kind == "cli":
        rc = fpss.cli.main(args)
    elif kind == "hh":
        rc = run_hh(int(args[0]), int(args[1]))
    elif kind != "import":
        raise SystemExit(f"unknown command kind {kind!r}")
    sys.stdout.flush()
    t1 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0, 0)

    import json
    import resource
    import_probes = phase(start, t_imported)[0]
    main_probes, speed = phase(t0, t1)
    report = {"import_s": imported - float(spawned) - import_probes,
              "main_s": t1 - t0 - main_probes, "speed": speed,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["nodes"] = tracer.nodes()
        report["stages"] = tracer.stages
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
