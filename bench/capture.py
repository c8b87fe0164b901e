"""Capture the golden stdout and exit code of every benchmark command.

    python3 bench/capture.py

Run this only at a commit whose output is trusted: `bench/run.py` then
requires every later run to reproduce these bytes.  Each command runs in a
fresh interpreter, as in the benchmark, and must exit 0.  The Hochschild
oracle series must also equal its Kunneth closed form,
P(x) (x) E(sx) (x) E(y) (x) Gamma(sy).
"""
import json
import os
import sys
import tempfile

from run import BENCH, GOLDEN, SRC, WORKLOADS, Runner, now, slug


def kunneth_series(p: int, degree: int) -> bytes:
    sys.path.insert(0, SRC)
    from fpss.graded import Algebra, Generator, Kind, poincare_series
    alg = Algebra(p, (Generator("x", 0, 2, Kind.POLYNOMIAL),
                      Generator("sx", 0, 3, Kind.EXTERIOR),
                      Generator("y", 0, 3, Kind.EXTERIOR),
                      Generator("sy", 0, 4, Kind.DIVIDED)))
    series = poincare_series(alg, 0, degree)
    return "".join(f"{d} {dim}\n" for d, dim in series.items()).encode()


def main() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    exit_codes = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        runner = Runner(workdir, now() + 3600.0, {})
        for commands in WORKLOADS.values():
            for command in commands:
                name = slug(command)
                rc, out, report = runner.spawn(command, trace=False)
                if rc != 0 or "error" in report:
                    print(f"{name}: exit {rc} {report.get('error', '')}",
                          file=sys.stderr)
                    return 1
                if command[0] == "hh" and out != kunneth_series(
                        int(command[1]), int(command[2])):
                    print(f"{name}: series differs from the Kunneth closed form",
                          file=sys.stderr)
                    return 1
                with open(os.path.join(GOLDEN, name + ".out"), "wb") as fh:
                    fh.write(out)
                exit_codes[name] = rc
                print(f"{name}: {len(out)} bytes, {report['main_s']:.2f} s")
    with open(os.path.join(GOLDEN, "index.json"), "w") as fh:
        json.dump(exit_codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
