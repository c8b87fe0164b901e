import ast
import hashlib
import json
import pathlib
import re
import subprocess
import sys

import pytest

import fpss.cli
import fpss.tc as tc
from fpss.comodule import RingId
from fpss.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-8.10", "--prime", "5")
    assert code == 0
    assert "rank=48, euler=0" in out
    assert "PASS" in out


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "thm-7.1", "--prime", "4")
    assert code == 2 and "prime" in err
    code, _, err = run_cli(capsys, "verify", "no-such-target")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "thm-8.8", "--window", "broken")
    assert code == 2
    for target in ("thm-7.1", "cor-7.2", "thm-7.4", "cor-7.5"):
        code, out, err = run_cli(capsys, "verify", target, "--n", "0")
        assert code == 2 and "--n" in err and not out
    # the lemma targets too: these once failed, passed vacuously or crashed
    for target, n in (("lemma-7.9", "0"), ("lemma-7.9", "-1"),
                      ("lemma-7.8", "0"), ("lemma-7.8", "-3")):
        code, out, err = run_cli(capsys, "verify", target, "--n", n)
        assert code == 2 and "--n" in err and not out
    # prop-8.2 and prop-8.6 start in degree 2p-1, so 0:5 is empty at p=5
    for target, window in (("prop-8.6", "0:5"), ("prop-8.2", "0:3")):
        code, out, err = run_cli(capsys, "verify", target, "--window", window)
        assert code == 2 and "empty window" in err and not out
    # the Bokstedt targets start in degree 0: a window below it compared no
    # slot, and once gave a vacuous PASS
    for target, window in (("bokstedt", "-10:-5"), ("bokstedt:zp", "-10:-1"),
                           ("bokstedt:ellmodp", "-3:-3")):
        code, out, err = run_cli(capsys, "verify", target, "--window", window)
        assert code == 2 and not out
        assert err == f"empty window {window}: {target} starts in degree 0\n"
    # a window that reaches degree 0 is raised to it and runs
    code, out, err = run_cli(capsys, "verify", "bokstedt:zp", "--window", "-10:0")
    assert code == 0 and not err and out.startswith("PASS bokstedt:zp\n")


EXPECTED_TARGETS = [
    "prop-6.8", "thm-7.1", "cor-7.2", "thm-7.4", "cor-7.5", "thm-7.12",
    "lemma-7.8", "lemma-7.9", "prop-8.2", "prop-8.6", "thm-8.8", "thm-8.10",
    "cor-k-lp", "primitivity", "poincare-identity", "oracle-hh", "bokstedt",
    "bokstedt:zp", "bokstedt:zlocal", "bokstedt:ell", "bokstedt:ellmodp",
]
PRIME_3_TARGETS = {"oracle-hh", "bokstedt", "bokstedt:zp", "bokstedt:zlocal",
                   "bokstedt:ell", "bokstedt:ellmodp"}
N_TARGETS = {"thm-7.1", "cor-7.2", "thm-7.4", "cor-7.5", "lemma-7.8",
             "lemma-7.9"}


def test_verify_targets_keep_their_list():
    # the golden test runs every target over VERIFY_TARGETS, so a row
    # dropped from the table would otherwise go unseen
    assert fpss.cli.VERIFY_TARGETS == EXPECTED_TARGETS


@pytest.mark.parametrize("target", fpss.cli.VERIFY_TARGETS)
def test_verify_target_rules(target, capsys):
    # --prime 3 is refused exactly where the smallest prime is 5, and
    # --n 0 exactly where the target reads --n
    code, out, err = run_cli(capsys, "verify", target, "--prime", "3")
    if target in PRIME_3_TARGETS:
        assert code == 0 and not err and out.startswith("PASS "), out
    else:
        assert (code, out, err) == (2, "", "prime >= 5 required, got 3\n")
    code, out, err = run_cli(capsys, "verify", target, "--n", "0")
    if target in N_TARGETS:
        assert (code, out, err) == (
            2, "", f"--n >= 1 required for {target}, got 0\n")
    else:
        assert code == 0 and not err and out.startswith("PASS "), out


def test_readme_names_every_target_and_presentation():
    # README's "Command line" section lists every verify target and
    # presentation; `<ring>` stands for each ring id
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = {word.replace("<ring>", ring.value)
             for word in re.findall(r"`([^`\s]+)`", section)
             for ring in RingId}
    listed = fpss.cli.VERIFY_TARGETS + list(fpss.cli.PRESENTATION_IDS)
    assert [name for name in listed if name not in named] == []


def test_verify_relaxed_prime_for_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle-hh", "--prime", "3")
    assert code == 0


def test_verify_mismatch_exit_one(capsys, monkeypatch):
    import fpss.cli as cli
    from fpss.report import Check, Report

    def fake(target, p, n, lo, hi):
        r = Report()
        r.add(Check("forced", False, ["synthetic failure"]))
        return r

    monkeypatch.setattr(cli, "run_verify_target", fake)
    code, out, _ = run_cli(capsys, "verify", "thm-8.8")
    assert code == 1
    assert "FAIL" in out


def test_internal_error_exit_three(capsys, monkeypatch):
    import fpss.cli as cli

    def crash(target, p, n, lo, hi):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli, "run_verify_target", crash)
    code, out, err = run_cli(capsys, "verify", "thm-8.8")
    assert code == 3 and not out
    assert err == "internal error: RuntimeError: synthetic crash\n"


def test_verification_error_exit_one(capsys, monkeypatch):
    import fpss.cli as cli
    from fpss.specseq import VerificationError

    def structural(target, p, n, lo, hi):
        raise VerificationError("d after d nonzero on x for d2")

    monkeypatch.setattr(cli, "run_verify_target", structural)
    code, out, err = run_cli(capsys, "verify", "thm-8.8")
    assert code == 1 and not out
    assert err == "verification error: d after d nonzero on x for d2\n"


def test_tower_step_not_onto_exit_one(capsys, monkeypatch):
    # a tower step that is not onto is a mismatch, not a crash: with its
    # tmu2 bound lowered to 1, B_3 holds no preimage of B_2's top classes
    real = tc._summand

    def lowered(p, kind, k):
        sm = real(p, kind, k)
        return sm._replace(c_hi=1) if (kind, k) == ("B", 3) else sm

    monkeypatch.setattr(tc, "_summand", lowered)
    code, out, err = run_cli(capsys, "verify", "prop-8.6")
    assert code == 1 and not out
    assert err == ("verification error: tower step B_3 -> B_2 not onto: "
                   "t^27*mu2^2\n")


def test_prop_86_narrow_window_reaches_the_limit(capsys):
    # at 1258 the one B row of that degree class tops out below the window
    # at heights 2 and 3; the limit is reached at height 4
    code, out, err = run_cli(capsys, "verify", "prop-8.6", "--window",
                             "1258:1258")
    assert code == 0 and not err
    assert out == ("PASS prop-8.6\n"
                   "  B blocks stabilize at height 4\n"
                   "  B tower steps onto up to height 5\n"
                   "  C blocks stabilize at height 2\n"
                   "  C tower steps onto up to height 3\n"
                   "PASS overall (1/1)\n")


def _moved(name, shift):
    # move one class of tc.generator_table: an A class or a row 2-3 limit
    def mutate(table):
        a_classes, rows = table
        return (tuple((n, d + shift if n == name else d)
                      for n, d in a_classes),
                tuple(g._replace(degree=g.degree + shift) if g.label == name
                      else g for g in rows))
    return mutate


def _fails(capsys, target, what):
    code, out, err = run_cli(capsys, "verify", target)
    assert code == 1 and not err, (target, out, err)
    assert out.startswith(f"FAIL {target}\n  degree "), out
    assert what in out and "stabilize" not in out, out


@pytest.mark.parametrize("mutate,a_class", [
    (_moved("lambda2", 2), True),                       # to degree 2p^2+1
    (lambda table: (tuple(c for c in table[0] if c[0] != "eps1b"),
                    table[1]), True),                   # an A generator
    (_moved("t^1*v2", 2), False),                       # a B limit degree
    (_moved("t^5*lambda2", 2), False),                  # a C limit degree
], ids=["lambda2-degree", "drop-eps1b", "shift-B", "shift-C"])
def test_prop_86_fails_on_mutated_closed_form(mutate, a_class, capsys,
                                              monkeypatch):
    # each entry of the generator table is compared with the page: by
    # prop-8.6 (ker and coker), by thm-8.8 (tc against the fiber sequence)
    # and, for the A classes, by prop-8.2
    real = tc.generator_table
    monkeypatch.setattr(tc, "generator_table",
                        lambda p, top="lambda2": mutate(real(p, top)))
    _fails(capsys, "prop-8.6", "in closed form")
    _fails(capsys, "thm-8.8", "fiber sequence")
    if a_class:
        _fails(capsys, "prop-8.2", "in closed form")
    else:
        assert run_cli(capsys, "verify", "prop-8.2")[0] == 0


def test_k_inputs_fail_their_own_checks(capsys, monkeypatch):
    # K's row 1 and the dlogv1 class are stated apart from the table: a
    # moved partial*v2 fails thm-8.10, and a moved dlogv1 fails cor-k-lp
    real = tc._k_row1
    monkeypatch.setattr(tc, "_k_row1", lambda p, eps1b, top: tuple(
        g._replace(degree=g.degree + 2) if g.label == "partial*v2" else g
        for g in real(p, eps1b, top)))
    _fails(capsys, "thm-8.10", "desuspension")
    monkeypatch.setattr(tc, "_k_row1", lambda p, eps1b, top: real(
        p, eps1b, ("dlogv1", 3) if top[0] == "dlogv1" else top))
    code, out, err = run_cli(capsys, "verify", "cor-k-lp")
    assert code == 1 and not err
    assert out.startswith("FAIL cor-k-lp [conditional]\n  localized class "
                          "counts differ: "), out
    assert run_cli(capsys, "verify", "thm-8.10")[0] == 0


def test_presentations_skip_checks_they_do_not_report(capsys, monkeypatch):
    # cor-k-lp reads K's module only: thm-8.10's comparison with tc is not
    # rerun; `poincare` prints a module and runs none of its checks
    def refuse(*args):
        raise AssertionError("check called")

    for module in (tc, fpss.cli):
        monkeypatch.setattr(module, "tc_presentation_module", refuse)
    monkeypatch.setattr(tc, "r_fixed_points", refuse)
    for p in ("5", "7"):
        code, out, err = run_cli(capsys, "verify", "cor-k-lp", "--prime", p)
        assert code == 0 and not err and out.startswith(
            "PASS cor-k-lp [conditional]"), out
        assert run_cli(capsys, "poincare", "k", "--prime", p)[0] == 0
    monkeypatch.undo()
    monkeypatch.setattr(tc, "r_fixed_points", refuse)
    assert run_cli(capsys, "poincare", "tc")[0] == 0


def test_prop_82_fails_without_the_a_block(capsys, monkeypatch):
    # with the A summand gone from the circle page no A class is left to be
    # fixed; the closed form E(eps1b, lambda2) (x) P(tmu2) still asks for it
    real = tc.s1_einf

    def no_a_block(p, kmax, conv):
        form = real(p, kmax, conv)
        return form._replace(summands=tuple(
            sm for sm in form.summands if sm.pred != ("zero",)))

    monkeypatch.setattr(tc, "s1_einf", no_a_block)
    code, out, err = run_cli(capsys, "verify", "prop-8.2")
    assert code == 1 and not err
    assert out.startswith("FAIL prop-8.2\n  degree ")
    assert "A block 0 on the page, 1 in closed form" in out


def test_no_check_reports_a_literal_verdict():
    # a PASS must be computed: no Check(...) of the driver is handed the
    # literal True as its verdict
    tree = ast.parse(pathlib.Path(fpss.cli.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "Check"]
    assert len(calls) > 10
    literal = []
    for call in calls:
        verdict = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "passed"), None)
        if isinstance(verdict, ast.Constant) and verdict.value is True:
            literal.append(f"line {call.lineno}")
    assert not literal, literal


def test_structured_output_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-8.10", "--format",
                           "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["id"] == "thm-8.10"
    assert all(r["status"] == "PASS" for r in doc["results"])


def test_poincare_examples(capsys):
    code, out, _ = run_cli(capsys, "poincare", "tc", "--window", "-1:-1")
    assert code == 0
    assert out.splitlines()[1] == "-1 1"
    code, out, _ = run_cli(capsys, "poincare", "thh:v1:ellmodp",
                           "--window", "0:9")
    assert out.splitlines()[-1] == "9 1"
    # a window below degree 0 holds no row of the v1 series
    code, out, _ = run_cli(capsys, "poincare", "thh:v1:zp", "--window", "-5:-1")
    assert code == 0
    assert out.splitlines() == ["# thh:v1:zp prime=5 window=-5:-1"]
    code, out, _ = run_cli(capsys, "poincare", "k", "--window", "9:9")
    assert int(out.splitlines()[1].split()[1]) >= 1
    code, _, _ = run_cli(capsys, "poincare", "nope")
    assert code == 2


def test_tables_output(capsys):
    code, out, _ = run_cli(capsys, "tables", "tate:cp:1", "--page", "3",
                           "--window", "0:6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# tate:cp:1")
    assert all(line.startswith("s=") for line in lines[1:])
    code, out, _ = run_cli(capsys, "tables", "bokstedt:zp", "--page", "inf",
                           "--window", "0:6")
    assert code == 0
    # the Bokstedt spectral sequence starts at E2: pages 2..p-1 are E2,
    # pages >= p are the final page, and a page below 2 is a usage error
    e2, final = (run_cli(capsys, "tables", "bokstedt:zp", "--page", page,
                         "--window", "0:12")[1].splitlines()[1:]
                 for page in ("2", "inf"))
    assert e2 != final
    for page, want in (("4", e2), ("5", final), ("9", final)):
        code, got, _ = run_cli(capsys, "tables", "bokstedt:zp", "--page", page,
                               "--window", "0:12")
        assert code == 0 and got.splitlines()[1:] == want, page
    for page in ("1", "0", "-3"):
        code, got, err = run_cli(capsys, "tables", "bokstedt:zp", "--page",
                                 page, "--window", "0:12")
        assert code == 2 and not got, page
        assert f"no page {page} for bokstedt:zp" in err
    code, _, _ = run_cli(capsys, "tables", "unknown:thing")
    assert code == 2
    # malformed tower ids are usage errors, never pages or crashes
    for bad in ("tate", "hofix", "tate:s1:junk", "hofix:cp:0"):
        code, out, err = run_cli(capsys, "tables", bad)
        assert code == 2 and not out and "unknown instance" in err, bad


@pytest.mark.parametrize("argv,length,digest", [
    (("tate:cp:2", "--page", "5", "--prime", "5"), 1352435,
     "bcd3555613248edef6b297ce0784e05c21a1b96194c548b422c79b4e11278dc5"),
    (("hofix:cp:3", "--page", "inf", "--prime", "5"), 41378,
     "73682f3874bdb132199e54e68810de64ce8796b7a07e0bfb3ae1b72bcfe1384c"),
    (("tate:s1", "--prime", "5"), 7854,
     "44fe53b60bb2c4d629e67b27636801e7e7b16a2f983daf7484400a55fee5d8af"),
    (("hofix:s1", "--prime", "5"), 7049,
     "12ed8323c967b31352251d183677e7cd0aa8fb420e9622ce56197caa53990b27"),
    (("tate:cp:2", "--page", "5", "--prime", "7"), 4331872,
     "0b2071e84bc1686af3a54d818aeabb75f266329c6f35d146192a210b57c852c3"),
    (("hofix:cp:3", "--page", "inf", "--prime", "7"), 85971,
     "9ff76bb423f412d0c279222cb4c12ae4cffb1e45a9c13db6bd093ca966fbb9a9"),
    (("tate:s1", "--prime", "7"), 12273,
     "662b2c6c662bb522297386f76c911a1381749fb10250398e43ae5612f38a176d"),
    (("hofix:s1", "--prime", "7"), 10672,
     "07074f77343f8208b6f97df2026b010f31c57320effa6ab9feab67454675c7f6"),
    (("tate:cp:1", "--page", "3", "--window", "0:6"), 14189,
     "d7638e2404a45e7ab5c6dcf283f2c1079abdc5e41064575fb71d219b5daaf090"),
    (("tate:cp:2", "--page", "inf", "--window", "-120:-40"), 7173,
     "04665d0181b151c4f93e4779c78851ce91106c9cb74f74e14769ac33291816e0"),
    (("hofix:cp:2", "--page", "inf", "--window", "-120:-40"), 6737,
     "0aec72e9788abe1802171656fff6febcc76cacdbccee74f35a5a40d885dc01dd"),
], ids=["tate-cp2-5-p5", "hofix-cp3-inf-p5", "tate-s1-p5", "hofix-s1-p5",
        "tate-cp2-5-p7", "hofix-cp3-inf-p7", "tate-s1-p7", "hofix-s1-p7",
        "tate-cp1-3-narrow", "tate-cp2-inf-neg", "hofix-cp2-inf-neg"])
def test_tables_bytes_are_pinned(argv, length, digest, capsys):
    # the goldens pin three tables dumps; these pin more pages, both
    # conventions at p = 5 and 7, a narrow window and negative total
    # degrees, so that the page walk's order within a bidegree and its
    # region bounds cannot drift
    code, out, err = run_cli(capsys, "tables", *argv)
    assert code == 0 and not err
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,length,digest", [
    (("tc", "--prime", "5"), 965,
     "eddd8915cc77ab8d2d9b48c07cd2b5f839daa1d89ec230b92ee20f28000900d3"),
    (("tc", "--prime", "7"), 1973,
     "16e95c2c425888776866886778429d86ccb0df4b1fb292bce1d1950f35ce420b"),
    (("k-lp-conditional", "--prime", "5", "--format", "structured"), 5327,
     "642d558205323b313d6f020b158288cc05ed10b84f4eac994d6ed9503245d6a7"),
    (("k-lp-conditional", "--prime", "7", "--format", "structured"), 10095,
     "b91db377413b9db63e8ab276eb1017114800230df1cc9213105c10a0f48d2105"),
], ids=["tc-5", "tc-7", "k-lp-5", "k-lp-7"])
def test_presentation_bytes_are_pinned(argv, length, digest, capsys):
    # the bench goldens pin only `poincare k --format structured`; these
    # pin the default stdout of the other two presentations: labels, order,
    # rows and series
    code, out, err = run_cli(capsys, "poincare", *argv)
    assert code == 0 and not err
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,length,digest", [
    (("primitivity", "--prime", "7"), 297,
     "7902f07bbec880e115ef1ae5af626e44de695e04a3dedf86d509f92738c55f67"),
    (("primitivity", "--prime", "7", "--format", "structured"), 957,
     "bd856eb49185186441d6b33d13a3c1e8619907117e8f6e2cde11f8c3107c56fd"),
    (("primitivity", "--prime", "11"), 299,
     "2bf3225fd2a3049bb3e23dd2d8b3ce37528dec695573635c963082f804bfcfda"),
    (("primitivity", "--prime", "11", "--format", "structured"), 961,
     "27e81912358d5181796a23eded16b1ae258dbb1e3b822ae2540d8d5367c4d131"),
    (("poincare-identity", "--prime", "7"), 133,
     "1bdd3b934e752f2899da754538c0846338ac7bd17e3ab8c04865737a422bf0aa"),
    (("poincare-identity", "--prime", "7", "--format", "structured"), 495,
     "a9457a90904d223a2cd6c60baa3f4f4d846816aa285fa679da66e5838adc8e23"),
    (("poincare-identity", "--prime", "11"), 133,
     "1bdd3b934e752f2899da754538c0846338ac7bd17e3ab8c04865737a422bf0aa"),
    (("poincare-identity", "--prime", "11", "--format", "structured"), 497,
     "ebcbdafc46c5e07af00eb77c595edd2b4bae1366012f98bb650b560736868ad2"),
], ids=["prim-7", "prim-7-s", "prim-11", "prim-11-s",
        "pid-7", "pid-7-s", "pid-11", "pid-11-s"])
def test_comodule_bytes_are_pinned(argv, length, digest, capsys):
    # the goldens pin `verify primitivity` and `poincare-identity` at p = 5
    # only; these pin both at p = 7 and 11, in text and structured form
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 0 and not err
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,length,digest", [
    (("tables", "tate:cp:1", "--page", "3", "--window", "0:6"), 15297,
     "ec5711a204ab558bf1c24370a663b5e04c2176ebacd2dd09b979c527cbd20bbc"),
    (("tables", "bokstedt:zp", "--page", "2", "--window", "0:12"), 1068,
     "d07a91323a1e26be7c106bbcf984e05c479b454fc333d3942212cc904f38d314"),
    (("tables", "tate:s1"), 8576,
     "c24efd26bdcb049d188ef1a848ac971a076c5750537221ee4ee69c066e054aec"),
    (("verify", "thm-7.1", "--n", "2"), 775,
     "fafe2eab482699412ca14f914d066322e06d04a7412cf628609b782adffc212b"),
    (("verify", "bokstedt"), 450,
     "403dd89ab45611803b22c73ff2a0615a6208561c4b78d3dce06fac36d1f59429"),
    (("verify", "prop-8.2"), 263,
     "472b75423a6ec1936c43a2957dcd4090d8794bc557f08d56f7d54f84cafdceff"),
], ids=["tables-tate-cp1-3", "tables-bokstedt-zp-2", "tables-tate-s1",
        "verify-thm-7.1-n2", "verify-bokstedt", "verify-prop-8.2"])
def test_structured_bytes_are_pinned(argv, length, digest, capsys):
    # structured documents of `tables` and `verify`: keys, order, and the
    # window as given, also where a target starts above it (`bokstedt` and
    # `prop-8.2` at the default window)
    code, out, err = run_cli(capsys, *argv, "--format", "structured")
    assert code == 0 and not err
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest


BROKEN = "invalid literal for int() with base 10: 'broken'"


USAGE_ERRORS = [
    (("verify", "no-such-target"),
     "unknown verification target 'no-such-target'"),
    (("verify", "bokstedt:nope"), "unknown verification target 'bokstedt:nope'"),
    (("verify", "no-such-target", "--prime", "4"),
     "unknown verification target 'no-such-target'"),
    (("verify", "thm-7.1", "--prime", "4"), "prime >= 5 required, got 4"),
    (("verify", "thm-7.1", "--prime", "3"), "prime >= 5 required, got 3"),
    (("verify", "bokstedt", "--prime", "2"), "prime >= 3 required, got 2"),
    (("verify", "bokstedt:ell", "--prime", "9"), "prime >= 3 required, got 9"),
    (("verify", "oracle-hh", "--prime", "1"), "prime >= 3 required, got 1"),
    (("verify", "thm-8.8", "--window", "broken"), BROKEN),
    (("verify", "thm-8.8", "--window", "5:1"), "empty window 5:1"),
    (("verify", "thm-8.8", "--window", "5"),
     "invalid literal for int() with base 10: ''"),
    (("verify", "thm-7.1", "--prime", "4", "--window", "broken"),
     "prime >= 5 required, got 4"),
    (("verify", "thm-7.1", "--n", "0"), "--n >= 1 required for thm-7.1, got 0"),
    (("verify", "lemma-7.8", "--n", "-3"),
     "--n >= 1 required for lemma-7.8, got -3"),
    (("verify", "thm-7.1", "--n", "0", "--window", "5:1"), "empty window 5:1"),
    (("verify", "prop-8.6", "--window", "0:5"),
     "empty window 0:5: prop-8.6 starts in degree 9"),
    (("verify", "prop-8.2", "--window", "0:3"),
     "empty window 0:3: prop-8.2 starts in degree 9"),
    (("verify", "prop-8.2", "--window", "0:12", "--prime", "7"),
     "empty window 0:12: prop-8.2 starts in degree 13"),
    (("verify", "prop-8.2", "--window", "0:3", "--n", "0"),
     "empty window 0:3: prop-8.2 starts in degree 9"),
    (("tables", "unknown:thing"), "unknown instance or page: 'unknown:thing'"),
    (("tables", "unknown:thing", "--prime", "4"), "prime >= 5 required, got 4"),
    (("tables", "tate"), "unknown instance or page: 'tate'"),
    (("tables", "tate:s1:junk"), "unknown instance or page: 'tate:s1:junk'"),
    (("tables", "hofix:cp:0"), "unknown instance or page: tower height 0 < 1"),
    (("tables", "tate:cp:x"),
     "unknown instance or page: invalid literal for int() with base 10: 'x'"),
    (("tables", "hofix:s1", "--page", "3"), "unknown instance or page: "
     "'only the final page exists for circle instances'"),
    (("tables", "tate:cp:1", "--page", "x"),
     "unknown instance or page: invalid literal for int() with base 10: 'x'"),
    (("tables", "bokstedt:nope", "--page", "x"),
     "unknown instance or page: invalid literal for int() with base 10: 'x'"),
    (("tables", "bokstedt:zp", "--page", "1"),
     "unknown instance or page: no page 1 for bokstedt:zp"),
    (("tables", "bokstedt:zp", "--page", "-3"),
     "unknown instance or page: no page -3 for bokstedt:zp"),
    (("tables", "bokstedt:nope"),
     "unknown instance or page: unknown ring id 'nope'"),
    (("tables", "bokstedt", "--prime", "3"),
     "unknown instance or page: 'bokstedt'"),
    (("tables", "tate:cp:1", "--prime", "3"), "prime >= 5 required, got 3"),
    (("tables", "bokstedt:zp", "--prime", "4"), "prime >= 3 required, got 4"),
    (("tables", "tate:cp:1", "--window", "5:1"),
     "unknown instance or page: empty window 5:1"),
    (("tables", "tate:cp:1", "--window", "broken"),
     f"unknown instance or page: {BROKEN}"),
    (("tables", "bokstedt:zp", "--page", "1", "--window", "5:1"),
     "unknown instance or page: empty window 5:1"),
    (("poincare", "nope"), "unknown presentation 'nope'"),
    (("poincare", "nope", "--prime", "3"), "unknown presentation 'nope'"),
    (("poincare", "tc", "--prime", "3"), "prime >= 5 required, got 3"),
    (("poincare", "thh:v1:zp", "--prime", "9"), "prime >= 5 required, got 9"),
    (("poincare", "tc", "--window", "broken"), BROKEN),
    (("poincare", "k", "--window", "5:1"), "empty window 5:1"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_messages_are_pinned(argv, message, capsys):
    # every usage error of the three commands, in each command's order of
    # checks: exit 2, one line on stderr, nothing on stdout
    assert run_cli(capsys, *argv) == (2, "", message + "\n")


def test_byte_identical_reruns(capsys):
    args = ("poincare", "k", "--window", "-1:60", "--format", "structured")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_subprocess_determinism():
    cmd = [sys.executable, "-m", "fpss.cli", "tables", "tate:cp:1",
           "--page", "3", "--window", "0:10"]
    runs = [subprocess.run(cmd, capture_output=True, text=True)
            for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_verify_cp_tate_four_pages(capsys):
    code, out, _ = run_cli(capsys, "verify", "prop-6.8", "--prime", "5",
                           "--window", "-20:120")
    assert code == 0
    page_lines = [ln for ln in out.splitlines() if ln.startswith("PASS prop-6.8")]
    assert len(page_lines) == 4


def test_tables_circle_instances(capsys):
    code, out, _ = run_cli(capsys, "tables", "tate:s1", "--page", "inf",
                           "--window", "0:4")
    assert code == 0 and out.splitlines()[0].startswith("# tate:s1")
    code, _, _ = run_cli(capsys, "tables", "hofix:s1", "--page", "3")
    assert code == 2  # only the final page exists for circle instances


def test_verify_lemma_targets(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma-7.9", "--prime", "5",
                           "--n", "1", "--window", "-60:120")
    assert code == 0
