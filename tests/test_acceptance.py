"""Acceptance criteria, one test per criterion.

Every comparison is exact (register-level integer arithmetic over F_p); the
only tolerances are the stated runtime ceilings.  Each test prints a single
pass/fail line for the run log.
"""
import os
import pathlib
import subprocess
import sys
import time

import fpss
from fpss.comodule import (RingId, eq_classes, is_primitive,
                           primitive_lift_coefficients, v1_smash_thh_table)
from fpss.graded import Algebra, Generator, Kind, poincare_series
from fpss.numerics import rho
from fpss.specseq import Region, bidegree_table, verify_turn
from fpss.tc import k_Lp_checks, k_presentation, r_fixed_points, rh_map_check, tc_presentation
from fpss.thh.bokstedt import bokstedt_run
from fpss.thh.circle import lemma_78_check, lemma_79_check, s1_limits
from fpss.thh.hochschild import hh_bruteforce
from fpss.thh.tate import run_instance, tower_form, tower_instance
from fpss.thh.v1 import poincare_identity_check
from test_tate import relabeling_agreement

P = 5


def child_env():
    """The environment for a child `python -m fpss.cli`: PYTHONPATH leads
    with the directory this process imports fpss from."""
    src = str(pathlib.Path(fpss.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, rest] if rest else [src])}


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, *rest):
        took = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({took:.1f}s)")
        if exc_type is None:
            assert took < self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


def test_criterion_01_hh_oracle():
    with Budget("01 hochschild-oracle", 30):
        ex = Algebra(P, (Generator("x", 0, 9, Kind.EXTERIOR),))
        want = poincare_series(Algebra(P, (
            Generator("x", 0, 9, Kind.EXTERIOR),
            Generator("sx", 0, 10, Kind.DIVIDED))), 0, 12)
        assert hh_bruteforce(ex, 12) == want
        px = Algebra(P, (Generator("x", 0, 2, Kind.POLYNOMIAL),))
        want = poincare_series(Algebra(P, (
            Generator("x", 0, 2, Kind.POLYNOMIAL),
            Generator("sx", 0, 3, Kind.EXTERIOR))), 0, 12)
        assert hh_bruteforce(px, 12) == want


def test_criterion_02_bokstedt_final_pages():
    with Budget("02 bokstedt-final-pages", 60):
        for ring in RingId:
            cmp_ = bokstedt_run(P, ring, 0, 60)
            assert cmp_.passed, (ring, [str(m) for m in cmp_.mismatches[:4]])


def test_criterion_03_primitivity_suite():
    with Budget("03 primitivity", 10):
        seen = set()
        for ring in RingId:
            table = v1_smash_thh_table(P, ring)
            for name, cls in eq_classes(P, ring).items():
                assert is_primitive(table, cls), (ring, name)
                seen.add(name)
        assert {"eps0", "eps1", "lambda1", "lambda2", "mu0", "mu1", "mu2",
                "eps1bar"} <= seen
        assert primitive_lift_coefficients(P) == [P - 1]


def test_criterion_04_poincare_identity():
    with Budget("04 poincare-identity", 30):
        for ring in (RingId.HZP_MOD, RingId.ELL, RingId.ELL_MOD_P):
            ok, problems = poincare_identity_check(P, ring, 30)
            assert ok, (ring, problems[:4])


def test_criterion_05_cp_tate_full_run():
    with Budget("05 cp-tate-run", 120):
        inst = tower_instance(P, 1, "tate")
        results = run_instance(inst, -20, 120)
        assert len(results) == 4
        for cmp_ in results:
            assert cmp_.passed, \
                (cmp_.label, [str(m) for m in cmp_.mismatches[:4]])
        # the final page in total degree 2p-2 = 8 is two dimensional and
        # contains the eps1b lambda2 class one periodicity step up
        einf = tower_form(P, 1, "tate", "Einf")
        total = 2 * P - 2
        monos = [m for _, m in
                 einf.iter_region(Region(total, total, -10 ** 4, 10 ** 4))]
        assert len(monos) == 2
        names = {einf.algebra.mono_str(m) for m in monos}
        assert "t^25*lambda2*eps1b" in names


def test_criterion_06_tower_runs():
    with Budget("06 tate-towers", 600):
        runs = {}
        for n in (1, 2):
            results = run_instance(tower_instance(P, n, "tate"), -40, 160)
            for cmp_ in results:
                assert cmp_.passed, \
                    (cmp_.label, [str(m) for m in cmp_.mismatches[:4]])
            runs[n] = results
        # the height 1 run is the criterion 05 run: same stages, same rules
        rs = [st.rule.r for st in tower_instance(P, 1, "tate").stages]
        assert rs == [2, 2 * rho(P, 1), 2 * rho(P, 2), 2 * rho(P, 2) + 1]
        assert rs == [2, 42, 50, 51]
        # pages before the final differential agree across heights
        ok, problems = relabeling_agreement(P, 1, -40, 160)
        assert ok, problems[:3]


def test_criterion_07_hofix_towers():
    with Budget("07 hofix-towers", 600):
        for n in (1, 2):
            results = run_instance(tower_instance(P, n, "hofix"), -40, 160)
            for cmp_ in results:
                assert cmp_.passed, \
                    (cmp_.label, [str(m) for m in cmp_.mismatches[:4]])


def test_criterion_08_lemma_enumerations():
    with Budget("08 lemma-enumerations", 300):
        for n in (1, 2):
            ok, details = lemma_78_check(P, n, -200, 400)
            assert ok, details[:4]
            ok, details = lemma_79_check(P, n, -200, 400)
            assert ok, details[:4]


def test_criterion_09_circle_stabilization():
    with Budget("09 circle-stabilization", 120):
        for conv in ("tate", "hofix"):
            ok, problems = s1_limits(P, -40, 160, conv)
            assert ok, (conv, problems[:4])


def test_criterion_10_endgame():
    with Budget("10 endgame", 120):
        ok, details = rh_map_check(P, 2 * P - 1, 200)
        assert ok, details[:4]
        ker, cok, notes = r_fixed_points(P, 2 * P - 1, 4 * P * P + 1)
        mod, problems = tc_presentation(P)
        assert not problems, problems[:4]
        kmod, kproblems = k_presentation(P)
        assert not kproblems, kproblems[:4]
        assert kmod.rank == 48 and kmod.euler == 0
        kmod7, kproblems7 = k_presentation(7)
        assert not kproblems7, kproblems7[:4]
        assert kmod7.rank == 92 and kmod7.euler == 0
        ok, details = k_Lp_checks(P)
        assert ok, details


def test_criterion_11_property_suite():
    with Budget("11 property-suite", 300):
        # d after d vanishes on every in-window monomial of every script
        # (checked inside every page turn); exercise one stage directly
        inst = tower_instance(P, 1, "tate")
        region = Region(-10, 30, -400, 34)
        for st in inst.stages:
            for _, m in st.before.iter_region(region):
                from fpss.specseq import rule_on_element
                val = st.rule.apply(inst.algebra, m)
                assert rule_on_element(st.rule, inst.algebra, val) == {}
        # Leibniz consistency on random-looking monomials
        alg = inst.algebra
        rule = inst.stages[0].rule
        for j, mexp, i0 in ((0, 0, 1), (3, 2, 3), (-7, 1, 0)):
            m = alg.mono(eps0=1, mu0=i0, t=j, mu2=mexp)
            val = rule.apply(alg, m)
            direct = alg.mul(alg.elem(t=j, mu2=mexp),
                             alg.mul(rule.apply(alg, alg.mono(eps0=1)),
                                     alg.elem(mu0=i0)))
            assert val == direct
        # page dimensions never grow, and every unit multiple of the rule
        # certifies the same closed form
        st = inst.stages[1]
        before = bidegree_table(st.before, region)
        for bd, monos in bidegree_table(st.after, region).items():
            assert len(monos) <= len(before.get(bd, ()))
        for unit in (1, 2, 3, 4):
            cmp_ = verify_turn(st.before, st.rule.scaled(unit), st.after,
                               region)
            assert cmp_.passed and cmp_.bidegrees_checked, unit
        # byte-identical reruns of the driver
        cmd = [sys.executable, "-m", "fpss.cli", "poincare", "k",
               "--window", "-1:120", "--format", "structured"]
        env = child_env()
        first = subprocess.run(cmd, capture_output=True, text=True, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout and first.stdout
