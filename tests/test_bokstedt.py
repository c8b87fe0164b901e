import time

import pytest

from fpss.cli import main
from fpss.comodule import RingId
from fpss.graded import Algebra, Generator, Kind, PoincareSeries
from fpss.specseq import DerivationRule, Region, bidegree_table, verify_turn
from fpss.thh import bokstedt
from fpss.thh.bokstedt import (BokstedtPage, _kunneth_certifies,
                               bokstedt_e2_page, bokstedt_einf_page,
                               bokstedt_rule, bokstedt_run)
from fpss.thh.hochschild import hh_bruteforce
from test_acceptance import Budget

P = 5


def ps_from_monomials(alg, monomials, lo, hi):
    """The Poincare series of a list of monomials, degrees lo..hi."""
    counts = {}
    for m in monomials:
        d = alg.total(m)
        if lo <= d <= hi:
            counts[d] = counts.get(d, 0) + 1
    return PoincareSeries.from_counts(lo, hi, counts)


def test_e2_row_zero_is_ring_homology():
    page = bokstedt_e2_page(P, RingId.HZP_MOD, 30)
    # column 0 in low internal degrees: exactly the dual Steenrod monomials
    assert [len(page.basis_at(0, t)) for t in range(11)] == \
        [1, 1, 0, 0, 0, 0, 0, 0, 1, 2, 1]


def test_e2_suspension_class_position():
    page = bokstedt_e2_page(P, RingId.ELL, 30)
    basis = page.basis_at(1, 2 * P - 2)
    assert [page.algebra.mono_str(m) for m in basis] == ["sbxi1"]


def test_empty_window_is_empty():
    page = bokstedt_e2_page(P, RingId.ELL, 40)
    assert list(page.iter_region(Region(35, 34, 0, 40))) == []


@pytest.mark.parametrize("ring", list(RingId))
def test_runs_match_final_forms(ring):
    cmp_ = bokstedt_run(P, ring, 0, 26)
    assert cmp_.passed, [str(m) for m in cmp_.mismatches[:5]]


def page_and_oracle(p, ring, hi, cutoff):
    # truncate the ring homology to generators of degree <= cutoff: the
    # enumerated starting page on them and the brute-force complex, to hi
    page = bokstedt_e2_page(p, ring, hi)
    alg = page.algebra
    small = [g for g in alg.gens
             if not g.name.startswith("s") and g.total <= cutoff]
    oracle = hh_bruteforce(Algebra(p, tuple(small)), hi)
    # the page restricted to the same generators
    keep = {g.name for g in small}
    monos = [m for _, m in page.iter_region(Region(0, hi, 0, hi + 1))
             if all(e == 0 or alg.gens[i].name in keep
                    or alg.gens[i].name[1:] in keep
                    for i, e in enumerate(m))]
    return ps_from_monomials(alg, monos, 0, hi), oracle


def test_e2_agrees_with_hochschild_oracle():
    # ring generators of degree <= 9, to degree 12
    for ring in (RingId.HZP_MOD, RingId.ELL_MOD_P):
        got, oracle = page_and_oracle(P, ring, 12, 9)
        assert got == oracle, ring


# wall-time budgets: three runs took 14.3-15.1 s and 4.5-5.6 s (Python
# 3.11, two-CPU x86-64 Linux host whose speed drifts by up to 1.7x)
@pytest.mark.parametrize("p, hi, seconds", [(5, 50, 30), (3, 30, 12)])
def test_e2_agrees_with_hochschild_oracle_in_depth(p, hi, seconds):
    # every ring generator up to hi, for every ring; at p = 5, hi = 2p^2
    # brings in bxi2 (48) and btau2 (49)
    with Budget(f"e2 against the Hochschild oracle, p = {p} to {hi}",
                seconds):
        for ring in RingId:
            got, oracle = page_and_oracle(p, ring, hi, hi)
            assert got == oracle, ring


def test_einf_kills_suspended_even_classes():
    page = bokstedt_einf_page(P, RingId.HZP_MOD, 30)
    alg = page.algebra
    i = alg.index("sbxi1")
    for _, m in page.iter_region(Region(0, 25, 0, 26)):
        assert m[i] == 0
        for g, e in zip(alg.gens, m):
            if g.name.startswith("sbtau"):
                assert e < P


def turn_args(p, ring, hi):
    """The pages, rule and region bokstedt_run builds for the window 0:hi."""
    top = hi + 1
    return (bokstedt_e2_page(p, ring, top), bokstedt_rule(p, ring, top),
            bokstedt_einf_page(p, ring, top), Region(0, hi, 0, top))


# (prime, ring) -> bidegrees verify_turn checks on the window 0:60
CHECKED_0_60 = {
    (5, RingId.HZP_MOD): 463,
    (5, RingId.HZ_LOCAL): 79,
    (5, RingId.ELL): 21,
    (5, RingId.ELL_MOD_P): 372,
    (3, RingId.ELL): 103,
}


@pytest.mark.parametrize("p, ring", list(CHECKED_0_60))
def test_bidegree_table_matches_per_bidegree_enumeration(p, ring):
    # the one-pass table verify_turn reads, against the per-bidegree
    # enumeration of the algebra, over the widened region it reads
    hi = 60
    region = Region(0, hi, 0, hi + 1).widen(p - 1)
    pages = (bokstedt_e2_page(p, ring, hi + 1),
             bokstedt_einf_page(p, ring, hi + 1))
    alg = pages[0].algebra
    # no generator has negative s or t, so 0 <= s <= total holds throughout
    assert all(g.s >= 0 and g.t >= 0 for g in alg.gens)
    tables = [bidegree_table(page, region) for page in pages]
    seen = set()
    for total in range(max(region.lo, 0), region.hi + 1):
        for s in range(max(region.s_lo, 0), min(total, region.s_hi) + 1):
            bd = (s, total - s)
            monos = alg.basis_in_bidegree(*bd)
            for page, table in zip(pages, tables):
                want = tuple(m for m in monos if page._keep(m))
                assert table.get(bd, ()) == want, (page.label, bd)
            seen.add(bd)
    assert all(set(table) <= seen for table in tables)


# (prime, ring) -> generator slots the certificate compares on 0:60
SLOTS_0_60 = {
    (5, RingId.HZP_MOD): 10,
    (5, RingId.HZ_LOCAL): 8,
    (5, RingId.ELL): 6,
    (5, RingId.ELL_MOD_P): 8,
    (3, RingId.ELL): 10,
}


@pytest.mark.parametrize("p, ring", list(CHECKED_0_60))
def test_bidegrees_checked_on_window(p, ring):
    # the Echelon path on the real two-term zp turn, and its count
    assert verify_turn(*turn_args(p, ring, 60)).bidegrees_checked == \
        CHECKED_0_60[(p, ring)]
    assert bokstedt_run(p, ring, 0, 60).bidegrees_checked == \
        SLOTS_0_60[(p, ring)]


def test_default_window_coverage_and_time():
    # the default CLI window 0:125 at p=5, turned by verify_turn
    want = {RingId.HZP_MOD: 2295, RingId.HZ_LOCAL: 382, RingId.ELL: 83,
            RingId.ELL_MOD_P: 1883}
    t0 = time.perf_counter()
    for ring, n in want.items():
        cmp_ = verify_turn(*turn_args(P, ring, 125))
        assert cmp_.passed and cmp_.bidegrees_checked == n, ring
    assert time.perf_counter() - t0 < 10


KUNNETH_CASES = [(p, ring, hi) for p in (3, 5, 7) for ring in RingId
                 for hi in (26, 60)] + [(5, ring, 125) for ring in RingId]


@pytest.mark.parametrize("p, ring, hi", KUNNETH_CASES)
def test_kunneth_agrees_with_verify_turn(p, ring, hi):
    args = turn_args(p, ring, hi)
    got, want = _kunneth_certifies(*args), verify_turn(*args)
    assert got is not None and got.bidegrees_checked > 0
    assert (got.label, got.passed, got.mismatches) == \
        (want.label, want.passed, want.mismatches)


def outcome(run):
    """A call's result, or the type and text of what it raised."""
    try:
        return run()
    except Exception as err:
        return type(err), str(err)


def shared_partner_args(hi):
    # two divided classes of one degree whose power rules hit the same x
    alg = Algebra(P, (Generator("sbtau0", 1, 1, Kind.DIVIDED),
                      Generator("sbtau9", 1, 1, Kind.DIVIDED),
                      Generator("sbxi1", 1, 2 * P - 2, Kind.EXTERIOR)))

    def power(name):
        return lambda j: alg.elem(**{name: j - P, "sbxi1": 1}) if j >= P else {}

    rule = DerivationRule(P - 1, "shared", {},
                          {"sbtau0": power("sbtau0"), "sbtau9": power("sbtau9")})
    return (BokstedtPage("shared:start", alg, RingId.HZP_MOD, hi + 1), rule,
            BokstedtPage("shared:final", alg, RingId.HZP_MOD, hi + 1, True))


def mutants():
    """(name, e2, rule, einf, hi) for turns the certificate must decline."""
    zp = RingId.HZP_MOD
    e2, rule, einf, _ = turn_args(P, zp, 60)
    alg = e2.algebra

    def rule_with(name, value):
        return rule._replace(power_rules={**rule.power_rules, name: value})

    other_gamma = rule_with(
        "sbtau0", lambda j: alg.elem(sbtau1=j - P, sbxi1=1) if j >= P else {})
    power0 = rule.power_rules["sbtau0"]
    zero_once = rule_with("sbtau0", lambda j: {} if j == P + 2 else power0(j))
    shared_x = rule_with(
        "sbtau1", lambda j: alg.elem(sbtau1=j - P, sbxi1=1) if j >= P else {})
    zlocal_filter = BokstedtPage("zlocal-filter", alg, RingId.HZ_LOCAL, 61,
                                 True)
    ell_filter = BokstedtPage("ell-filter", alg, RingId.ELL, 61, True)
    return [
        ("zero unit", e2, rule.scaled(0), einf, 60),
        ("zero on one power from p on", e2, zero_once, einf, 60),
        ("length off by one", e2, rule._replace(r=P - 2), einf, 60),
        ("another factor's gamma", e2, other_gamma, einf, 60),
        ("shared partner slot", e2, shared_x, einf, 60),
        ("shared partner, one degree", *shared_partner_args(26), 26),
        ("survivors off by one slot", e2, rule, zlocal_filter, 60),
        ("E-infinity as E2", einf, rule, einf, 60),
        ("filtered page as E2", ell_filter, rule, einf, 60),
        ("top below hi + 1", bokstedt_e2_page(P, zp, 60), rule, einf, 60),
        ("nonempty values", e2, rule._replace(values={"bxi1": {}}), einf, 60),
    ]


MUTANTS = mutants()


@pytest.mark.parametrize("name, e2, rule, einf, hi", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_mutants_fall_back_to_verify_turn(monkeypatch, name, e2, rule, einf,
                                          hi):
    region = Region(0, hi, 0, hi + 1)
    assert _kunneth_certifies(e2, rule, einf, region) is None
    for builder, built in (("bokstedt_e2_page", e2), ("bokstedt_rule", rule),
                           ("bokstedt_einf_page", einf)):
        monkeypatch.setattr(bokstedt, builder, lambda *args, built=built: built)
    assert outcome(lambda: bokstedt_run(P, RingId.HZP_MOD, 0, hi)) == \
        outcome(lambda: verify_turn(e2, rule, einf, region))


def test_certificate_budget():
    # the CLI default window 0:5p^2 for every ring at p = 5 and 7, and
    # zp on 0:200; the Echelon path took about 19 s on this set (2 CPUs)
    runs = [(p, ring, 5 * p * p) for p in (5, 7) for ring in RingId]
    t0 = time.perf_counter()
    for p, ring, hi in runs + [(5, RingId.HZP_MOD, 200)]:
        assert bokstedt_run(p, ring, 0, hi).passed, (p, ring, hi)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_default_verify_never_calls_verify_turn(monkeypatch, capsys, p):
    def refuse(*args):
        raise AssertionError("verify_turn called")

    monkeypatch.setattr(bokstedt, "verify_turn", refuse)
    assert main(["verify", "bokstedt", "--prime", str(p)]) == 0
    assert capsys.readouterr().out.count("PASS bokstedt:") == 4
