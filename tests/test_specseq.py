from collections import Counter
from dataclasses import dataclass

import pytest

from fpss import specseq
from fpss.graded import Algebra, Generator, Kind, Monomial
from fpss.report import Check, Report
from fpss.specseq import (DerivationRule, FamilyRule, Region,
                          VerificationError, apply_leibniz,
                          bidegree_table, dump_page, verify_turn)

P = 5


def toy_algebra():
    return Algebra(P, (
        Generator("x", 0, 5, Kind.EXTERIOR),
        Generator("y", -2, 6, Kind.EXTERIOR),
        Generator("w", 0, 2, Kind.POLYNOMIAL),
    ))


@dataclass
class TablePage:
    """A page given by an explicit bidegree table."""

    label: str
    r: int
    algebra: Algebra
    table: dict[tuple[int, int], tuple[Monomial, ...]]

    def iter_region(self, region):
        for (s, t), monos in self.table.items():
            if region.contains(s, t):
                yield from (((s, t), m) for m in monos)


def page_of(alg, monos, label="E2", r=2):
    table = {}
    for m in monos:
        table.setdefault(alg.bidegree(m), []).append(m)
    return TablePage(label, r, alg, {bd: tuple(ms) for bd, ms in table.items()})


def certifies(before, rule, monos, region=None):
    """Whether verify_turn passes the monomials as the next page."""
    after = page_of(before.algebra, monos, label="E3", r=before.r + 1)
    return verify_turn(before, rule, after, region or REGION).passed


REGION = Region(-20, 40, -30, 30)


def test_leibniz_unit_and_derivation():
    alg = toy_algebra()
    rule = DerivationRule(2, "d2", {"x": alg.elem(y=1)})
    assert apply_leibniz(rule, alg, alg.unit_mono) == {}
    # d(x*w^2) = d(x) w^2, x in odd degree so no second term
    got = apply_leibniz(rule, alg, alg.mono(x=1, w=2))
    assert got == {alg.mono(y=1, w=2): 1}


def test_leibniz_on_even_power():
    # d(w^2) = 2 w d(w) for an even generator with odd-degree value
    alg = Algebra(P, (Generator("w", 0, 2, Kind.POLYNOMIAL),
                      Generator("z", -2, 5, Kind.EXTERIOR)))
    rule = DerivationRule(2, "d", {"w": alg.elem(z=1)})
    got = apply_leibniz(rule, alg, alg.mono(w=2))
    assert got == {alg.mono(w=1, z=1): 2}
    # matches the direct two-term expansion d(w)w + w d(w)
    direct = alg.add(alg.mul(alg.elem(z=1), alg.elem(w=1)),
                     alg.mul(alg.elem(w=1), alg.elem(z=1)))
    assert got == direct


def test_leibniz_sign_on_odd_prefix():
    alg = toy_algebra()
    rule = DerivationRule(2, "d", {"w": alg.elem(y=1)})
    # x odd: d(x*w) = -x d(w)
    got = apply_leibniz(rule, alg, alg.mono(x=1, w=1))
    assert got == {alg.mono(x=1, y=1): P - 1}


def derivation_algebra():
    # odd generators before (a) and after (b) the derived ones (g odd, w
    # even), a truncated class the values reach, a Laurent class, and a
    # divided power class
    return Algebra(P, (
        Generator("a", 0, 1, Kind.EXTERIOR),
        Generator("g", 1, 2, Kind.EXTERIOR),
        Generator("w", 2, 0, Kind.POLYNOMIAL),
        Generator("b", 0, 3, Kind.EXTERIOR),
        Generator("h", 0, 2, Kind.TRUNCATED, 3),
        Generator("l", -2, 0, Kind.LAURENT),
        Generator("D", 0, 4, Kind.DIVIDED),
    ))


def derivation_monomials(alg):
    return [(a, g, w, b, h, l, d) for a in (0, 1) for g in (0, 1)
            for w in range(7) for b in (0, 1) for h in range(3)
            for l in range(-2, 3) for d in range(3)]


def leibniz_by_elements(rule, alg, m):
    """The Leibniz expansion written with elements: every slot of m, d(g^e)
    as the power rule or e g^(e-1) d(g) by mul, and each term as
    prefix * d(g^e) * suffix by mul, summed with add."""
    out = {}
    sign = 1
    n = len(m)
    for i, e in enumerate(m):
        name = alg.gens[i].name
        if e and name in rule.power_rules:
            dfac = rule.power_rules[name](e)
        elif e and rule.values.get(name):
            lower = (0,) * i + (e - 1,) + (0,) * (n - i - 1)
            dfac = alg.scale(alg.mul({lower: 1}, rule.values[name]), e)
        else:
            dfac = {}
        if dfac:
            prefix = m[:i] + (0,) * (n - i)
            suffix = (0,) * (i + 1) + m[i + 1:]
            term = alg.mul({prefix: sign % alg.p}, dfac)
            out = alg.add(out, alg.mul(term, {suffix: 1}))
        if e % 2 and i in alg.odd_slots:
            sign = -sign
    return alg.scale(out, rule.unit)


def derivation_rule(alg, case):
    """One rule per value shape: single monomials on an odd (g) and an even
    (w) generator, a two-term value, a power rule, an odd value and a
    divided value."""
    return {
        "one-monomial": DerivationRule(2, "d", {"g": alg.elem(2, h=1, l=-1),
                                                "w": alg.elem(h=1)}),
        "two-term": DerivationRule(2, "d", {"g": alg.add(alg.elem(h=1),
                                                          alg.elem(l=1))}),
        "power-rules": DerivationRule(2, "d", {"g": alg.elem(h=1)},
                                      {"D": lambda e: alg.elem(D=e - 1)}),
        "odd-value": DerivationRule(2, "d", {"w": alg.elem(b=1)}),
        "divided-value": DerivationRule(2, "d", {"g": alg.elem(D=1)}),
    }[case]


def test_leibniz_vanishes_at_truncation_height():
    # h^2 times d(g) = 2 h l^-1 reaches h's height 3
    alg = derivation_algebra()
    rule = derivation_rule(alg, "one-monomial")
    assert apply_leibniz(rule, alg, alg.mono(g=1, h=2)) == {}


@pytest.mark.parametrize("case", ["one-monomial", "two-term", "power-rules",
                                  "odd-value", "divided-value"])
def test_leibniz_matches_element_expansion(case):
    # w^e up to e = 6 (so e = p vanishes) and odd classes before and after
    # the derived ones; the values and their order match the expansion
    alg = derivation_algebra()
    rule = derivation_rule(alg, case)
    for r in (rule, rule.scaled(2), rule.scaled(P)):
        for m in derivation_monomials(alg):
            got = r.apply(alg, m)
            assert list(got.items()) == \
                list(leibniz_by_elements(r, alg, m).items()), \
                (r.name, alg.mono_str(m))


def mutation_algebra():
    # z shares the bidegree of x, v that of y; q sits one d2 below y
    return Algebra(P, (
        Generator("x", 0, 5, Kind.EXTERIOR),
        Generator("z", 0, 5, Kind.EXTERIOR),
        Generator("y", -2, 6, Kind.EXTERIOR),
        Generator("v", -2, 6, Kind.EXTERIOR),
        Generator("q", -4, 7, Kind.EXTERIOR),
        Generator("w", 0, 2, Kind.POLYNOMIAL),
    ))


def mutated_turn(case):
    """A page turn, by case: the base turn, x*w^k onto y*w^k with the powers
    of w left, or one of its mutations."""
    alg = mutation_algebra()

    def times_w(*names, ks=range(4)):
        return [alg.mono(**{g: 1 for g in names}, w=k) for k in ks]

    before = times_w() + times_w("x") + times_w("y")
    values = {"x": alg.elem(y=1)}
    after = times_w()
    region = Region(0, 12, -20, 20)
    if case == "shared-target":
        before += times_w("z")
        values["z"] = alg.elem(y=1)
    elif case == "two-term":
        before += times_w("v")
        values["x"] = alg.add(alg.elem(y=1), alg.elem(v=1))
        after += times_w("y")
    elif case == "drops-a-class":
        after = times_w(ks=range(3))
    elif case == "duplicates-a-class":
        # no source: y*w^k and v*w^k are cycles; the closed form lists y*w
        # twice in place of v*w, so only its duplicate is wrong
        before = times_w() + times_w("y") + times_w("v")
        after += times_w("y") + times_w("v", ks=(0, 2, 3))
        after += times_w("y", ks=(1,))
    elif case == "page-lists-a-monomial-twice":
        before += times_w("y", ks=(1,))
    elif case == "closed-class-is-a-boundary":
        # y*w^k is hit, v*w^k is not; the closed form names y*w^k
        before += times_w("v")
        after += times_w("y")
    elif case == "class-not-on-the-page":
        # z*w^k survives, x*w^k shares its bidegree but is no page monomial
        before = times_w() + times_w("z")
        after += times_w("x")
    elif case == "hit-from-outside-the-region":
        # the region holds the y*w^k but not the x*w^k that hit them
        after = times_w("y")
        region = Region(0, 12, -20, -1)
    elif case == "dd-nonzero":
        # the targets y*w^k lie outside the region's columns
        before += times_w("q")
        values["y"] = alg.elem(q=1)
        region = Region(0, 12, 0, 20)
    elif case == "hit-not-a-cycle":
        # the region holds y*w^k and q*w^k but not the x*w^k that hit the
        # y*w^k, so d after d is never tested on x*w^k; only the hit
        # y*w^k, which is not a cycle, shows it
        before += times_w("q")
        values["y"] = alg.elem(q=1)
        region = Region(0, 12, -20, -1)
    rule = DerivationRule(2, "d2", values)
    if case == "target-in-another-bidegree":
        # x onto the page monomial w^3, which is not where a d2 of x lands
        x, w3 = alg.mono(x=1), alg.mono(w=3)
        rule = FamilyRule(2, "d2", lambda a, m: [(w3, 1)] if m == x else [])
        before = times_w() + [x]
        after = times_w(ks=(0, 1, 2))
    return (page_of(alg, before), rule, page_of(alg, after, label="E3", r=3),
            region)


def outcome(turn):
    try:
        return verify_turn(*turn)
    except VerificationError as err:
        return f"VerificationError: {err}"


def test_base_turn_passes():
    cmp_ = outcome(mutated_turn("base"))
    assert cmp_.passed and cmp_.bidegrees_checked


@pytest.mark.parametrize("case", ["shared-target", "two-term", "drops-a-class",
                                  "duplicates-a-class",
                                  "page-lists-a-monomial-twice",
                                  "closed-class-is-a-boundary",
                                  "class-not-on-the-page",
                                  "target-in-another-bidegree",
                                  "hit-from-outside-the-region", "dd-nonzero",
                                  "hit-not-a-cycle"])
def test_mutated_turns(case):
    got = outcome(mutated_turn(case))
    if case == "dd-nonzero":
        assert got.startswith("VerificationError: d after d nonzero")
    elif case == "two-term":
        assert got.passed       # not a matching, but the closed form is right
    else:
        assert not got.passed and got.mismatches


def test_zero_rule_keeps_page():
    alg = toy_algebra()
    monos = [alg.mono(w=k) for k in range(5)]
    page = page_of(alg, monos)
    rule = FamilyRule(2, "zero", lambda a, m: [])
    assert certifies(page, rule, monos)
    assert not certifies(page, rule, monos[:-1])


def test_acyclic_pair_dies():
    alg = toy_algebra()
    x = alg.mono(x=1)
    y = alg.mono(y=1)
    page = page_of(alg, [x, y])
    rule = FamilyRule(2, "kill", lambda a, m: [(y, 1)] if m == x else [])
    assert certifies(page, rule, [])
    assert not certifies(page, rule, [y])


def test_dd_nonzero_detected():
    alg = Algebra(P, (Generator("w", 0, 1, Kind.POLYNOMIAL),
                      Generator("t", -2, 1, Kind.POLYNOMIAL)))
    page = page_of(alg, [alg.mono(w=k) for k in range(4)])
    rule = FamilyRule(2, "bad", lambda a, m: [((m[0], m[1] + 1), 1)])
    with pytest.raises(VerificationError, match="d after d"):
        verify_turn(page, rule, page, Region(0, 4, -10, 10))


def test_rule_leaving_page_detected():
    alg = toy_algebra()
    page = page_of(alg, [alg.mono(x=1)])
    rule = FamilyRule(2, "stray", lambda a, m:
                      [(alg.mono(y=1), 1)] if m == alg.mono(x=1) else [])
    # the stray value is a mismatch, not an error
    cmp_ = verify_turn(page, rule, page_of(alg, [], label="E3", r=3), REGION)
    assert not cmp_.passed
    assert "outside the page" in cmp_.mismatches[0].detail


def test_verify_turn_certifies_closed_form():
    alg = toy_algebra()
    # x*w^k kills y*w^k; w^k survives
    before = page_of(alg, [alg.mono(w=k) for k in range(6)]
                     + [alg.mono(x=1, w=k) for k in range(6)]
                     + [alg.mono(y=1, w=k) for k in range(6)])
    after = page_of(alg, [alg.mono(w=k) for k in range(6)], label="E3", r=3)
    rule = DerivationRule(2, "d2", {"x": alg.elem(y=1)})
    cmp_ = verify_turn(before, rule, after, Region(0, 12, -20, 20))
    assert cmp_.passed, [str(m) for m in cmp_.mismatches]


def test_verify_turn_catches_wrong_form():
    alg = toy_algebra()
    before = page_of(alg, [alg.mono(w=1), alg.mono(x=1, w=1), alg.mono(y=1, w=1)])
    wrong = page_of(alg, [alg.mono(w=1), alg.mono(x=1, w=1)], label="E3", r=3)
    rule = DerivationRule(2, "d2", {"x": alg.elem(y=1)})
    cmp_ = verify_turn(before, rule, wrong, Region(0, 12, -20, 20))
    assert not cmp_.passed


def test_unit_invariance_of_dimensions():
    # every unit multiple of the rule certifies the same closed form
    alg = toy_algebra()
    before = page_of(alg, [alg.mono(w=k) for k in range(6)]
                     + [alg.mono(x=1, w=k) for k in range(6)]
                     + [alg.mono(y=1, w=k) for k in range(6)])
    survivors = [alg.mono(w=k) for k in range(6)]
    rule = DerivationRule(2, "d2", {"x": alg.elem(y=1)})
    region = Region(0, 12, -20, 20)
    for unit in (1, 2, 3, 4):
        assert certifies(before, rule.scaled(unit), survivors, region), unit
        assert not certifies(before, rule.scaled(unit), survivors[1:], region)


def test_monotone_dimensions():
    alg = toy_algebra()
    before = page_of(alg, [alg.mono(w=k) for k in range(6)]
                     + [alg.mono(x=1, w=k) for k in range(6)]
                     + [alg.mono(y=1, w=k) for k in range(6)])
    after = page_of(alg, [alg.mono(w=k) for k in range(6)], label="E3", r=3)
    rule = DerivationRule(2, "d2", {"x": alg.elem(y=1)})
    region = Region(0, 12, -20, 20)
    assert verify_turn(before, rule, after, region).passed
    dims = bidegree_table(before, region)
    for bd, ms in bidegree_table(after, region).items():
        assert len(ms) <= len(dims.get(bd, ()))


def test_dump_format():
    alg = toy_algebra()
    page = page_of(alg, [alg.mono(w=1), alg.mono(x=1)])
    text = dump_page(page, REGION)
    lines = text.splitlines()
    assert lines[0] == "s=0 t=2 dim=1 basis=w"
    assert lines[1] == "s=0 t=5 dim=1 basis=x"


def _dump_by_mono_str(page, region):
    # the reference text: mono_str on each class, in dump_page's order
    bases = bidegree_table(page, region)
    return "\n".join(
        f"s={s} t={t} dim={len(ms)} basis="
        + ",".join(page.algebra.mono_str(m) for m in ms)
        for s, t in sorted(bases, key=lambda bd: (bd[0] + bd[1], bd[0]))
        for ms in [bases[(s, t)]])


def _bench_page():
    # the page and region of `fpss tables tate:cp:1 --page 3` at its
    # default window: dense, 11,312 classes
    from fpss.thh.tate import instance_region, tower_instance
    return (tower_instance(P, 1, "tate").form_at(3),
            instance_region(P, 1, -50, 125, "tate"))


def _dump_pages():
    from fpss.comodule import RingId
    from fpss.thh.bokstedt import bokstedt_e2_page
    from fpss.thh.tate import instance_region, tower_instance
    alg = toy_algebra()
    yield page_of(alg, [alg.unit_mono, alg.mono(w=2), alg.mono(x=1, y=1),
                        alg.mono(y=1, w=3), alg.mono(x=1, w=1)]), REGION
    for conv, n, r in (("tate", 1, 3), ("hofix", 2, "inf")):
        yield (tower_instance(P, n, conv).form_at(r),
               instance_region(P, n, -20, 60, conv))
    yield bokstedt_e2_page(3, RingId.ELL_MOD_P, 41), Region(0, 40, 0, 41)
    # long runs of classes in one bidegree, up to dim 21
    yield bokstedt_e2_page(P, RingId.HZP_MOD, 61), Region(0, 60, 0, 61)
    yield _bench_page()


def test_dump_text_is_mono_str_of_each_class():
    # dump_page makes each power's text once; every class must still read
    # as mono_str writes it (unit, exponents, divided powers, Laurent t,
    # several classes in one bidegree), in bidegree_table's grouping
    for page, region in _dump_pages():
        text = dump_page(page, region)
        assert text and text == _dump_by_mono_str(page, region), page


def test_dump_sorts_one_walk(monkeypatch):
    # on the bench page the dump reads the page once, builds no bidegree
    # table and makes each power's text once
    page, region = _bench_page()
    walks, tables, texts = [], [], Counter()

    class Counted:
        label, algebra = page.label, page.algebra

        def iter_region(self, region):
            walks.append(region)
            return page.iter_region(region)

    def table(*args):
        tables.append(args)
        return bidegree_table(*args)

    real_mono_str = Algebra.mono_str

    def mono_str(alg, m):
        texts[tuple((i, e) for i, e in enumerate(m) if e)] += 1
        return real_mono_str(alg, m)

    monkeypatch.setattr(specseq, "bidegree_table", table)
    monkeypatch.setattr(Algebra, "mono_str", mono_str)
    text = dump_page(Counted(), region)
    assert walks == [region]
    assert tables == []
    assert texts and max(texts.values()) == 1
    assert all(len(powers) == 1 for powers in texts)
    assert text.count("\n") + 1 == 11312


def test_divided_power_core_survivors():
    # one divided power column against one exterior suspension class: the
    # height p truncation survives, the exterior class dies
    alg = Algebra(P, (Generator("sx", 1, 8, Kind.EXTERIOR),
                      Generator("g", 1, 1, Kind.DIVIDED)))

    def on_gamma(j):
        return alg.elem(sx=1, g=j - P) if j >= P else {}

    rule = DerivationRule(P - 1, "core", {}, {"g": on_gamma})
    monos = [alg.mono(g=j) for j in range(16)] + \
            [alg.mono(sx=1, g=j) for j in range(16)]
    page = page_of(alg, monos, r=P - 1)
    region = Region(0, 20, 0, 25)
    survivors = [alg.mono(g=j) for j in range(P)]
    assert [alg.mono_str(m) for m in survivors] == \
        ["1", "g[1]", "g[2]", "g[3]", "g[4]"]
    assert certifies(page, rule, survivors, region)
    assert not certifies(page, rule, survivors[:-1], region)
    assert not certifies(page, rule, survivors + [alg.mono(g=P)], region)


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def homogeneous_pair(draw):
    alg = Algebra(P, (Generator("x", 0, 5, Kind.EXTERIOR),
                      Generator("y", -2, 6, Kind.EXTERIOR),
                      Generator("w", 0, 2, Kind.POLYNOMIAL),
                      Generator("v", 1, 3, Kind.POLYNOMIAL)))
    def mono():
        return alg.mono(x=draw(st.integers(0, 1)), y=draw(st.integers(0, 1)),
                        w=draw(st.integers(0, 3)), v=draw(st.integers(0, 3)))
    return alg, mono(), mono()


@settings(max_examples=60, deadline=None)
@given(homogeneous_pair())
def test_leibniz_product_rule(data):
    # d(m1 m2) = d(m1) m2 + (-1)^(deg m1) m1 d(m2) on random monomials;
    # the values flip parity, as every differential does
    alg, m1, m2 = data
    rule = DerivationRule(2, "d", {"w": alg.elem(x=1),
                                   "x": alg.elem(y=1, w=1)})
    prod = alg.mul({m1: 1}, {m2: 1})
    lhs = {}
    for m, c in prod.items():
        lhs = alg.add(lhs, alg.scale(rule.apply(alg, m), c))
    sign = -1 if alg.total(m1) % 2 else 1
    rhs = alg.add(alg.mul(rule.apply(alg, m1), {m2: 1}),
                  alg.scale(alg.mul({m1: 1}, rule.apply(alg, m2)), sign))
    assert lhs == rhs


def test_checks_and_reports_do_not_share_lists():
    first, second = Check("a", True), Check("b", False)
    first.details.append("detail")
    assert second.details == []
    one, other = Report(), Report()
    one.add(first)
    assert [c.id for c in one.checks] == ["a"] and other.checks == []
