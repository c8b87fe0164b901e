import pytest

from fpss.graded import Algebra, Generator, Kind
from fpss.specseq import (DerivationRule, ExplicitPage, FamilyRule, Region,
                          VerificationError, apply_leibniz, compare_pages,
                          dump_page, spans_equal, turn_page, verify_turn,
                          well_definedness_check)

P = 5


def toy_algebra():
    return Algebra(P, (
        Generator("x", 0, 5, Kind.EXTERIOR),
        Generator("y", -2, 6, Kind.EXTERIOR),
        Generator("w", 0, 2, Kind.POLYNOMIAL),
    ))


def page_of(alg, monos, label="E2", r=2, provenance="closed-form"):
    table = {}
    for m in monos:
        table.setdefault(alg.bidegree(m), []).append(m)
    return ExplicitPage(label=label, r=r, algebra=alg,
                        table={bd: tuple(ms) for bd, ms in table.items()},
                        provenance=provenance)


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


def test_zero_rule_keeps_page():
    alg = toy_algebra()
    page = page_of(alg, [alg.mono(w=k) for k in range(5)])
    rule = FamilyRule(2, "zero", lambda a, m: [])
    nxt = turn_page(page, rule, REGION)
    assert {bd: set(ms) for bd, ms in nxt.table.items()} == \
           {bd: set(ms) for bd, ms in page.table.items()}


def test_acyclic_pair_dies():
    alg = toy_algebra()
    x = alg.mono(x=1)
    y = alg.mono(y=1)
    page = page_of(alg, [x, y])
    rule = FamilyRule(2, "kill", lambda a, m: [(y, 1)] if m == x else [])
    nxt = turn_page(page, rule, REGION)
    assert nxt.table == {}


def test_dd_nonzero_detected():
    alg = Algebra(P, (Generator("w", 0, 1, Kind.POLYNOMIAL),
                      Generator("t", -2, 1, Kind.POLYNOMIAL)))
    page = page_of(alg, [alg.mono(w=k) for k in range(4)])

    def bad(a, m):
        return [(a.mono_mul(m, a.mono(t=1, w=-1) if False else a.mono(t=1))[0], 1)] \
            if m[0] >= 0 else []

    rule = FamilyRule(2, "bad", lambda a, m: [((m[0], m[1] + 1), 1)])
    with pytest.raises(VerificationError, match="d after d"):
        turn_page(page, rule, Region(0, 4, -10, 10))
    with pytest.raises(VerificationError, match="d after d"):
        verify_turn(page, rule, page, Region(0, 4, -10, 10))


def test_rule_leaving_page_detected():
    alg = toy_algebra()
    page = page_of(alg, [alg.mono(x=1)])
    rule = FamilyRule(2, "stray", lambda a, m:
                      [(alg.mono(y=1), 1)] if m == alg.mono(x=1) else [])
    with pytest.raises(VerificationError, match="outside the page"):
        turn_page(page, rule, REGION)
    # verification records the stray value as a mismatch instead
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
    alg = toy_algebra()
    before = page_of(alg, [alg.mono(w=k) for k in range(6)]
                     + [alg.mono(x=1, w=k) for k in range(6)]
                     + [alg.mono(y=1, w=k) for k in range(6)])
    rule = DerivationRule(2, "d2", {"x": alg.elem(y=1)})
    base = turn_page(before, rule, Region(0, 12, -20, 20))
    for unit in (2, 3, 4):
        other = turn_page(before, rule.scaled(unit), Region(0, 12, -20, 20))
        assert {bd: len(ms) for bd, ms in other.table.items()} == \
               {bd: len(ms) for bd, ms in base.table.items()}


def test_monotone_dimensions():
    alg = toy_algebra()
    before = page_of(alg, [alg.mono(w=k) for k in range(6)]
                     + [alg.mono(x=1, w=k) for k in range(6)]
                     + [alg.mono(y=1, w=k) for k in range(6)])
    rule = DerivationRule(2, "d2", {"x": alg.elem(y=1)})
    nxt = turn_page(before, rule, Region(0, 12, -20, 20))
    for bd, ms in nxt.table.items():
        assert len(ms) <= len(before.table.get(bd, ()))


def test_compare_pages_span_mismatch():
    alg = toy_algebra()
    a = page_of(alg, [alg.mono(x=1)], label="A")
    b = page_of(alg, [alg.mono(x=1)], label="B")
    assert compare_pages(a, b, REGION).passed
    c = page_of(alg, [alg.mono(y=1, w=1)], label="C")  # same bidegree? no
    cmp_ = compare_pages(a, c, REGION)
    assert not cmp_.passed


def test_spans_equal_handles_sums():
    alg = toy_algebra()
    a = alg.elem(x=1)
    b = alg.elem(w=1)  # not same bidegree, but span logic is degree-agnostic
    assert spans_equal(alg, [b], [b])
    assert spans_equal(alg, [a, b], [alg.add(a, b), b])
    assert not spans_equal(alg, [b], [alg.add(a, b)])


def test_well_definedness_pass_and_fail():
    alg = toy_algebra()
    page = page_of(alg, [alg.mono(w=1)], provenance="computed")
    page.boundaries = {alg.bidegree(alg.mono(x=1)): [alg.elem(x=1)]}
    good = FamilyRule(2, "zero", lambda a, m: [])
    assert well_definedness_check(page, good).passed
    # a rule constant on a representative and its coset shift also passes
    shift = FamilyRule(2, "coset", lambda a, m: [])
    assert well_definedness_check(page, shift).passed
    # sends the boundary x to a survivor outside any boundary span
    bad = FamilyRule(2, "bad", lambda a, m:
                     [(alg.mono(y=1), 1)] if m == alg.mono(x=1) else [])
    res = well_definedness_check(page, bad)
    assert not res.passed
    assert "x" in res.mismatches[0].detail


def test_region_shrink_only_for_computed_pages():
    alg = toy_algebra()
    closed = page_of(alg, [alg.mono(w=1)])
    rule = FamilyRule(2, "zero", lambda a, m: [])
    region = Region(0, 10, -10, 10)
    nxt = turn_page(closed, rule, region)
    assert nxt.region == region  # closed forms are exact everywhere
    nxt2 = turn_page(nxt, rule, region)
    assert nxt2.region == region.shrink(2)


def test_dump_format():
    alg = toy_algebra()
    page = page_of(alg, [alg.mono(w=1), alg.mono(x=1)])
    text = dump_page(page, REGION)
    lines = text.splitlines()
    assert lines[0] == "s=0 t=2 dim=1 basis=w"
    assert lines[1] == "s=0 t=5 dim=1 basis=x"


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
    nxt = turn_page(page, rule, Region(0, 20, 0, 25))
    survivors = sorted(alg.mono_str(m) for ms in nxt.table.values() for m in ms)
    assert survivors == ["1", "g[1]", "g[2]", "g[3]", "g[4]"]


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
