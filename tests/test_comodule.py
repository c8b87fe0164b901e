import pytest

from fpss import comodule
from fpss.comodule import (CoactionTable, RingId, astar_algebra, coaction,
                           coproduct_values, counit_left, eq_classes,
                           is_primitive, primitive_lift_coefficients,
                           smash_class, v1_smash_thh_table)
from fpss.graded import Algebra, Generator
from fpss.thh.tate import tate_ambient
from fpss.thh.v1 import v1_thh_presentation

P = 5


def a_tensor_a(astar):
    """A (x) A with the left factor's generators first: a (x) b is the
    concatenated monomial a + b."""
    return Algebra(astar.p, tuple(
        Generator(tag + g.name, g.s, g.t, g.kind, g.height)
        for tag in ("L.", "R.") for g in astar.gens))


def coproduct(astar, x):
    """Coproduct of an element, as an element of A (x) A (multiplicative
    extension of the generator formulas)."""
    values = coproduct_values(astar)
    tens2 = a_tensor_a(astar)
    out = {}
    for mono, c in x.items():
        term = {tens2.unit_mono: 1}
        for g, e in zip(astar.gens, mono):
            for _ in range(e):
                term = tens2.mul(term, values[g.name])
        out = tens2.add(out, tens2.scale(term, c))
    return out


def test_coproduct_of_bxi1_and_unit():
    astar = astar_algebra(P, 100)
    psi = coproduct_values(astar)
    tens_terms = psi["bxi1"]
    # 1 (x) bxi1 + bxi1 (x) 1
    assert len(tens_terms) == 2
    assert all(c == 1 for c in tens_terms.values())
    unit = coproduct(astar, {astar.unit_mono: 1})
    assert list(unit.values()) == [1] and len(unit) == 1


def test_coproduct_of_product_matches_product_of_coproducts():
    astar = astar_algebra(P, 100)
    m = astar.mono(btau0=1, btau1=1)
    lhs = coproduct(astar, {m: 1})
    # independent expansion: multiply the generator coproducts directly
    tens2 = a_tensor_a(astar)
    vals = coproduct_values(astar)
    rhs = tens2.mul(vals["btau0"], vals["btau1"])
    assert lhs == rhs


def coassociates(astar, m):
    """True when (psi (x) id)psi and (id (x) psi)psi agree on the monomial.

    Applying psi to one slot of A (x) A concatenates exponent blocks in
    order, so no Koszul signs enter beyond those inside psi itself.
    """
    p = astar.p
    na = len(astar.gens)

    def expand(y, left):
        out = {}
        for mono, c in y.items():
            ml, mr = mono[:na], mono[na:]
            inner = coproduct(astar, {ml: 1} if left else {mr: 1})
            for mono2, c2 in inner.items():
                m3 = mono2 + mr if left else ml + mono2
                v = (out.get(m3, 0) + c * c2) % p
                if v:
                    out[m3] = v
                else:
                    out.pop(m3, None)
        return out

    base = coproduct(astar, {m: 1})
    return expand(base, left=True) == expand(base, left=False)


def test_coassociativity_window():
    astar = astar_algebra(P, 4 * P * P)
    table = astar.basis_monomials_by_total(0, 4 * P * P)
    checked = 0
    for d, monos in table.items():
        for m in monos:
            assert coassociates(astar, m), astar.mono_str(m)
            checked += 1
    assert checked > 100


def test_counitality_of_tables():
    for ring in RingId:
        table = v1_smash_thh_table(P, ring)
        for g in table.target.gens:
            got = counit_left(table, table.values[g.name])
            assert got == {table.target.mono(**{g.name: 1}): 1}


def test_coaction_examples():
    table = v1_smash_thh_table(P, RingId.ELL_MOD_P)
    t = table.target
    # (sbtau0)^(p-1) is primitive
    x = t.elem(sbtau0=P - 1)
    assert coaction(table, x) == table.include(x)
    # unit is primitive
    one = {t.unit_mono: 1}
    assert coaction(table, one) == table.include(one)
    # btau0 * sbtau0 coacts with one correction term
    x2 = t.elem(btau0=1, sbtau0=1)
    got = coaction(table, x2)
    expect = table.tens.add(
        table.include(x2),
        table.tens.mul(
            {table.astar.mono(btau0=1) + t.unit_mono: 1},
            table.include(t.elem(sbtau0=1))))
    assert got == expect


def test_each_call_builds_one_table(monkeypatch):
    # E(tau0, tau1) (x) H_*(THH) is one target: one table is built and
    # counit-checked per call, not one per factor
    built = []

    class Counting(CoactionTable):
        def __init__(self, astar, target, *rest):
            built.append(target)
            super().__init__(astar, target, *rest)

    monkeypatch.setattr(comodule, "CoactionTable", Counting)
    for ring in RingId:
        built.clear()
        table = v1_smash_thh_table.__wrapped__(P, ring)
        assert built == [table.target], ring
        assert [g.name for g in table.target.gens[:2]] == ["tau0", "tau1"]


def test_coaction_missing_generator_errors():
    # a fresh table: the cached one is shared with every later caller
    table = v1_smash_thh_table.__wrapped__(P, RingId.ELL_MOD_P)
    broken = dict(table.values)
    del broken["y"]
    object.__setattr__(table, "values", broken)
    with pytest.raises(KeyError):
        coaction(table, table.target.elem(y=1))


@pytest.mark.parametrize("ring,expected", [
    (RingId.HZP_MOD, {"eps0", "eps1", "mu0"}),
    (RingId.HZ_LOCAL, {"eps1", "lambda1", "mu1"}),
    (RingId.ELL, {"lambda1", "lambda2", "mu2"}),
    (RingId.ELL_MOD_P, {"eps0", "lambda2", "mu0", "mu2", "eps1bar"}),
])
def test_named_classes_are_primitive(ring, expected):
    table = v1_smash_thh_table(P, ring)
    classes = eq_classes(P, ring)
    assert expected <= set(classes)
    for name, cls in classes.items():
        assert is_primitive(table, cls), name


@pytest.mark.parametrize("ring", list(RingId), ids=lambda r: r.value)
@pytest.mark.parametrize("p", [5, 7])
def test_named_classes_match_the_presentation(p, ring):
    # each named class is homogeneous, in the degree of the presentation's
    # factor of that name; for l/p the classes outside the presentation
    # sit where the Tate ambient puts eps0, mu0 and eps1b
    alg = v1_smash_thh_table(p, ring).target
    want = {name: degree for name, _, degree, _ in
            v1_thh_presentation(p, ring).factors}
    if ring is RingId.ELL_MOD_P:
        ambient = tate_ambient(p, 0)
        for name, gen in (("eps0", "eps0"), ("mu0", "mu0"),
                          ("eps1bar", "eps1b")):
            want[name] = ambient.gens[ambient.slot_of[gen]].total
        assert (want["eps0"], want["mu0"], want["eps1bar"]) == \
            (1, 2, 2 * p - 1)
    classes = eq_classes(p, ring)
    assert set(classes) == set(want)
    for name, cls in classes.items():
        assert cls, name
        assert {alg.total(m) for m in cls} == {want[name]}, name


def test_bare_btau0_is_not_primitive():
    table = v1_smash_thh_table(P, RingId.HZP_MOD)
    cls = smash_class(table, [(1, {}, {"btau0": 1})])
    assert not is_primitive(table, cls)


def test_primitive_lift_coefficient_is_forced():
    assert primitive_lift_coefficients(P) == [P - 1]


def test_coaction_table_needs_every_generator_counital():
    table = v1_smash_thh_table(P, RingId.HZP_MOD)
    name = table.target.gens[0].name
    fields = (table.astar, table.target, table.tens)
    missing = {k: v for k, v in table.values.items() if k != name}
    with pytest.raises(ValueError, match=f"missing generator {name}"):
        CoactionTable(*fields, missing)
    with pytest.raises(ValueError, match=f"{name} is not counital"):
        CoactionTable(*fields, {**missing, name: {}})
