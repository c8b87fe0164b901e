import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpss.graded import (Algebra, Generator, Kind, PoincareSeries,
                         poincare_series)
from fpss.numerics import binom_mod_p

P = 5


def ext(name, s, t):
    return Generator(name, s, t, Kind.EXTERIOR)


def poly(name, s, t):
    return Generator(name, s, t, Kind.POLYNOMIAL)


def laurent(name, s, t):
    return Generator(name, s, t, Kind.LAURENT)


def divided(name, s, t):
    return Generator(name, s, t, Kind.DIVIDED)


def trunc(name, s, t, h):
    return Generator(name, s, t, Kind.TRUNCATED, h)


def test_exterior_square_is_zero():
    alg = Algebra(P, (ext("x", 0, 3),))
    x = alg.elem(x=1)
    assert alg.mul(x, x) == {}


def test_laurent_inverse():
    alg = Algebra(P, (laurent("t", -2, 0),))
    t = alg.elem(t=1)
    tinv = alg.elem(t=-1)
    assert alg.mul(t, tinv) == {alg.unit_mono: 1}


def test_divided_power_binomial_vanishing():
    alg = Algebra(P, (divided("g", 1, 1),))
    g2 = alg.elem(g=2)
    g3 = alg.elem(g=3)
    assert alg.mul(g2, g3) == {}          # C(5,2) = 10 = 0 mod 5
    g1 = alg.elem(g=1)
    assert alg.mul(g1, g1) == alg.elem(2, g=2)


def test_truncated_overflow():
    alg = Algebra(P, (trunc("x", 0, 2, P),))
    a = alg.elem(x=3)
    b = alg.elem(x=2)
    assert alg.mul(a, b) == {}


def test_even_exterior_is_truncated_two():
    alg = Algebra(P, (ext("x", 0, 2),))
    assert alg.gens[0].kind is Kind.TRUNCATED
    x = alg.elem(x=1)
    assert alg.mul(x, x) == {}


def test_koszul_sign():
    alg = Algebra(P, (ext("a", 0, 1), ext("b", 0, 3)))
    a, b = alg.elem(a=1), alg.elem(b=1)
    ab = alg.mul(a, b)
    ba = alg.mul(b, a)
    assert ab == {alg.mono(a=1, b=1): 1}
    assert ba == alg.scale(ab, -1)


def test_degree_additivity():
    alg = Algebra(P, (ext("a", 1, 2), poly("x", 0, 4), divided("g", 1, 1)))
    m1 = alg.mono(a=1, x=2)
    m2 = alg.mono(x=1, g=2)
    r = alg.mono_mul(m1, m2)
    assert r is not None
    m, _ = r
    assert alg.bidegree(m) == (alg.sdeg(m1) + alg.sdeg(m2),
                               alg.bidegree(m1)[1] + alg.bidegree(m2)[1])


gen_pool = [
    ext("e1", 0, 1), ext("e2", 1, 2), poly("x1", 0, 2), poly("x2", 2, 2),
    trunc("t1", 0, 2, P), divided("g1", 1, 1), laurent("l1", -2, 0),
]


@st.composite
def algebra_and_monomials(draw):
    idx = draw(st.lists(st.integers(0, len(gen_pool) - 1), min_size=1,
                        max_size=4, unique=True))
    alg = Algebra(P, tuple(gen_pool[i] for i in sorted(idx)))
    def mono():
        exps = []
        for g in alg.gens:
            if g.kind is Kind.EXTERIOR:
                exps.append(draw(st.integers(0, 1)))
            elif g.kind is Kind.TRUNCATED:
                exps.append(draw(st.integers(0, g.height - 1)))
            elif g.kind is Kind.LAURENT:
                exps.append(draw(st.integers(-3, 3)))
            else:
                exps.append(draw(st.integers(0, 3)))
        return tuple(exps)
    return alg, mono(), mono(), mono()


@settings(max_examples=80, deadline=None)
@given(algebra_and_monomials())
def test_associativity_and_graded_commutativity(data):
    alg, m1, m2, m3 = data
    a, b, c = {m1: 1}, {m2: 1}, {m3: 1}
    assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))
    ab = alg.mul(a, b)
    ba = alg.mul(b, a)
    sign = -1 if (alg.total(m1) % 2 and alg.total(m2) % 2) else 1
    assert ba == alg.scale(ab, sign)


def test_basis_in_bidegree_examples():
    alg2 = Algebra(P, (ext("lambda2", 0, 49), poly("mu2", 0, 50)))
    assert alg2.basis_in_bidegree(0, 49) == [alg2.mono(lambda2=1)]
    empty = Algebra(P, ())
    assert empty.basis_in_bidegree(0, 0) == [()]
    assert empty.basis_in_bidegree(1, 0) == []


def test_basis_infinite_bidegree_raises():
    alg = Algebra(P, (laurent("t", -2, 0), laurent("s", -4, 0)))
    with pytest.raises(ValueError, match="proportional|impossible"):
        alg.basis_in_bidegree(-6, 0)


@st.composite
def nonnegative_algebras(draw):
    """An algebra of exterior, polynomial, truncated and divided generators,
    each with s in {0, 1, 2}, t >= 0 and positive total degree."""
    p = draw(st.sampled_from([3, 5, 7]))
    gens = []
    for k in range(draw(st.integers(0, 5))):
        s = draw(st.integers(0, 2))
        t = draw(st.integers(0 if s else 1, 5))
        kind = draw(st.sampled_from(["ext", "poly", "trunc", "divided"]))
        if kind == "ext":
            gens.append(ext(f"g{k}", s, t))
        elif kind == "poly":
            gens.append(poly(f"g{k}", s, t))
        elif kind == "trunc":
            gens.append(trunc(f"g{k}", s, t, draw(st.integers(2, p))))
        else:
            gens.append(divided(f"g{k}", s, t))
    return Algebra(p, tuple(gens))


@settings(max_examples=200, deadline=None)
@given(nonnegative_algebras(), st.integers(-2, 8), st.integers(-2, 12))
def test_basis_in_bidegree_is_the_filtered_total_walk(alg, s, t):
    # the per-bidegree recursion against the total-degree walk, filtered by
    # column, in the same order; a negative s or t holds no monomial
    got = alg.basis_in_bidegree(s, t)
    if s < 0 or t < 0:
        assert got == []
        return
    d = s + t
    want = [m for m in alg.basis_monomials_by_total(d, d)[d]
            if alg.sdeg(m) == s]
    assert got == want


@pytest.mark.parametrize("bad", [laurent("l", 0, 2), poly("x", -1, 4),
                                 poly("x", 1, -2), divided("x", 0, 0)],
                         ids=["laurent", "negative-s", "negative-t",
                              "zero-total"])
def test_basis_in_bidegree_refuses_unbounded_generators(bad):
    alg = Algebra(P, (ext("e", 0, 1), bad))
    with pytest.raises(ValueError, match="impossible"):
        alg.basis_in_bidegree(0, 2)


def test_poincare_series_examples():
    v1 = Algebra(P, (ext("tau0", 0, 1), ext("tau1", 0, 9)))
    ps = poincare_series(v1, 0, 10)
    assert [ps.get(d) for d in range(11)] == [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1]

    pmu0 = Algebra(P, (poly("mu0", 0, 2),))
    ps2 = poincare_series(pmu0, 0, 8)
    assert [ps2.get(d) for d in range(9)] == [1, 0, 1, 0, 1, 0, 1, 0, 1]

    thh_zp = Algebra(P, (ext("eps0", 0, 1), ext("eps1", 0, 9), poly("mu0", 0, 2)))
    assert poincare_series(thh_zp, 0, 10).get(10) == 2


def test_poincare_series_rejects_laurent():
    alg = Algebra(P, (laurent("t", -2, 0),))
    with pytest.raises(ValueError):
        poincare_series(alg, 0, 4)


def test_divided_power_truncated_factorization():
    # dimensions of a divided power algebra match the tensor of height-p
    # truncated pieces on the p-power indexed generators
    gamma = Algebra(P, (divided("g", 0, 2),))
    hi = 60
    lhs = poincare_series(gamma, 0, hi)
    factors = Algebra(P, tuple(
        trunc(f"q{e}", 0, 2 * P ** e, P) for e in range(3)))
    rhs = poincare_series(factors, 0, hi)
    assert lhs == rhs


def test_mono_str():
    alg = Algebra(P, (ext("u1", -1, 0), laurent("t", -2, 0), divided("g", 1, 2)))
    m = alg.mono(u1=1, t=-3, g=2)
    assert alg.mono_str(m) == "u1*t^-3*g[2]"
    assert alg.mono_str(alg.unit_mono) == "1"


def ps_from_monomials(alg, monomials, lo, hi):
    """The Poincare series of a list of monomials, degrees lo..hi."""
    counts = {}
    for m in monomials:
        d = alg.total(m)
        if lo <= d <= hi:
            counts[d] = counts.get(d, 0) + 1
    return PoincareSeries.from_counts(lo, hi, counts)


def test_monomials_by_total():
    alg = Algebra(P, (ext("x", 0, 1), poly("y", 0, 2)))
    table = alg.basis_monomials_by_total(0, 5)
    assert [len(table[d]) for d in range(6)] == [1, 1, 1, 1, 1, 1]
    ps = ps_from_monomials(alg, [m for ms in table.values() for m in ms], 0, 5)
    assert ps == poincare_series(alg, 0, 5)


# -- slot tables against the per-generator code they replace -------------


def per_generator_valid_mono(alg, m):
    if len(m) != len(alg.gens):
        return False
    for g, e in zip(alg.gens, m):
        if g.kind is Kind.EXTERIOR and e not in (0, 1):
            return False
        if g.kind is Kind.TRUNCATED and not 0 <= e < g.height:
            return False
        if g.kind in (Kind.POLYNOMIAL, Kind.DIVIDED) and e < 0:
            return False
    return True


def per_generator_mono_mul(alg, m1, m2):
    coeff = 1
    swaps = 0
    tail_odd = 0
    for i in range(len(alg.gens) - 1, -1, -1):
        if alg.gens[i].odd:
            swaps += m2[i] * tail_odd
            tail_odd += m1[i]
    if swaps % 2:
        coeff = -1
    exps = []
    for g, e1, e2 in zip(alg.gens, m1, m2):
        e = e1 + e2
        if g.kind is Kind.EXTERIOR and e > 1:
            return None
        if g.kind is Kind.TRUNCATED and e >= g.height:
            return None
        if g.kind is Kind.DIVIDED and e1 and e2:
            b = binom_mod_p(alg.p, e1, e2)
            if not b:
                return None
            coeff = coeff * b
        exps.append(e)
    return tuple(exps), coeff % alg.p


def per_generator_mul(alg, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            r = per_generator_mono_mul(alg, m1, m2)
            if r is None:
                continue
            m, c = r
            v = (out.get(m, 0) + c1 * c2 * c) % alg.p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


@st.composite
def mixed_algebras(draw):
    """An algebra over p = 3, 5 or 7 whose slots mix odd and even exterior
    (the even one becomes truncated of height 2), polynomial, truncated of
    height 2..p, Laurent and divided generators."""
    p = draw(st.sampled_from([3, 5, 7]))
    gens = []
    for k in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["odd-ext", "even-ext", "poly", "trunc",
                                     "laurent", "divided"]))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(0, 6))
        if kind == "odd-ext":
            gens.append(ext(f"g{k}", s, t + (s + t + 1) % 2))
        elif kind == "even-ext":
            gens.append(ext(f"g{k}", s, t + (s + t) % 2))
        elif kind == "poly":
            gens.append(poly(f"g{k}", s, t))
        elif kind == "trunc":
            gens.append(trunc(f"g{k}", s, t, draw(st.integers(2, p))))
        elif kind == "laurent":
            gens.append(laurent(f"g{k}", s, t))
        else:
            gens.append(divided(f"g{k}", s, t))
    return Algebra(p, tuple(gens))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_valid_mono_matches_per_generator_checks(data):
    alg = data.draw(mixed_algebras())
    n = len(alg.gens) + data.draw(st.integers(-1, 1))    # wrong lengths too
    m = tuple(data.draw(st.integers(-3, alg.p + 1)) for _ in range(n))
    assert alg.valid_mono(m) == per_generator_valid_mono(alg, m)


def test_valid_mono_rejects_wrong_lengths():
    alg = Algebra(P, (ext("a", 0, 1), poly("x", 0, 2), divided("g", 1, 1)))
    assert alg.valid_mono((0, 0, 0))
    assert not alg.valid_mono((0, 0, 0, 7))
    assert not alg.valid_mono((1,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mono_mul_matches_per_generator_product(data):
    alg = data.draw(mixed_algebras())
    # exponents from one below each slot's range to past its bound
    monos = st.tuples(*(st.integers(-1, alg.p) for _ in alg.gens))
    m1, m2 = data.draw(monos), data.draw(monos)
    assert alg.mono_mul(m1, m2) == per_generator_mono_mul(alg, m1, m2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_matches_per_generator_product(data):
    alg = data.draw(mixed_algebras())
    valid = st.tuples(*(st.integers(-2 if g.kind is Kind.LAURENT else 0,
                                    alg.p) for g in alg.gens)).filter(
        alg.valid_mono)
    elems = st.dictionaries(valid, st.integers(1, alg.p - 1), max_size=4)
    a, b = data.draw(elems), data.draw(elems)
    got = alg.mul(a, b)
    want = per_generator_mul(alg, a, b)
    assert list(got.items()) == list(want.items())


def test_index_looks_names_up():
    alg = Algebra(P, (ext("a", 0, 1), poly("x", 0, 2), divided("g", 1, 1)))
    assert [alg.index(g.name) for g in alg.gens] == [0, 1, 2]
    with pytest.raises(KeyError) as err:
        alg.index("y")
    assert err.value.args == ("y",)
    with pytest.raises(KeyError):
        alg.mono(y=1)


def test_records_validate_on_construction():
    with pytest.raises(ValueError, match="height >= 2"):
        trunc("x", 0, 2, 1)
    for p in (2, 9):
        with pytest.raises(ValueError, match="odd prime"):
            Algebra(p, (ext("a", 0, 1),))
    with pytest.raises(ValueError, match="unique"):
        Algebra(P, (ext("a", 0, 1), poly("a", 0, 2)))
    with pytest.raises(ValueError, match="length mismatch"):
        PoincareSeries(0, 3, (1, 0, 1))


def test_generators_and_series_compare_by_value():
    assert poly("x", 0, 2) == poly("x", 0, 2)
    assert hash(poly("x", 0, 2)) == hash(poly("x", 0, 2))
    assert trunc("x", 0, 2, 3) != trunc("x", 0, 2, 4)
    assert poly("x", 0, 2) != divided("x", 0, 2)
    series = PoincareSeries(0, 2, (1, 0, 1))
    assert series == PoincareSeries.from_counts(0, 2, {0: 1, 2: 1})
    assert hash(series) == hash(PoincareSeries(0, 2, (1, 0, 1)))
    assert series != PoincareSeries(1, 3, (1, 0, 1))


def test_algebra_equality_ignores_the_slot_tables():
    # an even exterior generator normalizes to truncated height 2, and the
    # algebra equals one built that way; the derived tables do not compare
    alg = Algebra(P, (ext("x", 0, 2), poly("y", 0, 4)))
    same = Algebra(P, (trunc("x", 0, 2, 2), poly("y", 0, 4)))
    assert alg.gens[0] == trunc("x", 0, 2, 2)
    assert alg == same and hash(alg) == hash(same)
    same.slot_of, same.caps = {}, ()
    assert alg == same and hash(alg) == hash(same)
    assert alg != Algebra(7, alg.gens)
    assert alg != Algebra(P, alg.gens[::-1])


def test_hashing_an_algebra_reads_each_generator_value_once_made(monkeypatch):
    # a generator's value tuple is made when it is built: hashing and
    # comparing algebras, as a dict or cache keyed by one does, recomputes
    # none
    alg = Algebra(P, (ext("x", 0, 3), poly("y", 0, 4), trunc("z", 0, 2, 3)))
    same = Algebra(P, alg.gens)
    calls = []
    honest = Generator._value

    def counted(self):
        calls.append(self.name)
        return honest(self)

    monkeypatch.setattr(Generator, "_value", counted)
    assert hash(alg) == hash(same) and alg == same
    assert {alg: 1}[same] == 1 and repr(alg) == repr(same)
    assert calls == []
    assert ext("w", 0, 2) == ext("w", 0, 2) and calls == ["w", "w"]
