"""Dual Steenrod algebra coproduct and comodule primitivity certification.

The dual Steenrod algebra is presented on the conjugated generators bxi_k
(degree 2(p^k-1), polynomial) and btau_k (degree 2p^k-1, exterior), with

    psi(bxi_k)  = sum_{i+j=k} bxi_i (x) bxi_j^(p^i)
    psi(btau_k) = 1 (x) btau_k + sum_{i+j=k} btau_i (x) bxi_j^(p^i).

Coactions of the topological Hochschild homology rings and of the smash
factor E(tau0, tau1) are multiplicative extensions of per-generator tables.
The suspended-class values are fixed input data; everything verified here
(counitality, primitivity) is recomputed algebraically.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .graded import Algebra, Element, Generator, Kind, Monomial, inject_elem, tensor


class RingId(Enum):
    """The four coefficient rings whose THH enters the pipeline."""

    HZP_MOD = "zp"
    HZ_LOCAL = "zlocal"
    ELL = "ell"
    ELL_MOD_P = "ellmodp"

    @classmethod
    def parse(cls, text: str) -> "RingId":
        for r in cls:
            if r.value == text:
                return r
        raise ValueError(f"unknown ring id {text!r}")


# k -> whether the homology of the ring carries the class btau_k
TAU_SETS = {
    RingId.HZP_MOD: lambda k: True,
    RingId.HZ_LOCAL: lambda k: k >= 1,
    RingId.ELL: lambda k: k >= 2,
    RingId.ELL_MOD_P: lambda k: k == 0 or k >= 2,
}


def _xi_deg(p: int, k: int) -> int:
    return 2 * (p ** k - 1)


def _tau_deg(p: int, k: int) -> int:
    return 2 * p ** k - 1


@lru_cache(maxsize=None)
def astar_algebra(p: int, top_degree: int) -> Algebra:
    """Dual Steenrod algebra generators up to the given total degree."""
    gens: list[Generator] = []
    k = 1
    while _xi_deg(p, k) <= top_degree:
        gens.append(Generator(f"bxi{k}", 0, _xi_deg(p, k), Kind.POLYNOMIAL))
        k += 1
    k = 0
    while _tau_deg(p, k) <= top_degree:
        gens.append(Generator(f"btau{k}", 0, _tau_deg(p, k), Kind.EXTERIOR))
        k += 1
    return Algebra(p, tuple(gens))


def _gen_index_from_name(name: str) -> tuple[str, int]:
    head = name.rstrip("0123456789")
    return head, int(name[len(head):])


def coproduct_values(astar: Algebra) -> dict[str, Element]:
    """Coproduct of each generator, as an element of A (x) A."""
    p = astar.p
    tens, (inl, inr) = tensor(p, astar, astar, tags=("L.", "R."))
    out: dict[str, Element] = {}
    for g in astar.gens:
        head, k = _gen_index_from_name(g.name)
        terms: Element = {}
        if head == "bxi":
            for i in range(k + 1):
                j = k - i
                left = astar.unit_mono if i == 0 else astar.mono(**{f"bxi{i}": 1})
                right = astar.unit_mono if j == 0 else \
                    astar.mono(**{f"bxi{j}": p ** i})
                m = tens.mono_mul(inl(left), inr(right))
                assert m is not None
                terms = tens.add(terms, {m[0]: m[1]})
        else:
            terms = tens.add(terms, {inr(astar.mono(**{f"btau{k}": 1})): 1})
            for i in range(k + 1):
                j = k - i
                left = astar.mono(**{f"btau{i}": 1})
                right = astar.unit_mono if j == 0 else \
                    astar.mono(**{f"bxi{j}": p ** i})
                m = tens.mono_mul(inl(left), inr(right))
                assert m is not None
                terms = tens.add(terms, {m[0]: m[1]})
        out[g.name] = terms
    return out


class CoactionTable:
    """Comodule coaction data: target algebra, A (x) target container, and
    the coaction value of every target generator.

    The coaction extends multiplicatively; counitality of the table entries
    is checked on construction.
    """

    __slots__ = ("astar", "target", "tens", "inj_a", "inj_t", "values")

    def __init__(self, astar: Algebra, target: Algebra, tens: Algebra,
                 inj_a, inj_t, values: dict[str, Element]) -> None:
        self.astar, self.target, self.tens = astar, target, tens
        self.inj_a, self.inj_t, self.values = inj_a, inj_t, values
        for g in target.gens:
            if g.name not in values:
                raise ValueError(f"coaction table missing generator {g.name}")
            got = counit_left(self, values[g.name])
            want = {target.mono(**{g.name: 1}): 1}
            if got != want:
                raise ValueError(f"coaction of {g.name} is not counital")

    def include(self, x: Element) -> Element:
        return inject_elem(self.inj_t, x)


def make_table(astar: Algebra, target: Algebra,
               raw_values: dict[str, list[tuple[Element, Element]]]
               ) -> CoactionTable:
    """Build a table from per-generator lists of (A-part, target-part)."""
    tens, (inj_a, inj_t) = tensor(astar.p, astar, target, tags=("A.", ""))
    values: dict[str, Element] = {}
    for name, pairs in raw_values.items():
        acc: Element = {}
        for a_elem, t_elem in pairs:
            term = tens.mul(inject_elem(inj_a, a_elem), inject_elem(inj_t, t_elem))
            acc = tens.add(acc, term)
        values[name] = acc
    return CoactionTable(astar, target, tens, inj_a, inj_t, values)


def coaction(table: CoactionTable, x: Element) -> Element:
    """Multiplicative extension of the table to an arbitrary element."""
    out: Element = {}
    tens = table.tens
    for m, c in x.items():
        term: Element = {tens.unit_mono: 1}
        for g, e in zip(table.target.gens, m):
            if not e:
                continue
            if g.name not in table.values:
                raise KeyError(f"no coaction value for generator {g.name}")
            factor = table.values[g.name]
            for _ in range(e):
                term = tens.mul(term, factor)
        out = tens.add(out, tens.scale(term, c))
    return out


def is_primitive(table: CoactionTable, x: Element) -> bool:
    """True exactly when the coaction of x is 1 (x) x."""
    return coaction(table, x) == table.include(x)


def counit_left(table: CoactionTable, y: Element) -> Element:
    """Apply (augmentation (x) id) to an element of A (x) target."""
    na = len(table.astar.gens)
    out: Element = {}
    for m, c in y.items():
        if any(m[:na]):
            continue
        tm = m[na:]
        out[tm] = (out.get(tm, 0) + c) % table.tens.p
    return out


# -- concrete homology comodules ----------------------------------------


def thh_homology_algebra(p: int, ring: RingId) -> Algebra:
    """Generators of the mod p homology of THH of the given ring, truncated
    to the classes needed by the degree <= 4p^2 checks."""
    gens: list[Generator] = [
        Generator("bxi1", 0, _xi_deg(p, 1), Kind.POLYNOMIAL),
        Generator("bxi2", 0, _xi_deg(p, 2), Kind.POLYNOMIAL),
    ]
    for k in filter(TAU_SETS[ring], range(3)):
        gens.append(Generator(f"btau{k}", 0, _tau_deg(p, k), Kind.EXTERIOR))
    if ring is RingId.HZP_MOD:
        gens.append(Generator("sbtau0", 0, 2, Kind.POLYNOMIAL))
    elif ring is RingId.HZ_LOCAL:
        gens.append(Generator("sbxi1", 0, 2 * p - 1, Kind.EXTERIOR))
        gens.append(Generator("sbtau1", 0, 2 * p, Kind.POLYNOMIAL))
    elif ring is RingId.ELL:
        gens.append(Generator("sbxi1", 0, 2 * p - 1, Kind.EXTERIOR))
        gens.append(Generator("sbxi2", 0, 2 * p * p - 1, Kind.EXTERIOR))
        gens.append(Generator("sbtau2", 0, 2 * p * p, Kind.POLYNOMIAL))
    else:
        gens.append(Generator("sbxi2", 0, 2 * p * p - 1, Kind.EXTERIOR))
        gens.append(Generator("sbtau2", 0, 2 * p * p, Kind.POLYNOMIAL))
        gens.append(Generator("sbtau0", 0, 2, Kind.TRUNCATED, p))
        gens.append(Generator("y", 0, 2 * p - 1, Kind.EXTERIOR))
    return Algebra(p, tuple(gens))


def thh_coaction_table(p: int, ring: RingId) -> CoactionTable:
    """Coaction on the THH homology: ring generators coact by the restricted
    coproduct, suspended classes by their fixed table values."""
    astar = astar_algebra(p, 4 * p * p)
    target = thh_homology_algebra(p, ring)
    psi = coproduct_values(astar)
    na = len(astar.gens)
    raw: dict[str, list[tuple[Element, Element]]] = {}
    for g in target.gens:
        if g.name.startswith("bxi") or g.name.startswith("btau"):
            pairs = []
            for m, c in psi[g.name].items():
                ml, mr = m[:na], m[na:]
                pairs.append(({ml: c}, _transport(astar, target, mr)))
            raw[g.name] = pairs
        elif g.name in ("sbxi1", "sbxi2", "sbtau0"):
            raw[g.name] = [({astar.unit_mono: 1}, target.elem(**{g.name: 1}))]
        elif g.name == "sbtau1":
            raw[g.name] = [
                ({astar.unit_mono: 1}, target.elem(sbtau1=1)),
                (astar.elem(btau0=1), target.elem(sbxi1=1)),
            ]
        elif g.name == "sbtau2":
            raw[g.name] = [
                ({astar.unit_mono: 1}, target.elem(sbtau2=1)),
                (astar.elem(btau0=1), target.elem(sbxi2=1)),
            ]
        elif g.name == "y":
            raw[g.name] = [
                ({astar.unit_mono: 1}, target.elem(y=1)),
                (astar.elem(btau0=1), target.elem(sbtau0=p - 1)),
                (astar.elem(btau0=1, coeff=-1), target.elem(bxi1=1)),
                (astar.elem(btau1=1, coeff=-1), target.unit()),
            ]
        else:
            raise AssertionError(g.name)
    return make_table(astar, target, raw)


def _transport(src: Algebra, dst: Algebra, m: Monomial) -> Element:
    exps = {}
    for g, e in zip(src.gens, m):
        if e:
            exps[g.name] = e
    return {dst.mono(**exps): 1}


def v1_homology_algebra(p: int) -> Algebra:
    return Algebra(p, (
        Generator("tau0", 0, 1, Kind.EXTERIOR),
        Generator("tau1", 0, 2 * p - 1, Kind.EXTERIOR),
    ))


def v1_raw_coaction(p: int, astar: Algebra, target: Algebra
                    ) -> dict[str, list[tuple[Element, Element]]]:
    """Coaction of E(tau0, tau1); the left factors are the unconjugated
    generators written in the conjugated basis of A."""
    return {
        "tau0": [
            ({astar.unit_mono: 1}, target.elem(tau0=1)),
            (astar.elem(btau0=1, coeff=-1), target.unit()),
        ],
        "tau1": [
            ({astar.unit_mono: 1}, target.elem(tau1=1)),
            (astar.elem(bxi1=1, coeff=-1), target.elem(tau0=1)),
            (astar.add(astar.elem(bxi1=1, btau0=1), astar.elem(btau1=1, coeff=-1)),
             target.unit()),
        ],
    }


@lru_cache(maxsize=None)
def v1_smash_thh_table(p: int, ring: RingId) -> CoactionTable:
    """Diagonal coaction on E(tau0,tau1) (x) H(THH(ring))."""
    astar = astar_algebra(p, 4 * p * p)
    v1 = v1_homology_algebra(p)
    thh = thh_homology_algebra(p, ring)
    combined, (iv, it) = tensor(p, v1, thh)
    raw: dict[str, list[tuple[Element, Element]]] = {}
    for name, pairs in v1_raw_coaction(p, astar, v1).items():
        raw[name] = [(a, inject_elem(iv, t)) for a, t in pairs]
    thh_table = thh_coaction_table(p, ring)
    na = len(astar.gens)
    for g in thh.gens:
        pairs = []
        for m, c in thh_table.values[g.name].items():
            ma, mt = m[:na], m[na:]
            pairs.append(({ma: c}, {it(mt): 1}))
        raw[g.name] = pairs
    return make_table(astar, combined, raw)


def smash_class(table: CoactionTable, terms: list[tuple[int, dict, dict]]) -> Element:
    """Element of E(tau0,tau1) (x) H(THH): list of (coeff, v-exps, thh-exps)."""
    alg = table.target
    out: Element = {}
    for coeff, v_exps, t_exps in terms:
        exps = dict(v_exps)
        exps.update(t_exps)
        out = alg.add(out, alg.elem(coeff, **exps))
    return out


def eq_classes(p: int, ring: RingId) -> dict[str, Element]:
    """The named primitive classes in V(1) smash THH(ring), where defined."""
    table = v1_smash_thh_table(p, ring)
    names = {g.name for g in thh_homology_algebra(p, ring).gens}
    out: dict[str, Element] = {}

    def put(label: str, terms):
        out[label] = smash_class(table, terms)

    if "btau0" in names:
        put("eps0", [(1, {}, {"btau0": 1}), (1, {"tau0": 1}, {})])
    if "btau1" in names:
        put("eps1", [(1, {}, {"btau1": 1}), (1, {"tau0": 1}, {"bxi1": 1}),
                     (1, {"tau1": 1}, {})])
    if "sbxi1" in names:
        put("lambda1", [(1, {}, {"sbxi1": 1})])
    if "sbxi2" in names:
        put("lambda2", [(1, {}, {"sbxi2": 1})])
    if "sbtau0" in names:
        put("mu0", [(1, {}, {"sbtau0": 1})])
    if "sbtau1" in names:
        put("mu1", [(1, {}, {"sbtau1": 1}), (1, {"tau0": 1}, {"sbxi1": 1})])
    if "sbtau2" in names:
        put("mu2", [(1, {}, {"sbtau2": 1}), (1, {"tau0": 1}, {"sbxi2": 1})])
    if "y" in names:
        put("eps1bar", [(1, {}, {"y": 1}),
                        (1, {"tau0": 1}, {"sbtau0": p - 1}),
                        (-1, {"tau0": 1}, {"bxi1": 1}),
                        (-1, {"tau1": 1}, {})])
    return out


def primitive_lift_coefficients(p: int) -> list[int]:
    """Coefficients a for which the candidate lift of btau0*(sbtau0)^(p-1)
    with btau1-coefficient a is comodule primitive, in V(1) smash THH(Z/p).

    The unique answer must be a = p-1, pinning the sign in the lifted class.
    """
    table = v1_smash_thh_table(p, RingId.HZP_MOD)
    winners = []
    for a in range(p):
        cls = smash_class(table, [
            (1, {}, {"btau0": 1, "sbtau0": p - 1}),
            (a, {}, {"btau1": 1}),
            (1, {"tau0": 1}, {"sbtau0": p - 1}),
            (-1, {"tau0": 1}, {"bxi1": 1}),
            (-1, {"tau1": 1}, {}),
        ])
        if is_primitive(table, cls):
            winners.append(a)
    return winners
