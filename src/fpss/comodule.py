"""Dual Steenrod algebra coproduct and comodule primitivity certification.

The dual Steenrod algebra is presented on the conjugated generators bxi_k
(degree 2(p^k-1), polynomial) and btau_k (degree 2p^k-1, exterior), with

    psi(bxi_k)  = sum_{i+j=k} bxi_i (x) bxi_j^(p^i)
    psi(btau_k) = 1 (x) btau_k + sum_{i+j=k} btau_i (x) bxi_j^(p^i).

The homology of each coefficient ring is the sub-algebra of A_* on all
the bxi_k and the btau_k that TAU_SETS keeps (ring_generators); the
Bokstedt pages and the smash homology below both take it from there.

The coaction on H_*(V(1) smash THH(ring)) = E(tau0, tau1) (x) H_*(THH(ring))
is one per-generator table over that target, extended multiplicatively.
The ring generators coact by the coproduct; the values of tau0, tau1 and
the suspended classes are fixed input data.  Everything verified here
(counitality, primitivity) is recomputed algebraically.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .graded import Algebra, Element, Generator, Kind, Monomial


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


def _astar_generators(p: int, top_degree: int) -> tuple[Generator, ...]:
    """Dual Steenrod algebra generators up to the given total degree: bxi_k
    (k >= 1) in degree 2p^k - 2, then btau_k (k >= 0) in 2p^k - 1."""
    gens: list[Generator] = []
    for head, k, drop, kind in (("bxi", 1, 2, Kind.POLYNOMIAL),
                                ("btau", 0, 1, Kind.EXTERIOR)):
        while 2 * p ** k - drop <= top_degree:
            gens.append(Generator(f"{head}{k}", 0, 2 * p ** k - drop, kind))
            k += 1
    return tuple(gens)


@lru_cache(maxsize=None)
def astar_algebra(p: int, top_degree: int) -> Algebra:
    """The dual Steenrod algebra up to the given total degree."""
    return Algebra(p, _astar_generators(p, top_degree))


def ring_generators(p: int, ring: RingId, top: int) -> tuple[Generator, ...]:
    """H_*(ring) in A_*: the generators of A_* up to degree top that
    TAU_SETS[ring] keeps, in their order."""
    keep = TAU_SETS[ring]
    return tuple(g for g in _astar_generators(p, top)
                 if g.name.startswith("bxi") or keep(int(g.name[4:])))


def coproduct_values(astar: Algebra) -> dict[str, Element]:
    """Coproduct of each generator, as an element of A (x) A: the term
    a (x) b is the monomial a + b, with coefficient 1."""
    p = astar.p

    def power(name: str, e: int) -> Monomial:    # bxi0 is the unit
        return astar.unit_mono if name == "bxi0" else astar.mono(**{name: e})

    out: dict[str, Element] = {}
    for g in astar.gens:
        head = g.name.rstrip("0123456789")
        k = int(g.name[len(head):])
        terms = [] if head == "bxi" else [astar.unit_mono + power(g.name, 1)]
        terms += [power(f"{head}{i}", 1) + power(f"bxi{k - i}", p ** i)
                  for i in range(k + 1)]
        out[g.name] = dict.fromkeys(terms, 1)
    return out


class CoactionTable:
    """Comodule coaction data: target algebra, A (x) target container, and
    the coaction value of every target generator.

    A (x) target has A's generators first, then the target's, so a (x) t
    is the concatenated monomial a + t, with no Koszul sign.  The coaction
    extends multiplicatively; counitality of the table entries is checked
    on construction.
    """

    __slots__ = ("astar", "target", "tens", "values")

    def __init__(self, astar: Algebra, target: Algebra, tens: Algebra,
                 values: dict[str, Element]) -> None:
        self.astar, self.target, self.tens = astar, target, tens
        self.values = values
        for g in target.gens:
            if g.name not in values:
                raise ValueError(f"coaction table missing generator {g.name}")
            got = counit_left(self, values[g.name])
            want = {target.mono(**{g.name: 1}): 1}
            if got != want:
                raise ValueError(f"coaction of {g.name} is not counital")

    def include(self, x: Element) -> Element:
        """1 (x) x."""
        return {self.astar.unit_mono + m: c for m, c in x.items()}


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


def smash_generators(p: int, ring: RingId) -> tuple[Generator, ...]:
    """Generators of E(tau0, tau1) (x) H_*(THH(ring)), the homology of THH
    truncated to the classes needed by the degree <= 4p^2 checks."""
    gens: list[Generator] = [
        Generator("tau0", 0, 1, Kind.EXTERIOR),
        Generator("tau1", 0, 2 * p - 1, Kind.EXTERIOR),
        *ring_generators(p, ring, 4 * p * p),
    ]
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
    return tuple(gens)


@lru_cache(maxsize=None)
def v1_smash_thh_table(p: int, ring: RingId) -> CoactionTable:
    """Diagonal coaction on E(tau0, tau1) (x) H_*(THH(ring)).

    A ring generator bxi_k or btau_k coacts by the coproduct, its right
    factors read in the target.  Any other generator g coacts by 1 (x) g
    plus fixed terms (coefficient, A exponents, target exponents): tau0 and
    tau1 by the unconjugated generators written in the conjugated basis of
    A, the suspended classes by their table values.
    """
    astar = astar_algebra(p, 4 * p * p)
    target = Algebra(p, smash_generators(p, ring))
    tens = Algebra(p, tuple(
        Generator("A." + g.name, g.s, g.t, g.kind, g.height)
        for g in astar.gens) + target.gens)
    fixed = {
        "tau0": [(-1, {"btau0": 1}, {})],
        "tau1": [(-1, {"bxi1": 1}, {"tau0": 1}),
                 (1, {"bxi1": 1, "btau0": 1}, {}), (-1, {"btau1": 1}, {})],
        "sbtau1": [(1, {"btau0": 1}, {"sbxi1": 1})],
        "sbtau2": [(1, {"btau0": 1}, {"sbxi2": 1})],
        "y": [(1, {"btau0": 1}, {"sbtau0": p - 1}),
              (-1, {"btau0": 1}, {"bxi1": 1}), (-1, {"btau1": 1}, {})],
    }
    psi, na = coproduct_values(astar), len(astar.gens)
    values: dict[str, Element] = {}
    for g in target.gens:
        if g.name in psi:
            terms = []
            for m, c in psi[g.name].items():
                right = {h.name: e for h, e in zip(astar.gens, m[na:]) if e}
                terms.append((c, m[:na], target.mono(**right)))
        else:
            terms = [(1, astar.unit_mono, target.mono(**{g.name: 1}))] + [
                (c, astar.mono(**a), target.mono(**t))
                for c, a, t in fixed.get(g.name, ())]
        value: Element = {}
        for c, ma, mt in terms:
            value = tens.add(value, {ma + mt: c})
        values[g.name] = value
    return CoactionTable(astar, target, tens, values)


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
    names = table.target.slot_of
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
