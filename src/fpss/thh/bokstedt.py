"""Homology-of-THH spectral sequences for the four coefficient rings.

The starting page is Hochschild homology of the homology of the ring:
the homology algebra tensor an exterior algebra on suspensions of the
even generators tensor a divided power algebra on suspensions of the odd
ones.  One differential family of length p-1 sends gamma_j classes to the
next exterior suspension times gamma_(j-p), leaving truncated polynomial
algebras of height p.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from ..comodule import TAU_SETS, RingId
from ..graded import Algebra, Generator, Kind, Monomial
from ..specseq import DerivationRule, Region, verify_turn

# which suspended xi-classes survive to the last page
_SURVIVING_SXI = {
    RingId.HZP_MOD: (),
    RingId.HZ_LOCAL: (1,),
    RingId.ELL: (1, 2),
    RingId.ELL_MOD_P: (2,),
}


@lru_cache(maxsize=None)
def bokstedt_algebra(p: int, ring: RingId, top: int) -> Algebra:
    """Ambient algebra for the starting page, windowed by total degree."""
    gens: list[Generator] = []
    k = 1
    while 2 * (p ** k - 1) <= top:
        gens.append(Generator(f"bxi{k}", 0, 2 * (p ** k - 1), Kind.POLYNOMIAL))
        k += 1
    k = 0
    while 2 * p ** k - 1 <= top:
        if TAU_SETS[ring](k):
            gens.append(Generator(f"btau{k}", 0, 2 * p ** k - 1, Kind.EXTERIOR))
        k += 1
    k = 1
    while 2 * p ** k - 1 <= top:
        gens.append(Generator(f"sbxi{k}", 1, 2 * (p ** k - 1), Kind.EXTERIOR))
        k += 1
    k = 0
    while 2 * p ** k <= top:
        if TAU_SETS[ring](k):
            gens.append(Generator(f"sbtau{k}", 1, 2 * p ** k - 1, Kind.DIVIDED))
        k += 1
    return Algebra(p, tuple(gens))


class BokstedtPage:
    """Lazy page over the windowed ambient algebra, possibly filtered to the
    subalgebra that survives the differential."""

    __slots__ = ("label", "r", "algebra", "top", "_dead", "_divided")

    def __init__(self, label: str, r: int, algebra: Algebra, ring: RingId,
                 top: int, last: bool = False) -> None:
        self.label, self.r, self.algebra, self.top = label, r, algebra, top
        # on the last page: the sbxi slots that do not survive (any exponent
        # kills) and the divided slots (an exponent >= p kills)
        survivors = _SURVIVING_SXI[ring]
        gens = algebra.gens if last else ()
        self._dead = tuple(i for i, g in enumerate(gens) if g.name.startswith(
            "sbxi") and int(g.name[4:]) not in survivors)
        self._divided = algebra.divided_slots if last else ()

    def _keep(self, m: Monomial) -> bool:
        for i in self._dead:
            if m[i]:
                return False
        p = self.algebra.p
        for i in self._divided:
            if m[i] >= p:
                return False
        return True

    def basis_at(self, s: int, t: int) -> tuple[Monomial, ...]:
        """One bidegree, enumerated on its own: the oracle for iter_region."""
        monos = self.algebra.basis_in_bidegree(s, t)
        return tuple(m for m in monos if self._keep(m))

    def iter_region(self, region: Region) -> Iterable[Monomial]:
        # every generator has positive total degree, so one pass over the
        # total-degree window enumerates the whole region
        lo, hi, s_lo, s_hi = region
        s_hi = min(s_hi, self.top)
        by_total = self.algebra.basis_monomials_by_total(max(lo, 0), hi)
        for monos in by_total.values():
            for m in monos:
                if s_lo <= self.algebra.sdeg(m) <= s_hi and self._keep(m):
                    yield m


def bokstedt_e2_page(p: int, ring: RingId, top: int) -> BokstedtPage:
    alg = bokstedt_algebra(p, ring, top)
    return BokstedtPage(f"bokstedt:{ring.value}:start", 2, alg, ring, top)


def bokstedt_einf_page(p: int, ring: RingId, top: int) -> BokstedtPage:
    alg = bokstedt_algebra(p, ring, top)
    return BokstedtPage(f"bokstedt:{ring.value}:final", p, alg, ring, top,
                        last=True)


def bokstedt_rule(p: int, ring: RingId, top: int) -> DerivationRule:
    """The length p-1 differential: gamma_j of a suspended odd class maps to
    the next suspended even class times gamma_(j-p)."""
    alg = bokstedt_algebra(p, ring, top)
    power_rules = {}
    for g in (alg.gens[i] for i in alg.divided_slots):
        k = int(g.name[5:])
        target = f"sbxi{k + 1}"
        name = g.name

        def rule_fn(j: int, name=name, target=target) -> dict:
            if j < p:
                return {}
            try:
                return alg.elem(**{name: j - p, target: 1})
            except KeyError:
                raise ValueError(
                    f"window too small: {target} needed by the differential")

        power_rules[g.name] = rule_fn
    return DerivationRule(p - 1, f"bokstedt-d{p - 1}", {}, power_rules)


def bokstedt_run(p: int, ring: RingId, lo: int, hi: int):
    """Verify the one differential family against the final closed form."""
    e2 = bokstedt_e2_page(p, ring, hi + 1)
    einf = bokstedt_einf_page(p, ring, hi + 1)
    rule = bokstedt_rule(p, ring, hi + 1)
    region = Region(lo, hi, 0, hi + 1)
    return verify_turn(e2, rule, einf, region)
