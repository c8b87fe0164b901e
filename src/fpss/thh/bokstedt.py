"""Homology-of-THH spectral sequences for the four coefficient rings.

The starting page is Hochschild homology of the homology of the ring,
whose generators comodule.ring_generators lists: the homology algebra
tensor an exterior algebra on suspensions of the even generators tensor a
divided power algebra on suspensions of the odd ones.  One differential
family of length p-1 sends gamma_j classes to the next exterior
suspension times gamma_(j-p), leaving truncated polynomial algebras of
height p.  The turn is certified by factors in every degree
(_kunneth_certifies), with verify_turn as the fallback.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from ..comodule import RingId, ring_generators
from ..graded import Algebra, Generator, Kind, Monomial
from ..specseq import (Bidegree, DerivationRule, PageComparison, Region,
                       verify_turn)

# which suspended xi-classes survive to the last page
_SURVIVING_SXI = {
    RingId.HZP_MOD: (),
    RingId.HZ_LOCAL: (1,),
    RingId.ELL: (1, 2),
    RingId.ELL_MOD_P: (2,),
}


@lru_cache(maxsize=None)
def bokstedt_algebra(p: int, ring: RingId, top: int) -> Algebra:
    """Ambient algebra for the starting page, windowed by total degree: the
    ring generators, then the suspension sg, in bidegree (1, |g|), of each
    one of degree < top."""
    ring_gens = ring_generators(p, ring, top)
    return Algebra(p, ring_gens + tuple(
        Generator("s" + g.name, 1, g.t,
                  Kind.DIVIDED if g.odd else Kind.EXTERIOR)
        for g in ring_gens if g.total < top))


class BokstedtPage:
    """Lazy page over the windowed ambient algebra, possibly filtered to the
    subalgebra that survives the differential."""

    __slots__ = ("label", "algebra", "top", "_dead", "_divided")

    def __init__(self, label: str, algebra: Algebra, ring: RingId, top: int,
                 last: bool = False) -> None:
        self.label, self.algebra, self.top = label, algebra, top
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

    def iter_region(self, region: Region
                    ) -> Iterable[tuple[Bidegree, Monomial]]:
        # every generator has positive total degree, so one pass over the
        # total-degree window enumerates the whole region
        lo, hi, s_lo, s_hi = region
        s_hi = min(s_hi, self.top)
        sdeg = self.algebra.sdeg
        by_total = self.algebra.basis_monomials_by_total(max(lo, 0), hi)
        for d, monos in by_total.items():
            for m in monos:
                s = sdeg(m)
                if s_lo <= s <= s_hi and self._keep(m):
                    yield (s, d - s), m


def bokstedt_e2_page(p: int, ring: RingId, top: int) -> BokstedtPage:
    alg = bokstedt_algebra(p, ring, top)
    return BokstedtPage(f"bokstedt:{ring.value}:start", alg, ring, top)


def bokstedt_einf_page(p: int, ring: RingId, top: int) -> BokstedtPage:
    alg = bokstedt_algebra(p, ring, top)
    return BokstedtPage(f"bokstedt:{ring.value}:final", alg, ring, top,
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
    return _kunneth_certifies(e2, rule, einf, region) or \
        verify_turn(e2, rule, einf, region)


def _kunneth_certifies(e2, rule, einf, region: Region
                       ) -> PageComparison | None:
    """A passing comparison for a turn E2 = P (x) (x)_k F_k, F_k = Gamma(g_k)
    (x) E(x_k), in every degree; None when a precondition fails.

    The rule has power rules only, on even divided slots: d(g_k[j]) is 0
    for j < p and c g_k[j-p] x_k, c a unit, from p on, with a square-zero
    x_k per factor.  So H(F_k) = span{g_k[i] : i < p} and, by Kunneth over
    F_p, the closed form must kill exactly the x_k and cut each g_k at p.
    Read up to degree hi + 1, the rules reach every x_k of degree <= hi;
    the count is the slots of degree <= hi."""
    alg, hi, r = e2.algebra, region.hi, rule.r
    if not (isinstance(rule, DerivationRule) and not rule.values and set(
            rule.power_rules) <= {alg.gens[i].name for i in alg.divided_slots}
            and isinstance(e2, BokstedtPage) and isinstance(einf, BokstedtPage)
            and not (e2._dead or e2._divided) and einf.algebra == alg
            and min(e2.top, einf.top) > hi):
        return None
    p, caps, partners = alg.p, dict(alg.caps), set()
    for i in alg.divided_slots:
        g, xs = alg.gens[i], set()
        for j in range(1, (hi + 1) // g.total + 1):
            m = alg.mono(**{g.name: j})
            try:
                val = rule.apply(alg, m)
            except Exception:   # verify_turn raises or records it
                return None
            if (j < p) == bool(val) or len(val) > 1:
                return None     # zero exactly below p, one term from p on
            if val:
                v, = val
                rest = [k for k, e in enumerate(v) if e and k != i]
                s, t = alg.bidegree(m)
                if v[i] != j - p or len(rest) != 1 or caps.get(rest[0]) != 2 \
                        or alg.bidegree(v) != (s - r, t + r - 1):
                    return None
                xs.add(rest[0])
        if g.odd or len(xs) > 1 or xs & partners:
            return None
        partners |= xs
    low = {i for i, g in enumerate(alg.gens) if g.total <= hi}
    if set(einf._dead) & low != partners or einf._divided != alg.divided_slots:
        return None
    return PageComparison(f"{e2.label} -> {einf.label}", len(low), [])

