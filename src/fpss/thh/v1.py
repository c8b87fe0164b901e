"""Smash-product homotopy of THH: closed-form presentations and the
Poincare series identity that cross-checks them.

Freeness of the smash homology over the dual Steenrod algebra forces

    PS(E(tau0,tau1)) * PS(H THH(B)) = PS(A) * PS(V(1) THH(B))

coefficientwise.  The homology of THH is read from the final Bokstedt page
that `verify bokstedt` certifies, the V(1) side from the closed-form
presentations here, so the identity ties the two together.  A is
`comodule.astar_algebra`, the algebra the Bokstedt page takes its ring
generators from, and the module of ell/p is the towers' E2 module.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from ..comodule import RingId, astar_algebra
from ..graded import (Kind, PoincareSeries, poincare_series,
                      ps_from_degree_list, ps_one_generator)
from ..specseq import Region
from .bokstedt import bokstedt_einf_page
from .tate import module_triples, tate_ambient


class Presentation(NamedTuple):
    """Tensor of one-generator factors and a finite module-generator list."""

    label: str
    factors: tuple[tuple[str, Kind, int, int], ...]  # (name, kind, degree, height)
    module_degrees: tuple[int, ...] = (0,)

    def series(self, hi: int) -> PoincareSeries:
        out = ps_from_degree_list(self.module_degrees, 0, hi)
        for _, kind, degree, height in self.factors:
            out = out.mul(ps_one_generator(0, hi, degree, kind, height))
        return out


def v1_thh_presentation(p: int, ring: RingId) -> Presentation:
    """Closed-form module basis of the smash homotopy of THH."""
    e, pol = Kind.EXTERIOR, Kind.POLYNOMIAL
    if ring is RingId.HZP_MOD:
        return Presentation("thh:v1:zp", (
            ("eps0", e, 1, 0), ("eps1", e, 2 * p - 1, 0), ("mu0", pol, 2, 0)))
    if ring is RingId.HZ_LOCAL:
        return Presentation("thh:v1:zlocal", (
            ("eps1", e, 2 * p - 1, 0), ("lambda1", e, 2 * p - 1, 0),
            ("mu1", pol, 2 * p, 0)))
    if ring is RingId.ELL:
        return Presentation("thh:v1:ell", (
            ("lambda1", e, 2 * p - 1, 0), ("lambda2", e, 2 * p * p - 1, 0),
            ("mu2", pol, 2 * p * p, 0)))
    # the module of the towers' E2 page: eps0^d mu0^i and eps1b
    alg = tate_ambient(p, 0)
    return Presentation("thh:v1:ellmodp", (
        ("lambda2", e, 2 * p * p - 1, 0), ("mu2", pol, 2 * p * p, 0)),
        tuple(alg.total((0, 0, 0, 0) + trip) for trip in module_triples(p)))


def poincare_identity_check(p: int, ring: RingId, hi: int
                            ) -> tuple[bool, list[str]]:
    """Check the freeness identity coefficientwise up to the given degree."""
    v1_side = ps_from_degree_list([0, 1, 2 * p - 1, 2 * p], 0, hi)
    page = bokstedt_einf_page(p, ring, hi + 1)
    h_thh = PoincareSeries.from_counts(0, hi, Counter(
        s + t for (s, t), _ in page.iter_region(Region(0, hi, 0, hi))))
    lhs = v1_side.mul(h_thh)
    astar = poincare_series(astar_algebra(p, hi), 0, hi)
    rhs = astar.mul(v1_thh_presentation(p, ring).series(hi))
    problems = [
        f"degree {d}: smash side {a}, comodule side {b}"
        for (d, a), (_, b) in zip(lhs.items(), rhs.items()) if a != b
    ]
    return not problems, problems
