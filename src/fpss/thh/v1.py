"""Smash-product homotopy of THH: closed-form presentations and the
Poincare series identity that cross-checks them.

Freeness of the smash homology over the dual Steenrod algebra forces

    PS(E(tau0,tau1)) * PS(H THH(B)) = PS(A) * PS(V(1) THH(B))

coefficientwise; both sides are enumerated here from independent data.
"""
from __future__ import annotations

from typing import NamedTuple

from ..comodule import TAU_SETS, RingId
from ..graded import Kind, PoincareSeries, ps_from_degree_list, ps_one_generator


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
    return Presentation("thh:v1:ellmodp", (
        ("lambda2", e, 2 * p * p - 1, 0), ("mu2", pol, 2 * p * p, 0)),
        tuple(range(2 * p)))


def v1_thh_series(p: int, ring: RingId, hi: int) -> PoincareSeries:
    return v1_thh_presentation(p, ring).series(hi)


def _h_ring_series(p: int, ring: RingId, hi: int) -> PoincareSeries:
    """Dimensions of the mod p homology of the ring: every xi_k and the
    tau_k that TAU_SETS gives it.  The mod p ring has every tau_k, so its
    series is that of the dual Steenrod algebra A_*."""
    out = ps_from_degree_list([0], 0, hi)
    k = 1
    while 2 * (p ** k - 1) <= hi:
        out = out.mul(ps_one_generator(0, hi, 2 * (p ** k - 1), Kind.POLYNOMIAL))
        k += 1
    k = 0
    while 2 * p ** k - 1 <= hi:
        if TAU_SETS[ring](k):
            out = out.mul(ps_one_generator(0, hi, 2 * p ** k - 1, Kind.EXTERIOR))
        k += 1
    return out


def h_thh_series(p: int, ring: RingId, hi: int) -> PoincareSeries:
    """Dimensions of the mod p homology of THH(ring), from the closed form.

    For the mod p ring the answer is a free rank 2p module over the
    suspension-quotiented THH homology of the base ring, so the base-ring
    homology series enters, not the mod p one."""
    e, pol = Kind.EXTERIOR, Kind.POLYNOMIAL
    if ring is RingId.HZP_MOD:
        out = _h_ring_series(p, ring, hi)
        out = out.mul(ps_one_generator(0, hi, 2, pol))
    elif ring is RingId.HZ_LOCAL:
        out = _h_ring_series(p, ring, hi)
        out = out.mul(ps_one_generator(0, hi, 2 * p - 1, e))
        out = out.mul(ps_one_generator(0, hi, 2 * p, pol))
    elif ring is RingId.ELL:
        out = _h_ring_series(p, ring, hi)
        out = out.mul(ps_one_generator(0, hi, 2 * p - 1, e))
        out = out.mul(ps_one_generator(0, hi, 2 * p * p - 1, e))
        out = out.mul(ps_one_generator(0, hi, 2 * p * p, pol))
    else:
        out = _h_ring_series(p, RingId.ELL, hi)
        out = out.mul(ps_one_generator(0, hi, 2 * p * p - 1, e))
        out = out.mul(ps_one_generator(0, hi, 2 * p * p, pol))
        out = out.mul(ps_from_degree_list(range(2 * p), 0, hi))
    return out


def poincare_identity_check(p: int, ring: RingId, hi: int
                            ) -> tuple[bool, list[str]]:
    """Check the freeness identity coefficientwise up to the given degree."""
    v1_side = ps_from_degree_list([0, 1, 2 * p - 1, 2 * p], 0, hi)
    lhs = v1_side.mul(h_thh_series(p, ring, hi))
    astar = _h_ring_series(p, RingId.HZP_MOD, hi)
    rhs = astar.mul(v1_thh_series(p, ring, hi))
    problems = [
        f"degree {d}: smash side {a}, comodule side {b}"
        for (d, a), (_, b) in zip(lhs.items(), rhs.items()) if a != b
    ]
    return not problems, problems
